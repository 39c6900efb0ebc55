module Fp = Fsync_hash.Fingerprint
module Error = Fsync_core.Error
module Deflate = Fsync_compress.Deflate
module Meta_wire = Fsync_collection.Meta_wire
module Scope = Fsync_obs.Scope
module Trace_id = Fsync_obs.Trace_id

module Store = Fsync_store.Store

type job = Serve_file.job = {
  path : string;
  content : string;
  fp : Fp.t;
  has_old : bool;
}

type push_file = {
  p_path : string;
  p_len : int;
  p_fp : Fp.t;
  p_manifest : (Fp.t * int) list;
  p_needed : bool array;
  mutable p_retried : bool;
}

type phase =
  | Expect_hello
  | Expect_announce
  | Transfer of Batch.Serve.t
  | Expect_push
  | Expect_chunks of push_file
  | Done
  | Failed

type t = {
  config : Msg.sync_config;
  files : (string * string) list;
  by_path : (string, string) Hashtbl.t; (* [files], keyed by path *)
  root : Fp.t;
  cache : Sigcache.t;
  store : Store.t option;
  publish : path:string -> content:string -> unit;
  scope : Scope.t; (* daemon-wide counters, shared across sessions *)
  trace : Scope.t; (* this session's private trace registry, if any *)
  mutable trace_id : Trace_id.t option; (* adopted from Hello, or minted *)
  mutable span_session : int; (* root "session" span; -1 = not open *)
  mutable span_phase : (string * int) option; (* current phase span *)
  mutable phase : phase;
  mutable pending_resume : (Fp.t * string) option; (* Resume before Announce *)
  mutable resumed_jobs : int;
  mutable pushed : (string * string) list; (* rev *)
  counters : Serve_file.counters;
  mutable pushed_files : int;
  mutable chunks_uploaded : int;
  mutable chunks_deduped : int;
}

let create ?(config = Msg.default_sync_config) ?(scope = Scope.disabled)
    ?(trace = Scope.disabled) ?store
    ?(publish = fun ~path:_ ~content:_ -> ()) ~cache files =
  let config = Msg.validate_sync_config config in
  let by_path = Hashtbl.create (List.length files) in
  List.iter (fun (p, c) -> Hashtbl.replace by_path p c) files;
  {
    config;
    files;
    by_path;
    root = Meta_wire.collection_root files;
    cache;
    store;
    publish;
    scope;
    trace;
    trace_id = None;
    span_session = -1;
    span_phase = None;
    phase = Expect_hello;
    pending_resume = None;
    resumed_jobs = 0;
    pushed = [];
    counters = Serve_file.fresh_counters ();
    pushed_files = 0;
    chunks_uploaded = 0;
    chunks_deduped = 0;
  }

let finished t = match t.phase with Done -> true | _ -> false

let failed t = match t.phase with Failed -> true | _ -> false

let trace_id t = t.trace_id

(* Live label for [fsync top] / the status doc — what the session is
   waiting on right now, not a span name. *)
let phase_name t =
  match t.phase with
  | Expect_hello -> "hello"
  | Expect_announce -> "announce"
  | Transfer b -> if Batch.Serve.hashing b then "pull:rounds" else "pull:ack"
  | Expect_push -> "push:idle"
  | Expect_chunks _ -> "push:chunks"
  | Done -> "done"
  | Failed -> "failed"

(* ---- trace spans: one root "session" span, one phase:* child ----

   The phase span stays open across the select-loop waits between
   messages, so the breakdown accounts for wire latency too and the
   phase spans tile the session span (the ≥95% coverage check in
   [fsync trace report] depends on this). *)

let close_phase t =
  (match t.span_phase with
  | Some (_, id) -> Scope.leave t.trace id
  | None -> ());
  t.span_phase <- None

let set_phase t name =
  match t.span_phase with
  | Some (cur, _) when String.equal cur name -> ()
  | _ ->
      close_phase t;
      t.span_phase <- Some (name, Scope.enter t.trace name)

let end_phases t =
  close_phase t;
  if t.span_session >= 0 then begin
    Scope.leave t.trace t.span_session;
    t.span_session <- -1
  end

let sync_phase t =
  match t.phase with
  | Expect_hello -> ()
  | Expect_announce -> set_phase t "phase:metadata"
  | Transfer b ->
      set_phase t
        (if Batch.Serve.hashing b then "phase:hash_rounds"
         else "phase:literals")
  | Expect_push | Expect_chunks _ -> set_phase t "phase:push"
  | Done | Failed -> end_phases t

(* A full payload whose manifest is on record and whose chunks are all
   resident is assembled out of the store instead of the in-memory copy
   — the paper's "popular file costs one upload" made visible: the
   probe counts [store_hits], and the end-to-end fingerprint check keeps
   a corrupt store from ever reaching a client. *)
let store_full_content t job =
  match t.store with
  | None -> None
  | Some store ->
      Scope.timed t.trace "store:io" @@ fun () -> (
      match Store.manifest store ~path:job.path with
      | None -> None
      | Some entries ->
          let buf = Buffer.create (String.length job.content) in
          let ok =
            List.for_all
              (fun (cfp, _) ->
                Store.mem store cfp
                &&
                match Store.get store cfp with
                | Some c ->
                    Buffer.add_string buf c;
                    true
                | None -> false)
              entries
          in
          if ok && Fp.equal (Fp.of_string (Buffer.contents buf)) job.fp
          then begin
            Scope.incr t.scope "store_full_served";
            Some (Buffer.contents buf)
          end
          else None)

(* Per-file serving is {!Serve_file} — shared with the swarm gossip
   exchange; the daemon contributes the store-assembled [Full] payloads
   and its fallback counter. *)
let open_job t job =
  Serve_file.create
    ~full_content:(fun job -> store_full_content t job)
    ~on_fallback:(fun () -> Scope.incr t.scope "server_full_fallbacks")
    ~who:"Session" ~config:t.config ~cache:t.cache ~counters:t.counters job

let close_if_complete t batch =
  if Batch.Serve.complete batch then begin
    t.phase <- Done;
    [ Msg.Bye { root = t.root } ]
  end
  else []

(* A resume bitmap from an interrupted session against the same root
   marks jobs whose verified content the client already holds: drop
   them instead of re-transferring.  The Bye root check still covers
   the skipped files, so a stale claim fails typed.  A mismatched root
   or bitmap length means the world changed under the client — ignore
   the token and serve everything. *)
let drop_resumed t ~announced ~new_jobs jobs =
  match t.pending_resume with
  | Some (rroot, bitmap) when Fp.equal rroot t.root ->
      let n_announced = List.length announced in
      let count = n_announced + List.length new_jobs in
      if Int.equal (String.length bitmap) ((count + 7) / 8) then begin
        let flags = Msg.decode_bitmap ~count bitmap in
        let done_paths = Hashtbl.create 8 in
        List.iteri
          (fun i (p, _) -> if flags.(i) then Hashtbl.replace done_paths p ())
          announced;
        List.iteri
          (fun i j ->
            if flags.(n_announced + i) then
              Hashtbl.replace done_paths j.path ())
          new_jobs;
        let kept =
          List.filter (fun (_, j) -> not (Hashtbl.mem done_paths j.path)) jobs
        in
        t.resumed_jobs <- List.length jobs - List.length kept;
        if t.resumed_jobs > 0 then begin
          Scope.incr t.scope "srv_session_resumes";
          Scope.add t.scope "resume_files_skipped" t.resumed_jobs
        end;
        kept
      end
      else jobs
  | Some _ | None -> jobs

(* The verdict fixes the slot space both ends share: one slot per
   announced path it marks as not up to date (announce order; a path
   gone from the collection keeps its slot but never opens), then one
   per new path (path order).  Every job opens at once and runs in
   lockstep ({!Batch}). *)
let on_announce t body =
  let announced = Meta_wire.decode_announce body in
  let is_announced = Hashtbl.create (List.length announced) in
  let slot = ref 0 in
  let changed = ref [] in
  let bits =
    List.map
      (fun (path, client_fp) ->
        Hashtbl.replace is_announced path ();
        match Hashtbl.find_opt t.by_path path with
        | None ->
            (* gone from the collection: the client deletes it *)
            incr slot;
            false
        | Some content ->
            let fp = Fp.of_string content in
            if Fp.equal fp client_fp then true
            else begin
              changed :=
                (!slot, { path; content; fp; has_old = true }) :: !changed;
              incr slot;
              false
            end)
      announced
  in
  let new_jobs =
    List.sort
      (fun a b -> String.compare a.path b.path)
      (List.filter_map
         (fun (path, content) ->
           if Hashtbl.mem is_announced path then None
           else
             Some { path; content; fp = Fp.of_string content; has_old = false })
         t.files)
  in
  let verdict =
    Meta_wire.encode_verdict ~bits
      ~new_paths:(List.map (fun j -> j.path) new_jobs)
  in
  let jobs =
    List.rev_append !changed (List.mapi (fun i j -> (!slot + i, j)) new_jobs)
  in
  let jobs = drop_resumed t ~announced ~new_jobs jobs in
  t.pending_resume <- None;
  let batch =
    Batch.Serve.create ~who:"Session" ~make:(open_job t)
      ~slots:(!slot + List.length new_jobs)
      jobs
  in
  t.phase <- Transfer batch;
  let frames = Batch.Serve.start batch in
  (Msg.Verdict verdict :: frames) @ close_if_complete t batch

(* ---- push direction: the client uploads, the store deduplicates ---- *)

let on_push_begin t ~path ~file_len ~fp ~manifest =
  let total = List.fold_left (fun acc (_, l) -> acc + l) 0 manifest in
  if not (Int.equal total file_len) then
    Error.malformed "Session: push manifest for %s sums to %d, file is %d"
      path total file_len;
  (* Residency decides the bitmap: without a store every chunk is
     needed, with one only the chunks nobody ever uploaded are. *)
  let needed =
    match t.store with
    | None -> List.map (fun _ -> true) manifest
    | Some store -> List.map (fun (cfp, _) -> not (Store.mem store cfp)) manifest
  in
  List.iter
    (fun n ->
      if n then t.chunks_uploaded <- t.chunks_uploaded + 1
      else t.chunks_deduped <- t.chunks_deduped + 1)
    needed;
  t.phase <-
    Expect_chunks
      {
        p_path = path;
        p_len = file_len;
        p_fp = fp;
        p_manifest = manifest;
        p_needed = Array.of_list needed;
        p_retried = false;
      };
  [ Msg.Chunk_need (Msg.encode_bitmap needed) ]

(* The store let the assembly down (chunk lost or corrupted between the
   bitmap and the read): ask the client for everything once, then give
   up with a typed verification failure. *)
let retry_or_fail t pf what =
  if pf.p_retried then
    Error.fail
      (Error.Verification_failed
         (Printf.sprintf "Session: push of %s failed after store retry (%s)"
            pf.p_path what))
  else begin
    pf.p_retried <- true;
    Array.fill pf.p_needed 0 (Array.length pf.p_needed) true;
    Scope.incr t.scope "push_store_retries";
    [ Msg.Chunk_need (Msg.encode_bitmap (Array.to_list pf.p_needed)) ]
  end

let on_chunk_data t pf z =
  let literals = Deflate.decompress z in
  let buf = Buffer.create pf.p_len in
  let received = ref [] in
  let cursor = ref 0 in
  let store_miss = ref None in
  List.iteri
    (fun i (cfp, len) ->
      match !store_miss with
      | Some _ -> ()
      | None ->
          if pf.p_needed.(i) then begin
            if !cursor + len > String.length literals then
              Error.truncated
                "Session: push literals for %s end inside chunk %d" pf.p_path i;
            let chunk = String.sub literals !cursor len in
            cursor := !cursor + len;
            (* An uploaded chunk that does not hash to its manifest key
               is the client's fault — typed teardown, no retry. *)
            if not (Fp.equal (Fp.of_string chunk) cfp) then
              Error.malformed "Session: pushed chunk %d of %s fails its hash"
                i pf.p_path;
            received := chunk :: !received;
            Buffer.add_string buf chunk
          end
          else
            match t.store with
            | None -> store_miss := Some "no store behind a dedup bitmap"
            | Some store -> (
                match Store.get store cfp with
                | Some chunk when Fp.equal (Fp.of_string chunk) cfp ->
                    Buffer.add_string buf chunk
                | Some _ ->
                    store_miss :=
                      Some (Printf.sprintf "chunk %s corrupt" (Fp.to_hex cfp))
                | None ->
                    store_miss :=
                      Some (Printf.sprintf "chunk %s vanished" (Fp.to_hex cfp))))
    pf.p_manifest;
  match !store_miss with
  | Some what -> retry_or_fail t pf what
  | None ->
      if not (Int.equal !cursor (String.length literals)) then
        Error.malformed "Session: %d stray literal bytes after push of %s"
          (String.length literals - !cursor)
          pf.p_path;
      let content = Buffer.contents buf in
      if not (Fp.equal (Fp.of_string content) pf.p_fp) then
        retry_or_fail t pf "assembled file fails its fingerprint"
      else begin
        (match t.store with
        | Some store ->
            Scope.timed t.trace "store:io" (fun () ->
                List.iter
                  (fun chunk -> ignore (Store.put store chunk))
                  (List.rev !received);
                Store.set_manifest store ~path:pf.p_path
                  (List.map fst pf.p_manifest))
        | None -> ());
        t.publish ~path:pf.p_path ~content;
        t.pushed <- (pf.p_path, content) :: t.pushed;
        t.pushed_files <- t.pushed_files + 1;
        Scope.incr t.scope "push_files";
        t.phase <- Expect_push;
        [ Msg.File_ack [ (0, true) ] ]
      end

let dispatch t msg =
  match (t.phase, msg) with
  | Expect_hello, Msg.Hello { version; trace; swarm = _ } ->
      Handshake.check_version ~who:"Session" version;
      (* Adopt the client's trace id, or mint one for a client that
         sent none — the event log wants every session identifiable
         either way. *)
      let id = Handshake.adopt_trace trace in
      t.trace_id <- Some id;
      (match Scope.registry t.trace with
      | Some reg ->
          Fsync_obs.Registry.set_trace reg ~trace:(Trace_id.to_hex id)
            ~role:"server"
      | None -> ());
      t.span_session <- Scope.enter t.trace "session";
      t.phase <- Expect_announce;
      [
        Handshake.welcome ~client_version:version
          ~file_count:(List.length t.files) ~root:t.root ~config:t.config;
      ]
  | Expect_announce, Msg.Resume { root; bitmap } ->
      t.pending_resume <- Some (root, bitmap);
      []
  | Expect_announce, Msg.Announce body -> on_announce t body
  | Transfer batch, ((Msg.Matched _ | Msg.File_ack _) as m) ->
      let replies = Batch.Serve.on_message batch m in
      replies @ close_if_complete t batch
  | ( (Expect_announce | Expect_push),
      Msg.Push_begin { path; file_len; fp; manifest } ) ->
      on_push_begin t ~path ~file_len ~fp ~manifest
  | Expect_chunks pf, Msg.Chunk_data z -> on_chunk_data t pf z
  | (Expect_announce | Expect_push), Msg.Push_done ->
      t.phase <- Done;
      [ Msg.Bye { root = Meta_wire.collection_root (List.rev t.pushed) } ]
  | _, Msg.Error_msg m ->
      Error.fail
        (Error.Disconnected (Printf.sprintf "Session: peer error: %s" m))
  | _, other -> Error.malformed "Session: unexpected %s" (Msg.label other)

let on_message t raw =
  let replies =
    try
      let replies = dispatch t (Msg.decode ~config:t.config raw) in
      sync_phase t;
      replies
    with e ->
      (* Any error is a teardown: fail the machine and close the spans
         so a partial trace still exports well-nested. *)
      t.phase <- Failed;
      end_phases t;
      raise e
  in
  List.map (fun m -> Msg.encode ~config:t.config m) replies

type stats = {
  hashes_total : int;
  hashes_cached : int;
  full_fallbacks : int;
  rounds : int;
  pushed_files : int;
  chunks_uploaded : int;
  chunks_deduped : int;
  resumed_jobs : int;
}

let stats (t : t) =
  {
    hashes_total = t.counters.hashes_total;
    hashes_cached = t.counters.hashes_cached;
    full_fallbacks = t.counters.full_fallbacks;
    rounds = t.counters.rounds;
    pushed_files = t.pushed_files;
    chunks_uploaded = t.chunks_uploaded;
    chunks_deduped = t.chunks_deduped;
    resumed_jobs = t.resumed_jobs;
  }
