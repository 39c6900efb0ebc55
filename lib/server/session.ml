module Fp = Fsync_hash.Fingerprint
module Error = Fsync_core.Error
module Deflate = Fsync_compress.Deflate
module Varint = Fsync_util.Varint
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
  p_slot : int;
  p_path : string;
  p_fp : Fp.t;
  p_manifest : (Fp.t * int) list;
  p_needed : bool array;
  mutable p_retried : bool;
}

(* An upload in lockstep (fsyncd/1 rev 5): every file the client opened
   in one turn is answered in the next. *)
type upload = {
  mutable opened : int;  (* slots opened so far: the next one must be this *)
  mutable pending : push_file list;
      (* ascending: the files whose chunks the last Chunk_need asked for *)
  mutable acks : (int * bool) list;  (* this turn's, newest first *)
  mutable needs : push_file list;  (* this turn's Chunk_need items, newest first *)
  mutable push_done : bool;  (* Push_done is in: Bye once nothing is pending *)
}

type phase =
  | Expect_hello
  | Expect_announce
  | Transfer of Batch.Serve.t
  | Upload of upload
  | Done
  | Failed

type t = {
  config : Msg.sync_config;
  files : (string * string) list;
  by_path : (string, string) Hashtbl.t; (* [files], keyed by path *)
  root : Fp.t;
  cache : Sigcache.t;
  store : Store.t option;
  publish : (path:string -> content:string -> unit) option;
      (* None: a read-only endpoint that refuses uploads *)
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
    ?(trace = Scope.disabled) ?store ?publish ~cache files =
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
  | Upload u -> if List.is_empty u.pending then "push:idle" else "push:chunks"
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
  | Upload _ -> set_phase t "phase:push"
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

(* ---- push direction: the client uploads, the store deduplicates ----

   Every file the client opens in a turn moves in lockstep: one
   [Chunk_need] frame answers all of a [Push_begin] frame, one
   [Chunk_data] payload carries every needed chunk of the turn, and one
   [File_ack] frame answers it (DESIGN.md §10). *)

let pushed_root t = Meta_wire.collection_root (List.rev t.pushed)

(* Close a server turn: the acks, then every bitmap due (the store
   retries come first, their slots being older than the ones opened
   this turn), then [Bye] once [Push_done] is in and no file is
   pending. *)
let end_upload_turn t u =
  let acks = List.rev u.acks and needs = List.rev u.needs in
  u.acks <- [];
  u.needs <- [];
  u.pending <- needs;
  let frames =
    (if List.is_empty acks then [] else [ Msg.File_ack acks ])
    @
    if List.is_empty needs then []
    else
      [
        Msg.Chunk_need
          (List.map
             (fun pf ->
               (pf.p_slot, Msg.encode_bitmap (Array.to_list pf.p_needed)))
             needs);
      ]
  in
  if u.push_done && List.is_empty needs then begin
    t.phase <- Done;
    frames @ [ Msg.Bye { root = pushed_root t } ]
  end
  else frames

let open_push t u (slot, { Msg.path; file_len; fp; manifest }) =
  if not (Int.equal slot u.opened) then
    Error.malformed "Session: push slot %d out of range, slot %d opens next"
      slot u.opened;
  u.opened <- slot + 1;
  (* A running sum that may never pass the declared length cannot
     overflow, however large the lengths a hostile manifest claims. *)
  let total =
    List.fold_left
      (fun acc (_, l) ->
        if l > file_len - acc then
          Error.malformed "Session: push manifest for %s overruns %d bytes" path
            file_len;
        acc + l)
      0 manifest
  in
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
  u.needs <-
    {
      p_slot = slot;
      p_path = path;
      p_fp = fp;
      p_manifest = manifest;
      p_needed = Array.of_list needed;
      p_retried = false;
    }
    :: u.needs

let on_push_begin t u items =
  if List.is_empty items then Error.malformed "Session: push turn opens no file";
  List.iter (open_push t u) items;
  end_upload_turn t u

(* The store let the assembly down (chunk lost or corrupted between the
   bitmap and the read): ask the client for all of the file once, then
   give up with a typed verification failure. *)
let retry_or_fail t u pf what =
  if pf.p_retried then
    Error.fail
      (Error.Verification_failed
         (Printf.sprintf "Session: push of %s failed after store retry (%s)"
            pf.p_path what));
  pf.p_retried <- true;
  Array.fill pf.p_needed 0 (Array.length pf.p_needed) true;
  Scope.incr t.scope "push_store_retries";
  u.needs <- pf :: u.needs

(* A chunk the bitmap did not ask for, read back from the store.  Its
   length must be the one the manifest declares: a length no stored
   chunk has is the client's lie, not a store failure. *)
let resident t pf (cfp, len) =
  match t.store with
  | None -> Error "no store behind a dedup bitmap"
  | Some store -> (
      match Store.get store cfp with
      | Some chunk when Fp.equal (Fp.of_string chunk) cfp ->
          if not (Int.equal (String.length chunk) len) then
            Error.malformed "Session: %s declares %d bytes for chunk %s of %d"
              pf.p_path len (Fp.to_hex cfp) (String.length chunk);
          Ok chunk
      | Some _ -> Error (Printf.sprintf "chunk %s corrupt" (Fp.to_hex cfp))
      | None -> Error (Printf.sprintf "chunk %s vanished" (Fp.to_hex cfp)))

(* Assemble one file from its uploaded chunks ([Some]) and the store's
   ([None]); the content is sized by the chunks in hand, never by the
   length the client declared. *)
let assemble t u pf uploaded =
  let rec gather acc = function
    | [] -> Ok (String.concat "" (List.rev acc))
    | (_, Some chunk) :: rest -> gather (chunk :: acc) rest
    | (entry, None) :: rest -> (
        match resident t pf entry with
        | Ok chunk -> gather (chunk :: acc) rest
        | Error _ as e -> e)
  in
  match gather [] (List.combine pf.p_manifest uploaded) with
  | Error what -> retry_or_fail t u pf what
  | Ok content when not (Fp.equal (Fp.of_string content) pf.p_fp) ->
      retry_or_fail t u pf "assembled file fails its fingerprint"
  | Ok content ->
      (match t.store with
      | Some store ->
          Scope.timed t.trace "store:io" (fun () ->
              List.iter
                (function Some chunk -> ignore (Store.put store chunk) | None -> ())
                uploaded;
              Store.set_manifest store ~path:pf.p_path
                (List.map fst pf.p_manifest))
      | None -> ());
      Option.iter (fun publish -> publish ~path:pf.p_path ~content) t.publish;
      t.pushed <- (pf.p_path, content) :: t.pushed;
      t.pushed_files <- t.pushed_files + 1;
      Scope.incr t.scope "push_files";
      u.acks <- (pf.p_slot, true) :: u.acks

let on_chunk_data t u z =
  let files = u.pending in
  if List.is_empty files then
    Error.malformed "Session: chunk data before any chunk was asked for";
  u.pending <- [];
  (* Each file's needed bytes are at most its checked length, but the
     turn's total may still overflow: refuse a turn no payload could
     carry. *)
  let expected =
    List.fold_left
      (fun acc pf ->
        let need = ref 0 in
        List.iteri
          (fun i (_, len) -> if pf.p_needed.(i) then need := !need + len)
          pf.p_manifest;
        if !need > max_int - acc then
          Error.limit "Session: a push turn needs more than %d bytes" max_int;
        acc + !need)
      0 files
  in
  (* The payload's leading varint is its inflated length: hold it to the
     turn's needed total before inflating anything. *)
  let declared =
    match Varint.read z ~pos:0 with
    | v, _ -> v
    | exception Invalid_argument _ ->
        Error.truncated "Session: push payload without a length"
  in
  if not (Int.equal declared expected) then
    Error.malformed "Session: push payload declares %d bytes, the turn asked for %d"
      declared expected;
  let literals = Deflate.decompress z in
  if not (Int.equal (String.length literals) expected) then
    Error.malformed "Session: push payload inflates to %d bytes, not %d"
      (String.length literals) expected;
  (* Cut the payload into every file's needed chunks, in order.  An
     uploaded chunk that does not hash to its manifest key is the
     client's fault — typed teardown, no retry. *)
  let cursor = ref 0 in
  let uploads =
    List.map
      (fun pf ->
        List.mapi
          (fun i (cfp, len) ->
            if pf.p_needed.(i) then begin
              let chunk = String.sub literals !cursor len in
              cursor := !cursor + len;
              if not (Fp.equal (Fp.of_string chunk) cfp) then
                Error.malformed "Session: pushed chunk %d of %s fails its hash"
                  i pf.p_path;
              Some chunk
            end
            else None)
          pf.p_manifest)
      files
  in
  List.iter2 (assemble t u) files uploads;
  if u.push_done then end_upload_turn t u else []

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
  | Expect_announce, (Msg.Push_begin _ | Msg.Push_done)
    when Option.is_none t.publish ->
      Error.malformed "Session: this endpoint is read-only and refuses uploads"
  | Expect_announce, Msg.Push_begin items ->
      let u =
        { opened = 0; pending = []; acks = []; needs = []; push_done = false }
      in
      t.phase <- Upload u;
      on_push_begin t u items
  | Expect_announce, Msg.Push_done ->
      t.phase <- Done;
      [ Msg.Bye { root = pushed_root t } ]
  | Upload u, Msg.Chunk_data z -> on_chunk_data t u z
  (* A client turn goes on past its Chunk_data: the next files, or
     Push_done, close it. *)
  | Upload ({ pending = []; push_done = false; _ } as u), Msg.Push_begin items
    ->
      on_push_begin t u items
  | Upload ({ pending = []; push_done = false; _ } as u), Msg.Push_done ->
      u.push_done <- true;
      end_upload_turn t u
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
