module Fp = Fsync_hash.Fingerprint
module Error = Fsync_core.Error
module Meta_wire = Fsync_collection.Meta_wire
module Scope = Fsync_obs.Scope
module Trace_id = Fsync_obs.Trace_id

type phase =
  | Expect_welcome
  | Expect_verdict
  | Transfer of Batch.Fetch.t
  | Done

type resume_token = {
  rt_root : Fp.t; (* the collection root the crashed session synced toward *)
  rt_announced : string list; (* announce paths, announce order *)
  rt_new_paths : string list; (* verdict new paths, path-sorted *)
  rt_completed : (string * string) list; (* verified (path, content) *)
}

type t = {
  files : (string * string) list; (* the old replica, announce order *)
  resume : resume_token option;
  scope : Scope.t; (* the client's trace registry, if any *)
  trace_id : Trace_id.t option; (* carried in Hello; minted by Pull.run *)
  mutable span_session : int; (* root "session" span; -1 = not open *)
  mutable span_phase : (string * int) option;
  mutable config : Msg.sync_config;
  mutable phase : phase;
  mutable unchanged : (string * string) list;
  received : (string, string) Hashtbl.t; (* verified files, by path *)
  mutable server_root : Fp.t option; (* from Welcome *)
  mutable new_paths : string list option; (* from Verdict *)
  mutable resumed_files : int; (* jobs skipped via the resume token *)
  counters : Fetch_file.counters;
}

let create ?(scope = Scope.disabled) ?trace_id ?resume files =
  {
    files;
    resume;
    scope;
    trace_id;
    span_session = -1;
    span_phase = None;
    config = Msg.default_sync_config;
    phase = Expect_welcome;
    unchanged = [];
    received = Hashtbl.create 64;
    server_root = None;
    new_paths = None;
    resumed_files = 0;
    counters = Fetch_file.fresh_counters ();
  }

let enc t m = Msg.encode ~config:t.config m

(* ---- client-side phase spans, the mirror of Session's (see
   session.mli): open across the waits so they tile the session. ---- *)

let close_phase t =
  (match t.span_phase with
  | Some (_, id) -> Scope.leave t.scope id
  | None -> ());
  t.span_phase <- None

let set_phase t name =
  match t.span_phase with
  | Some (cur, _) when String.equal cur name -> ()
  | _ ->
      close_phase t;
      t.span_phase <- Some (name, Scope.enter t.scope name)

let end_phases t =
  close_phase t;
  if t.span_session >= 0 then begin
    Scope.leave t.scope t.span_session;
    t.span_session <- -1
  end

let sync_phase t =
  match t.phase with
  | Expect_welcome | Expect_verdict -> set_phase t "phase:metadata"
  | Transfer f ->
      (* With nothing mid-transfer (right after the verdict, or between
         turns) stay in whatever phase got us here. *)
      if Batch.Fetch.hashing f then set_phase t "phase:hash_rounds"
      else if not (Batch.Fetch.idle f) then set_phase t "phase:literals"
  | Done -> end_phases t

let start t =
  t.span_session <- Scope.enter t.scope "session";
  sync_phase t;
  [ enc t (Handshake.hello ?trace:t.trace_id ()) ]

let finished t = match t.phase with Done -> true | _ -> false

let received t = List.of_seq (Hashtbl.to_seq t.received)

let result t =
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (t.unchanged @ received t)

(* Replace-by-path: if a server ignores our resume bitmap and re-sends a
   completed file, the fresh copy supersedes the primed one instead of
   duplicating the path (which would poison the Bye root check). *)
let add_received t path content = Hashtbl.replace t.received path content

let on_bye t root =
  let actual = Meta_wire.collection_root (t.unchanged @ received t) in
  if not (Fp.equal actual root) then
    Error.fail
      (Error.Verification_failed
         (Printf.sprintf "Puller: collection root %s, server announced %s"
            (Fp.to_hex actual) (Fp.to_hex root)));
  t.phase <- Done;
  []

(* The resume token only applies when the server still serves the same
   collection and this attempt announces the same replica: both index
   spaces (announce order, sorted new paths) are then identical to the
   crashed session's, so the bitmap means the same jobs on both ends. *)
let usable_resume t ~root =
  match t.resume with
  | Some r
    when Fp.equal r.rt_root root
         && List.equal String.equal r.rt_announced (List.map fst t.files) ->
      Some r
  | Some _ | None -> None

let resume_replies t ~root =
  match usable_resume t ~root with
  | None -> []
  | Some r ->
      List.iter (fun (p, c) -> add_received t p c) r.rt_completed;
      let have p = Hashtbl.mem t.received p in
      t.resumed_files <- List.length r.rt_completed;
      let bits =
        List.map (fun (p, _) -> have p) t.files
        @ List.map have r.rt_new_paths
      in
      [ Msg.Resume { root; bitmap = Msg.encode_bitmap bits } ]

(* The verdict fixes the slot space both ends share: the announced
   paths it marks as not up to date, in announce order, then its new
   paths. *)
let on_verdict t body =
  let bits, new_paths =
    Meta_wire.decode_verdict ~n_announced:(List.length t.files) body
  in
  t.unchanged <- List.filteri (fun i _ -> bits.(i)) t.files;
  t.new_paths <- Some new_paths;
  let stale = List.filteri (fun i _ -> not bits.(i)) t.files in
  let paths = Array.of_list (List.map fst stale @ new_paths) in
  let olds = Array.of_list (List.map snd stale) in
  t.phase <-
    Transfer
      (Batch.Fetch.create ~who:"Puller" ~config:t.config ~counters:t.counters
         ~path:(fun i -> paths.(i))
         ~old:(fun i -> if i < Array.length olds then olds.(i) else "")
         ~on_file:(fun i content -> add_received t paths.(i) content)
         ~slots:(Array.length paths));
  []

let on_message t raw =
  let msg = Msg.decode ~config:t.config raw in
  let dispatch () =
    match (t.phase, msg) with
    | Expect_welcome, Msg.Welcome { version; config; root; _ } ->
        Handshake.check_version ~who:"Puller" version;
        t.config <- config;
        t.server_root <- Some root;
        t.phase <- Expect_verdict;
        resume_replies t ~root
        @ [
            Msg.Announce
              (Meta_wire.encode_announce
                 (List.map (fun (p, c) -> (p, Fp.of_string c)) t.files));
          ]
    | Expect_welcome, Msg.Busy { retry_after_ms } ->
        Handshake.reject_busy ~retry_after_ms
    | Expect_verdict, Msg.Verdict body -> on_verdict t body
    | Transfer f, (Msg.File_begin _ | Msg.Hashes _ | Msg.Tail _ | Msg.Full _)
      ->
        Batch.Fetch.on_message f msg
    | Transfer f, Msg.Bye { root } ->
        if not (Batch.Fetch.idle f) then
          Error.malformed "Puller: Bye with files mid-transfer";
        on_bye t root
    | _, Msg.Error_msg m ->
        Error.fail
          (Error.Disconnected (Printf.sprintf "Puller: server error: %s" m))
    | _, other -> Error.malformed "Puller: unexpected %s" (Msg.label other)
  in
  let replies =
    try
      let replies = dispatch () in
      sync_phase t;
      replies
    with e ->
      end_phases t;
      raise e
  in
  List.map (enc t) replies

(* Snapshot the session's progress for a future attempt.  Only useful
   once the verdict arrived (the bitmap index space is known) and some
   file actually completed. *)
let resume_token t =
  match (t.server_root, t.new_paths) with
  | Some root, Some new_paths when Hashtbl.length t.received > 0 ->
      Some
        {
          rt_root = root;
          rt_announced = List.map fst t.files;
          rt_new_paths = new_paths;
          rt_completed = received t;
        }
  | _ -> t.resume

type stats = {
  rounds : int;
  matched_bytes : int;
  literal_bytes : int;
  resumed_files : int;
}

let stats (t : t) =
  {
    rounds = t.counters.rounds;
    matched_bytes = t.counters.matched_bytes;
    literal_bytes = t.counters.literal_bytes;
    resumed_files = t.resumed_files;
  }
