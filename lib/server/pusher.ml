module Fp = Fsync_hash.Fingerprint
module Error = Fsync_core.Error
module Deflate = Fsync_compress.Deflate
module Meta_wire = Fsync_collection.Meta_wire
module Chunker = Fsync_cdc.Chunker
module Scope = Fsync_obs.Scope
module Trace_id = Fsync_obs.Trace_id

type job = {
  path : string;
  content : string;
  fp : Fp.t;
  chunks : (Fp.t * Chunker.chunk) list;
}

type phase =
  | Expect_welcome
  | Expect_need of job
  | Expect_ack of job
  | Expect_bye
  | Done

type t = {
  scope : Scope.t; (* the client's trace registry, if any *)
  trace_id : Trace_id.t option; (* carried in Hello; minted by Push.run *)
  mutable span_session : int; (* root "session" span; -1 = not open *)
  mutable span_phase : (string * int) option;
  mutable config : Msg.sync_config;
  mutable phase : phase;
  mutable queue : job list;
  root : Fp.t;
  resumed_files : int;
  mutable acked : string list; (* paths the server ack'd, cumulative, rev *)
  mutable files_pushed : int;
  mutable chunks_total : int;
  mutable chunks_sent : int;
  mutable bytes_sent : int;
  mutable bytes_deduped : int;
}

(* [skip]: paths a previous attempt already pushed and saw ack'd — they
   are left out of this session entirely, so the server's Bye root
   covers exactly the files pushed now (the resume discipline of
   DESIGN.md §12). *)
let create ?(scope = Scope.disabled) ?trace_id ?params ?(skip = []) files =
  let skipped p = List.exists (String.equal p) skip in
  let remaining = List.filter (fun (p, _) -> not (skipped p)) files in
  let jobs =
    List.map
      (fun (path, content) ->
        {
          path;
          content;
          fp = Fp.of_string content;
          chunks =
            List.map
              (fun c -> (Fp.of_string (Chunker.chunk_content content c), c))
              (Chunker.chunks ?params content);
        })
      remaining
  in
  {
    scope;
    trace_id;
    span_session = -1;
    span_phase = None;
    config = Msg.default_sync_config;
    phase = Expect_welcome;
    queue = jobs;
    root = Meta_wire.collection_root remaining;
    resumed_files = List.length files - List.length remaining;
    acked = List.rev skip;
    files_pushed = 0;
    chunks_total = 0;
    chunks_sent = 0;
    bytes_sent = 0;
    bytes_deduped = 0;
  }

let completed_paths t = List.rev t.acked

let enc t m = Msg.encode ~config:t.config m

(* ---- client-side phase spans (see session.mli): [phase:metadata]
   over the hello/welcome opening, then [phase:push] until Bye. ---- *)

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
  | Expect_welcome -> set_phase t "phase:metadata"
  | Expect_need _ | Expect_ack _ | Expect_bye -> set_phase t "phase:push"
  | Done -> end_phases t

let start t =
  t.span_session <- Scope.enter t.scope "session";
  sync_phase t;
  [ enc t (Handshake.hello ?trace:t.trace_id ()) ]

let finished t = match t.phase with Done -> true | _ -> false

let advance t =
  match t.queue with
  | [] ->
      t.phase <- Expect_bye;
      [ Msg.Push_done ]
  | job :: rest ->
      t.queue <- rest;
      t.chunks_total <- t.chunks_total + List.length job.chunks;
      t.phase <- Expect_need job;
      [
        Msg.Push_begin
          {
            path = job.path;
            file_len = String.length job.content;
            fp = job.fp;
            manifest =
              List.map (fun (cfp, (c : Chunker.chunk)) -> (cfp, c.len)) job.chunks;
          };
      ]

(* Answer a residency bitmap (initial or all-ones retry) with exactly
   the requested chunks, manifest order, deflated as one payload. *)
let on_need t job bitmap =
  let flags = Msg.decode_bitmap ~count:(List.length job.chunks) bitmap in
  let buf = Buffer.create 4096 in
  List.iteri
    (fun i (_, (c : Chunker.chunk)) ->
      if flags.(i) then begin
        Buffer.add_substring buf job.content c.off c.len;
        t.chunks_sent <- t.chunks_sent + 1;
        t.bytes_sent <- t.bytes_sent + c.len
      end
      else t.bytes_deduped <- t.bytes_deduped + c.len)
    job.chunks;
  t.phase <- Expect_ack job;
  [ Msg.Chunk_data (Deflate.compress (Buffer.contents buf)) ]

let on_message t raw =
  let msg = Msg.decode ~config:t.config raw in
  let dispatch () =
    match (t.phase, msg) with
    | Expect_welcome, Msg.Welcome { version; config; _ } ->
        Handshake.check_version ~who:"Pusher" version;
        t.config <- config;
        advance t
    | Expect_welcome, Msg.Busy { retry_after_ms } ->
        Handshake.reject_busy ~retry_after_ms
    | Expect_need job, Msg.Chunk_need bitmap -> on_need t job bitmap
    (* A Chunk_need after our data is the server's one store-failure
       retry: re-send per the new (all-ones) bitmap. *)
    | Expect_ack job, Msg.Chunk_need bitmap -> on_need t job bitmap
    | Expect_ack job, Msg.File_ack [ (0, true) ] ->
        t.files_pushed <- t.files_pushed + 1;
        t.acked <- job.path :: t.acked;
        advance t
    | Expect_ack job, Msg.File_ack [ (0, false) ] ->
        Error.fail
          (Error.Verification_failed
             (Printf.sprintf "Pusher: server rejected verified push of %s"
                job.path))
    | Expect_bye, Msg.Bye { root } ->
        if not (Fp.equal root t.root) then
          Error.fail
            (Error.Verification_failed
               (Printf.sprintf "Pusher: pushed root %s, server recorded %s"
                  (Fp.to_hex t.root) (Fp.to_hex root)));
        t.phase <- Done;
        []
    | _, Msg.Error_msg m ->
        Error.fail
          (Error.Disconnected (Printf.sprintf "Pusher: server error: %s" m))
    | _, other -> Error.malformed "Pusher: unexpected %s" (Msg.label other)
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

type stats = {
  files_pushed : int;
  chunks_total : int;
  chunks_sent : int;
  bytes_sent : int;
  bytes_deduped : int;
  resumed_files : int;
}

let stats (t : t) =
  {
    files_pushed = t.files_pushed;
    chunks_total = t.chunks_total;
    chunks_sent = t.chunks_sent;
    bytes_sent = t.bytes_sent;
    bytes_deduped = t.bytes_deduped;
    resumed_files = t.resumed_files;
  }
