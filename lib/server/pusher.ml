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

(* Where each slot stands in the lockstep upload (fsyncd/1 rev 5). *)
type slot =
  | Queued
  | Begun  (** [Push_begin] sent: its [Chunk_need] is due *)
  | Needed of bool array  (** these chunks go out in this turn's data *)
  | Sent  (** chunks sent: its [File_ack], or a retry bitmap, is due *)
  | Acked

type phase = Expect_welcome | Pushing | Done

type t = {
  scope : Scope.t; (* the client's trace registry, if any *)
  trace_id : Trace_id.t option; (* carried in Hello; minted by Push.run *)
  mutable span_session : int; (* root "session" span; -1 = not open *)
  mutable span_phase : (string * int) option;
  mutable config : Msg.sync_config;
  mutable phase : phase;
  jobs : job array; (* slot order *)
  slots : slot array;
  mutable next : int; (* the first queued slot *)
  mutable awaiting : int; (* slots Begun or Sent: the server owes them *)
  mutable done_sent : bool;
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
    jobs = Array.of_list jobs;
    slots = Array.make (List.length jobs) Queued;
    next = 0;
    awaiting = 0;
    done_sent = false;
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
  | Pushing -> set_phase t "phase:push"
  | Done -> end_phases t

let start t =
  t.span_session <- Scope.enter t.scope "session";
  sync_phase t;
  [ enc t (Handshake.hello ?trace:t.trace_id ()) ]

let finished t = match t.phase with Done -> true | _ -> false

(* Open queued files while their declared lengths stay under the turn
   budget, at least one. *)
let open_files t =
  let rec take used acc =
    if t.next < Array.length t.jobs
       && (List.is_empty acc || used < Batch.turn_budget)
    then begin
      let slot = t.next in
      let job = t.jobs.(slot) in
      t.next <- slot + 1;
      t.slots.(slot) <- Begun;
      t.awaiting <- t.awaiting + 1;
      t.chunks_total <- t.chunks_total + List.length job.chunks;
      let b =
        {
          Msg.path = job.path;
          file_len = String.length job.content;
          fp = job.fp;
          manifest =
            List.map (fun (cfp, (c : Chunker.chunk)) -> (cfp, c.len)) job.chunks;
        }
      in
      take (used + String.length job.content) ((slot, b) :: acc)
    end
    else List.rev acc
  in
  take 0 []

(* This side's turn, once the server has answered every slot it owed:
   one [Chunk_data] payload with every requested chunk (ascending slot
   order, then manifest order), then the next files or [Push_done]. *)
let client_turn t =
  let buf = Buffer.create 4096 in
  let data = ref false in
  Array.iteri
    (fun slot s ->
      match s with
      | Needed flags ->
          data := true;
          List.iteri
            (fun i (_, (c : Chunker.chunk)) ->
              if flags.(i) then begin
                Buffer.add_substring buf t.jobs.(slot).content c.off c.len;
                t.chunks_sent <- t.chunks_sent + 1;
                t.bytes_sent <- t.bytes_sent + c.len
              end
              else t.bytes_deduped <- t.bytes_deduped + c.len)
            t.jobs.(slot).chunks;
          t.slots.(slot) <- Sent;
          t.awaiting <- t.awaiting + 1
      | Queued | Begun | Sent | Acked -> ())
    t.slots;
  let data =
    if !data then [ Msg.Chunk_data (Deflate.compress (Buffer.contents buf)) ]
    else []
  in
  match open_files t with
  | _ :: _ as items -> data @ [ Msg.Push_begin items ]
  | [] when not t.done_sent ->
      t.done_sent <- true;
      data @ [ Msg.Push_done ]
  | [] -> data

let answered t slot s =
  t.slots.(slot) <- s;
  t.awaiting <- t.awaiting - 1

let on_ack t (slot, ok) =
  Batch.check_slot ~who:"Pusher" ~count:(Array.length t.slots) slot;
  let job = t.jobs.(slot) in
  match t.slots.(slot) with
  | Sent when ok ->
      answered t slot Acked;
      t.files_pushed <- t.files_pushed + 1;
      t.acked <- job.path :: t.acked
  | Sent ->
      Error.fail
        (Error.Verification_failed
           (Printf.sprintf "Pusher: server rejected verified push of %s"
              job.path))
  | Queued | Begun | Needed _ | Acked ->
      Error.malformed "Pusher: ack for slot %d, which awaits none" slot

(* A bitmap for a slot whose chunks went out already is the server's
   one store-failure retry: answered the same way. *)
let on_need t (slot, bitmap) =
  Batch.check_slot ~who:"Pusher" ~count:(Array.length t.slots) slot;
  match t.slots.(slot) with
  | Begun | Sent ->
      let count = List.length t.jobs.(slot).chunks in
      answered t slot (Needed (Msg.decode_bitmap ~count bitmap))
  | Queued | Needed _ | Acked ->
      Error.malformed "Pusher: chunk bitmap for slot %d, which awaits none" slot

(* The server's turn is over once it has answered every slot it owed. *)
let after_answers t = if Int.equal t.awaiting 0 then client_turn t else []

let on_message t raw =
  let msg = Msg.decode ~config:t.config raw in
  let dispatch () =
    match (t.phase, msg) with
    | Expect_welcome, Msg.Welcome { version; config; _ } ->
        Handshake.check_version ~who:"Pusher" version;
        t.config <- config;
        t.phase <- Pushing;
        client_turn t
    | Expect_welcome, Msg.Busy { retry_after_ms } ->
        Handshake.reject_busy ~retry_after_ms
    | Pushing, Msg.File_ack items ->
        List.iter (on_ack t) items;
        after_answers t
    | Pushing, Msg.Chunk_need items ->
        List.iter (on_need t) items;
        after_answers t
    | Pushing, Msg.Bye { root } ->
        if t.awaiting > 0 || not t.done_sent then
          Error.malformed "Pusher: bye with %d file(s) unanswered" t.awaiting;
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
