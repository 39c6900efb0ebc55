(** Client side of one fsyncd/1 {e push} session, as a pure message-in /
    messages-out state machine (the upload mirror of {!Puller}).

    The pusher cuts every file into content-defined chunks
    ({!Fsync_cdc.Chunker}) and offers the server their manifests, every
    file of a turn at once (fsyncd/1 rev 5, {!Msg}): one [Push_begin]
    frame opens as many slots as fit in {!Batch.turn_budget} declared
    bytes.  The server's residency bitmaps ({!Msg.Chunk_need}) name the
    chunks it lacks; only those cross the wire, in one deflated
    [Chunk_data] payload per turn, followed by the next files.  A second
    bitmap for a file is the server's one store-failure retry and is
    answered the same way.  After the last file the pusher sends
    [Push_done] and verifies the server's [Bye] root against the root
    of what it pushed — end-to-end, same as the pull direction. *)

type t

val create :
  ?scope:Fsync_obs.Scope.t ->
  ?trace_id:Fsync_obs.Trace_id.t ->
  ?params:Fsync_cdc.Chunker.params ->
  ?skip:string list ->
  (string * string) list ->
  t
(** Over the [(path, content)] tree to upload.  [trace_id] rides in
    the [Hello]; [scope] receives the client's session/phase spans
    ([session], [phase:metadata], [phase:push]) — see
    {!Session.create}.  [params] tunes the
    chunker (defaults match {!Fsync_cdc.Chunker.default_params});
    boundaries are the client's choice alone — the server only ever
    verifies hashes.  [skip] names paths a previous interrupted attempt
    already pushed to acknowledgement (DESIGN.md §12): they are dropped
    from this session and the expected [Bye] root covers only the
    files pushed now. *)

val completed_paths : t -> string list
(** Paths the server has acknowledged so far, cumulative with [skip] —
    feed this back as the next attempt's [skip] to resume a push.  Acks
    come one server turn at a time, so a cut session loses at most the
    files of its last turn. *)

val start : t -> string list
(** The opening frames to send ([Hello]). *)

val on_message : t -> string -> string list
(** Feed one received frame; returns encoded frames to send back.
    Raises typed {!Fsync_core.Error} values on protocol violations or
    when the final root check fails. *)

val finished : t -> bool

type stats = {
  files_pushed : int;
  chunks_total : int;   (** manifest entries offered *)
  chunks_sent : int;    (** of those, requested and uploaded *)
  bytes_sent : int;     (** raw (pre-deflate) bytes uploaded *)
  bytes_deduped : int;  (** raw bytes the server already had *)
  resumed_files : int;  (** files skipped because [skip] named them *)
}

val stats : t -> stats
