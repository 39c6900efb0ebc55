(** The shared fsyncd/1 session opening.

    {!Puller}, {!Pusher} and the swarm gossip initiator all open a
    session the same way (Hello, then Welcome-or-Busy), and {!Session}
    plus the swarm peer answer it the same way — the logic lives here
    once so a protocol revision cannot update one consumer and miss the
    others. *)

val hello :
  ?trace:Fsync_obs.Trace_id.t -> ?swarm:Msg.swarm_hello -> unit -> Msg.t
(** The client's opening message, always at the current {!Msg.version}. *)

val check_version : who:string -> int -> unit
(** Validate a peer's announced revision against
    [Msg.min_version..Msg.version]; raises a typed [Malformed] naming
    [who] otherwise. *)

val reject_busy : retry_after_ms:int -> 'a
(** Raise the typed {!Fsync_core.Error.Busy} a [Busy] answer maps to. *)

val adopt_trace : string option -> Fsync_obs.Trace_id.t
(** The server side of trace propagation: adopt the id carried by the
    Hello, or mint one for a v1 peer that sent none (DESIGN.md §9). *)

val client_trace :
  Fsync_obs.Scope.t -> Fsync_obs.Trace_id.t option -> Fsync_obs.Trace_id.t
(** The client side: the given id, or a fresh one, stamped with role
    ["client"] onto the scope's registry.  A retrying client announces
    it in every attempt, so the daemon's per-attempt sessions all join
    under one trace. *)

val welcome :
  client_version:int ->
  file_count:int ->
  root:Fsync_hash.Fingerprint.t ->
  config:Msg.sync_config ->
  Msg.t
(** The server's answer, capped at the client's revision so an older
    peer's version equality check still passes. *)
