(** A swarm peer: one replica served from a single-threaded select
    loop, plus the dialing side used by [fsync swarm join/repair].

    The serving loop speaks both dialects of fsyncd/1 on one port: the
    first frame of every connection routes it — a [Hello] carrying the
    swarm extension starts a {!Gossip.Responder} (anti-entropy exchange
    against the replica), a plain [Hello] starts an ordinary read-only
    {!Fsync_server.Session} over the replica's current files, so plain
    clients can pull from a swarm member.  Gossip applies
    mutate the replica in place; sessions opened afterwards serve the
    converged state.

    Everything is one thread: machines only run inside {!step}, so
    applies are atomic with respect to other connections. *)

type t

type config = {
  sync : Fsync_server.Msg.sync_config;
  max_outbox : int; (** per-connection backpressure bound, bytes *)
  session_timeout_s : float;
}

val default_config : config
(** 4 MiB outbox, 30 s idle timeout. *)

val create :
  ?config:config ->
  ?scope:Fsync_obs.Scope.t ->
  ?policy:Resolve.policy ->
  Replica.t ->
  t

val replica : t -> Replica.t

val listen : t -> host:string -> port:int -> int
(** Bind and listen; returns the actual port (useful with port 0).
    @raise Unix.Unix_error on bind failure. *)

val add_connection : t -> Unix.file_descr -> unit
(** Register an already-connected descriptor (e.g. one end of a
    socketpair in tests).  Owned by the peer from here on. *)

val step : ?timeout_s:float -> t -> unit
(** One loop iteration: select (default 50 ms), accept, feed machines,
    flush outboxes, reap finished / failed / idle connections.  Never
    raises on peer misbehavior. *)

val run : ?timeout_s:float -> t -> unit
(** {!step} until {!request_stop}, then {!shutdown}. *)

val request_stop : t -> unit
val shutdown : t -> unit

type stats = {
  accepted : int;
  gossip_sessions : int;
  plain_sessions : int;
  completed : int;
  failed : int;
  timeouts : int;
}

val stats : t -> stats

(** {2 Dialing} *)

val gossip :
  ?policy:Resolve.policy ->
  ?scope:Fsync_obs.Scope.t ->
  ?idle_timeout_s:float ->
  host:string ->
  port:int ->
  Replica.t ->
  Gossip.stats
(** One anti-entropy exchange with the peer at [host:port], as the
    initiator.  Raises typed errors on failure. *)

val repair :
  ?policy:Resolve.policy ->
  ?scope:Fsync_obs.Scope.t ->
  ?idle_timeout_s:float ->
  host:string ->
  port:int ->
  Replica.t ->
  path:string ->
  Repair.outcome
(** One read-repair probe for [path] against the peer at [host:port]. *)
