(** A swarm peer: one replica served by an ordinary
    {!Fsync_server.Daemon}, plus the dialing side used by
    [fsync swarm join/repair].

    The endpoint speaks both dialects of fsyncd/1 on one port through
    the daemon's one event loop.  The daemon's route (see
    {!Fsync_server.Daemon.create}) sends a [Hello] carrying the swarm
    extension to a fresh {!Gossip.Responder} (an anti-entropy exchange
    against the replica), and any other [Hello] to a read-only
    {!Fsync_server.Session} over the replica's current files, so plain
    clients can pull from a swarm member but a push is refused typed,
    never acknowledged and dropped.  Gossip applies mutate the replica
    in place; sessions opened afterwards serve the converged state.

    Limits, [Busy] shedding, idle timeouts, typed teardown and the
    session counters are the daemon's; the peer owns only the route,
    the count of sessions per dialect, and the two dialing helpers.
    Everything is one thread: machines only run inside
    {!Fsync_server.Daemon.step}, so applies are atomic with respect to
    other connections. *)

type t

val create :
  ?config:Fsync_server.Daemon.config ->
  ?scope:Fsync_obs.Scope.t ->
  ?policy:Resolve.policy ->
  Replica.t ->
  t
(** The endpoint for [replica]; [config.sync] also configures the gossip
    responders.  Listen, step, run and stop through {!daemon}. *)

val daemon : t -> Fsync_server.Daemon.t

val gossip_sessions : t -> int
(** Connections routed to a gossip responder so far. *)

val plain_sessions : t -> int
(** Connections routed to a read-only session so far. *)

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
    initiator, driven by {!Fsync_server.Backoff.drive}.  Raises typed
    errors on failure. *)

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
