(** Deterministic in-process swarm harness.

    [session] runs one full gossip exchange between two replicas over an
    in-memory {!Fsync_net.Channel}, on the same
    {!Fsync_server.Loopback.pump_in_memory} that
    {!Fsync_server.Loopback.run_in_memory} uses for pairwise pulls — the
    byte-for-byte reference for gossip through a {!Peer}'s daemon loop
    (socket bytes minus 4 B of framing per message).  [repair] pumps the
    same way.  [t] scales that to K peers: every round, each
    peer initiates one session against a uniformly random partner drawn
    from a seeded {!Fsync_util.Prng}, so a K-peer swarm converges in
    O(log K) expected rounds and every run with the same seed replays
    the same schedule byte for byte. *)

type session_result = {
  initiator : Gossip.stats;
  responder : Gossip.stats;
  c2s_bytes : int;
  s2c_bytes : int;
  roundtrips : int;
}

val session :
  ?policy:Resolve.policy ->
  ?scope:Fsync_obs.Scope.t ->
  ?config:Fsync_server.Msg.sync_config ->
  initiator:Replica.t ->
  responder:Replica.t ->
  unit ->
  session_result
(** One complete gossip session; raises typed {!Fsync_core.Error}
    values on protocol failures or a stalled exchange. *)

val repair :
  ?policy:Resolve.policy ->
  ?scope:Fsync_obs.Scope.t ->
  ?config:Fsync_server.Msg.sync_config ->
  replica:Replica.t ->
  peers:Replica.t list ->
  path:string ->
  unit ->
  Repair.outcome list
(** Read-repair [path] on [replica] against each peer in order (one
    {!Repair} session per peer, each planning against the local state
    the previous one left). *)

type t

val create :
  ?seed:int64 ->
  ?scope:Fsync_obs.Scope.t ->
  ?policy:Resolve.policy ->
  Replica.t list ->
  t
(** A swarm over the given replicas (at least one). *)

val replicas : t -> Replica.t list
val converged : t -> bool
(** All Merkle summaries equal — byte-identical replicas. *)

val round : t -> unit
(** One anti-entropy round: every peer gossips with one random partner. *)

val run : ?max_rounds:int -> t -> int
(** Rounds until convergence (0 when already converged).  Raises a
    typed [Verification_failed] if [max_rounds] (default 64) passes
    without convergence, and records the count on the scope's
    [swarm_convergence_rounds] histogram otherwise. *)

val rounds : t -> int
val sessions : t -> int
val bytes : t -> int
(** Total wire bytes across all sessions, both directions. *)

val conflicts : t -> int
(** Conflict pairs surfaced across all sessions (initiator side). *)
