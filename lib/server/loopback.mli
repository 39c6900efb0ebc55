(** Deterministic single-process drivers for the daemon and its
    clients, built on two pumps.

    {!pump} wires N client machines to a {!Daemon} over socketpairs and
    pumps everything round-robin in one thread: one {!Daemon.step}, then
    at most one frame per client, repeat.  Interleaving is therefore
    exercised for real — all sessions are mid-flight in the same loop —
    while the schedule stays reproducible.  {!run_pulls}, {!run_pushes}
    and the swarm's socket tests all run on it.

    {!pump_in_memory} runs a client machine against a server machine
    over a plain in-memory {!Fsync_net.Channel}, no daemon involved.
    Because transport framing is the only difference, it is the
    byte-for-byte reference the socket path is compared against:
    {!run_in_memory} for pulls, [Swarm_loopback.session] for gossip. *)

type pull_result = {
  files : (string * string) list; (** the synchronized replica *)
  stats : Puller.stats;
  c2s_bytes : int;
      (** accounted bytes, client to server: payload only over the
          in-memory channel, payload plus the 4-byte frame header per
          message over a transport *)
  s2c_bytes : int;
  c2s_msgs : int;    (** accounted messages per direction — subtracting
                         [4 * msgs] from a transport run's bytes
                         recovers the payload for parity checks *)
  s2c_msgs : int;
  roundtrips : int;
}

val pump :
  ?max_iterations:int ->
  ?prepare:(int -> Fsync_net.Channel.t -> unit) ->
  daemon:Daemon.t ->
  what:string ->
  Backoff.machine list ->
  Fsync_net.Channel.t list
(** Connect every machine to [daemon] over its own socketpair, send its
    opening frames and pump until every machine finishes.  [prepare i
    ch] runs before client [i]'s first frame — the place to attach
    {!Fsync_net.Fault} schedules to its transport channel.  Returns each
    client's (closed) channel, whose accounts stay readable.  Raises a
    typed [Channel_empty] naming [what] if the system stalls
    ([max_iterations], default 1e6, bounds the loop). *)

val run_pulls :
  ?max_iterations:int ->
  ?prepare:(int -> Fsync_net.Channel.t -> unit) ->
  daemon:Daemon.t ->
  (string * string) list list ->
  pull_result list
(** One pull per listed replica, all concurrent against [daemon], on
    {!pump}. *)

type push_result = {
  pusher : Pusher.stats;
  up_bytes : int;   (** accounted client-to-server bytes (incl. framing) *)
  down_bytes : int;
  roundtrips : int; (** measured on the client's channel *)
}

val run_pushes :
  ?max_iterations:int ->
  ?params:Fsync_cdc.Chunker.params ->
  daemon:Daemon.t ->
  (string * string) list list ->
  push_result list
(** One push per listed tree, all concurrent against [daemon] — the
    upload mirror of {!run_pulls}.  Call it once per client instead to
    let each push see the chunks its predecessors stored (that is how
    the dedup benchmarks measure the second client's saving). *)

val pump_in_memory :
  Fsync_net.Channel.t ->
  server:(string -> string list) ->
  what:string ->
  Backoff.machine ->
  unit
(** Send the client's opening frames, then deliver queued frames (the
    server's inbox first) until both directions drain.  Raises a typed
    [Channel_empty] naming [what] if the client has not finished by
    then. *)

val run_in_memory :
  ?config:Msg.sync_config ->
  ?scope:Fsync_obs.Scope.t ->
  cache:Sigcache.t ->
  server:(string * string) list ->
  client:(string * string) list ->
  unit ->
  pull_result * Session.stats
(** The reference run: same machines, no file descriptors, on
    {!pump_in_memory}. *)
