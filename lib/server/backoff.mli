(** How every blocking client dials, drives and retries: one [connect],
    one idle-timed attempt, one retry loop, shared by {!Pull}, {!Push},
    {!Admin} and the swarm's [Peer.gossip] / [Peer.repair].

    Between attempts a client waits [0.05 * 2^(failed-1)] seconds
    (capped at 2 s; both match {!Fsync_net.Frame}), scaled by a
    deterministic jitter in [\[0.5, 1.5)] drawn from a
    {!Fsync_util.Prng} seeded by the caller — so a fleet of clients
    retrying after the same incident does not reconnect in lockstep,
    yet every run is reproducible from its seed.  A typed
    {!Fsync_core.Error.Busy} overrides the schedule: the server named
    its own delay and we honour it. *)

type machine = {
  start : unit -> string list;  (** the opening frames *)
  on_message : string -> string list;  (** one frame in, replies out *)
  finished : unit -> bool;
}
(** A client state machine ({!Puller}, {!Pusher}, a gossip initiator, a
    read-repair probe) as the drivers see it. *)

val connect : host:string -> port:int -> Fsync_net.Fd_transport.t
(** A TCP connection to the numeric [host]:[port].
    @raise Unix.Unix_error on failure. *)

val drive :
  ?fault:Fsync_net.Fault.spec ->
  ?seed:int ->
  idle_timeout_s:float ->
  host:string ->
  port:int ->
  what:string ->
  machine ->
  Fsync_net.Channel.t
(** One attempt: connect, attach the [fault] schedule (seeded by
    [seed]), send the opening frames and answer every server frame
    until the machine finishes.  Returns the closed connection's
    channel, whose byte and round-trip accounts stay readable.  Raises
    a typed [Channel_empty] naming [what] when no frame arrives for
    [idle_timeout_s], and whatever the machine raises. *)

val retry :
  attempts:int ->
  seed:int ->
  what:string ->
  make:('m option -> 'm) ->
  (seed:int -> 'm -> 'r) ->
  'r * int * float
(** [retry ~attempts ~seed ~what ~make attempt] runs [attempt] on
    [make None], and after each failure a fresh attempt can repair (a
    typed protocol error, a fault-injected disconnect, a closed
    transport, a connection reset) sleeps the backoff delay, logs it
    and tries again on [make (Some failed_machine)] — the hook
    that carries progress (a resume token, the acknowledged paths)
    across attempts.  Attempt [n] (from 0) gets [seed + n].  Returns the
    result, the attempts consumed and the total backoff slept; raises
    the last failure once [attempts] (at least 1) are spent. *)
