(** Blocking TCP push client with bounded retry (the upload mirror of
    {!Pull}).

    Connects to a {!Daemon}, wraps the socket in
    {!Fsync_net.Fd_transport} and drives a {!Pusher} to completion.
    Retry is safe mid-upload: chunks are content-addressed and the
    server's bitmap is recomputed per attempt, so a second attempt only
    re-sends what the store still lacks — and files already
    acknowledged are skipped outright via {!Pusher.completed_paths}.
    Attempts run through {!Backoff.drive} and {!Backoff.retry}, exactly
    as in {!Pull}. *)

type outcome = {
  stats : Pusher.stats;
  c2s_bytes : int;
  s2c_bytes : int;
  roundtrips : int; (** measured on the last attempt's channel *)
  attempts : int; (** attempts consumed, [>= 1] *)
  backoff_s : float; (** total inter-attempt backoff slept *)
}

val run :
  ?attempts:int ->
  ?fault:Fsync_net.Fault.spec ->
  ?seed:int ->
  ?idle_timeout_s:float ->
  ?params:Fsync_cdc.Chunker.params ->
  ?scope:Fsync_obs.Scope.t ->
  ?trace_id:Fsync_obs.Trace_id.t ->
  host:string ->
  port:int ->
  (string * string) list ->
  outcome
(** Push the [(path, content)] tree.  Defaults: 3 attempts, no faults,
    30 s idle timeout, default chunker parameters, numeric [host].
    Raises the last failure when every attempt is spent.
    [scope] / [trace_id] behave exactly as in {!Pull.run}. *)
