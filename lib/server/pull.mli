(** Blocking TCP pull client with bounded retry.

    Connects to a {!Daemon}, wraps the socket in
    {!Fsync_net.Fd_transport} (so [--faults] schedules run on a real
    connection exactly as on the in-memory channel) and drives a
    {!Puller} to completion.  Any typed error — disconnect, corrupted
    frame, idle timeout — burns one attempt; each attempt reseeds the
    fault schedule so deterministic faults cannot pin the same frame
    forever.

    Each attempt is one {!Backoff.drive}, and {!Backoff.retry} separates
    them by jittered exponential delays (or the server's own
    [retry-after] on {!Fsync_core.Error.Busy}); the
    {!Puller.resume_token} of a failed attempt carries completed files
    across, so a resumed pull re-transfers only the remainder. *)

type outcome = {
  files : (string * string) list;
  stats : Puller.stats;
  c2s_bytes : int;
  s2c_bytes : int;
  attempts : int; (** attempts consumed, [>= 1] *)
  backoff_s : float; (** total inter-attempt backoff slept *)
}

val run :
  ?attempts:int ->
  ?fault:Fsync_net.Fault.spec ->
  ?seed:int ->
  ?idle_timeout_s:float ->
  ?scope:Fsync_obs.Scope.t ->
  ?trace_id:Fsync_obs.Trace_id.t ->
  host:string ->
  port:int ->
  (string * string) list ->
  outcome
(** Pull against the replica's old [(path, content)] files.  Defaults:
    3 attempts, no faults, 30 s idle timeout, numeric [host].  Raises
    the last failure when every attempt is spent.

    [trace_id] (minted fresh when omitted) is announced in every
    attempt's [Hello] and stamped — with role ["client"] — onto
    [scope]'s registry, which also receives the client-side phase
    spans; export it with [--trace-json] and join it against the
    daemon's stream via [fsync trace report]. *)
