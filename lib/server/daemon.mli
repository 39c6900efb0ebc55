(** The sync daemon: a single-threaded [Unix.select] event loop serving
    many fsyncd/1 sessions concurrently — the only event loop in the
    library.  The swarm's [Peer] is this daemon with a route
    (see {!create}).

    Concurrency comes from interleaving, not threads: every connection
    owns a non-blocking {!Conn} and a state machine (a {!Session}, or
    the machine a route picked), and each {!step} advances whichever of
    them have I/O ready.  A client that
    reads slowly only parks its own outbox — once it crosses the
    backpressure bound the loop stops reading from it (so the session
    produces nothing more for it) until the socket drains, while every
    other session keeps moving.

    All sessions share one {!Sigcache}, so the level hashes of a given
    file are computed once for the whole fleet of clients.

    Lifecycle: past [max_sessions] live sessions the daemon still
    accepts, but answers each excess connection with a typed [Busy]
    frame naming [busy_retry_after_s] and closes it once the frame
    drains — explicit shedding instead of letting the backlog idle out.
    A session idle longer than [session_timeout_s] gets a typed
    [Error_msg] teardown; signal handlers may call {!request_stop} (it
    only flips a flag), after which {!run} notifies unfinished sessions,
    drains for a bounded window and closes everything. *)

type t

type config = {
  sync : Msg.sync_config;
  max_sessions : int;       (** excess connections are shed with [Busy] *)
  session_timeout_s : float;
  max_outbox : int;         (** per-connection backpressure bound, bytes *)
  cache_entries : int;      (** shared signature-cache capacity *)
  busy_retry_after_s : float; (** retry-after hint carried by [Busy] *)
}

val default_config : config
(** 64 sessions, 30 s timeout, 4 MiB outbox, 1024 cache entries, 0.5 s
    busy retry-after. *)

type machine = {
  on_message : string -> string list;
      (** one frame in, encoded replies out; raises typed errors *)
  finished : unit -> bool;
}
(** A server state machine of another dialect, fed exactly like a
    {!Session}: the opening [Hello] first. *)

type route =
  | Read_only of (string * string) list
      (** a {!Session} over these files with no publisher: it serves
          pulls and refuses uploads with a typed teardown *)
  | Machine of machine

val create :
  ?config:config ->
  ?scope:Fsync_obs.Scope.t ->
  ?store:Fsync_store.Store.t ->
  ?route:(Msg.swarm_hello option -> route) ->
  (string * string) list ->
  t
(** Serve the given [(path, content)] collection.  With [store], the
    collection is ingested (chunked, manifested) at startup, every
    session shares the store for push dedup and store-served payloads,
    and the signature cache is wired to the store's [sigs/] directory:
    vectors computed on a miss persist, and persisted vectors from a
    previous run are seeded back as warm entries — the warm-start
    protocol of DESIGN.md §11.

    Without [route], every connection gets a {!Session} over the
    collection as it stands at {!add_connection}, publishing verified
    pushes back into it.  With [route], a connection's opening frame
    must be a [Hello], and [route] picks its machine from the Hello's
    swarm extension: this is how the swarm's [Peer] serves gossip
    exchanges and plain read-only pulls from one loop (DESIGN.md §13).
    Everything else — limits, [Busy] shedding, idle timeouts,
    teardown, counters, the event log — is the same for every
    machine. *)

val listen : t -> host:string -> port:int -> int
(** Bind and listen on [host] (numeric, e.g. ["127.0.0.1"]) and [port];
    returns the actual port (useful with port [0]).
    @raise Unix.Unix_error on bind failure. *)

(** {2 Telemetry (DESIGN.md §9)} *)

val admin_listen : t -> host:string -> port:int -> int
(** Bind a second, admin-only listener served inside the same select
    loop; returns the actual port.  Admin connections are one-shot:
    one framed request — ["metrics"] for the Prometheus text
    exposition, ["status"] for the [fsyncd-status/1] JSON document —
    one framed reply, then close.  Anything else (an HTTP probe, an
    unknown body, an oversized header) tears down only that admin
    connection; data sessions never notice.
    @raise Unix.Unix_error on bind failure. *)

val admin_prometheus : t -> string
(** The scrape body: the registry's {!Fsync_obs.Registry.to_prometheus}
    (live gauges — [sessions_active], [uptime_s], [sigcache_hit_rate],
    store aggregates — refreshed first) when the daemon has an enabled
    scope, or a minimal exposition of the native counters when not. *)

val status_doc : t -> Fsync_obs.Json.t
(** The [fsyncd-status/1] document: uptime, served file count,
    session/sigcache/store/admin aggregates, and one entry per active
    session (peer, trace id, live phase, age, bytes). *)

val set_event_log :
  t ->
  ?io:Fsync_store.Io.t ->
  ?max_bytes:int ->
  ?slow_s:float ->
  string ->
  unit
(** Start the structured JSONL lifecycle log ({!Event_log}; best-effort,
    size-rotated at [max_bytes]): [session_start] / [session_end] /
    [session_shed] / [session_timeout] / [session_resume] /
    [daemon_stop], plus [slow_session] for sessions outliving [slow_s]
    (default: never).  [io] injects a fault-schedule filesystem for the
    torture harness. *)

val set_trace_stream : t -> ?io:Fsync_store.Io.t -> string -> unit
(** Stream every finished session's private trace registry (spans +
    per-session counters, stamped with the wire-carried trace id, role
    ["server"]) to the given JSONL file — the daemon half of what
    [fsync trace report] joins. *)

val event_log_errors : t -> int
(** Write failures absorbed by both sinks so far. *)

val add_connection : t -> Unix.file_descr -> unit
(** Register an already-connected descriptor (e.g. one end of a
    socketpair under the loopback test driver) as a new session.  The
    fd is made non-blocking and owned by the daemon from here on. *)

val step : ?timeout_s:float -> t -> unit
(** One event-loop iteration: select (default 50 ms), accept, read and
    feed sessions, flush outboxes, reap finished / failed / timed-out
    connections.  Never raises on peer misbehavior. *)

val run : ?timeout_s:float -> ?drain_s:float -> t -> unit
(** {!step} until {!request_stop}, then notify, drain (default 2 s
    budget) and {!shutdown}. *)

val request_stop : t -> unit
(** Async-signal-safe: only sets a flag read by {!run}. *)

val shutdown : t -> unit
(** Flush what can be flushed without waiting, close every connection
    and the listener. *)

val active_sessions : t -> int

val cache : t -> Sigcache.t

val store : t -> Fsync_store.Store.t option

val files : t -> (string * string) list
(** The currently served collection (pushes update it live).  A routed
    daemon's sessions serve what the route names instead. *)

val sigs_loaded : t -> int
(** Persisted signature vectors seeded into the cache at startup. *)

type stats = {
  accepted : int;
  completed : int;
  failed : int;
  timeouts : int;
  shed : int; (** connections answered with [Busy] at capacity *)
  sig_persist_errors : int;
      (** best-effort signature persists that failed (counted, never
          raised — DESIGN.md §12) *)
  iterations : int; (** select iterations *)
  admin_requests : int; (** admin frames answered *)
  admin_errors : int; (** admin connections torn down as hostile *)
}

val stats : t -> stats
