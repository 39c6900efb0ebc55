(** The fetching side of a swarm transfer phase: execute the [Remote]
    installs of a {!Plan} over the wire, all at once, using the shared
    batch driver ({!Fsync_server.Batch.Fetch}) — the glue between a plan
    and the [Swarm_fetch] / [File_begin] / [Hashes] / [Tail] / [Full]
    frames.  One [Swarm_fetch] frame requests every file of the phase;
    each request's position is its slot.  Used by both {!Gossip} (each
    direction of the transfer phase) and {!Repair}. *)

type t

val create : config:(unit -> Fsync_server.Msg.sync_config) -> Replica.t -> t
(** [config] is read when the requests go out, so a config adopted from
    the peer's [Welcome] takes effect. *)

val enqueue : t -> Plan.install list -> unit
(** Queue the [Remote]-sourced installs of a plan ([Local] and [Absent]
    ones need no wire traffic and are skipped). *)

val start : t -> Fsync_server.Msg.t list
(** The [Swarm_fetch] frame requesting every queued install, or [[]]
    when nothing is queued (the phase is then already {!complete}).
    Call once per phase. *)

val on_message : t -> Fsync_server.Msg.t -> Fsync_server.Msg.t list
(** Feed one frame of the server's turn; this side's turn once it ends
    (see {!Fsync_server.Batch.Fetch.on_message}). *)

val complete : t -> bool
(** Every requested file verified and acked — the caller moves on. *)

val pulled : t -> string -> string option
(** Fetched content by install destination, for apply time. *)

val count : t -> int
(** Files fetched so far. *)
