(** Quorum read-repair for a single path ([fsync swarm repair PATH]).

    One [t] is one probe session against one peer, as a message-in /
    messages-out machine over the fsyncd/1 wire: Hello (swarm extension)
    ⇄ Welcome + greeting, then a [Swarm_query] for the path, the peer's
    single-entry [Swarm_table] answer, a {!Plan.decide} against the
    local entry, any [Remote] content pulls, and [Swarm_end] ⇄ [Bye]
    (the roots legitimately differ — only one path was repaired, so no
    root check is made).

    A driver folds sessions over the configured peers in order — each
    session plans against the local state left by the previous one, so
    after visiting all peers the local entry dominates (or conflicts
    with, surfaced as [.fsync-conflict] siblings) every answer seen.
    {!Swarm_loopback.repair} is the in-process driver; the CLI runs the
    same machine over sockets. *)

type outcome = {
  peer : string;      (** responding peer id ("?" if it never greeted) *)
  had_entry : bool;   (** the peer knew the path at all *)
  pulled : int;       (** contents fetched from this peer *)
  installed : int;    (** entries recorded locally after this session *)
  conflict : bool;    (** this peer's entry conflicted with ours *)
}

type t

val create :
  ?policy:Resolve.policy ->
  ?scope:Fsync_obs.Scope.t ->
  Replica.t ->
  path:string ->
  t
(** Raises a typed error on an invalid path. *)

val start : t -> string list
(** The opening [Hello] (encoded frames, send order). *)

val on_message : t -> string -> string list

val finished : t -> bool
val failed : t -> bool
val peer_id : t -> string option
val outcome : t -> outcome
