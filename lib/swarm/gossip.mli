(** One anti-entropy exchange between two peers over the fsyncd/1 wire
    (DESIGN.md §13), as a pair of pure message-in / messages-out state
    machines — the swarm's counterpart of {!Fsync_server.Session} and
    {!Fsync_server.Puller}, sharing their transfer machinery (the
    {!Fsync_server.Batch} driver over {!Fsync_server.Serve_file} /
    {!Fsync_server.Fetch_file}) byte for byte.

    Session shape (initiator ⇄ responder):
    + [Hello] (swarm extension: peer id + Merkle summary) ⇄ [Welcome]
      + a recon {e greeting} carrying the responder's root digest;
    + equal roots short-circuit to [Swarm_end] ⇄ [Bye] — a converged
      pair costs four tiny frames;
    + otherwise the initiator descends the Merkle tree with batched
      range queries (one frame per level) until it holds the symmetric
      difference, then both sides exchange entry tables and compute the
      {e same} {!Plan} independently;
    + the initiator requests all its [Remote] installs in one
      [Swarm_fetch] and pulls them in lockstep (multiround hash
      protocol, one round trip per level for the whole phase, verified
      [Full] fallback), then [Swarm_end] hands the wire to the
      responder, which pulls its own installs the same way in the
      opposite direction;
    + the responder applies its plan, answers [Bye] with its post-apply
      root; the initiator applies, and fails typed
      ([Verification_failed]) unless the roots now match.

    Conflicts surface in the plan (never silently): concurrent edits
    land as [<path>.fsync-conflict.<author>] siblings on both sides.
    Either machine raises typed {!Fsync_core.Error} values on protocol
    violations; the replica is only mutated at apply time, content files
    first, vector table last. *)

type stats = {
  conflicts : int;      (** conflict pairs surfaced by this side's plan *)
  files_pulled : int;   (** contents fetched from the peer *)
  installs : int;       (** entries this side recorded at apply time *)
  bytes_in : int;       (** decoded payload bytes received *)
  bytes_out : int;      (** encoded payload bytes sent *)
  short_circuit : bool; (** the equal-roots fast path fired *)
}

module Initiator : sig
  type t

  val create :
    ?policy:Resolve.policy -> ?scope:Fsync_obs.Scope.t -> Replica.t -> t

  val start : t -> string list
  (** The opening [Hello] (encoded frames, send order). *)

  val on_message : t -> string -> string list

  val finished : t -> bool
  val failed : t -> bool
  val peer_id : t -> string option
  (** The responder's peer id, once greeted. *)

  val stats : t -> stats
end

module Responder : sig
  type t

  val create :
    ?policy:Resolve.policy ->
    ?scope:Fsync_obs.Scope.t ->
    ?config:Fsync_server.Msg.sync_config ->
    Replica.t ->
    t

  val on_message : t -> string -> string list
  (** Feed the initiator's frames, starting with its [Hello].  A Hello
      without the swarm extension is a typed error — route those to a
      plain {!Fsync_server.Session} instead (see {!Peer}). *)

  val finished : t -> bool
  val failed : t -> bool
  val peer_id : t -> string option
  val stats : t -> stats
end
