(** Codecs for the opaque bodies of the swarm messages
    ([Swarm_recon] / [Swarm_table] / [Swarm_query] / [Swarm_fetch] in
    {!Fsync_server.Msg}).

    The Merkle descent is split across the wire with three recon frames:
    the responder's greeting, the initiator's batched range queries (one
    frame per tree level), and the responder's batched answers — each
    range either [Equal], expanded to its [Leaves] (path + entry
    digest), or [Descend]ed into child-range digests the initiator
    prunes locally.  All decoders are hardened: lengths and counts are
    validated before any read or allocation, and failures surface as
    typed {!Fsync_core.Error} values. *)

type query = { range : Fsync_reconcile.Merkle.range; digest : string }
(** A canonical range plus the sender's 16-byte digest of it. *)

type answer =
  | Equal of Fsync_reconcile.Merkle.range
  | Leaves of
      Fsync_reconcile.Merkle.range
      * (string * Fsync_hash.Fingerprint.t) list
      (** the responder's (path, entry-digest) leaves in the range *)
  | Descend of Fsync_reconcile.Merkle.range * query list
      (** the responder's child-range digests *)

type recon =
  | Greet of { peer : string; root : string }
      (** responder's opening: its peer id and 16-byte Merkle root *)
  | Queries of query list
  | Answers of answer list

val encode_recon : recon -> string
val decode_recon : string -> recon

val encode_table : (string * Replica.entry option) list -> string
(** Path-sorted [(path, entry)] pairs; [None] marks a path the sender
    has no entry for (an absence marker, distinct from a tombstone). *)

val decode_table : string -> (string * Replica.entry option) list

type fetch = { path : string; has_old : bool }
(** A content request: [has_old] tells the server whether hash rounds
    against the requester's old copy are worth opening. *)

val encode_fetch : fetch list -> string
(** One [Swarm_fetch] carries every request of a transfer phase; the
    request's position is its slot in the batched transfer that
    answers it ({!Fsync_server.Batch}). *)

val decode_fetch : string -> fetch list

val encode_query : string -> string
(** A read-repair entry probe: just the path. *)

val decode_query : string -> string
