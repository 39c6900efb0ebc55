(** The serving side of one file's transfer (the paper's recursive
    multiround protocol, server half).

    One machine per file; {!Batch.Serve} drives every file of a session
    through its machine in lockstep.  The swarm gossip exchange
    ({!Fsync_swarm.Gossip}) serves files through the very same state
    machine — and therefore the very same bytes — as the daemon, in
    either direction of a gossip session.

    What one file sends: either a verified [Full] (no old copy, or the
    file is too small to split), or [Begin] with the first level's
    hashes, then one [Hashes] round per [Matched] bitmap until the split
    floor, then the deflated [Tail] literals, then the receiver's ack.
    A false ack gets one verified [Full] retry before a typed
    [Verification_failed]. *)

type job = {
  path : string;      (** destination path on the receiving side *)
  content : string;
  fp : Fsync_hash.Fingerprint.t;
  has_old : bool;     (** the receiver holds an old copy to match against *)
}

type counters = {
  mutable hashes_total : int;
  mutable hashes_cached : int;
  mutable full_fallbacks : int;
  mutable rounds : int;
}
(** Shared across the files of a session; the caller owns the record. *)

val fresh_counters : unit -> counters

type send =
  | Begin of {
      new_len : int;
      fp : Fsync_hash.Fingerprint.t;
      hashes : int array;
    }
      (** open the hash rounds, with the first level's hashes *)
  | Hashes of int array  (** the next level's hashes *)
  | Tail of string       (** deflated literals of the unconfirmed blocks *)
  | Full of string       (** {!Fsync_collection.Meta_wire} file message *)
(** One file's next message, before {!Batch} keys it by slot. *)

type t

val create :
  ?full_content:(job -> string option) ->
  ?on_fallback:(unit -> unit) ->
  who:string ->
  config:Msg.sync_config ->
  cache:Sigcache.t ->
  counters:counters ->
  job ->
  t
(** [full_content] may substitute the payload of a [Full] message (the
    daemon serves store-assembled bytes when resident); [on_fallback]
    fires when a false ack triggers the full retry.  [who] prefixes
    error messages. *)

val start : t -> send
(** The opening message; check {!expecting} for what must come back. *)

val on_matched : t -> string -> send
(** Feed a [Matched] bitmap; the next [Hashes] round or the [Tail]. *)

val on_ack : t -> bool -> send option
(** Feed the ack.  [None] ends the file; [Some (Full _)] is the one
    full-fallback retry.  Raises typed [Verification_failed] when a
    verified full transfer was rejected. *)

val expecting : t -> [ `Matched | `Ack | `Done ]
