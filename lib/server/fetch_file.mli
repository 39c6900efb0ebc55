(** The receiving side of one file's transfer (the paper's recursive
    multiround protocol, client half).

    One machine per file; {!Batch.Fetch} drives every file of a session
    through its machine in lockstep, for the plain client ({!Puller})
    and the swarm ({!Fsync_swarm.Fetch_plan}) alike, so both run the
    very same matching and reconstruction code — level-hash window
    index, offset prediction, tail probes, verified rebuild. *)

type counters = {
  mutable rounds : int;
  mutable matched_bytes : int;
  mutable literal_bytes : int;
}
(** Shared across the files of a session; the caller owns the record. *)

val fresh_counters : unit -> counters

type t

val create :
  who:string ->
  config:Msg.sync_config ->
  counters:counters ->
  new_len:int ->
  fp:Fsync_hash.Fingerprint.t ->
  old:string ->
  t
(** State for one opened file ([File_begin]).  [old] is the local copy
    the level hashes are matched against ([""] when none). *)

val expect_tail : t -> bool
(** True once the split floor was reached: the next message must be the
    [Tail], not another [Hashes] round. *)

val on_hashes : t -> int array -> string
(** Match one round of level hashes; the [Matched] bitmap to answer. *)

val on_tail : t -> string -> string option
(** Rebuild from matches plus the deflated literals and verify the
    whole-file fingerprint: [Some content] is acked true, [None] false
    (the server answers with a verified [Full]). *)
