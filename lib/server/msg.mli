(** fsyncd/1 message codec: one tag byte plus a varint-framed body.

    The daemon and the puller exchange these over a frame transport
    ({!Conn} server-side, {!Fsync_net.Fd_transport} client-side); one
    frame carries exactly one message, so one message kind.  The
    metadata bodies ([Announce], [Verdict]) and the verified full-file
    payload inside [Full] are opaque here — their encodings live in
    {!Fsync_collection.Meta_wire} so the daemon serves byte-identical
    metadata to the in-memory driver.

    Every per-file message is keyed by a {e slot}: the file's index in
    the session's job order, which both ends derive from the [Verdict]
    (the announced paths it marks as not up to date, in announce order,
    then its new paths).  A batch frame ([File_begin], [Hashes],
    [Matched], [File_ack], and on a push [Push_begin] and [Chunk_need])
    carries one item per slot, in ascending slot order; [Tail] and
    [Full] carry one file each.  The two ends take turns ({!Batch}): a
    server turn opens files and answers every client reply of the
    previous turn at once, so a pull costs one round trip per hash
    level, not per file per level.

    Pull flow (unchanged since rev 4):
    {v
    client                              server
      Hello             ->
                        <-  Welcome (count, root, sync parameters)
      [Resume] Announce ->
                        <-  Verdict
                        <-  File_begin (slot, len, fp)*   opened files
                        <-  Full (slot)                   one per file
                        <-  Hashes (slot, level hashes)*  ends the turn
      File_ack (slot)*  ->
      Matched (slot, bitmap)* ->
                        <-  Tail (slot) / Full (slot)     one per file
                        <-  Hashes (slot, next level)*    ends the turn
      ...               one round trip per hash level
      File_ack (slot)*  ->                    false: a [Full] follows
                        <-  Bye (collection root)
    v}

    A server turn always ends with its [Hashes] frame, empty when no
    file is in a hash round, or with [Bye]; a client turn is over once
    every slot the server sent to has been answered.  At most
    {!Batch.turn_budget} bytes of [Tail]/[Full] payload go into one
    turn; the rest waits for the next one.

    Push flow (rev 5; a client uploads into a store-backed daemon).  The
    [Hello] / [Welcome] opening is shared; the first [Push_begin] picks
    the direction.  Uploads take turns the same way: the client numbers
    its files 0, 1, ... in upload order and keys every message by that
    slot, one frame per message kind per turn.
    {v
    client                           server
      Push_begin (slot, path, len, fp, manifest)* ->
                       <-  Chunk_need (slot, bitmap)*   1 = upload it
      Chunk_data       ->   one deflated payload: the needed chunks,
                            ascending slot order, then manifest order
      Push_begin (next slots)* | Push_done ->
                       <-  File_ack (slot, true)*       files stored
                       <-  Chunk_need (slot, all ones)* store-failure
                                                        retry, at most
                                                        once per slot,
                                                        then the next
                                                        slots' bitmaps
      ...              one round trip per turn, then:
                       <-  Bye (root of the pushed set), once
                           [Push_done] is in and every slot is acked
    v}

    A client turn opens slots while their declared lengths stay under
    {!Batch.turn_budget} (at least one per turn), so a push whose files
    fit in one turn costs three round trips whatever its file count.
    The client knows a server turn is over once every slot it is
    waiting on has been answered; the server knows a client turn is
    over at its [Push_begin] or [Push_done], or at its [Chunk_data]
    when [Push_done] came earlier. *)

val version : int
(** Current protocol revision (5: per-file messages are slot-keyed and
    batched per turn, uploads included; [Hello] may carry a trace id
    and, after it, the swarm extension — peer id plus entry-table root
    digest, DESIGN.md §13). *)

val min_version : int
(** Oldest revision both endpoints still accept (5: revision 5 is a
    clean break). *)

val version_ok : int -> bool
(** [min_version <= v <= version]. *)

val trace_bytes : int
(** Raw size of the [Hello] trace id: 16. *)

type sync_config = {
  start_block : int;  (** initial block size; both sides build the same
                          {!Fsync_core.Block_tree} from it *)
  min_block : int;    (** no split below this block size *)
  hash_bits : int;    (** truncated poly-hash width per block *)
}

val default_sync_config : sync_config
(** 2048 / 64 / 30 — mirrors the protocol defaults.  30-bit block hashes
    have no interactive verification here; collisions are caught by the
    per-file fingerprint and repaired by the [Full] fallback. *)

val validate_sync_config : sync_config -> sync_config
(** Clamp to sane bounds (hash bits 8–56, blocks ≥ 16). *)

val hash_width : sync_config -> int
(** Bytes per truncated hash on the wire. *)

type swarm_hello = {
  peer : string;  (** the initiating replica's peer id *)
  summary : Fsync_hash.Fingerprint.t;
      (** root digest of the initiator's swarm entry table
          ({!Fsync_swarm.Replica}): equal summaries short-circuit a
          gossip session to a handful of tiny frames *)
}
(** The [Hello] extension that turns a session into an anti-entropy
    gossip exchange (DESIGN.md §13). *)

type file_begin = {
  new_len : int;
  fp : Fsync_hash.Fingerprint.t;
}
(** Opens a slot for the hash rounds: the new file's length and
    whole-file fingerprint.  The path is the slot's. *)

type push_begin = {
  path : string;
  file_len : int;
  fp : Fsync_hash.Fingerprint.t;
  manifest : (Fsync_hash.Fingerprint.t * int) list;
      (** the file as content-defined chunks, in order: (strong
          fingerprint, length) per chunk *)
}
(** Opens an upload slot: the file's path, length and fingerprint, and
    its chunk manifest. *)

type t =
  | Hello of {
      version : int;
      trace : string option;
      swarm : swarm_hello option;
    }
      (** [trace] is exactly {!trace_bytes} raw bytes when present; a
          peer that sends none gets an id minted by the server, so
          every session ends up traceable either way (DESIGN.md §9).
          [swarm] asks the peer for a gossip exchange instead of a
          plain pull/push session; its wire form requires a trace slot,
          so a swarm Hello without a trace carries an all-zero id. *)
  | Welcome of {
      version : int;
      file_count : int;
      root : Fsync_hash.Fingerprint.t;
      config : sync_config;
    }
  | Announce of string  (** {!Fsync_collection.Meta_wire} announce bytes *)
  | Verdict of string   (** {!Fsync_collection.Meta_wire} verdict bytes *)
  | File_begin of (int * file_begin) list
      (** slots opened for hash rounds this turn *)
  | Hashes of (int * int array) list
      (** per slot, the truncated level hashes, one per active block in
          canonical (ascending-offset) order — never block ids: both
          sides derive the same tree.  Ends every server turn of the
          transfer phase, with no items when no file is hashing. *)
  | Matched of (int * string) list
      (** per slot, a bitmap with one bit per active block, 1 = matched *)
  | Tail of { slot : int; literals : string }
      (** deflated literals of the slot's unconfirmed blocks *)
  | Full of { slot : int; body : string }
      (** {!Fsync_collection.Meta_wire} file message for the slot *)
  | File_ack of (int * bool) list
      (** per slot, false asks for the [Full] fallback; on a push, true
          means the file is stored and published *)
  | Bye of { root : Fsync_hash.Fingerprint.t }
  | Error_msg of string (** typed teardown notification *)
  | Push_begin of (int * push_begin) list
      (** upload slots opened this turn *)
  | Chunk_need of (int * string) list
      (** per slot, a bitmap over its manifest, 1 = the server wants
          that chunk *)
  | Chunk_data of string
      (** deflated concatenation of exactly the chunks the last
          [Chunk_need] asked for: ascending slot order, then manifest
          order *)
  | Push_done  (** no more files; the server answers [Bye] *)
  | Resume of { root : Fsync_hash.Fingerprint.t; bitmap : string }
      (** client → server, between [Welcome] and [Announce]: the client
          holds verified content for these jobs from an interrupted
          session against the same collection [root].  The bitmap has
          one bit per announced path (announce order) followed by one
          bit per new path (path-sorted); 1 = already complete, skip it.
          Ignored if [root] no longer matches the served collection. *)
  | Busy of { retry_after_ms : int }
      (** server → client, instead of [Welcome]: the daemon is at its
          session cap; reconnect after the given delay (DESIGN.md §12) *)
  | Swarm_table of string
      (** {!Fsync_swarm.Swarm_wire} entry-table bytes: each endpoint's
          version-vector entries for the paths the recon descent found
          to differ *)
  | Swarm_recon of string
      (** one round of the split Merkle descent over the entry table
          ({!Fsync_swarm.Swarm_wire}: greeting, range queries, range
          replies) *)
  | Swarm_query of string
      (** read-repair: ask for the entry of one path ([""] = the whole
          table, for [fsync swarm status]) *)
  | Swarm_fetch of string
      (** read-repair: ask for the verified [Full] payload of a path *)
  | Swarm_end
      (** end of the sender's serving direction inside a gossip
          session; from the initiator after the push phase it asks for
          the closing [Bye] *)

val label : t -> string
(** Channel transcript label ([srv:*], plus the shared [linear:*] /
    [file:data] labels for the phases the driver also has). *)

val wire_label : string -> string
(** {!label} from the tag byte of an already-encoded frame, without
    decoding the body. *)

val encode : config:sync_config -> t -> string

val decode : config:sync_config -> string -> t
(** Raises typed {!Fsync_core.Error} values on malformed input (via the
    hardened readers), and nothing else.  Batch items must come in
    strictly ascending slot order (so no slot repeats) and fill the
    frame exactly; every count is bounded by the bytes left before it
    is trusted.  [config] fixes the hash width for [Hashes]. *)

(** {2 Shared protocol rules}

    Both endpoints mirror the same {!Fsync_core.Block_tree}; the bitmap
    order and the split-vs-tail decision are functions of public state
    only and must agree bit for bit. *)

val encode_bitmap : bool list -> string
(** One bit per active block in canonical order, MSB first. *)

val decode_bitmap : count:int -> string -> bool array
(** Inverse; the byte length must match [count] exactly. *)

val decide_next : config:sync_config -> Fsync_core.Block_tree.t -> [ `Split | `Tail ]
(** After a round's confirmations: split and hash again while blocks
    remain and the next size stays at or above [min_block], otherwise
    ship the unconfirmed bytes as deflated literals. *)
