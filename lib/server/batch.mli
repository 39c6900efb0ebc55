(** Lockstep driver for every file of a transfer: one frame per message
    kind per turn (fsyncd/1 rev 4, DESIGN.md §10).

    The paper amortizes round-trip latency across the collection: "many
    files can be processed simultaneously" (§2.3).  This module is where
    that happens, for the daemon's pulls ({!Session} / {!Puller}) and
    the swarm's fetches ({!Fsync_swarm.Gossip}, {!Fsync_swarm.Repair})
    alike; uploads ({!Session} / {!Pusher}) take turns on the same
    budget and slot rules (fsyncd/1 rev 5).  Each file keeps its own
    per-file machine ({!Serve_file} on the sending side, {!Fetch_file}
    on the receiving side); the driver only keys their messages by slot
    and takes turns:

    - a {e server turn} answers every client reply of the previous turn
      and opens queued files: one [File_begin] frame, one [Tail] or
      [Full] frame per file, and one closing [Hashes] frame (empty when
      no file is hashing);
    - a {e client turn} answers every slot the server turn touched: one
      [File_ack] frame and one [Matched] frame, each holding all of the
      turn's items.

    The server ends each turn with its [Hashes] frame, so the client
    knows when to answer; the client's turn is over once every slot the
    server is waiting on has replied, so the server needs no marker.
    Slots live in arrays: every lookup is O(1), and a slot out of range,
    a repeat within one turn or a message its file cannot take now is a
    typed [Malformed] error. *)

val turn_budget : int
(** Bytes of [Tail]/[Full] payload one server turn may queue:
    {!Conn.default_max_outbox}.  A turn always sends at least one
    literal; past the budget the rest wait for later turns, so a clone
    larger than the budget takes extra turns instead of pushing the
    whole collection into one outbox.  A push turn opens files the
    same way, up to this many declared bytes. *)

val check_slot : who:string -> count:int -> int -> unit
(** A slot outside [0, count) is a typed [Malformed] error; [who]
    prefixes the message. *)

(** The sending side. *)
module Serve : sig
  type t

  val create :
    who:string ->
    make:(Serve_file.job -> Serve_file.t) ->
    slots:int ->
    (int * Serve_file.job) list ->
    t
  (** [slots] is the size of the slot space; each listed job sits at
      its slot, and slots with no job are never opened.  [make] builds
      a file's machine when the job is opened; [who] prefixes error
      messages. *)

  val start : t -> Msg.t list
  (** The opening turn (empty when there is no job at all). *)

  val on_message : t -> Msg.t -> Msg.t list
  (** Feed one [Matched] or [File_ack] frame of a client turn.  Returns
      [[]] until every awaited slot has replied, then the next server
      turn — [[]] again once every job is done, see {!complete}.  Any
      other message is a typed error. *)

  val complete : t -> bool
  (** Every job acked: nothing more to send. *)

  val hashing : t -> bool
  (** The last turn sent hashes: the session is in its hash rounds
      rather than its literals (for phase spans). *)
end

(** The receiving side. *)
module Fetch : sig
  type t

  val create :
    who:string ->
    config:Msg.sync_config ->
    counters:Fetch_file.counters ->
    path:(int -> string) ->
    old:(int -> string) ->
    on_file:(int -> string -> unit) ->
    slots:int ->
    t
  (** [path slot] is the slot's path (a [Full] must name it), [old slot]
      the local copy its hashes are matched against ([""] when none).
      [on_file slot content] fires as soon as a file verifies, before
      the turn's acks are sent — what a resume token counts. *)

  val on_message : t -> Msg.t -> Msg.t list
  (** Feed one [File_begin], [Tail], [Full] or [Hashes] frame of a
      server turn.  Returns [[]] until the turn's closing [Hashes]
      frame, then this side's whole turn: its [File_ack] frame and its
      [Matched] frame, whichever have items.  Any other message is a
      typed error, and so is a server turn that touches no slot. *)

  val idle : t -> bool
  (** At a turn boundary with no file mid-transfer: the only state in
      which the server may close the session. *)

  val complete : t -> bool
  (** Every slot verified and acked. *)

  val hashing : t -> bool
  (** Some opened file still expects hash rounds (for phase spans). *)
end
