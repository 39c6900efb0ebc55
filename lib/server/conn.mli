(** Non-blocking framed connection for the daemon's event loop.

    One [t] wraps one accepted socket.  Reads accumulate in an input
    buffer and surface as complete frames; writes queue framed messages
    in a bounded outbox drained as the socket accepts bytes.

    Backpressure: once more than [max_outbox] bytes sit unsent the loop
    must stop reading from (and producing replies for) this connection
    until {!handle_writable} drains it — see {!over_backpressure}. *)

type t

val default_max_outbox : int
(** 4 MiB. *)

val create : ?max_outbox:int -> Unix.file_descr -> t
(** Sets the fd non-blocking.  [max_outbox] defaults to
    {!default_max_outbox}. *)

val fd : t -> Unix.file_descr

val closed : t -> bool

val peer_gone : t -> bool
(** True once a write hit a dead peer (EPIPE and friends).  The fd is
    still open — the owner must observe the flag, account the session
    and call {!close}. *)

val bytes_in : t -> int
(** Payload bytes received (framing headers excluded). *)

val bytes_out : t -> int
(** Payload bytes queued for sending (framing headers excluded). *)

val pending_out : t -> int
(** Unsent bytes currently in the outbox, headers included. *)

val wants_write : t -> bool
(** True when the event loop should select this fd for writability. *)

val over_backpressure : t -> bool

val queue_msg : t -> string -> unit
(** Frame and enqueue one message.  Raises a typed
    {!Fsync_core.Error} on oversized payloads; silently drops after
    {!close}. *)

val handle_readable : t -> [ `Eof | `Msgs of string list * bool ]
(** Drain the socket without blocking and return every complete frame.
    [`Msgs (frames, eof)] reports frames plus whether the peer closed
    after sending them; [`Eof] means closed with nothing new.  Raises a
    typed {!Fsync_core.Error} when an incoming header declares a frame
    over the protocol limit — callers must guard and tear down only
    this connection. *)

val handle_writable : t -> unit
(** Push queued bytes until the socket would block or the outbox is
    empty.  A broken pipe drops the outbox and sets {!peer_gone}; the
    fd stays open until {!close}. *)

val close : t -> unit
(** Idempotent; closes the fd. *)
