module Error = Fsync_core.Error

let header_bytes = Fsync_net.Fd_transport.header_bytes

let max_frame = Fsync_net.Fd_transport.max_frame

let chunk_len = 65536

(* Writes to a peer that already vanished raise EPIPE only when the
   default kill-the-process SIGPIPE disposition is disabled; do it once
   for any process that owns connections. *)
let ignore_sigpipe =
  lazy
    (match Sys.set_signal Sys.sigpipe Sys.Signal_ignore with
    | () -> ()
    | exception Invalid_argument _ -> ()
    | exception Sys_error _ -> ())

type t = {
  fd : Unix.file_descr;
  mutable inbuf : Bytes.t;        (* raw bytes read, not yet framed out *)
  mutable in_start : int;         (* first unconsumed byte in [inbuf] *)
  mutable in_len : int;           (* unconsumed bytes from [in_start] *)
  outbox : Bytes.t Queue.t;       (* framed messages awaiting the socket *)
  mutable out_head_pos : int;     (* bytes of the queue head already sent *)
  mutable out_bytes : int;        (* total unsent bytes in the outbox *)
  max_outbox : int;
  mutable closed : bool;
  mutable peer_gone : bool;       (* a write hit a dead peer; fd still open *)
  mutable bytes_in : int;         (* payload bytes received *)
  mutable bytes_out : int;        (* payload bytes queued for sending *)
}

let default_max_outbox = 4 * 1024 * 1024

let create ?(max_outbox = default_max_outbox) fd =
  Lazy.force ignore_sigpipe;
  Unix.set_nonblock fd;
  {
    fd;
    inbuf = Bytes.create chunk_len;
    in_start = 0;
    in_len = 0;
    outbox = Queue.create ();
    out_head_pos = 0;
    out_bytes = 0;
    max_outbox;
    closed = false;
    peer_gone = false;
    bytes_in = 0;
    bytes_out = 0;
  }

let fd t = t.fd

let closed t = t.closed

let peer_gone t = t.peer_gone

let bytes_in t = t.bytes_in

let bytes_out t = t.bytes_out

let pending_out t = t.out_bytes

let wants_write t = (not t.closed) && (not t.peer_gone) && t.out_bytes > 0

(* Backpressure: while more than [max_outbox] bytes sit unsent, the
   event loop stops reading from this connection (and from producing
   more replies for it) until the socket drains. *)
let over_backpressure t = t.out_bytes > t.max_outbox

let be32_put len =
  let b = Bytes.create header_bytes in
  Bytes.set b 0 (Char.chr ((len lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((len lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((len lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (len land 0xff));
  b

let be32_get b off =
  (Char.code (Bytes.get b off) lsl 24)
  lor (Char.code (Bytes.get b (off + 1)) lsl 16)
  lor (Char.code (Bytes.get b (off + 2)) lsl 8)
  lor Char.code (Bytes.get b (off + 3))

let queue_msg t payload =
  let len = String.length payload in
  if len > max_frame then Error.limit "Conn: frame of %d bytes" len;
  if not (t.closed || t.peer_gone) then begin
    let framed = Bytes.cat (be32_put len) (Bytes.of_string payload) in
    Queue.add framed t.outbox;
    t.out_bytes <- t.out_bytes + Bytes.length framed;
    t.bytes_out <- t.bytes_out + len
  end

(* Make room for [extra] fresh bytes after the unconsumed region:
   compact to the front when the consumed prefix frees enough space,
   otherwise grow geometrically.  Either way accumulation of an n-byte
   frame costs O(n) amortized, not O(n^2) of repeated concatenation. *)
let ensure_capacity t extra =
  let cap = Bytes.length t.inbuf in
  if t.in_start + t.in_len + extra > cap then
    if t.in_len + extra <= cap then begin
      Bytes.blit t.inbuf t.in_start t.inbuf 0 t.in_len;
      t.in_start <- 0
    end
    else begin
      let grown = Bytes.create (max (2 * cap) (t.in_len + extra)) in
      Bytes.blit t.inbuf t.in_start grown 0 t.in_len;
      t.inbuf <- grown;
      t.in_start <- 0
    end

(* Pop every complete frame out of the input buffer. *)
let read_frames t =
  let frames = ref [] in
  let continue = ref true in
  while !continue do
    if t.in_len < header_bytes then continue := false
    else begin
      let len = be32_get t.inbuf t.in_start in
      if len > max_frame then Error.limit "Conn: incoming frame of %d bytes" len;
      if t.in_len < header_bytes + len then continue := false
      else begin
        frames :=
          Bytes.sub_string t.inbuf (t.in_start + header_bytes) len :: !frames;
        t.in_start <- t.in_start + header_bytes + len;
        t.in_len <- t.in_len - header_bytes - len;
        t.bytes_in <- t.bytes_in + len
      end
    end
  done;
  if Int.equal t.in_len 0 then t.in_start <- 0;
  List.rev !frames

let handle_readable t =
  if t.closed || t.peer_gone then `Eof
  else begin
    let eof = ref false in
    let continue = ref true in
    while !continue do
      ensure_capacity t chunk_len;
      match Unix.read t.fd t.inbuf (t.in_start + t.in_len) chunk_len with
      | 0 ->
          eof := true;
          continue := false
      | n -> t.in_len <- t.in_len + n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          continue := false
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
          eof := true;
          continue := false
    done;
    let frames = read_frames t in
    match frames with
    | [] when !eof -> `Eof
    | frames -> `Msgs (frames, !eof)
  end

let handle_writable t =
  if not (t.closed || t.peer_gone) then begin
    let continue = ref true in
    while !continue && not (Queue.is_empty t.outbox) do
      let head = Queue.peek t.outbox in
      let remaining = Bytes.length head - t.out_head_pos in
      match Unix.write t.fd head t.out_head_pos remaining with
      | n ->
          t.out_bytes <- t.out_bytes - n;
          if Int.equal n remaining then begin
            ignore (Queue.pop t.outbox);
            t.out_head_pos <- 0
          end
          else t.out_head_pos <- t.out_head_pos + n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          continue := false
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | exception
          Unix.Unix_error
            ((Unix.EPIPE | Unix.ECONNRESET | Unix.ENOTCONN), _, _) ->
          (* The peer is gone: nothing queued can ever be delivered.
             Drop the outbox but leave [closed] to {!close}, so the fd
             is actually released and the owner still sees this
             connection (to account the session) before reaping it. *)
          t.peer_gone <- true;
          Queue.clear t.outbox;
          t.out_head_pos <- 0;
          t.out_bytes <- 0;
          continue := false
    done
  end

let close t =
  if not t.closed then begin
    t.closed <- true;
    match Unix.close t.fd with
    | () -> ()
    | exception Unix.Unix_error _ -> ()
  end
