module Channel = Fsync_net.Channel
module Fd_transport = Fsync_net.Fd_transport
module Conn = Fsync_server.Conn
module Session = Fsync_server.Session
module Sigcache = Fsync_server.Sigcache
module Msg = Fsync_server.Msg
module Error = Fsync_core.Error
module Scope = Fsync_obs.Scope
module Trace = Fsync_net.Trace

(* ---- the serving side: a small select loop ---- *)

type handler =
  | Waiting (* no frame yet: the first Hello picks the machine *)
  | Swarm of Gossip.Responder.t
  | Plain of Session.t

type cstate = {
  conn : Conn.t;
  mutable handler : handler;
  mutable last_activity : float;
  mutable failing : bool; (* error queued; close once the outbox drains *)
}

type config = {
  sync : Msg.sync_config;
  max_outbox : int;
  session_timeout_s : float;
}

let default_config =
  {
    sync = Msg.default_sync_config;
    max_outbox = Conn.default_max_outbox;
    session_timeout_s = 30.0;
  }

type stats = {
  accepted : int;
  gossip_sessions : int;
  plain_sessions : int;
  completed : int;
  failed : int;
  timeouts : int;
}

type t = {
  replica : Replica.t;
  scope : Scope.t;
  policy : Resolve.policy;
  config : config;
  cache : Sigcache.t; (* shared across plain read-only sessions *)
  mutable listener : Unix.file_descr option;
  mutable conns : cstate list;
  mutable stop : bool;
  mutable accepted : int;
  mutable gossip_sessions : int;
  mutable plain_sessions : int;
  mutable completed : int;
  mutable failed : int;
  mutable timeouts : int;
}

let create ?(config = default_config) ?(scope = Scope.disabled)
    ?(policy = Resolve.default) replica =
  {
    replica;
    scope;
    policy;
    config;
    cache = Sigcache.create ();
    listener = None;
    conns = [];
    stop = false;
    accepted = 0;
    gossip_sessions = 0;
    plain_sessions = 0;
    completed = 0;
    failed = 0;
    timeouts = 0;
  }

let replica t = t.replica

let stats t =
  {
    accepted = t.accepted;
    gossip_sessions = t.gossip_sessions;
    plain_sessions = t.plain_sessions;
    completed = t.completed;
    failed = t.failed;
    timeouts = t.timeouts;
  }

let listen t ~host ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  Unix.listen fd 16;
  Unix.set_nonblock fd;
  t.listener <- Some fd;
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, p) -> p
  | Unix.ADDR_UNIX _ -> port

let add_connection t fd =
  t.accepted <- t.accepted + 1;
  t.conns <-
    {
      conn = Conn.create ~max_outbox:t.config.max_outbox fd;
      handler = Waiting;
      last_activity = Unix.gettimeofday ();
      failing = false;
    }
    :: t.conns

let queue_all c replies = List.iter (Conn.queue_msg c.conn) replies

(* Route the opening frame: a Hello carrying the swarm extension starts
   an anti-entropy exchange, a plain Hello a read-only fsyncd/1 session
   over the replica's current files.  Anything else is hostile. *)
let dispatch t c frame =
  match Msg.decode ~config:t.config.sync frame with
  | Msg.Hello { swarm = Some _; _ } ->
      let g =
        Gossip.Responder.create ~policy:t.policy ~scope:t.scope
          ~config:t.config.sync t.replica
      in
      t.gossip_sessions <- t.gossip_sessions + 1;
      c.handler <- Swarm g;
      Gossip.Responder.on_message g frame
  | Msg.Hello { swarm = None; _ } ->
      let s =
        Session.create ~config:t.config.sync ~scope:t.scope ~cache:t.cache
          (Replica.files t.replica)
      in
      t.plain_sessions <- t.plain_sessions + 1;
      c.handler <- Plain s;
      Session.on_message s frame
  | _ -> Error.malformed "Peer: expected Hello as the opening frame"

let feed t c frame =
  c.last_activity <- Unix.gettimeofday ();
  match c.handler with
  | Waiting -> dispatch t c frame
  | Swarm g -> Gossip.Responder.on_message g frame
  | Plain s -> Session.on_message s frame

let handler_finished c =
  match c.handler with
  | Waiting -> false
  | Swarm g -> Gossip.Responder.finished g
  | Plain s -> Session.finished s

let fail_conn t c err =
  if not c.failing then begin
    c.failing <- true;
    t.failed <- t.failed + 1;
    match
      Conn.queue_msg c.conn
        (Msg.encode ~config:t.config.sync
           (Msg.Error_msg (Error.to_string err)))
    with
    | () -> ()
    | exception _ -> Conn.close c.conn
  end

let feed_frames t c frames =
  List.iter
    (fun frame ->
      if not c.failing then
        match Error.guard (fun () -> feed t c frame) with
        | Ok replies -> queue_all c replies
        | Error err ->
            Trace.log "peer: session torn down: %s" (Error.to_string err);
            fail_conn t c err)
    frames

let reap t now =
  t.conns <-
    List.filter
      (fun c ->
        if Conn.closed c.conn then false
        else if Conn.peer_gone c.conn then begin
          Conn.close c.conn;
          false
        end
        else if Int.equal (Conn.pending_out c.conn) 0 && c.failing then begin
          Conn.close c.conn;
          false
        end
        else if Int.equal (Conn.pending_out c.conn) 0 && handler_finished c
        then begin
          t.completed <- t.completed + 1;
          Conn.close c.conn;
          false
        end
        else if now -. c.last_activity > t.config.session_timeout_s then begin
          t.timeouts <- t.timeouts + 1;
          Conn.close c.conn;
          false
        end
        else true)
      t.conns

let step ?(timeout_s = 0.05) t =
  let readable =
    List.filter
      (fun c -> not (Conn.over_backpressure c.conn || c.failing))
      t.conns
  in
  let writable = List.filter (fun c -> Conn.wants_write c.conn) t.conns in
  let rfds =
    (match t.listener with Some fd -> [ fd ] | None -> [])
    @ List.map (fun c -> Conn.fd c.conn) readable
  in
  let wfds = List.map (fun c -> Conn.fd c.conn) writable in
  (match Unix.select rfds wfds [] timeout_s with
  | ready_r, ready_w, _ ->
      let is_ready fds fd = List.memq fd fds in
      (match t.listener with
      | Some fd when is_ready ready_r fd ->
          let continue = ref true in
          while !continue && not t.stop do
            match Unix.accept fd with
            | client_fd, _ -> add_connection t client_fd
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
              ->
                continue := false
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
            | exception Unix.Unix_error (e, _, _) ->
                Trace.log "peer: accept: %s" (Unix.error_message e);
                continue := false
          done
      | Some _ | None -> ());
      List.iter
        (fun c ->
          if is_ready ready_r (Conn.fd c.conn) then
            match Error.guard (fun () -> Conn.handle_readable c.conn) with
            | Error err -> fail_conn t c err
            | Ok `Eof -> Conn.close c.conn
            | Ok (`Msgs (frames, _eof)) -> feed_frames t c frames)
        readable;
      List.iter
        (fun c ->
          if is_ready ready_w (Conn.fd c.conn) then Conn.handle_writable c.conn)
        writable
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
  reap t (Unix.gettimeofday ())

let request_stop t = t.stop <- true

let shutdown t =
  List.iter
    (fun c ->
      Conn.handle_writable c.conn;
      Conn.close c.conn)
    t.conns;
  t.conns <- [];
  (match t.listener with
  | Some fd -> (
      match Unix.close fd with
      | () -> ()
      | exception Unix.Unix_error _ -> ())
  | None -> ());
  t.listener <- None

let run ?timeout_s t =
  while not t.stop do
    step ?timeout_s t
  done;
  shutdown t

(* ---- the dialing side ---- *)

let connect ~host ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
  with
  | () -> fd
  | exception e ->
      (match Unix.close fd with
      | () -> ()
      | exception Unix.Unix_error _ -> ());
      raise e

let drive ~idle_timeout_s ~host ~port ~start ~on_message ~finished ~what =
  let fd = connect ~host ~port in
  let tr = Fd_transport.of_fd fd in
  let ch = Fd_transport.channel tr in
  let send frames =
    List.iter (fun m -> Channel.send ch Channel.Client_to_server m) frames
  in
  let go () =
    send start;
    let deadline = ref (Unix.gettimeofday () +. idle_timeout_s) in
    while not (finished ()) do
      if Unix.gettimeofday () > !deadline then
        Error.fail
          (Error.Channel_empty
             (Printf.sprintf "Peer: no %s reply within %.1f s" what
                idle_timeout_s));
      match Channel.recv_opt ch Channel.Server_to_client with
      | Some frame ->
          deadline := Unix.gettimeofday () +. idle_timeout_s;
          send (on_message frame)
      | None ->
          ignore
            (Fd_transport.wait_readable tr Channel.Server_to_client
               ~timeout_s:0.2)
    done
  in
  match go () with
  | () -> Fd_transport.close tr
  | exception e ->
      Fd_transport.close tr;
      raise e

let gossip ?policy ?scope ?(idle_timeout_s = 30.0) ~host ~port replica =
  let ini = Gossip.Initiator.create ?policy ?scope replica in
  drive ~idle_timeout_s ~host ~port
    ~start:(Gossip.Initiator.start ini)
    ~on_message:(Gossip.Initiator.on_message ini)
    ~finished:(fun () -> Gossip.Initiator.finished ini)
    ~what:"gossip";
  Gossip.Initiator.stats ini

let repair ?policy ?scope ?(idle_timeout_s = 30.0) ~host ~port replica ~path =
  let rep = Repair.create ?policy ?scope replica ~path in
  drive ~idle_timeout_s ~host ~port ~start:(Repair.start rep)
    ~on_message:(Repair.on_message rep)
    ~finished:(fun () -> Repair.finished rep)
    ~what:"repair";
  Repair.outcome rep
