module Channel = Fsync_net.Channel
module Fd_transport = Fsync_net.Fd_transport
module Error = Fsync_core.Error

type pull_result = {
  files : (string * string) list;
  stats : Puller.stats;
  c2s_bytes : int;
  s2c_bytes : int;
  c2s_msgs : int;
  s2c_msgs : int;
  roundtrips : int;
}

let count_dir ch dir =
  List.length
    (List.filter
       (fun (d, _, _) ->
         match (d, dir) with
         | Channel.Client_to_server, Channel.Client_to_server
         | Channel.Server_to_client, Channel.Server_to_client ->
             true
         | Channel.Client_to_server, Channel.Server_to_client
         | Channel.Server_to_client, Channel.Client_to_server ->
             false)
       (Channel.transcript ch))

let send_all ch msgs =
  List.iter
    (fun m ->
      Channel.send ch ~label:(Msg.wire_label m) Channel.Client_to_server m)
    msgs

let result_of ch puller =
  {
    files = Puller.result puller;
    stats = Puller.stats puller;
    c2s_bytes = Channel.bytes ch Channel.Client_to_server;
    s2c_bytes = Channel.bytes ch Channel.Server_to_client;
    c2s_msgs = count_dir ch Channel.Client_to_server;
    s2c_msgs = count_dir ch Channel.Server_to_client;
    roundtrips = Channel.roundtrips ch;
  }

let run_pulls ?(max_iterations = 1_000_000) ?prepare ~daemon clients =
  let states =
    List.mapi
      (fun i files ->
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Daemon.add_connection daemon b;
        let tr = Fd_transport.of_fd a in
        (match prepare with
        | Some f -> f i (Fd_transport.channel tr)
        | None -> ());
        let puller = Puller.create files in
        send_all (Fd_transport.channel tr) (Puller.start puller);
        (tr, puller, ref false))
      clients
  in
  let remaining () = List.exists (fun (_, _, d) -> not !d) states in
  let iter = ref 0 in
  while remaining () && !iter < max_iterations do
    incr iter;
    Daemon.step ~timeout_s:0.0 daemon;
    List.iter
      (fun (tr, puller, done_) ->
        if not !done_ then
          let ch = Fd_transport.channel tr in
          match Channel.recv_opt ch Channel.Server_to_client with
          | Some frame ->
              send_all ch (Puller.on_message puller frame);
              if Puller.finished puller then done_ := true
          | None -> ())
      states
  done;
  if remaining () then
    Error.fail
      (Error.Channel_empty "Loopback: pulls stalled before completion");
  List.map
    (fun (tr, puller, _) ->
      let r = result_of (Fd_transport.channel tr) puller in
      Fd_transport.close tr;
      r)
    states

type push_result = {
  pusher : Pusher.stats;
  up_bytes : int;
  down_bytes : int;
  roundtrips : int;
}

(* Same pump as [run_pulls], upload direction: used concurrently for
   interleaving coverage and one-client-at-a-time when a caller wants
   each push to see the chunks its predecessors left in the store. *)
let run_pushes ?(max_iterations = 1_000_000) ?params ~daemon clients =
  let states =
    List.map
      (fun files ->
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Daemon.add_connection daemon b;
        let tr = Fd_transport.of_fd a in
        let pusher = Pusher.create ?params files in
        send_all (Fd_transport.channel tr) (Pusher.start pusher);
        (tr, pusher, ref false))
      clients
  in
  let remaining () = List.exists (fun (_, _, d) -> not !d) states in
  let iter = ref 0 in
  while remaining () && !iter < max_iterations do
    incr iter;
    Daemon.step ~timeout_s:0.0 daemon;
    List.iter
      (fun (tr, pusher, done_) ->
        if not !done_ then
          let ch = Fd_transport.channel tr in
          match Channel.recv_opt ch Channel.Server_to_client with
          | Some frame ->
              send_all ch (Pusher.on_message pusher frame);
              if Pusher.finished pusher then done_ := true
          | None -> ())
      states
  done;
  if remaining () then
    Error.fail
      (Error.Channel_empty "Loopback: pushes stalled before completion");
  List.map
    (fun (tr, pusher, _) ->
      let ch = Fd_transport.channel tr in
      let r =
        {
          pusher = Pusher.stats pusher;
          up_bytes = Channel.bytes ch Channel.Client_to_server;
          down_bytes = Channel.bytes ch Channel.Server_to_client;
          roundtrips = Channel.roundtrips ch;
        }
      in
      Fd_transport.close tr;
      r)
    states

let run_in_memory ?config ?scope ~cache ~server ~client () =
  let ch = Channel.create () in
  let session = Session.create ?config ?scope ~cache server in
  let puller = Puller.create client in
  let send dir m = Channel.send ch ~label:(Msg.wire_label m) dir m in
  List.iter (send Channel.Client_to_server) (Puller.start puller);
  let progress = ref true in
  while !progress do
    match Channel.recv_opt ch Channel.Client_to_server with
    | Some m ->
        List.iter (send Channel.Server_to_client) (Session.on_message session m)
    | None -> (
        match Channel.recv_opt ch Channel.Server_to_client with
        | Some m ->
            List.iter (send Channel.Client_to_server) (Puller.on_message puller m)
        | None -> progress := false)
  done;
  if not (Puller.finished puller) then
    Error.fail (Error.Channel_empty "Loopback: in-memory run stalled");
  (result_of ch puller, Session.stats session)
