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

let send ch dir msgs =
  List.iter (fun m -> Channel.send ch ~label:(Msg.wire_label m) dir m) msgs

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

let puller_machine p =
  {
    Backoff.start = (fun () -> Puller.start p);
    on_message = Puller.on_message p;
    finished = (fun () -> Puller.finished p);
  }

let pump ?(max_iterations = 1_000_000) ?prepare ~daemon ~what machines =
  let clients =
    List.mapi
      (fun i (m : Backoff.machine) ->
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Daemon.add_connection daemon b;
        let tr = Fd_transport.of_fd a in
        let ch = Fd_transport.channel tr in
        (match prepare with Some f -> f i ch | None -> ());
        send ch Channel.Client_to_server (m.start ());
        (tr, m))
      machines
  in
  let remaining () =
    List.exists (fun (_, m) -> not (m.Backoff.finished ())) clients
  in
  let iter = ref 0 in
  Fun.protect
    ~finally:(fun () -> List.iter (fun (tr, _) -> Fd_transport.close tr) clients)
    (fun () ->
      while remaining () && !iter < max_iterations do
        incr iter;
        Daemon.step ~timeout_s:0.0 daemon;
        List.iter
          (fun (tr, (m : Backoff.machine)) ->
            if not (m.finished ()) then
              let ch = Fd_transport.channel tr in
              match Channel.recv_opt ch Channel.Server_to_client with
              | Some frame ->
                  send ch Channel.Client_to_server (m.on_message frame)
              | None -> ())
          clients
      done;
      if remaining () then
        Error.channel_empty "Loopback: %s stalled before completion" what);
  List.map (fun (tr, _) -> Fd_transport.channel tr) clients

let run_pulls ?max_iterations ?prepare ~daemon clients =
  let pullers = List.map (fun files -> Puller.create files) clients in
  List.map2 result_of
    (pump ?max_iterations ?prepare ~daemon ~what:"pulls"
       (List.map puller_machine pullers))
    pullers

type push_result = {
  pusher : Pusher.stats;
  up_bytes : int;
  down_bytes : int;
  roundtrips : int;
}

(* Upload direction: used concurrently for interleaving coverage and
   one-client-at-a-time when a caller wants each push to see the chunks
   its predecessors left in the store. *)
let run_pushes ?max_iterations ?params ~daemon clients =
  let pushers = List.map (fun files -> Pusher.create ?params files) clients in
  List.map2
    (fun ch p ->
      {
        pusher = Pusher.stats p;
        up_bytes = Channel.bytes ch Channel.Client_to_server;
        down_bytes = Channel.bytes ch Channel.Server_to_client;
        roundtrips = Channel.roundtrips ch;
      })
    (pump ?max_iterations ~daemon ~what:"pushes"
       (List.map
          (fun p ->
            {
              Backoff.start = (fun () -> Pusher.start p);
              on_message = Pusher.on_message p;
              finished = (fun () -> Pusher.finished p);
            })
          pushers))
    pushers

let pump_in_memory ch ~server ~what (client : Backoff.machine) =
  send ch Channel.Client_to_server (client.start ());
  let progress = ref true in
  while !progress do
    match Channel.recv_opt ch Channel.Client_to_server with
    | Some m -> send ch Channel.Server_to_client (server m)
    | None -> (
        match Channel.recv_opt ch Channel.Server_to_client with
        | Some m -> send ch Channel.Client_to_server (client.on_message m)
        | None -> progress := false)
  done;
  if not (client.finished ()) then
    Error.channel_empty "%s stalled before completion" what

let run_in_memory ?config ?scope ~cache ~server ~client () =
  let ch = Channel.create () in
  let session = Session.create ?config ?scope ~cache server in
  let puller = Puller.create client in
  pump_in_memory ch ~server:(Session.on_message session)
    ~what:"Loopback: in-memory run" (puller_machine puller);
  (result_of ch puller, Session.stats session)
