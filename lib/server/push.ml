module Channel = Fsync_net.Channel
module Scope = Fsync_obs.Scope

type outcome = {
  stats : Pusher.stats;
  c2s_bytes : int;
  s2c_bytes : int;
  roundtrips : int;
  attempts : int;
  backoff_s : float;
}

let run ?(attempts = 3) ?fault ?(seed = 0) ?(idle_timeout_s = 30.0) ?params
    ?(scope = Scope.disabled) ?trace_id ~host ~port files =
  let trace_id = Handshake.client_trace scope trace_id in
  (* Files the server acknowledged in a failed attempt stay pushed
     (chunks are content-addressed, publishes per-file), so the next
     attempt skips them and pushes only the remainder. *)
  let make prev =
    Pusher.create ~scope ~trace_id ?params
      ~skip:(match prev with Some p -> Pusher.completed_paths p | None -> [])
      files
  in
  let attempt ~seed p =
    let ch =
      Backoff.drive ?fault ~seed ~idle_timeout_s ~host ~port ~what:"Push"
        {
          start = (fun () -> Pusher.start p);
          on_message = Pusher.on_message p;
          finished = (fun () -> Pusher.finished p);
        }
    in
    (p, ch)
  in
  let (p, ch), attempts, backoff_s =
    Backoff.retry ~attempts ~seed ~what:"push" ~make attempt
  in
  {
    stats = Pusher.stats p;
    c2s_bytes = Channel.bytes ch Channel.Client_to_server;
    s2c_bytes = Channel.bytes ch Channel.Server_to_client;
    roundtrips = Channel.roundtrips ch;
    attempts;
    backoff_s;
  }
