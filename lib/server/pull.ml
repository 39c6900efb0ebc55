module Channel = Fsync_net.Channel
module Scope = Fsync_obs.Scope

type outcome = {
  files : (string * string) list;
  stats : Puller.stats;
  c2s_bytes : int;
  s2c_bytes : int;
  attempts : int;
  backoff_s : float;
}

let run ?(attempts = 3) ?fault ?(seed = 0) ?(idle_timeout_s = 30.0)
    ?(scope = Scope.disabled) ?trace_id ~host ~port files =
  let trace_id = Handshake.client_trace scope trace_id in
  (* The resume token of a failed attempt carries its completed files
     across, so only the remainder re-transfers. *)
  let make prev =
    Puller.create ~scope ~trace_id
      ?resume:(Option.bind prev Puller.resume_token)
      files
  in
  let attempt ~seed p =
    let ch =
      Backoff.drive ?fault ~seed ~idle_timeout_s ~host ~port ~what:"Pull"
        {
          start = (fun () -> Puller.start p);
          on_message = Puller.on_message p;
          finished = (fun () -> Puller.finished p);
        }
    in
    (p, ch)
  in
  let (p, ch), attempts, backoff_s =
    Backoff.retry ~attempts ~seed ~what:"pull" ~make attempt
  in
  {
    files = Puller.result p;
    stats = Puller.stats p;
    c2s_bytes = Channel.bytes ch Channel.Client_to_server;
    s2c_bytes = Channel.bytes ch Channel.Server_to_client;
    attempts;
    backoff_s;
  }
