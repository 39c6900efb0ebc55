module Channel = Fsync_net.Channel
module Fd_transport = Fsync_net.Fd_transport
module Fault = Fsync_net.Fault
module Error = Fsync_core.Error
module Trace = Fsync_net.Trace
module Prng = Fsync_util.Prng
module Scope = Fsync_obs.Scope
module Trace_id = Fsync_obs.Trace_id

type outcome = {
  stats : Pusher.stats;
  c2s_bytes : int;
  s2c_bytes : int;
  roundtrips : int;
  attempts : int;
  backoff_s : float;
}

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

let attempt ?fault ?seed ~idle_timeout_s ~host ~port pusher =
  let fd = connect ~host ~port in
  let tr = Fd_transport.of_fd fd in
  let ch = Fd_transport.channel tr in
  (match fault with
  | Some spec -> ignore (Fault.attach ?seed ch spec)
  | None -> ());
  let send msgs =
    List.iter
      (fun m ->
        Channel.send ch ~label:(Msg.wire_label m) Channel.Client_to_server m)
      msgs
  in
  let go () =
    send (Pusher.start pusher);
    let deadline = ref (Unix.gettimeofday () +. idle_timeout_s) in
    while not (Pusher.finished pusher) do
      if Unix.gettimeofday () > !deadline then
        Error.fail
          (Error.Channel_empty
             (Printf.sprintf "Push: no server reply within %.1f s"
                idle_timeout_s));
      match Channel.recv_opt ch Channel.Server_to_client with
      | Some frame ->
          deadline := Unix.gettimeofday () +. idle_timeout_s;
          send (Pusher.on_message pusher frame)
      | None ->
          ignore
            (Fd_transport.wait_readable tr Channel.Server_to_client
               ~timeout_s:0.2)
    done;
    {
      stats = Pusher.stats pusher;
      c2s_bytes = Channel.bytes ch Channel.Client_to_server;
      s2c_bytes = Channel.bytes ch Channel.Server_to_client;
      roundtrips = Channel.roundtrips ch;
      attempts = 1;
      backoff_s = 0.0;
    }
  in
  match go () with
  | r ->
      Fd_transport.close tr;
      r
  | exception e ->
      Fd_transport.close tr;
      raise e

(* Same repair policy as {!Pull}: over a faulty link every typed
   protocol error is a link symptom and a fresh attempt is the fix;
   pushes are idempotent server-side (chunks are content-addressed,
   manifests idempotent), so a retry after a partial upload only
   re-sends what the store still lacks. *)
let retryable = function
  | Error.E _ -> true
  | Fault.Disconnected _ -> true
  | Fsync_net.Fd_transport.Closed -> true
  | Unix.Unix_error
      ( (Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.EPIPE | Unix.ENOTCONN),
        _,
        _ ) ->
      true
  | _ -> false

let run ?(attempts = 3) ?fault ?(seed = 0) ?(idle_timeout_s = 30.0) ?params
    ?(scope = Scope.disabled) ?trace_id ~host ~port files =
  let attempts = max 1 attempts in
  (* One id for the whole run, same as {!Pull.run}. *)
  let trace_id =
    match trace_id with Some id -> id | None -> Trace_id.mint ()
  in
  (match Scope.registry scope with
  | Some reg ->
      Fsync_obs.Registry.set_trace reg ~trace:(Trace_id.to_hex trace_id)
        ~role:"client"
  | None -> ());
  let prng = Prng.create (Int64.of_int ((seed * 0x9e3779b1) lxor 0x7073)) in
  let backoff = ref 0.0 in
  let skip = ref [] in
  let rec go n =
    (* Files the server acknowledged in a failed attempt stay pushed
       (chunks are content-addressed, publishes per-file), so the next
       attempt skips them and pushes only the remainder. *)
    let pusher = Pusher.create ~scope ~trace_id ?params ~skip:!skip files in
    match
      attempt ?fault ~seed:(seed + n) ~idle_timeout_s ~host ~port pusher
    with
    | r -> { r with attempts = n + 1; backoff_s = !backoff }
    | exception e when retryable e && n + 1 < attempts ->
        skip := Pusher.completed_paths pusher;
        let delay = Backoff.delay_s prng ~failed:(n + 1) e in
        backoff := !backoff +. delay;
        Trace.log "push: attempt %d/%d failed (%s), retrying in %.3f s"
          (n + 1) attempts
          (match Error.of_exn e with
          | Some err -> Error.to_string err
          | None -> Printexc.to_string e)
          delay;
        Unix.sleepf delay;
        go (n + 1)
  in
  go 0
