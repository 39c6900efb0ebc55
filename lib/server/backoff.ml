module Channel = Fsync_net.Channel
module Fd_transport = Fsync_net.Fd_transport
module Fault = Fsync_net.Fault
module Trace = Fsync_net.Trace
module Prng = Fsync_util.Prng
module Error = Fsync_core.Error
module Monotonic = Fsync_obs.Monotonic

let base_s = 0.05

let max_s = 2.0

let delay_s prng ~failed e =
  match Error.of_exn e with
  | Some (Error.Busy { retry_after_s }) -> retry_after_s
  | Some _ | None ->
      let exp_s =
        Float.min (base_s *. (2.0 ** float_of_int (failed - 1))) max_s
      in
      exp_s *. (0.5 +. Prng.float prng 1.0)

type machine = {
  start : unit -> string list;
  on_message : string -> string list;
  finished : unit -> bool;
}

let connect ~host ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
  with
  | () -> Fd_transport.of_fd fd
  | exception e ->
      (match Unix.close fd with
      | () -> ()
      | exception Unix.Unix_error _ -> ());
      raise e

let send ch frames =
  List.iter
    (fun m ->
      Channel.send ch ~label:(Msg.wire_label m) Channel.Client_to_server m)
    frames

let drive ?fault ?seed ~idle_timeout_s ~host ~port ~what m =
  let tr = connect ~host ~port in
  let ch = Fd_transport.channel tr in
  let go () =
    (match fault with
    | Some spec -> ignore (Fault.attach ?seed ch spec)
    | None -> ());
    send ch (m.start ());
    let deadline = ref (Monotonic.now () +. idle_timeout_s) in
    while not (m.finished ()) do
      if Monotonic.now () > !deadline then
        Error.channel_empty "%s: no reply within %.1f s" what idle_timeout_s;
      match Channel.recv_opt ch Channel.Server_to_client with
      | Some frame ->
          deadline := Monotonic.now () +. idle_timeout_s;
          send ch (m.on_message frame)
      | None ->
          ignore
            (Fd_transport.wait_readable tr Channel.Server_to_client
               ~timeout_s:0.2)
    done
  in
  match go () with
  | () ->
      Fd_transport.close tr;
      ch
  | exception e ->
      Fd_transport.close tr;
      raise e

(* Over a faulty link any typed protocol error is a link symptom
   (corruption decodes as Malformed, a cut header as Limit_exceeded, a
   lost frame as Channel_empty after the idle timeout); a fresh attempt
   with a fresh fault schedule is the repair.  Genuine bugs are not
   typed and still propagate. *)
let retryable = function
  | Error.E _ -> true
  | Fault.Disconnected _ -> true
  | Fd_transport.Closed -> true
  | Unix.Unix_error
      ( (Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.EPIPE | Unix.ENOTCONN),
        _,
        _ ) ->
      true
  | _ -> false

let retry ~attempts ~seed ~what ~make attempt =
  let attempts = max 1 attempts in
  let prng = Prng.create (Int64.of_int ((seed * 0x9e3779b1) lxor 0x7075)) in
  let rec go n prev backoff_s =
    (* Each retry reseeds the fault schedule so a deterministic fault
       does not strike the identical frame forever. *)
    let m = make prev in
    match attempt ~seed:(seed + n) m with
    | r -> (r, n + 1, backoff_s)
    | exception e when retryable e && n + 1 < attempts ->
        let delay = delay_s prng ~failed:(n + 1) e in
        Trace.log "%s: attempt %d/%d failed (%s), retrying in %.3f s" what
          (n + 1) attempts
          (match Error.of_exn e with
          | Some err -> Error.to_string err
          | None -> Printexc.to_string e)
          delay;
        Unix.sleepf delay;
        go (n + 1) (Some m) (backoff_s +. delay)
  in
  go 0 None 0.0
