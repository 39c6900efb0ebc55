(* One-shot blocking client for the daemon's admin plane: connect, send
   one framed request ("metrics" or "status"), read one framed reply,
   close.  Dialed through the data plane's own {!Backoff.drive}, so
   there is exactly one wire format and one client loop to harden. *)

module Error = Fsync_core.Error

let request ?(timeout_s = 5.0) ~host ~port body =
  let reply = ref None in
  ignore
    (Backoff.drive ~idle_timeout_s:timeout_s ~host ~port ~what:"Admin"
       {
         start = (fun () -> [ body ]);
         on_message = (fun r -> reply := Some r; []);
         finished = (fun () -> Option.is_some !reply);
       });
  match !reply with
  | Some r -> r
  | None -> Error.channel_empty "Admin: no reply to %S" body

let metrics ?timeout_s ~host ~port () =
  request ?timeout_s ~host ~port "metrics"

let status ?timeout_s ~host ~port () =
  match Fsync_obs.Json.parse (request ?timeout_s ~host ~port "status") with
  | Ok doc -> doc
  | Error e ->
      Error.malformed "Admin: status reply is not valid JSON: %s" e
