module Error = Fsync_core.Error
module Trace_id = Fsync_obs.Trace_id

let hello ?trace ?swarm () =
  Msg.Hello
    { version = Msg.version; trace = Option.map Trace_id.to_raw trace; swarm }

let check_version ~who version =
  if not (Msg.version_ok version) then
    Error.malformed "%s: protocol version %d outside %d..%d" who version
      Msg.min_version Msg.version

let reject_busy ~retry_after_ms =
  Error.fail
    (Error.Busy { retry_after_s = float_of_int retry_after_ms /. 1000. })

let adopt_trace trace =
  match Option.bind trace Trace_id.of_raw with
  | Some id -> id
  | None -> Trace_id.mint ()

let client_trace scope trace_id =
  let id = match trace_id with Some id -> id | None -> Trace_id.mint () in
  (match Fsync_obs.Scope.registry scope with
  | Some reg ->
      Fsync_obs.Registry.set_trace reg ~trace:(Trace_id.to_hex id)
        ~role:"client"
  | None -> ());
  id

let welcome ~client_version ~file_count ~root ~config =
  Msg.Welcome
    {
      (* Answer at the peer's revision so an older client's equality
         check still passes. *)
      version = min client_version Msg.version;
      file_count;
      root;
      config;
    }
