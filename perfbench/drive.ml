(* Closed-loop clients of one in-process [Daemon] over socketpairs.

   The pump has the shape of [Fsync_server.Loopback.run_pulls], with
   pulls and pushes mixed: one [Daemon.step], then at most one frame per
   client, repeat.  Each client's end is an [Fd_transport] channel with
   the default (paper) link, so its byte, round-trip and simulated-time
   accounting is the transport's own; every frame is also classified by
   kind ([Wire]) and the two accounts must agree. *)

module Channel = Fsync_net.Channel
module Fd_transport = Fsync_net.Fd_transport
module Daemon = Fsync_server.Daemon
module Puller = Fsync_server.Puller
module Pusher = Fsync_server.Pusher
module Registry = Fsync_obs.Registry
module Scope = Fsync_obs.Scope
module Error = Fsync_core.Error

(* A client state machine, its calls wrapped in the machine's layer span. *)
type machine = {
  start : string list;
  on_message : string -> string list;
  finished : unit -> bool;  (** true once, the first time it is done *)
  replica : unit -> (string * string) list;  (** a puller's result *)
}

type state = Running | Done | Failed of string

type client = {
  tr : Fd_transport.t;
  ch : Channel.t;
  m : machine;
  wire : Wire.t;
  expected : (string * string) list;
      (** [Daemon.files] at the moment the connection was added *)
  t_start : float;
  mutable t_end : float;
  mutable state : state;
}

let message_of_exn e =
  match Error.of_exn e with
  | Some err -> Error.to_string err
  | None -> Printexc.to_string e

let send c frames =
  List.iter
    (fun m ->
      Wire.note c.wire m;
      Layers.span "transport" (fun () ->
          Channel.send c.ch ~label:(Fsync_server.Msg.wire_label m)
            Channel.Client_to_server m))
    frames

(* Open a connection to [daemon] and send the opening frames of the
   machine [make ()] builds. *)
let connect daemon make =
  let a, b =
    Layers.span "transport" (fun () ->
        Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0)
  in
  let expected = Daemon.files daemon in
  Layers.span "daemon.accept" (fun () -> Daemon.add_connection daemon b);
  let tr = Layers.span "transport" (fun () -> Fd_transport.of_fd a) in
  let t_start = Layers.now () in
  let m = make () in
  let c =
    { tr; ch = Fd_transport.channel tr; m; wire = Wire.create (); expected;
      t_start; t_end = 0.0; state = Running }
  in
  send c m.start;
  c

let running c = match c.state with Running -> true | Done | Failed _ -> false

let max_iterations = 5_000_000

(* Pump until every client is done, or [max_iterations] loop iterations
   have passed.  [late] lists connections opened only once the loop has
   run that many iterations, to stagger sessions; the result holds
   every client, late ones included. *)
let pump ?(late = []) daemon clients =
  let clients = ref clients and late = ref late and iter = ref 0 in
  while (List.exists running !clients || not (List.is_empty !late))
        && !iter < max_iterations do
    incr iter;
    let due, later = List.partition (fun (at, _) -> at <= !iter) !late in
    late := later;
    clients := !clients @ List.map (fun (_, open_) -> open_ ()) due;
    Layers.span "daemon.step" (fun () -> Daemon.step ~timeout_s:0.0 daemon);
    List.iter
      (fun c ->
        if running c then
          match
            Layers.span "transport" (fun () ->
                Channel.recv_opt c.ch Channel.Server_to_client)
          with
          | Some frame ->
              Wire.note c.wire frame;
              send c (c.m.on_message frame);
              if c.m.finished () then begin
                c.t_end <- Layers.now ();
                c.state <- Done
              end
          | None -> ()
          | exception e -> c.state <- Failed (message_of_exn e))
      !clients
  done;
  List.iter (fun c -> if running c then c.state <- Failed "session stalled") !clients;
  !clients

(* Book a pumped client into the tally and close its transport; [ok]
   checks its output.  Returns the session's simulated time on the
   paper's link, or [None] if it failed. *)
let settle tally ~ok ~what c =
  tally.Tally.attempted <- tally.Tally.attempted + 1;
  let accounted =
    Channel.bytes c.ch Channel.Client_to_server
    + Channel.bytes c.ch Channel.Server_to_client
  in
  Fd_transport.close c.tr;
  match c.state with
  | Failed why ->
      Tally.fail tally (what ^ ": " ^ why);
      None
  | Running ->
      Tally.fail tally (what ^ ": unfinished");
      None
  | Done when not (ok c) ->
      Tally.fail tally (what ^ ": output check failed");
      None
  | Done ->
      Wire.check c.wire ~accounted;
      Wire.add_into ~into:tally.Tally.wire c.wire;
      let sync_s = Channel.elapsed_s c.ch +. (c.t_end -. c.t_start) in
      Tally.session tally ~sync_s ~wire_bytes:accounted
        ~rts:(Channel.roundtrips c.ch);
      Some sync_s

(* ---- the daemon's own telemetry, collected only in the traced run ---- *)

type observed = {
  daemon : Daemon.t;
  registry : Registry.t option;  (** the daemon scope's counters *)
  stream : Buffer.t option;  (** its per-session phase-span JSONL *)
}

(* Phase-span JSONL of every traced session of the run, server and
   client side, newest first. *)
let phase_trace : string list ref = ref []

let add_trace_lines text =
  phase_trace :=
    List.rev_append
      (List.filter
         (fun l -> not (String.equal l ""))
         (String.split_on_char '\n' text))
      !phase_trace

let daemon_counters =
  [ "sig_cache_hits"; "server_full_fallbacks"; "store_full_served";
    "store_hits"; "store_bytes_deduped" ]

(* [Daemon.create] is the timed set-up ([Tally.work_now]); the trace stream
   is attached after it so tracing never shows in [setup_s].  Traced,
   the daemon's counters go to [registry] (a fresh one by default; the
   store's own counters can share it). *)
let create_daemon ?store ?registry ~traced files =
  let registry =
    match registry with
    | Some _ -> registry
    | None -> if traced then Some (Registry.create ()) else None
  in
  let scope =
    match registry with Some r -> Scope.of_registry r | None -> Scope.disabled
  in
  let c0 = Tally.work_now () in
  let daemon = Daemon.create ~scope ?store files in
  let setup_s = Tally.work_now () -. c0 in
  let stream =
    if traced then begin
      let io, buffer = Io_meter.memory_sink () in
      Daemon.set_trace_stream daemon ~io "server-trace.jsonl";
      Some buffer
    end
    else None
  in
  ({ daemon; registry; stream }, setup_s)

let harvest tally o =
  let st = Daemon.stats o.daemon in
  let cs = Fsync_server.Sigcache.stats (Daemon.cache o.daemon) in
  Tally.add tally "daemon.select_iterations" (float_of_int st.iterations);
  Tally.add tally "sigcache.hits" (float_of_int cs.hits);
  Tally.add tally "sigcache.lookups" (float_of_int cs.lookups);
  (match o.registry with
  | Some r ->
      List.iter
        (fun name -> Tally.add tally name (float_of_int (Registry.counter r name)))
        daemon_counters
  | None -> ());
  match o.stream with
  | Some b ->
      add_trace_lines (Buffer.contents b);
      Buffer.clear b
  | None -> ()

(* ---- the two client machines ---- *)

(* A client's trace id (always minted, as [fsync pull]/[push] do, so the
   [Hello] has the same size traced or not) and, traced, its private
   registry of client-side phase spans plus the hook that files them. *)
let client_obs ~traced =
  let trace_id = Fsync_obs.Trace_id.mint () in
  if not traced then (trace_id, Scope.disabled, ignore)
  else begin
    let reg = Registry.create () in
    Registry.set_trace reg
      ~trace:(Fsync_obs.Trace_id.to_hex trace_id)
      ~role:"client";
    (trace_id, Scope.of_registry reg, fun () -> add_trace_lines (Registry.to_jsonl reg))
  end

(* A pull of the replica [old]. *)
let pull ~traced tally old () =
  let trace_id, scope, file_trace = client_obs ~traced in
  let p = Layers.span "puller" (fun () -> Puller.create ~scope ~trace_id old) in
  {
    start = Layers.span "puller" (fun () -> Puller.start p);
    on_message = (fun f -> Layers.span "puller" (fun () -> Puller.on_message p f));
    finished =
      (fun () ->
        Puller.finished p
        && begin
             let st = Puller.stats p in
             Tally.add tally "puller.matched_bytes" (float_of_int st.matched_bytes);
             Tally.add tally "puller.literal_bytes" (float_of_int st.literal_bytes);
             file_trace ();
             true
           end);
    replica = (fun () -> Puller.result p);
  }

(* A push of [files]. *)
let push ~traced files () =
  let trace_id, scope, file_trace = client_obs ~traced in
  let p = Layers.span "pusher" (fun () -> Pusher.create ~scope ~trace_id files) in
  {
    start = Layers.span "pusher" (fun () -> Pusher.start p);
    on_message = (fun f -> Layers.span "pusher" (fun () -> Pusher.on_message p f));
    finished =
      (fun () ->
        Pusher.finished p
        && begin
             file_trace ();
             true
           end);
    replica = (fun () -> []);
  }
