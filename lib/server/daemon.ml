module Error = Fsync_core.Error
module Scope = Fsync_obs.Scope
module Registry = Fsync_obs.Registry
module Json = Fsync_obs.Json
module Trace_id = Fsync_obs.Trace_id
module Monotonic = Fsync_obs.Monotonic
module Trace = Fsync_net.Trace
module Store = Fsync_store.Store
module Sig_persist = Fsync_store.Sig_persist
module Chunker = Fsync_cdc.Chunker

type config = {
  sync : Msg.sync_config;
  max_sessions : int;
  session_timeout_s : float;
  max_outbox : int;
  cache_entries : int;
  busy_retry_after_s : float;
}

let default_config =
  {
    sync = Msg.default_sync_config;
    max_sessions = 64;
    session_timeout_s = 30.0;
    max_outbox = Conn.default_max_outbox;
    cache_entries = 1024;
    busy_retry_after_s = 0.5;
  }

type machine = {
  on_message : string -> string list;
  finished : unit -> bool;
}

type route = Read_only of (string * string) list | Machine of machine

(* What answers a connection: a session, another dialect's machine, or
   nothing yet while a routed daemon waits for the opening Hello. *)
type handler = Unrouted | Session of Session.t | Other of machine

type client = {
  conn : Conn.t;
  mutable handler : handler;
  peer : string; (* "host:port" at accept time, for events and status *)
  treg : Fsync_obs.Registry.t option; (* per-session trace registry *)
  mutable last_activity : float;
  mutable failing : bool; (* teardown queued; close once the outbox drains *)
  t0 : float;
}

(* One-shot admin connection: one request frame in, one reply frame
   out, closed once the outbox drains.  Same framed {!Conn} as the data
   plane, so a hostile peer (an HTTP probe, say) dies of the same typed
   oversized-header error — and takes down only itself. *)
type admin_conn = { a_conn : Conn.t; mutable a_done : bool }

type t = {
  config : config;
  mutable files : (string * string) list;
  scope : Scope.t;
  cache : Sigcache.t;
  store : Store.t option;
  route : (Msg.swarm_hello option -> route) option;
  mutable listener : Unix.file_descr option;
  mutable admin_listener : Unix.file_descr option;
  mutable clients : client list;
  mutable admin : admin_conn list;
  mutable shedding : Conn.t list; (* over-capacity conns draining a Busy *)
  mutable event_log : Event_log.t option;
  mutable trace_stream : Event_log.t option; (* per-session span dumps *)
  mutable slow_session_s : float; (* infinity = no slow-session events *)
  mutable stop : bool;
  mutable accepted : int;
  mutable completed : int;
  mutable failed : int;
  mutable timeouts : int;
  mutable shed : int;
  mutable iterations : int;
  mutable admin_requests : int;
  mutable admin_errors : int;
  sig_persist_errors : int ref;
  sigs_loaded : int;
  t0 : float;
}

(* Chunk the whole collection into the store so pull sessions can serve
   from it and push bitmaps start warm.  [put] is ref-neutral and
   [set_manifest] skips unchanged declarations, so re-ingesting the same
   collection after a restart costs no index growth and no refcount
   drift. *)
let ingest_collection store files =
  List.iter
    (fun (path, content) ->
      let fps =
        List.map
          (fun c -> Store.put store (Chunker.chunk_content content c))
          (Chunker.chunks content)
      in
      Store.set_manifest store ~path fps)
    files

let create ?(config = default_config) ?(scope = Scope.disabled) ?store ?route
    files =
  let config = { config with sync = Msg.validate_sync_config config.sync } in
  let cache = Sigcache.create ~max_entries:config.cache_entries ~scope () in
  let sig_persist_errors = ref 0 in
  let sigs_loaded =
    match store with
    | None -> 0
    | Some s ->
        ingest_collection s files;
        (* Wire the cache to the store's sigs/ directory: misses persist
           their vectors, and whatever a previous daemon left there is
           seeded back as warm entries before the first client.  Persist
           failures stay best-effort but are counted, not swallowed. *)
        let dir = Store.sig_dir s in
        Sigcache.set_persist cache
          {
            save =
              (fun ~fp ~size ~bits hashes ->
                if not (Sig_persist.save ~dir ~fp ~size ~bits hashes) then begin
                  incr sig_persist_errors;
                  Scope.incr scope "sig_persist_errors"
                end);
          };
        Sig_persist.load_all ~dir (Sigcache.seed cache)
  in
  Scope.add scope "sigs_loaded" sigs_loaded;
  {
    config;
    files;
    scope;
    cache;
    store;
    route;
    listener = None;
    admin_listener = None;
    clients = [];
    admin = [];
    shedding = [];
    event_log = None;
    trace_stream = None;
    slow_session_s = infinity;
    stop = false;
    accepted = 0;
    completed = 0;
    failed = 0;
    timeouts = 0;
    shed = 0;
    iterations = 0;
    admin_requests = 0;
    admin_errors = 0;
    sig_persist_errors;
    sigs_loaded;
    t0 = Monotonic.now ();
  }

let cache t = t.cache

let store t = t.store

let files t = t.files

let sigs_loaded t = t.sigs_loaded

(* A verified push replaces (or adds) the file in the served collection;
   sessions opened from now on serve the new content.  The path-sorted
   order keeps announce/verdict behavior identical to a collection
   loaded from disk. *)
let publish t ~path ~content =
  let others =
    List.filter (fun (p, _) -> not (String.equal p path)) t.files
  in
  t.files <-
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      ((path, content) :: others)

let active_sessions t = List.length t.clients

let set_gauge t =
  Scope.set_gauge t.scope "sessions_active"
    (float_of_int (List.length t.clients))

(* ---- telemetry sinks (DESIGN.md §9) ---- *)

let set_event_log t ?io ?max_bytes ?(slow_s = infinity) path =
  t.event_log <- Some (Event_log.create ?io ?max_bytes path);
  t.slow_session_s <- slow_s

let set_trace_stream t ?io path =
  t.trace_stream <- Some (Event_log.create ?io path)

let event_log_errors t =
  (match t.event_log with Some s -> Event_log.errors s | None -> 0)
  + match t.trace_stream with Some s -> Event_log.errors s | None -> 0

(* Lifecycle events are JSONL, one object per line, timestamped with
   the wall clock (they are for humans and cross-host joins; durations
   inside them come from the monotonic clock). *)
let emit_event t kind fields =
  match t.event_log with
  | None -> ()
  | Some sink ->
      Event_log.write sink
        (Json.Obj
           (("event", Json.String kind)
           :: ("ts", Json.Float (Unix.gettimeofday ()))
           :: fields))

let finished c =
  match c.handler with
  | Unrouted -> false
  | Session s -> Session.finished s
  | Other m -> m.finished ()

let phase_name c =
  match c.handler with
  | Unrouted -> "hello"
  | Session s -> Session.phase_name s
  | Other _ -> "routed"

let session c =
  match c.handler with Session s -> Some s | Unrouted | Other _ -> None

let json_trace c =
  match Option.bind (session c) Session.trace_id with
  | Some id -> Json.String (Trace_id.to_hex id)
  | None -> Json.Null

let bind_listener ~host ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  Unix.listen fd 16;
  Unix.set_nonblock fd;
  let bound =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> port
  in
  (fd, bound)

let listen t ~host ~port =
  let fd, bound = bind_listener ~host ~port in
  t.listener <- Some fd;
  bound

let admin_listen t ~host ~port =
  let fd, bound = bind_listener ~host ~port in
  t.admin_listener <- Some fd;
  bound

let peer_name fd =
  match Unix.getpeername fd with
  | Unix.ADDR_INET (addr, port) ->
      Printf.sprintf "%s:%d" (Unix.string_of_inet_addr addr) port
  | Unix.ADDR_UNIX p -> if String.equal p "" then "local" else p
  | exception Unix.Unix_error _ -> "unknown"

let open_session t treg ?publish files =
  let trace =
    match treg with
    | Some reg -> Scope.of_registry reg
    | None -> Scope.disabled
  in
  Session.create ~config:t.config.sync ~scope:t.scope ~trace ?store:t.store
    ?publish ~cache:t.cache files

let add_connection t fd =
  let peer = peer_name fd in
  let conn = Conn.create ~max_outbox:t.config.max_outbox fd in
  (* Sessions only pay for span bookkeeping when the daemon streams
     traces; counters always go to the shared scope. *)
  let treg =
    match t.trace_stream with
    | Some _ -> Some (Registry.create ())
    | None -> None
  in
  (* A plain daemon's session serves the collection as of this call; a
     routed one waits for the opening Hello to pick its machine. *)
  let handler =
    match t.route with
    | None ->
        Session
          (open_session t treg
             ~publish:(fun ~path ~content -> publish t ~path ~content)
             t.files)
    | Some _ -> Unrouted
  in
  let now = Monotonic.now () in
  t.clients <-
    { conn; handler; peer; treg; last_activity = now; failing = false;
      t0 = now }
    :: t.clients;
  t.accepted <- t.accepted + 1;
  Scope.incr t.scope "sessions_accepted";
  emit_event t "session_start" [ ("peer", Json.String peer) ];
  set_gauge t

(* Queue the typed teardown notification and let the outbox drain it;
   the connection closes on the next sweep. *)
let teardown t c err =
  if not c.failing then begin
    c.failing <- true;
    Trace.log "daemon: session teardown: %s" (Error.to_string err);
    match
      Conn.queue_msg c.conn
        (Msg.encode ~config:t.config.sync
           (Msg.Error_msg (Error.to_string err)))
    with
    | () -> ()
    | exception Error.E _ -> ()
  end

(* The opening Hello of a routed connection picks its machine: a
   read-only session over the files the route names, or another
   dialect's machine.  Either one then answers the Hello itself. *)
let route_hello t c frame =
  match (t.route, Msg.decode ~config:t.config.sync frame) with
  | Some route, Msg.Hello { swarm; _ } -> (
      match route swarm with
      | Read_only files ->
          let s = open_session t c.treg files in
          c.handler <- Session s;
          Session.on_message s frame
      | Machine m ->
          c.handler <- Other m;
          m.on_message frame)
  | _ -> Error.malformed "Daemon: expected Hello as the opening frame"

let on_frame t c frame =
  match c.handler with
  | Unrouted -> route_hello t c frame
  | Session s -> Session.on_message s frame
  | Other m -> m.on_message frame

let feed_session t c frames =
  List.iter
    (fun frame ->
      if not c.failing then
        match Error.guard (fun () -> on_frame t c frame) with
        | Ok replies -> List.iter (Conn.queue_msg c.conn) replies
        | Error err -> teardown t c err)
    frames

(* Over capacity the daemon still accepts, but answers with a typed
   [Busy] carrying a retry-after hint and closes once it drains —
   instead of leaving the connection parked in the listen backlog until
   the client's idle timeout fires (DESIGN.md §12). *)
let shed_connection t fd =
  let conn = Conn.create ~max_outbox:t.config.max_outbox fd in
  (match
     Conn.queue_msg conn
       (Msg.encode ~config:t.config.sync
          (Msg.Busy
             {
               retry_after_ms =
                 int_of_float (t.config.busy_retry_after_s *. 1000.0);
             }))
   with
  | () -> ()
  | exception Error.E _ -> ());
  Conn.handle_writable conn;
  t.shedding <- conn :: t.shedding;
  t.shed <- t.shed + 1;
  Scope.incr t.scope "sessions_shed";
  emit_event t "session_shed"
    [
      ("peer", Json.String (peer_name (Conn.fd conn)));
      ("retry_after_ms",
       Json.Int (int_of_float (t.config.busy_retry_after_s *. 1000.0)));
    ]

let accept_ready t ~admit fd =
  let continue = ref true in
  while !continue && not t.stop do
    match Unix.accept fd with
    | client_fd, _ -> admit t client_fd
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (e, _, _) ->
        Trace.log "daemon: accept: %s" (Unix.error_message e);
        continue := false
  done

let admit_client t fd =
  if List.length t.clients < t.config.max_sessions then add_connection t fd
  else shed_connection t fd

let admit_admin t fd =
  t.admin <-
    { a_conn = Conn.create ~max_outbox:t.config.max_outbox fd; a_done = false }
    :: t.admin

let finish t c ~ok =
  Conn.close c.conn;
  let duration_s = Monotonic.now () -. c.t0 in
  let stats = Option.map Session.stats (session c) in
  if ok then begin
    t.completed <- t.completed + 1;
    Scope.incr t.scope "sessions_completed";
    Scope.observe t.scope "session_duration_s" duration_s
  end
  else begin
    t.failed <- t.failed + 1;
    Scope.incr t.scope "sessions_failed"
  end;
  (match stats with
  | Some st when st.resumed_jobs > 0 ->
      emit_event t "session_resume"
        [
          ("peer", Json.String c.peer);
          ("trace", json_trace c);
          ("files_skipped", Json.Int st.resumed_jobs);
        ]
  | Some _ | None -> ());
  if duration_s > t.slow_session_s then
    emit_event t "slow_session"
      [
        ("peer", Json.String c.peer);
        ("trace", json_trace c);
        ("duration_s", Json.Float duration_s);
        ("threshold_s", Json.Float t.slow_session_s);
      ];
  emit_event t "session_end"
    ([
       ("peer", Json.String c.peer);
       ("trace", json_trace c);
       ("ok", Json.Bool ok);
       ("phase", Json.String (phase_name c));
       ("duration_s", Json.Float duration_s);
       ("bytes_in", Json.Int (Conn.bytes_in c.conn));
       ("bytes_out", Json.Int (Conn.bytes_out c.conn));
     ]
    @
    match stats with
    | Some st ->
        [
          ("rounds", Json.Int st.rounds);
          ("files_pushed", Json.Int st.pushed_files);
          ("full_fallbacks", Json.Int st.full_fallbacks);
        ]
    | None -> []);
  (* The session's private trace registry (spans + per-session byte
     counters) streams out as one JSONL block, already stamped with the
     trace id and role by the session's Hello handling. *)
  match (t.trace_stream, c.treg, stats) with
  | Some sink, Some reg, Some stats ->
      Registry.add reg "bytes_in" (Conn.bytes_in c.conn);
      Registry.add reg "bytes_out" (Conn.bytes_out c.conn);
      Registry.add reg "rounds" stats.rounds;
      Registry.add reg "hashes_total" stats.hashes_total;
      Registry.add reg "hashes_cached" stats.hashes_cached;
      Event_log.append_raw sink (Registry.to_jsonl reg)
  | _ -> ()

let sweep t =
  let now = Monotonic.now () in
  List.iter
    (fun c ->
      if not (Conn.closed c.conn) then
        if Conn.peer_gone c.conn then begin
          (* A write hit a dead peer: nothing more can be delivered.
             Close the fd and account the session instead of leaking
             both. *)
          if not (finished c || c.failing) then
            Trace.log "daemon: session teardown: %s"
              (Error.to_string
                 (Error.Disconnected "Session: peer went away mid-write"));
          finish t c ~ok:(finished c)
        end
        else begin
          (* Timeouts: one typed notification, then one more period to
             flush it before the close below reaps the connection. *)
          if
            (not c.failing)
            && (not (finished c))
            && now -. c.last_activity > t.config.session_timeout_s
          then begin
            t.timeouts <- t.timeouts + 1;
            Scope.incr t.scope "session_timeouts";
            emit_event t "session_timeout"
              [
                ("peer", Json.String c.peer);
                ("trace", json_trace c);
                ("idle_s", Json.Float (now -. c.last_activity));
              ];
            teardown t c
              (Error.Disconnected
                 (Printf.sprintf "Session: idle for %.1f s"
                    (now -. c.last_activity)));
            c.last_activity <- now
          end;
          if not (Conn.wants_write c.conn) then
            if finished c then finish t c ~ok:true
            else if c.failing then finish t c ~ok:false
        end)
    t.clients;
  let before = List.length t.clients in
  t.clients <- List.filter (fun c -> not (Conn.closed c.conn)) t.clients;
  if not (Int.equal before (List.length t.clients)) then set_gauge t;
  (* Shed connections close as soon as the Busy frame is out (or the
     peer stopped caring). *)
  t.shedding <-
    List.filter
      (fun conn ->
        if Conn.closed conn then false
        else if Conn.peer_gone conn || not (Conn.wants_write conn) then begin
          Conn.close conn;
          false
        end
        else true)
      t.shedding;
  (* Admin conns live for exactly one answered request. *)
  t.admin <-
    List.filter
      (fun a ->
        if Conn.closed a.a_conn then false
        else if
          Conn.peer_gone a.a_conn
          || (a.a_done && not (Conn.wants_write a.a_conn))
        then begin
          Conn.close a.a_conn;
          false
        end
        else true)
      t.admin

(* ---- admin plane: one-shot "metrics" / "status" requests ---- *)

(* Live values that exist outside the registry (list lengths, cache and
   store aggregates) are mirrored into it as gauges just before a dump,
   so every scrape reflects the instant it was taken.  Names are chosen
   not to collide with any counter the sessions maintain. *)
let refresh_registry t reg =
  Registry.set_gauge reg "sessions_active"
    (float_of_int (List.length t.clients));
  Registry.set_gauge reg "uptime_s" (Monotonic.now () -. t.t0);
  Registry.set_gauge reg "sigcache_hit_rate" (Sigcache.hit_rate t.cache);
  Registry.set_gauge reg "event_log_errors"
    (float_of_int (event_log_errors t));
  match t.store with
  | Some store ->
      let s = Store.stats store in
      Registry.set_gauge reg "store_chunks" (float_of_int s.Store.chunks);
      Registry.set_gauge reg "store_bytes" (float_of_int s.Store.bytes);
      Registry.set_gauge reg "store_manifests"
        (float_of_int s.Store.manifests)
  | None -> ()

(* Without [--metrics] the daemon has no registry; a scrape still works,
   answered from the native counters alone. *)
let native_prometheus t =
  let b = Buffer.create 512 in
  let metric kind name value =
    Buffer.add_string b
      (Printf.sprintf "# HELP fsync_%s fsync daemon %s\n# TYPE fsync_%s %s\nfsync_%s %s\n"
         name
         (String.map (fun c -> if Char.equal c '_' then ' ' else c) name)
         name kind name value)
  in
  metric "gauge" "sessions_active"
    (string_of_int (List.length t.clients));
  metric "gauge" "uptime_s" (Printf.sprintf "%g" (Monotonic.now () -. t.t0));
  metric "counter" "sessions_accepted" (string_of_int t.accepted);
  metric "counter" "sessions_completed" (string_of_int t.completed);
  metric "counter" "sessions_failed" (string_of_int t.failed);
  metric "counter" "session_timeouts" (string_of_int t.timeouts);
  metric "counter" "sessions_shed" (string_of_int t.shed);
  metric "counter" "select_iterations" (string_of_int t.iterations);
  metric "counter" "admin_requests" (string_of_int t.admin_requests);
  metric "counter" "sig_persist_errors"
    (string_of_int !(t.sig_persist_errors));
  metric "counter" "sigs_loaded" (string_of_int t.sigs_loaded);
  metric "gauge" "sigcache_hit_rate"
    (Printf.sprintf "%g" (Sigcache.hit_rate t.cache));
  Buffer.contents b

let admin_prometheus t =
  match Scope.registry t.scope with
  | Some reg ->
      refresh_registry t reg;
      Registry.to_prometheus reg
  | None -> native_prometheus t

let status_doc t =
  let now = Monotonic.now () in
  let cs = Sigcache.stats t.cache in
  Json.Obj
    [
      ("schema", Json.String "fsyncd-status/1");
      ("uptime_s", Json.Float (now -. t.t0));
      ("files", Json.Int (List.length t.files));
      ( "sessions",
        Json.Obj
          [
            ("active", Json.Int (List.length t.clients));
            ("accepted", Json.Int t.accepted);
            ("completed", Json.Int t.completed);
            ("failed", Json.Int t.failed);
            ("timeouts", Json.Int t.timeouts);
            ("shed", Json.Int t.shed);
          ] );
      ("select_iterations", Json.Int t.iterations);
      ( "sigcache",
        Json.Obj
          [
            ("hits", Json.Int cs.Sigcache.hits);
            ("misses", Json.Int cs.Sigcache.misses);
            ("entries", Json.Int cs.Sigcache.entries);
            ("evictions", Json.Int cs.Sigcache.evictions);
            ("warmed", Json.Int cs.Sigcache.warmed);
            ("hit_rate", Json.Float (Sigcache.hit_rate t.cache));
            ("loaded", Json.Int t.sigs_loaded);
            ("persist_errors", Json.Int !(t.sig_persist_errors));
          ] );
      ( "store",
        match t.store with
        | None -> Json.Null
        | Some store ->
            let s = Store.stats store in
            Json.Obj
              [
                ("chunks", Json.Int s.Store.chunks);
                ("bytes", Json.Int s.Store.bytes);
                ("manifests", Json.Int s.Store.manifests);
                ("puts", Json.Int s.Store.puts);
                ("dedup_puts", Json.Int s.Store.dedup_puts);
                ("bytes_deduped", Json.Int s.Store.bytes_deduped);
              ] );
      ( "admin",
        Json.Obj
          [
            ("requests", Json.Int t.admin_requests);
            ("errors", Json.Int t.admin_errors);
          ] );
      ( "event_log",
        match t.event_log with
        | None -> Json.Null
        | Some sink ->
            Json.Obj
              [
                ("path", Json.String (Event_log.path sink));
                ("errors", Json.Int (Event_log.errors sink));
              ] );
      ( "active_sessions",
        Json.List
          (List.map
             (fun c ->
               Json.Obj
                 [
                   ("peer", Json.String c.peer);
                   ("trace", json_trace c);
                   ("phase", Json.String (phase_name c));
                   ("age_s", Json.Float (now -. c.t0));
                   ("idle_s", Json.Float (now -. c.last_activity));
                   ("bytes_in", Json.Int (Conn.bytes_in c.conn));
                   ("bytes_out", Json.Int (Conn.bytes_out c.conn));
                 ])
             t.clients) );
    ]

let admin_reply t a frame =
  t.admin_requests <- t.admin_requests + 1;
  Scope.incr t.scope "admin_requests";
  let body =
    match frame with
    | "metrics" -> admin_prometheus t
    | "status" -> Json.to_string (status_doc t)
    | other -> Error.malformed "Daemon: unknown admin request %S" other
  in
  Conn.queue_msg a.a_conn body;
  a.a_done <- true

(* Anything hostile or malformed on the admin plane — an HTTP probe's
   "GET " reading as a giant frame header, an unknown request — costs
   exactly that connection, never the loop or a data session. *)
let admin_fail t a err =
  t.admin_errors <- t.admin_errors + 1;
  Scope.incr t.scope "admin_errors";
  Trace.log "daemon: admin teardown: %s" (Error.to_string err);
  Conn.close a.a_conn

let feed_admin t a frames =
  List.iter
    (fun frame ->
      if (not a.a_done) && not (Conn.closed a.a_conn) then
        match Error.guard (fun () -> admin_reply t a frame) with
        | Ok () -> ()
        | Error err -> admin_fail t a err)
    frames

let step ?(timeout_s = 0.05) t =
  t.iterations <- t.iterations + 1;
  Scope.incr t.scope "select_iterations";
  let accept_fd =
    match t.listener with
    | Some fd when not t.stop -> [ fd ]
    | Some _ | None -> []
  in
  let admin_accept_fd =
    match t.admin_listener with
    | Some fd when not t.stop -> [ fd ]
    | Some _ | None -> []
  in
  let admin_readable =
    List.filter
      (fun a ->
        (not (Conn.closed a.a_conn))
        && (not (Conn.peer_gone a.a_conn))
        && not a.a_done)
      t.admin
  in
  let admin_writable =
    List.filter
      (fun a -> (not (Conn.closed a.a_conn)) && Conn.wants_write a.a_conn)
      t.admin
  in
  let readable =
    List.filter
      (fun c ->
        (not (Conn.closed c.conn))
        && (not (Conn.peer_gone c.conn))
        && (not c.failing)
        && not (Conn.over_backpressure c.conn))
      t.clients
  in
  let writable =
    List.filter
      (fun c -> (not (Conn.closed c.conn)) && Conn.wants_write c.conn)
      t.clients
  in
  let shed_writable =
    List.filter
      (fun conn -> (not (Conn.closed conn)) && Conn.wants_write conn)
      t.shedding
  in
  let rfds =
    accept_fd @ admin_accept_fd
    @ List.map (fun c -> Conn.fd c.conn) readable
    @ List.map (fun a -> Conn.fd a.a_conn) admin_readable
  in
  let wfds =
    List.map (fun c -> Conn.fd c.conn) writable
    @ List.map (fun a -> Conn.fd a.a_conn) admin_writable
    @ List.map Conn.fd shed_writable
  in
  (match Unix.select rfds wfds [] timeout_s with
  | ready_r, ready_w, _ ->
      let is_ready fds fd = List.memq fd fds in
      (match t.listener with
      | Some fd when is_ready ready_r fd ->
          accept_ready t ~admit:admit_client fd
      | Some _ | None -> ());
      (match t.admin_listener with
      | Some fd when is_ready ready_r fd ->
          accept_ready t ~admit:admit_admin fd
      | Some _ | None -> ());
      List.iter
        (fun a ->
          if is_ready ready_r (Conn.fd a.a_conn) then
            match Error.guard (fun () -> Conn.handle_readable a.a_conn) with
            | Error err -> admin_fail t a err
            | Ok `Eof -> Conn.close a.a_conn
            | Ok (`Msgs (frames, _eof)) -> feed_admin t a frames)
        admin_readable;
      List.iter
        (fun a ->
          if is_ready ready_w (Conn.fd a.a_conn) then
            Conn.handle_writable a.a_conn)
        admin_writable;
      List.iter
        (fun c ->
          if is_ready ready_r (Conn.fd c.conn) then begin
            c.last_activity <- Monotonic.now ();
            (* Guard: a hostile header (frame > max_frame) raises a
               typed error that must fail this session, not the loop. *)
            match Error.guard (fun () -> Conn.handle_readable c.conn) with
            | Error err -> teardown t c err
            | Ok `Eof ->
                (* The peer already closed: an Error_msg could never
                   reach it, so skip the teardown queueing and just
                   account the session. *)
                if not (finished c) then
                  Trace.log "daemon: session teardown: %s"
                    (Error.to_string
                       (Error.Disconnected "Session: peer went away"));
                finish t c ~ok:(finished c)
            | Ok (`Msgs (frames, eof)) ->
                feed_session t c frames;
                if eof && not (finished c) then begin
                  Trace.log "daemon: session teardown: %s"
                    (Error.to_string
                       (Error.Disconnected "Session: peer went away"));
                  finish t c ~ok:false
                end
          end)
        readable;
      List.iter
        (fun c ->
          if is_ready ready_w (Conn.fd c.conn) then
            Conn.handle_writable c.conn)
        writable;
      List.iter
        (fun conn ->
          if is_ready ready_w (Conn.fd conn) then Conn.handle_writable conn)
        shed_writable
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error (Unix.EBADF, _, _) ->
      (* A peer vanished between the sweep and the select; the next
         sweep reaps it. *)
      ());
  sweep t

let request_stop t = t.stop <- true

let shutdown t =
  List.iter
    (fun c ->
      if not (Conn.closed c.conn) then begin
        Conn.handle_writable c.conn;
        Conn.close c.conn;
        finish t c ~ok:(finished c)
      end)
    t.clients;
  t.clients <- [];
  List.iter Conn.close t.shedding;
  t.shedding <- [];
  List.iter
    (fun a ->
      Conn.handle_writable a.a_conn;
      Conn.close a.a_conn)
    t.admin;
  t.admin <- [];
  set_gauge t;
  let close_listener l =
    match l with
    | Some fd -> (
        match Unix.close fd with
        | () -> ()
        | exception Unix.Unix_error _ -> ())
    | None -> ()
  in
  close_listener t.listener;
  t.listener <- None;
  close_listener t.admin_listener;
  t.admin_listener <- None;
  emit_event t "daemon_stop"
    [
      ("accepted", Json.Int t.accepted);
      ("completed", Json.Int t.completed);
      ("failed", Json.Int t.failed);
      ("uptime_s", Json.Float (Monotonic.now () -. t.t0));
    ];
  (match t.event_log with Some s -> Event_log.close s | None -> ());
  (match t.trace_stream with Some s -> Event_log.close s | None -> ());
  Trace.log "daemon: shut down after %d sessions (%d completed, %d failed)"
    t.accepted t.completed t.failed

let run ?(timeout_s = 0.05) ?(drain_s = 2.0) t =
  while not t.stop do
    step ~timeout_s t
  done;
  (* Stop requested: notify every unfinished session, give the outboxes
     a bounded drain window, then close whatever remains. *)
  List.iter
    (fun c ->
      if not (finished c) then
        teardown t c (Error.Disconnected "Session: server shutting down"))
    t.clients;
  let deadline = Monotonic.now () +. drain_s in
  while
    (match t.clients with [] -> false | _ :: _ -> true)
    && Monotonic.now () < deadline
  do
    step ~timeout_s:0.02 t
  done;
  shutdown t

type stats = {
  accepted : int;
  completed : int;
  failed : int;
  timeouts : int;
  shed : int;
  sig_persist_errors : int;
  iterations : int;
  admin_requests : int;
  admin_errors : int;
}

let stats (t : t) =
  {
    accepted = t.accepted;
    completed = t.completed;
    failed = t.failed;
    timeouts = t.timeouts;
    shed = t.shed;
    sig_persist_errors = !(t.sig_persist_errors);
    iterations = t.iterations;
    admin_requests = t.admin_requests;
    admin_errors = t.admin_errors;
  }
