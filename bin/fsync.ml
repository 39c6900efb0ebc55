(* fsync — command-line front end.

   Subcommands:
     sync     simulate synchronizing one file (old -> new), report costs
     dir      synchronize a directory tree against another, report costs
     delta    write a delta of TARGET relative to REFERENCE
     patch    apply a delta to REFERENCE
     rsync    run the rsync baseline on a file pair, report costs
     gen      generate a synthetic dataset onto disk
     serve    run the sync daemon over TCP for concurrent pull clients
     pull     synchronize a local replica from a running daemon
     push     upload a tree into a running daemon (store-deduplicated)
     store    inspect/maintain a persistent chunk store (stats|fsck|gc)
     info     describe a configuration preset *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path content =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc content)

(* ---- shared arguments ---- *)

let preset_conv =
  let parse = function
    | "basic" -> Ok Fsync_core.Config.basic
    | "cont" -> Ok (Fsync_core.Config.with_continuation Fsync_core.Config.basic)
    | "tuned" -> Ok Fsync_core.Config.tuned
    | s -> Error (`Msg (Printf.sprintf "unknown preset %S (basic|cont|tuned)" s))
  in
  let print ppf _ = Format.fprintf ppf "<config>" in
  Arg.conv (parse, print)

let config_arg =
  Arg.(
    value
    & opt preset_conv Fsync_core.Config.tuned
    & info [ "c"; "config" ] ~docv:"PRESET"
        ~doc:"Protocol preset: basic, cont, or tuned.")

let min_block_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "min-block" ] ~docv:"BYTES"
        ~doc:"Override the minimum global block size (power of two).")

let apply_overrides config min_block =
  match min_block with
  | None -> config
  | Some m -> { config with Fsync_core.Config.min_global_block = m }

(* ---- observability arguments (sync and dir) ---- *)

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Collect counters, histograms and spans during the run and \
              print a Prometheus-style text exposition after the summary.")

let trace_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-json" ] ~docv:"FILE"
        ~doc:"Collect metrics and spans and write a JSONL event stream \
              (one JSON object per line: meta, span, counter, gauge, \
              histogram) to $(docv).")

(* A registry is only allocated when either flag asks for it; otherwise
   the scope stays disabled and instrumentation costs one branch. *)
let make_obs ~metrics ~trace_json =
  if metrics || Option.is_some trace_json then
    let reg = Fsync_obs.Registry.create () in
    (Some reg, Fsync_obs.Scope.of_registry reg)
  else (None, Fsync_obs.Scope.disabled)

let emit_obs ~metrics ~trace_json reg_opt =
  Option.iter
    (fun reg ->
      Option.iter
        (fun path ->
          write_file path (Fsync_obs.Registry.to_jsonl reg);
          Format.printf "trace written to %s@." path)
        trace_json;
      if metrics then print_string (Fsync_obs.Registry.to_prometheus reg))
    reg_opt

let pp_report rep =
  Format.printf "%a@." Fsync_core.Protocol.pp_report rep

(* ---- sync ---- *)

let sync_cmd =
  let old_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"OLD"
           ~doc:"Outdated file (client side).")
  in
  let new_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"NEW"
           ~doc:"Current file (server side).")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"PATH"
           ~doc:"Write the reconstructed file here.")
  in
  let adaptive_arg =
    Arg.(value & flag & info [ "adaptive" ]
           ~doc:"Probe similarity first and choose the configuration (S7).")
  in
  let trace_arg =
    Arg.(value & flag & info [ "trace" ]
           ~doc:"Print the message timeline (Fig 5.2 style).")
  in
  let run config min_block adaptive trace metrics trace_json old_path
      new_path out =
    let config = apply_overrides config min_block in
    let old_file = read_file old_path and new_file = read_file new_path in
    let channel = Fsync_net.Channel.create () in
    let reg, scope = make_obs ~metrics ~trace_json in
    if Fsync_obs.Scope.is_enabled scope then
      Fsync_net.Channel.set_scope channel scope;
    let r =
      if adaptive then begin
        let pr = Fsync_core.Adaptive.probe ~old_file new_file in
        Format.printf "adaptive: similarity %.2f -> %s (probe %d+%d bytes)@."
          pr.similarity pr.rationale pr.probe_c2s pr.probe_s2c;
        Fsync_core.Protocol.run ~channel ~scope ~config:pr.chosen ~old_file
          new_file
      end
      else Fsync_core.Protocol.run ~channel ~scope ~config ~old_file new_file
    in
    assert (String.equal r.reconstructed new_file);
    if trace then Fsync_net.Trace.print channel;
    pp_report r.report;
    let total = Fsync_core.Protocol.total_bytes r.report in
    Format.printf "transfer: %d bytes for a %d-byte file (%.1f%%)@." total
      (String.length new_file)
      (100.0 *. float_of_int total /. float_of_int (max 1 (String.length new_file)));
    Option.iter (fun p -> write_file p r.reconstructed) out;
    emit_obs ~metrics ~trace_json reg
  in
  let term =
    Term.(
      const run $ config_arg $ min_block_arg $ adaptive_arg $ trace_arg
      $ metrics_arg $ trace_json_arg $ old_arg $ new_arg $ out_arg)
  in
  Cmd.v
    (Cmd.info "sync" ~doc:"Synchronize one file and report transfer costs.")
    term

(* ---- dir ---- *)

let dir_cmd =
  let client_arg =
    Arg.(required & pos 0 (some dir) None & info [] ~docv:"CLIENT"
           ~doc:"Directory holding the outdated replica.")
  in
  let server_arg =
    Arg.(required & pos 1 (some dir) None & info [] ~docv:"SERVER"
           ~doc:"Directory holding the current collection.")
  in
  let method_conv =
    let parse = function
      | "full" -> Ok Fsync_collection.Driver.Full_compressed
      | "rsync" -> Ok Fsync_collection.Driver.Rsync_default
      | "rsync-best" -> Ok Fsync_collection.Driver.Rsync_best
      | "fsync" -> Ok (Fsync_collection.Driver.Fsync Fsync_core.Config.tuned)
      | "zdelta" -> Ok (Fsync_collection.Driver.Delta_lower_bound Fsync_delta.Delta.Zdelta)
      | "cdc" -> Ok Fsync_collection.Driver.Cdc
      | s -> Error (`Msg (Printf.sprintf "unknown method %S" s))
    in
    Arg.conv (parse, fun ppf _ -> Format.fprintf ppf "<method>")
  in
  let method_arg =
    Arg.(value & opt method_conv (Fsync_collection.Driver.Fsync Fsync_core.Config.tuned)
         & info [ "m"; "method" ] ~docv:"METHOD"
             ~doc:"Transfer method: full, rsync, rsync-best, fsync, zdelta, cdc.")
  in
  let metadata_conv =
    let parse = function
      | "linear" -> Ok Fsync_collection.Driver.Linear
      | "merkle" -> Ok Fsync_collection.Driver.Merkle
      | s -> Error (`Msg (Printf.sprintf "unknown metadata mode %S (linear|merkle)" s))
    in
    Arg.conv (parse, fun ppf m ->
        Format.fprintf ppf "%s" (Fsync_collection.Driver.metadata_name m))
  in
  let metadata_arg =
    Arg.(value & opt metadata_conv Fsync_collection.Driver.Linear
         & info [ "metadata" ] ~docv:"MODE"
             ~doc:"Metadata reconciliation: linear (announce every \
                   fingerprint) or merkle (hash-tree descent, cost scales \
                   with the diff).")
  in
  let apply_arg =
    Arg.(value & flag & info [ "apply" ]
           ~doc:"Actually update CLIENT on disk (default: report only).")
  in
  let trace_arg =
    Arg.(value & flag & info [ "trace" ]
           ~doc:"Print the metadata-phase message timeline (shows the \
                 recon:level-k descent under --metadata merkle).")
  in
  let faults_conv =
    let parse s =
      match Fsync_net.Fault.parse s with
      | Ok spec -> Ok spec
      | Error e -> Error (`Msg e)
    in
    Arg.conv (parse, fun ppf s ->
        Format.fprintf ppf "%s" (Fsync_net.Fault.to_string s))
  in
  let faults_arg =
    Arg.(value & opt (some faults_conv) None
         & info [ "faults" ] ~docv:"SPEC"
             ~doc:"Inject link faults and run the resilient session \
                   (implies --resilient).  SPEC is 'none', 'dirty', or a \
                   comma list such as \
                   'drop=0.02,corrupt=0.01,disc=0.001'; keys: drop, \
                   corrupt, trunc, dup, disc, disc-after, max-disc.")
  in
  let seed_arg =
    Arg.(value & opt int 1
         & info [ "seed" ] ~docv:"N"
             ~doc:"Fault-schedule seed; the same seed replays the same \
                   faults exactly.")
  in
  let resilient_arg =
    Arg.(value & flag
         & info [ "resilient" ]
             ~doc:"Run the resilient session layer (CRC framing, \
                   retransmit, per-file verification, checkpoint/resume) \
                   even on a clean link.")
  in
  let no_frame_arg =
    Arg.(value & flag
         & info [ "no-frame" ]
             ~doc:"Disable the framing session layer (per-file \
                   verification and retries remain); only meaningful with \
                   --resilient or --faults.")
  in
  let run method_ metadata client_dir server_dir apply trace metrics
      trace_json faults seed resilient no_frame =
    let client = Fsync_collection.Snapshot.load_dir client_dir in
    let server = Fsync_collection.Snapshot.load_dir server_dir in
    let meta_channel = Fsync_net.Channel.create () in
    let reg, scope = make_obs ~metrics ~trace_json in
    let finish updated summary =
      if trace then Fsync_net.Trace.print meta_channel;
      (match reg with
      | Some registry when metrics ->
          Format.printf "%a@."
            (Fsync_collection.Driver.pp_summary_with_metrics ~registry)
            summary
      | _ -> Format.printf "%a@." Fsync_collection.Driver.pp_summary summary);
      if apply then begin
        Fsync_collection.Snapshot.store_dir client_dir updated;
        Format.printf "client updated in place@."
      end;
      emit_obs ~metrics ~trace_json reg;
      `Ok ()
    in
    if resilient || Option.is_some faults then begin
      let resilience =
        {
          Fsync_collection.Driver.default_resilience with
          faults =
            Option.value faults ~default:Fsync_net.Fault.none;
          seed;
          frame = not no_frame;
        }
      in
      match
        Fsync_collection.Driver.sync_resilient ~metadata ~resilience
          ~meta_channel ~scope method_ ~client ~server
      with
      | Ok (updated, summary) -> finish updated summary
      | Error e ->
          `Error (false,
                  Printf.sprintf "synchronization failed: %s"
                    (Fsync_core.Error.to_string e))
    end
    else
      let updated, summary =
        Fsync_collection.Driver.sync ~metadata ~meta_channel ~scope method_
          ~client ~server
      in
      finish updated summary
  in
  let term =
    Term.(ret
            (const run $ method_arg $ metadata_arg $ client_arg $ server_arg
            $ apply_arg $ trace_arg $ metrics_arg $ trace_json_arg
            $ faults_arg $ seed_arg $ resilient_arg $ no_frame_arg))
  in
  Cmd.v
    (Cmd.info "dir" ~doc:"Synchronize a directory tree and report costs.")
    term

(* ---- delta / patch ---- *)

let delta_cmd =
  let ref_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"REFERENCE" ~doc:"Reference file.")
  in
  let tgt_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"TARGET" ~doc:"Target file.")
  in
  let out_arg =
    Arg.(required & pos 2 (some string) None & info [] ~docv:"OUT" ~doc:"Delta output path.")
  in
  let run ref_path tgt_path out =
    let reference = read_file ref_path and target = read_file tgt_path in
    let d = Fsync_delta.Delta.encode ~reference target in
    write_file out d;
    Format.printf "delta: %d bytes for a %d-byte target (%.2f%%)@."
      (String.length d) (String.length target)
      (100.0 *. float_of_int (String.length d)
       /. float_of_int (max 1 (String.length target)))
  in
  Cmd.v
    (Cmd.info "delta" ~doc:"Delta compress TARGET relative to REFERENCE.")
    Term.(const run $ ref_arg $ tgt_arg $ out_arg)

let patch_cmd =
  let ref_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"REFERENCE" ~doc:"Reference file.")
  in
  let delta_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"DELTA" ~doc:"Delta file.")
  in
  let out_arg =
    Arg.(required & pos 2 (some string) None & info [] ~docv:"OUT" ~doc:"Output path.")
  in
  let run ref_path delta_path out =
    let reference = read_file ref_path and d = read_file delta_path in
    write_file out (Fsync_delta.Delta.decode ~reference d);
    Format.printf "patched -> %s@." out
  in
  Cmd.v (Cmd.info "patch" ~doc:"Apply a delta to REFERENCE.")
    Term.(const run $ ref_arg $ delta_arg $ out_arg)

(* ---- rsync baseline ---- *)

let rsync_cmd =
  let old_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"OLD" ~doc:"Outdated file.")
  in
  let new_arg =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"NEW" ~doc:"Current file.")
  in
  let block_arg =
    Arg.(value & opt int 700 & info [ "b"; "block-size" ] ~docv:"BYTES"
           ~doc:"rsync block size.")
  in
  let best_arg =
    Arg.(value & flag & info [ "best" ] ~doc:"Search for the best block size.")
  in
  let run old_path new_path block_size best =
    let old_file = read_file old_path and new_file = read_file new_path in
    if best then begin
      let bs, c = Fsync_rsync.Rsync.best_block_size ~old_file new_file in
      Format.printf "best block size %d: c2s=%d s2c=%d total=%d@." bs
        c.client_to_server c.server_to_client (Fsync_rsync.Rsync.total c)
    end
    else begin
      let r =
        Fsync_rsync.Rsync.sync
          ~config:{ Fsync_rsync.Rsync.default_config with block_size }
          ~old_file new_file
      in
      Format.printf
        "block %d: c2s=%d s2c=%d total=%d matched_blocks=%d literal_bytes=%d@."
        block_size r.cost.client_to_server r.cost.server_to_client
        (Fsync_rsync.Rsync.total r.cost) r.matched_blocks r.literal_bytes
    end
  in
  Cmd.v (Cmd.info "rsync" ~doc:"Run the rsync baseline on a file pair.")
    Term.(const run $ old_arg $ new_arg $ block_arg $ best_arg)

(* ---- gen ---- *)

let gen_cmd =
  let dataset_arg =
    Arg.(required & pos 0 (some (enum [ ("gcc", `Gcc); ("emacs", `Emacs); ("web", `Web) ])) None
         & info [] ~docv:"DATASET" ~doc:"Dataset: gcc, emacs, or web.")
  in
  let out_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"DIR" ~doc:"Output directory.")
  in
  let scale_arg =
    Arg.(value & opt float 0.02 & info [ "s"; "scale" ] ~docv:"FACTOR"
           ~doc:"Dataset scale; 1.0 approximates the paper's size.")
  in
  let run dataset out scale =
    let store sub files =
      let snap = Fsync_collection.Snapshot.of_files files in
      Fsync_collection.Snapshot.store_dir (Filename.concat out sub) snap;
      Format.printf "%s: %d files, %d bytes@." sub
        (Fsync_collection.Snapshot.count snap)
        (Fsync_collection.Snapshot.total_bytes snap)
    in
    let tree_files version =
      List.map (fun (f : Fsync_workload.Source_tree.file) -> (f.path, f.content)) version
    in
    match dataset with
    | `Gcc | `Emacs ->
        let preset =
          match dataset with
          | `Gcc -> Fsync_workload.Source_tree.gcc_preset ~scale
          | _ -> Fsync_workload.Source_tree.emacs_preset ~scale
        in
        let pair = Fsync_workload.Source_tree.generate preset in
        store "old" (tree_files pair.old_version);
        store "new" (tree_files pair.new_version)
    | `Web ->
        let preset = Fsync_workload.Web_collection.default_preset ~scale in
        let base = Fsync_workload.Web_collection.base preset in
        let page_files pages =
          Array.to_list
            (Array.mapi
               (fun i (p : Fsync_workload.Web_collection.page) ->
                 ignore p.url;
                 (Printf.sprintf "page%05d.html" i, p.content))
               pages)
        in
        store "day0" (page_files base);
        List.iter
          (fun d ->
            store
              (Printf.sprintf "day%d" d)
              (page_files (Fsync_workload.Web_collection.evolve preset base ~days:d)))
          [ 1; 2; 7 ]
  in
  Cmd.v (Cmd.info "gen" ~doc:"Generate a synthetic dataset onto disk.")
    Term.(const run $ dataset_arg $ out_arg $ scale_arg)

(* ---- serve / pull: the daemon over real sockets ---- *)

let host_port_conv =
  let parse s =
    match String.rindex_opt s ':' with
    | Some i -> (
        let host = String.sub s 0 i in
        let port = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt port with
        | Some p when p >= 0 && p < 65536 -> Ok (host, p)
        | Some _ | None ->
            Error (`Msg (Printf.sprintf "bad port in %S" s)))
    | None -> Error (`Msg (Printf.sprintf "expected HOST:PORT, got %S" s))
  in
  Arg.conv (parse, fun ppf (h, p) -> Format.fprintf ppf "%s:%d" h p)

let log_to_stderr () =
  Fsync_net.Trace.set_log_sink (Some (fun line -> Printf.eprintf "%s\n%!" line))

let serve_cmd =
  let root_arg =
    Arg.(
      required
      & pos 0 (some dir) None
      & info [] ~docv:"ROOT" ~doc:"Directory tree to serve.")
  in
  let host_arg =
    Arg.(
      value & opt string "0.0.0.0"
      & info [ "host" ] ~docv:"ADDR" ~doc:"Numeric address to bind.")
  in
  let port_arg =
    Arg.(
      value & opt int 9430
      & info [ "p"; "port" ] ~docv:"PORT"
          ~doc:"TCP port to listen on (0 picks an ephemeral port).")
  in
  let max_sessions_arg =
    Arg.(
      value & opt int 64
      & info [ "max-sessions" ] ~docv:"N"
          ~doc:"Stop accepting while this many sessions are live.")
  in
  let timeout_arg =
    Arg.(
      value & opt float 30.0
      & info [ "session-timeout" ] ~docv:"SECONDS"
          ~doc:"Idle sessions are torn down after this long.")
  in
  let cache_arg =
    Arg.(
      value & opt int 1024
      & info [ "cache-entries" ] ~docv:"N"
          ~doc:"Signature-cache capacity (level vectors, shared across \
                sessions).")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No per-event logging.")
  in
  let store_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:"Back the daemon with a persistent chunk store rooted at \
                $(docv) (created if absent): pushes deduplicate against \
                it, and signature-cache vectors persist under it so a \
                restarted daemon warm-starts.")
  in
  let admin_port_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "admin-port" ] ~docv:"PORT"
          ~doc:"Serve an admin socket on this port (0 picks an ephemeral \
                one) inside the same event loop: one framed 'metrics' \
                request returns a live Prometheus exposition, 'status' a \
                fsyncd-status/1 JSON document.  Implies --metrics.")
  in
  let event_log_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "event-log" ] ~docv:"FILE"
          ~doc:"Append structured JSONL lifecycle events (session start/end/\
                shed/timeout/resume, slow sessions) to $(docv).")
  in
  let event_log_max_arg =
    Arg.(
      value & opt int 0
      & info [ "event-log-max-bytes" ] ~docv:"BYTES"
          ~doc:"Rotate the event log (FILE -> FILE.1) when it would exceed \
                $(docv); 0 (default) never rotates.")
  in
  let slow_session_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "slow-session" ] ~docv:"SECONDS"
          ~doc:"Emit a slow_session event for sessions lasting longer than \
                $(docv) (requires --event-log).")
  in
  let run root host port max_sessions session_timeout_s cache_entries quiet
      store_dir admin_port event_log event_log_max_bytes slow_session metrics
      trace_json =
    if not quiet then log_to_stderr ();
    let files =
      Fsync_collection.Snapshot.files (Fsync_collection.Snapshot.load_dir root)
    in
    (* An admin socket without a registry would only see the native
       counters; force one so scrapes get the full series set.  The
       daemon's --trace-json streams per-session registries instead of
       dumping the shared one at exit. *)
    let metrics = metrics || Option.is_some admin_port in
    let reg, scope = make_obs ~metrics ~trace_json in
    let config =
      {
        Fsync_server.Daemon.default_config with
        Fsync_server.Daemon.max_sessions;
        session_timeout_s;
        cache_entries;
      }
    in
    match
      Option.map (fun dir -> Fsync_store.Store.open_store ~scope dir) store_dir
    with
    | exception Fsync_core.Error.E e ->
        `Error
          ( false,
            Printf.sprintf "cannot open store: %s"
              (Fsync_core.Error.to_string e) )
    | store -> (
        let daemon = Fsync_server.Daemon.create ~config ~scope ?store files in
        Option.iter
          (fun path ->
            Fsync_server.Daemon.set_event_log daemon
              ~max_bytes:event_log_max_bytes ?slow_s:slow_session path)
          event_log;
        Option.iter
          (fun path -> Fsync_server.Daemon.set_trace_stream daemon path)
          trace_json;
        match Fsync_server.Daemon.listen daemon ~host ~port with
        | actual_port ->
            Printf.eprintf "fsyncd: serving %d files from %s on %s:%d\n%!"
              (List.length files) root host actual_port;
            Option.iter
              (fun p ->
                let admin_port =
                  Fsync_server.Daemon.admin_listen daemon ~host ~port:p
                in
                Printf.eprintf "fsyncd: admin on %s:%d\n%!" host admin_port)
              admin_port;
            Option.iter
              (fun s ->
                Printf.eprintf
                  "fsyncd: store %s (%d sig vectors seeded)\n%!"
                  (Fsync_store.Store.root s)
                  (Fsync_server.Daemon.sigs_loaded daemon))
              store;
            let stop _ = Fsync_server.Daemon.request_stop daemon in
            Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
            Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
            Fsync_server.Daemon.run daemon;
            let st = Fsync_server.Daemon.stats daemon in
            let cache = Fsync_server.Daemon.cache daemon in
            let cs = Fsync_server.Sigcache.stats cache in
            Format.printf
              "sessions: %d accepted, %d completed, %d failed, %d timeouts, \
               %d shed busy@."
              st.Fsync_server.Daemon.accepted st.Fsync_server.Daemon.completed
              st.Fsync_server.Daemon.failed st.Fsync_server.Daemon.timeouts
              st.Fsync_server.Daemon.shed;
            if st.Fsync_server.Daemon.admin_requests > 0
               || st.Fsync_server.Daemon.admin_errors > 0
            then
              Format.printf "admin: %d requests, %d hostile/errored@."
                st.Fsync_server.Daemon.admin_requests
                st.Fsync_server.Daemon.admin_errors;
            let log_errors = Fsync_server.Daemon.event_log_errors daemon in
            if log_errors > 0 then
              Format.printf "event log: %d write errors absorbed@." log_errors;
            if st.Fsync_server.Daemon.sig_persist_errors > 0 then
              Format.printf "sig persist errors: %d@."
                st.Fsync_server.Daemon.sig_persist_errors;
            Format.printf
              "sig cache: %d hits, %d misses, %d entries, %d lookups, %d \
               warm hits, warm rate %.3f@."
              cs.Fsync_server.Sigcache.hits cs.Fsync_server.Sigcache.misses
              cs.Fsync_server.Sigcache.entries
              cs.Fsync_server.Sigcache.lookups
              cs.Fsync_server.Sigcache.warm_hits
              (Fsync_server.Sigcache.warm_hit_rate cache);
            Option.iter
              (fun s ->
                let ss = Fsync_store.Store.stats s in
                Format.printf
                  "store: %d chunks, %d bytes, %d manifests, %d bytes \
                   deduped@."
                  ss.Fsync_store.Store.chunks ss.Fsync_store.Store.bytes
                  ss.Fsync_store.Store.manifests
                  ss.Fsync_store.Store.bytes_deduped;
                Fsync_store.Store.close s)
              store;
            (* trace_json was consumed by the per-session stream above;
               only the --metrics exposition prints here. *)
            emit_obs ~metrics ~trace_json:None reg;
            `Ok ()
        | exception Unix.Unix_error (e, _, _) ->
            Option.iter Fsync_store.Store.close store;
            `Error
              ( false,
                Printf.sprintf "cannot listen on %s:%d: %s" host port
                  (Unix.error_message e) ))
  in
  let term =
    Term.(
      ret
        (const run $ root_arg $ host_arg $ port_arg $ max_sessions_arg
       $ timeout_arg $ cache_arg $ quiet_arg $ store_arg $ admin_port_arg
       $ event_log_arg $ event_log_max_arg $ slow_session_arg $ metrics_arg
       $ trace_json_arg))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a directory tree to concurrent pull clients over TCP \
          (single-threaded event loop, shared signature cache).")
    term

let pull_cmd =
  let faults_conv =
    let parse s =
      match Fsync_net.Fault.parse s with
      | Ok spec -> Ok spec
      | Error e -> Error (`Msg e)
    in
    Arg.conv (parse, fun ppf s ->
        Format.pp_print_string ppf (Fsync_net.Fault.to_string s))
  in
  let addr_arg =
    Arg.(
      required
      & pos 0 (some host_port_conv) None
      & info [] ~docv:"HOST:PORT" ~doc:"Daemon address (numeric host).")
  in
  let dir_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"DIR" ~doc:"Local replica directory to update.")
  in
  let apply_arg =
    Arg.(
      value & flag
      & info [ "apply" ] ~doc:"Write the synchronized replica back to DIR.")
  in
  let faults_arg =
    Arg.(
      value
      & opt (some faults_conv) None
      & info [ "faults" ] ~docv:"SPEC"
          ~doc:"Inject link faults on the client side of the connection \
                (same SPEC syntax as $(b,dir) --faults); the pull retries \
                with a reseeded schedule on failure.")
  in
  let seed_arg =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"N" ~doc:"Base fault-schedule seed.")
  in
  let attempts_arg =
    Arg.(
      value & opt int 3
      & info [ "attempts" ] ~docv:"N" ~doc:"Connection attempts before giving up.")
  in
  let timeout_arg =
    Arg.(
      value & opt float 30.0
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:"Abort an attempt when the server is silent this long.")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No per-event logging.")
  in
  let run (host, port) dir apply fault seed attempts idle_timeout_s quiet
      metrics trace_json =
    if not quiet then log_to_stderr ();
    let reg, scope = make_obs ~metrics ~trace_json in
    (* A crash during a previous [--apply] leaves a staging journal;
       repair it before trusting the directory's contents as the old
       replica. *)
    (if Sys.file_exists dir && Sys.is_directory dir then
       match Fsync_collection.Apply.resume dir with
       | `Clean -> ()
       | `Rolled_back ->
           Format.printf "recovered: interrupted apply rolled back@."
       | `Rolled_forward n ->
           Format.printf
             "recovered: interrupted apply rolled forward (%d records)@." n);
    let old_files =
      if Sys.file_exists dir && Sys.is_directory dir then
        Fsync_collection.Snapshot.files
          (Fsync_collection.Snapshot.load_dir dir)
      else []
    in
    match
      Fsync_server.Pull.run ~attempts ?fault ~seed ~idle_timeout_s ~scope
        ~host ~port old_files
    with
    | r ->
        let total_new =
          List.fold_left
            (fun acc (_, c) -> acc + String.length c)
            0 r.Fsync_server.Pull.files
        in
        Format.printf
          "pulled %d files (%d bytes) in %d attempt(s); wire: %d up, %d \
           down@."
          (List.length r.Fsync_server.Pull.files)
          total_new r.Fsync_server.Pull.attempts
          r.Fsync_server.Pull.c2s_bytes r.Fsync_server.Pull.s2c_bytes;
        if apply then begin
          (* Journaled atomic apply: stage + commit + rename, so a crash
             here leaves either the old replica or the new one — never a
             torn mix (DESIGN.md §12). *)
          let st =
            Fsync_collection.Apply.apply ~root:dir ~old_files
              r.Fsync_server.Pull.files
          in
          Format.printf "replica updated (%d written, %d deleted)@."
            st.Fsync_collection.Apply.wrote st.Fsync_collection.Apply.deleted
        end;
        emit_obs ~metrics ~trace_json reg;
        `Ok ()
    | exception Fsync_core.Error.E e ->
        `Error
          (false, Printf.sprintf "pull failed: %s" (Fsync_core.Error.to_string e))
    | exception Unix.Unix_error (e, _, _) ->
        `Error
          ( false,
            Printf.sprintf "cannot reach %s:%d: %s" host port
              (Unix.error_message e) )
  in
  let term =
    Term.(
      ret
        (const run $ addr_arg $ dir_arg $ apply_arg $ faults_arg $ seed_arg
       $ attempts_arg $ timeout_arg $ quiet_arg $ metrics_arg
       $ trace_json_arg))
  in
  Cmd.v
    (Cmd.info "pull"
       ~doc:"Synchronize a local replica from a running fsync daemon.")
    term

let push_cmd =
  let addr_arg =
    Arg.(
      required
      & pos 0 (some host_port_conv) None
      & info [] ~docv:"HOST:PORT" ~doc:"Daemon address (numeric host).")
  in
  let dir_arg =
    Arg.(
      required
      & pos 1 (some dir) None
      & info [] ~docv:"DIR" ~doc:"Local directory tree to upload.")
  in
  let attempts_arg =
    Arg.(
      value & opt int 3
      & info [ "attempts" ] ~docv:"N"
          ~doc:"Connection attempts before giving up.")
  in
  let timeout_arg =
    Arg.(
      value & opt float 30.0
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:"Abort an attempt when the server is silent this long.")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No per-event logging.")
  in
  let run (host, port) dir attempts idle_timeout_s quiet metrics trace_json =
    if not quiet then log_to_stderr ();
    let reg, scope = make_obs ~metrics ~trace_json in
    let files =
      Fsync_collection.Snapshot.files (Fsync_collection.Snapshot.load_dir dir)
    in
    match
      Fsync_server.Push.run ~attempts ~idle_timeout_s ~scope ~host ~port
        files
    with
    | r ->
        let s = r.Fsync_server.Push.stats in
        Format.printf
          "pushed %d files in %d attempt(s); chunks: %d sent of %d, %d \
           bytes deduped; wire: %d up, %d down, %d round trips@."
          s.Fsync_server.Pusher.files_pushed r.Fsync_server.Push.attempts
          s.Fsync_server.Pusher.chunks_sent s.Fsync_server.Pusher.chunks_total
          s.Fsync_server.Pusher.bytes_deduped r.Fsync_server.Push.c2s_bytes
          r.Fsync_server.Push.s2c_bytes r.Fsync_server.Push.roundtrips;
        emit_obs ~metrics ~trace_json reg;
        `Ok ()
    | exception Fsync_core.Error.E e ->
        `Error
          (false, Printf.sprintf "push failed: %s" (Fsync_core.Error.to_string e))
    | exception Unix.Unix_error (e, _, _) ->
        `Error
          ( false,
            Printf.sprintf "cannot reach %s:%d: %s" host port
              (Unix.error_message e) )
  in
  let term =
    Term.(
      ret
        (const run $ addr_arg $ dir_arg $ attempts_arg $ timeout_arg
       $ quiet_arg $ metrics_arg $ trace_json_arg))
  in
  Cmd.v
    (Cmd.info "push"
       ~doc:
         "Upload a directory tree into a running daemon; a store-backed \
          daemon only asks for the chunks it does not already hold.")
    term

(* ---- store maintenance ---- *)

let store_root_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"STORE" ~doc:"Chunk-store root directory.")

let with_store root f =
  match Fsync_store.Store.open_store root with
  | exception Fsync_core.Error.E e ->
      `Error
        (false, Printf.sprintf "store: %s" (Fsync_core.Error.to_string e))
  | store ->
      Fun.protect
        ~finally:(fun () -> Fsync_store.Store.close store)
        (fun () -> f store)

let store_stats_cmd =
  let run root =
    with_store root (fun store ->
        let s = Fsync_store.Store.stats store in
        Format.printf
          "store %s: %d chunks, %d bytes, %d manifests, %d compactions@."
          root s.Fsync_store.Store.chunks s.Fsync_store.Store.bytes
          s.Fsync_store.Store.manifests s.Fsync_store.Store.compactions;
        `Ok ())
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Print chunk, byte and manifest counts.")
    Term.(ret (const run $ store_root_arg))

let store_fsck_cmd =
  let run root =
    with_store root (fun store ->
        let report = Fsync_store.Store.fsck store in
        Format.printf "%a@." Fsync_store.Store.pp_fsck_report report;
        match Fsync_store.Store.fsck_errors report with
        | [] -> `Ok ()
        | errors ->
            `Error
              ( false,
                Printf.sprintf "fsck: %d error(s) in %s"
                  (List.length errors) root ))
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Verify every chunk re-hashes to its key and every refcount \
          matches the manifests; non-zero exit on damage.")
    Term.(ret (const run $ store_root_arg))

let store_gc_cmd =
  let run root =
    with_store root (fun store ->
        let removed, bytes = Fsync_store.Store.gc store in
        Format.printf "gc: removed %d chunk(s), reclaimed %d bytes@." removed
          bytes;
        `Ok ())
  in
  Cmd.v
    (Cmd.info "gc"
       ~doc:"Delete unreferenced chunks and compact the index.")
    Term.(ret (const run $ store_root_arg))

let store_cmd =
  Cmd.group
    (Cmd.info "store"
       ~doc:"Inspect and maintain a persistent chunk store.")
    [ store_stats_cmd; store_fsck_cmd; store_gc_cmd ]

(* ---- admin / top / trace: the telemetry plane ---- *)

let admin_addr_arg =
  Arg.(
    required
    & pos 0 (some host_port_conv) None
    & info [] ~docv:"HOST:PORT"
        ~doc:"Admin address printed by $(b,fsync serve --admin-port).")

let admin_errmsg ~host ~port = function
  | Fsync_core.Error.E e ->
      Printf.sprintf "admin %s:%d: %s" host port
        (Fsync_core.Error.to_string e)
  | Unix.Unix_error (err, _, _) ->
      Printf.sprintf "admin %s:%d: %s" host port (Unix.error_message err)
  | e -> Printf.sprintf "admin %s:%d: %s" host port (Printexc.to_string e)

let admin_cmd =
  let what_arg =
    Arg.(
      value
      & pos 1 (enum [ ("status", "status"); ("metrics", "metrics") ]) "status"
      & info [] ~docv:"REQUEST"
          ~doc:
            "$(b,metrics) for the Prometheus text exposition, $(b,status) \
             for the fsyncd-status/1 JSON document.")
  in
  let timeout_arg =
    Arg.(
      value & opt float 5.0
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:"Give up waiting for the reply after this long.")
  in
  let run (host, port) what timeout_s =
    match Fsync_server.Admin.request ~timeout_s ~host ~port what with
    | reply ->
        print_string reply;
        if
          String.length reply > 0
          && reply.[String.length reply - 1] <> '\n'
        then print_newline ();
        `Ok ()
    | exception e -> `Error (false, admin_errmsg ~host ~port e)
  in
  Cmd.v
    (Cmd.info "admin"
       ~doc:
         "One framed request against a daemon's admin socket; prints the \
          reply verbatim.")
    Term.(ret (const run $ admin_addr_arg $ what_arg $ timeout_arg))

let top_cmd =
  let interval_arg =
    Arg.(
      value & opt float 1.0
      & info [ "interval" ] ~docv:"SECONDS"
          ~doc:"Seconds between refreshes.")
  in
  let count_arg =
    Arg.(
      value & opt int 0
      & info [ "count" ] ~docv:"N"
          ~doc:
            "Stop after $(docv) refreshes (0 = run until interrupted); \
             with a finite count the screen is not cleared, so the last \
             table survives in the scrollback.")
  in
  let module J = Fsync_obs.Json in
  let mem name j = Option.value ~default:J.Null (J.member name j) in
  let str name j = Option.value ~default:"-" (J.to_string_opt (mem name j)) in
  let num name j = Option.value ~default:0.0 (J.to_float_opt (mem name j)) in
  let int name j = Option.value ~default:0 (J.to_int_opt (mem name j)) in
  let render ~clear ~host ~port doc =
    if clear then print_string "\027[2J\027[H";
    let sessions = mem "sessions" doc in
    Printf.printf
      "fsyncd %s:%d  up %.0f s  active %d  accepted %d  completed %d  \
       failed %d  shed %d\n"
      host port (num "uptime_s" doc) (int "active" sessions)
      (int "accepted" sessions) (int "completed" sessions)
      (int "failed" sessions) (int "shed" sessions);
    Printf.printf "%-21s %-9s %-12s %7s %7s %11s %11s %11s\n" "PEER" "TRACE"
      "PHASE" "AGE" "IDLE" "IN" "OUT" "OUT/S";
    (match mem "active_sessions" doc with
    | J.List rows ->
        List.iter
          (fun row ->
            let age = num "age_s" row in
            let out = int "bytes_out" row in
            let rate = if age > 0.0 then float_of_int out /. age else 0.0 in
            let trace =
              let t = str "trace" row in
              if String.length t > 8 then String.sub t 0 8 else t
            in
            Printf.printf "%-21s %-9s %-12s %7.1f %7.1f %11d %11d %11.0f\n"
              (str "peer" row) trace (str "phase" row) age (num "idle_s" row)
              (int "bytes_in" row) out rate)
          rows
    | _ -> ());
    flush stdout
  in
  let run (host, port) interval count =
    let clear = count = 0 in
    let rec loop n =
      match Fsync_server.Admin.status ~host ~port () with
      | exception e -> `Error (false, admin_errmsg ~host ~port e)
      | doc ->
          render ~clear ~host ~port doc;
          if count > 0 && n + 1 >= count then `Ok ()
          else begin
            Unix.sleepf interval;
            loop (n + 1)
          end
    in
    loop 0
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Poll a daemon's admin socket and render a refreshing table of \
          active sessions (peer, trace id, live phase, age, bytes, rate).")
    Term.(ret (const run $ admin_addr_arg $ interval_arg $ count_arg))

let trace_report_cmd =
  let files_arg =
    Arg.(
      non_empty
      & pos_all non_dir_file []
      & info [] ~docv:"FILE"
          ~doc:
            "Trace-tagged JSONL streams: the client's $(b,--trace-json) \
             file and the daemon's $(b,serve --trace-json) stream.")
  in
  let read_lines path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | line -> go (line :: acc)
          | exception End_of_file -> List.rev acc
        in
        go [])
  in
  let run files =
    let lines = List.concat_map read_lines files in
    match Fsync_obs.Trace_report.of_lines lines with
    | Error e -> `Error (false, Printf.sprintf "trace report: %s" e)
    | Ok [] -> `Error (false, "trace report: no trace events found")
    | Ok sessions ->
        List.iter
          (fun s -> Format.printf "%a@." Fsync_obs.Trace_report.pp s)
          sessions;
        `Ok ()
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Join client and daemon trace streams by trace id into \
          per-session phase-latency and byte breakdowns.")
    Term.(ret (const run $ files_arg))

let trace_cmd =
  Cmd.group
    (Cmd.info "trace"
       ~doc:"Work with --trace-json event streams (DESIGN.md \194\1679).")
    [ trace_report_cmd ]

(* ---- swarm: N-peer anti-entropy (DESIGN.md §13) ---- *)

let swarm_root_arg =
  Arg.(
    required
    & pos 0 (some dir) None
    & info [] ~docv:"ROOT" ~doc:"Replica root directory.")

let swarm_id_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "id" ] ~docv:"PEER"
        ~doc:
          "This replica's peer id.  Version-vector counters are keyed by \
           it, so keep it stable across runs and unique across the swarm.")

let swarm_peers_arg =
  Arg.(
    value
    & opt_all host_port_conv []
    & info [ "peer" ] ~docv:"HOST:PORT"
        ~doc:"A swarm member to exchange with (repeatable).")

let load_replica ~root ~peer ~scope =
  Fsync_swarm.Replica.load ~scope ~root ~peer ()

let swarm_serve_cmd =
  let host_arg =
    Arg.(
      value & opt string "0.0.0.0"
      & info [ "host" ] ~docv:"ADDR" ~doc:"Numeric address to bind.")
  in
  let port_arg =
    Arg.(
      value & opt int 9431
      & info [ "p"; "port" ] ~docv:"PORT"
          ~doc:"TCP port to listen on (0 picks an ephemeral port).")
  in
  let run root id host port metrics trace_json =
    log_to_stderr ();
    let reg, scope = make_obs ~metrics ~trace_json in
    let replica = load_replica ~root ~peer:id ~scope in
    let peer = Fsync_swarm.Peer.create ~scope replica in
    let daemon = Fsync_swarm.Peer.daemon peer in
    match Fsync_server.Daemon.listen daemon ~host ~port with
    | bound ->
        Format.printf "swarm peer %s serving %s on %s:%d (%d files)@." id
          root host bound
          (List.length (Fsync_swarm.Replica.files replica));
        let stop _ = Fsync_server.Daemon.request_stop daemon in
        Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
        Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
        Fsync_server.Daemon.run daemon;
        let st = Fsync_server.Daemon.stats daemon in
        Format.printf
          "swarm peer done: %d accepted (%d gossip, %d plain), %d \
           completed, %d failed, %d timeouts@."
          st.accepted
          (Fsync_swarm.Peer.gossip_sessions peer)
          (Fsync_swarm.Peer.plain_sessions peer)
          st.completed st.failed st.timeouts;
        emit_obs ~metrics ~trace_json reg;
        `Ok ()
    | exception Unix.Unix_error (e, _, _) ->
        `Error
          ( false,
            Printf.sprintf "cannot listen on %s:%d: %s" host port
              (Unix.error_message e) )
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve this replica to the swarm: gossip exchanges and plain \
          pulls on one port.")
    Term.(
      ret
        (const run $ swarm_root_arg $ swarm_id_arg $ host_arg $ port_arg
       $ metrics_arg $ trace_json_arg))

let pp_gossip_stats who (s : Fsync_swarm.Gossip.stats) =
  Format.printf
    "%s: %s%d conflicts, %d pulled, %d installed, %d B in, %d B out@." who
    (if s.Fsync_swarm.Gossip.short_circuit then "already converged, " else "")
    s.Fsync_swarm.Gossip.conflicts s.Fsync_swarm.Gossip.files_pulled
    s.Fsync_swarm.Gossip.installs s.Fsync_swarm.Gossip.bytes_in
    s.Fsync_swarm.Gossip.bytes_out

let swarm_join_cmd =
  let rounds_arg =
    Arg.(
      value & opt int 1
      & info [ "rounds" ] ~docv:"N"
          ~doc:
            "Gossip rounds: each round exchanges with every listed peer \
             once, stopping early once every exchange short-circuits.")
  in
  let run root id peers rounds metrics trace_json =
    log_to_stderr ();
    if List.length peers = 0 then
      `Error (false, "swarm join: need at least one --peer HOST:PORT")
    else begin
      let reg, scope = make_obs ~metrics ~trace_json in
      let replica = load_replica ~root ~peer:id ~scope in
      let failures = ref 0 in
      let converged = ref false in
      let round = ref 0 in
      while (not !converged) && !round < max 1 rounds do
        incr round;
        let all_short = ref true in
        List.iter
          (fun (host, port) ->
            match
              Fsync_swarm.Peer.gossip ~scope ~host ~port replica
            with
            | s ->
                pp_gossip_stats (Printf.sprintf "%s:%d" host port) s;
                if not s.Fsync_swarm.Gossip.short_circuit then
                  all_short := false
            | exception e ->
                incr failures;
                all_short := false;
                Format.printf "%s:%d: failed: %s@." host port
                  (match Fsync_core.Error.of_exn e with
                  | Some err -> Fsync_core.Error.to_string err
                  | None -> Printexc.to_string e))
          peers;
        converged := !all_short
      done;
      Format.printf "root %s after %d round%s%s@."
        (Fsync_hash.Fingerprint.to_hex (Fsync_swarm.Replica.summary replica))
        !round
        (if !round = 1 then "" else "s")
        (if !converged then " (converged with every peer)" else "");
      emit_obs ~metrics ~trace_json reg;
      if !failures > 0 then
        `Error (false, Printf.sprintf "%d exchange(s) failed" !failures)
      else `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "join"
       ~doc:
         "Run anti-entropy exchanges against the listed peers until \
          converged (or the round budget runs out).")
    Term.(
      ret
        (const run $ swarm_root_arg $ swarm_id_arg $ swarm_peers_arg
       $ rounds_arg $ metrics_arg $ trace_json_arg))

let swarm_status_cmd =
  let verbose_arg =
    Arg.(
      value & flag
      & info [ "verbose"; "v" ] ~doc:"Print every entry's version vector.")
  in
  let run root id verbose =
    let replica =
      load_replica ~root ~peer:id ~scope:Fsync_obs.Scope.disabled
    in
    let entries = Fsync_swarm.Replica.entries replica in
    let present, tombstones =
      List.partition
        (fun (_, e) -> e.Fsync_swarm.Replica.present)
        entries
    in
    let conflicts =
      List.filter
        (fun (p, _) ->
          Fsync_swarm.Plan.is_conflict_path p)
        present
    in
    Format.printf "peer %s at %s@." id root;
    Format.printf "root %s@."
      (Fsync_hash.Fingerprint.to_hex (Fsync_swarm.Replica.summary replica));
    Format.printf "%d files, %d tombstones, %d unresolved conflict file%s@."
      (List.length present) (List.length tombstones)
      (List.length conflicts)
      (if List.length conflicts = 1 then "" else "s");
    List.iter
      (fun (p, _) -> Format.printf "  conflict: %s@." p)
      conflicts;
    if verbose then
      List.iter
        (fun (p, e) ->
          Format.printf "  %s %s by %s %s (%d B)@." p
            (if e.Fsync_swarm.Replica.present then "present" else "tombstone")
            e.Fsync_swarm.Replica.author
            (Fsync_swarm.Version_vector.pp e.Fsync_swarm.Replica.vv)
            e.Fsync_swarm.Replica.len)
        entries;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "status"
       ~doc:
         "Show this replica's swarm state: root digest, entry counts, \
          unresolved conflict files.")
    Term.(ret (const run $ swarm_root_arg $ swarm_id_arg $ verbose_arg))

let swarm_repair_cmd =
  let path_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"PATH" ~doc:"Replica-relative path to repair.")
  in
  let run root id peers path =
    log_to_stderr ();
    if List.length peers = 0 then
      `Error (false, "swarm repair: need at least one --peer HOST:PORT")
    else begin
      let replica =
        load_replica ~root ~peer:id ~scope:Fsync_obs.Scope.disabled
      in
      let answered = ref 0 in
      List.iter
        (fun (host, port) ->
          match Fsync_swarm.Peer.repair ~host ~port replica ~path with
          | o ->
              incr answered;
              Format.printf "%s:%d (%s): %s, %d pulled, %d installed%s@."
                host port o.Fsync_swarm.Repair.peer
                (if o.Fsync_swarm.Repair.had_entry then "knows it"
                 else "never heard of it")
                o.Fsync_swarm.Repair.pulled o.Fsync_swarm.Repair.installed
                (if o.Fsync_swarm.Repair.conflict then ", CONFLICT surfaced"
                 else "")
          | exception e ->
              Format.printf "%s:%d: failed: %s@." host port
                (match Fsync_core.Error.of_exn e with
                | Some err -> Fsync_core.Error.to_string err
                | None -> Printexc.to_string e))
        peers;
      let quorum = (List.length peers / 2) + 1 in
      (match Fsync_swarm.Replica.find replica path with
      | Some e when e.Fsync_swarm.Replica.present ->
          Format.printf "%s: %d B, %s@." path e.Fsync_swarm.Replica.len
            (Fsync_swarm.Version_vector.pp e.Fsync_swarm.Replica.vv)
      | Some _ -> Format.printf "%s: deleted (tombstone)@." path
      | None -> Format.printf "%s: unknown everywhere@." path);
      if !answered >= quorum then begin
        Format.printf "quorum: %d/%d peers answered@." !answered
          (List.length peers);
        `Ok ()
      end
      else
        `Error
          ( false,
            Printf.sprintf "no quorum: %d/%d peers answered (need %d)"
              !answered (List.length peers) quorum )
    end
  in
  Cmd.v
    (Cmd.info "repair"
       ~doc:
         "Quorum read-repair one path: probe every listed peer, merge \
          their entries into the local replica, pull winning content.")
    Term.(
      ret
        (const run $ swarm_root_arg $ swarm_id_arg $ swarm_peers_arg
       $ path_arg))

let swarm_cmd =
  Cmd.group
    (Cmd.info "swarm"
       ~doc:
         "N-peer anti-entropy: version vectors, gossip reconciliation, \
          quorum read-repair (DESIGN.md \194\16713).")
    [ swarm_serve_cmd; swarm_join_cmd; swarm_status_cmd; swarm_repair_cmd ]

(* ---- info ---- *)

let info_cmd =
  let run config =
    Format.printf "%a@." Fsync_core.Config.pp config
  in
  Cmd.v (Cmd.info "info" ~doc:"Print the selected configuration preset.")
    Term.(const run $ config_arg)

let main =
  let doc = "bandwidth-efficient file synchronization (Suel-Noel-Trendafilov, ICDE 2004)" in
  Cmd.group (Cmd.info "fsync" ~version:"1.0.0" ~doc)
    [
      sync_cmd;
      dir_cmd;
      delta_cmd;
      patch_cmd;
      rsync_cmd;
      gen_cmd;
      serve_cmd;
      pull_cmd;
      push_cmd;
      store_cmd;
      admin_cmd;
      top_cmd;
      trace_cmd;
      swarm_cmd;
      info_cmd;
    ]

let () = exit (Cmd.eval main)
