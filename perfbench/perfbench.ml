(* Slow-link benchmark of the deployed daemon and swarm.

     perfbench.exe --workload W --seed N --seconds S --trace 0|1

   Workloads (see each module's header): src-pull, web-mirror,
   swarm-gossip.  Every run checks every output — pulled replicas
   against what the daemon served, pushed pages against what it
   published, gossip epochs against byte-identical trees — and exits
   non-zero on any mismatch.

   [--trace 0] serves as many whole cycles of the workload's input as
   fit S seconds (at least one; see [Tally.epochs_for]) and reports the
   end-to-end metrics.  [--trace 1] runs S/2 seconds' worth untraced,
   then replays the same epochs from a fresh set-up with every layer
   call wrapped in a span, and reports the per-layer metrics, the
   coverage of the loop's wall time by layer spans and the tracing
   overhead.  The span log is written after the run to .bench_out/.
   On-disk state (the web-mirror store, the swarm replicas) lives under
   .bench_state/ in the working directory, fsync on, and is removed at
   exit.

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}. *)

let workloads = [ "src-pull"; "web-mirror"; "swarm-gossip" ]

(* Run [seconds] worth of whole cycles of the named workload. *)
let run_workload name ~state ~seed ~traced ~seconds =
  let epochs = Tally.epochs_for ~seconds in
  match name with
  | "src-pull" ->
      Src_pull.run ~seed ~traced
        ~epochs:(epochs ~cycle:Src_pull.cycle ~cycle_s:Src_pull.cycle_s)
  | "web-mirror" ->
      Web_mirror.run ~state ~seed ~traced
        ~epochs:(epochs ~cycle:Web_mirror.cycle ~cycle_s:Web_mirror.cycle_s)
  | "swarm-gossip" ->
      Swarm_gossip.run ~state ~seed ~traced
        ~epochs:(epochs ~cycle:Swarm_gossip.cycle ~cycle_s:Swarm_gossip.cycle_s)
  | other -> invalid_arg ("unknown workload " ^ other)

let sync_times (t : Tally.t) = List.map (fun s -> s.Tally.sync_s) t.sessions

let end_to_end (t : Tally.t) =
  let tail, _ = Tally.tail (sync_times t) in
  [
    ("sync_s_p50", Tally.median (sync_times t), "s");
    ("sync_s_tail", tail, "s");
    ("wire_bytes", Tally.mean_int (fun s -> s.Tally.wire_bytes) t.sessions, "B");
    ("round_trips", Tally.mean_int (fun s -> s.Tally.rts) t.sessions, "count");
    ("throughput_mb_s",
     float_of_int t.content_bytes /. 1e6 /. t.loop_work_s,
     "MB/s");
    ("converge_s", Tally.median t.converge, "s");
    ("setup_s", Tally.median t.setups, "s");
  ]

(* Server-side phase spans of the traced sessions, summed by name. *)
let phase_totals () =
  match Fsync_obs.Trace_report.of_lines (List.rev !Drive.phase_trace) with
  | Error e -> failwith ("phase trace: " ^ e)
  | Ok sessions ->
      let tbl = Hashtbl.create 8 in
      List.iter
        (fun s ->
          List.iter
            (fun (p : Fsync_obs.Trace_report.phase) ->
              if String.equal p.p_role "server" then
                Hashtbl.replace tbl p.p_name
                  (p.p_total_s
                  +. Option.value (Hashtbl.find_opt tbl p.p_name) ~default:0.0))
            s.Fsync_obs.Trace_report.phases)
        sessions;
      fun name -> Option.value (Hashtbl.find_opt tbl name) ~default:0.0

(* Per session unless the name says otherwise: [swarm.round_s] per
   round, [swarm.rounds] per epoch, [io.setup_fsyncs] per set-up; hit
   rate, coverage and overhead over the run; [gc.peak_heap_mb] is the
   untraced run's ([heap_mb]).  Times are layer self times ([Layers]);
   [trace.overhead] compares the traced loop's wall time with the
   untraced one over the same epochs. *)
let per_layer ~(untraced : Tally.t) ~heap_mb ~layers (t : Tally.t) =
  let n = float_of_int (max 1 (List.length t.sessions)) in
  let per_session v = v /. n in
  let self name = per_session (Layers.self_s layers name) in
  let c name = Tally.counter t name in
  let phase = phase_totals () in
  let lookups = c "sigcache.lookups" in
  let kind i = per_session (float_of_int t.wire.bytes.(i)) in
  [
    ("msg.bytes.metadata", kind 0, "B");
    ("msg.bytes.hashes", kind 1, "B");
    ("msg.bytes.literals", kind 2, "B");
    ("msg.bytes.push", kind 3, "B");
    ("msg.bytes.swarm", kind 4, "B");
    ("msg.frames", per_session (float_of_int t.wire.frames), "count");
    ("puller.on_message_s", self "puller", "s");
    ("puller.matched_bytes", per_session (c "puller.matched_bytes"), "B");
    ("puller.literal_bytes", per_session (c "puller.literal_bytes"), "B");
    ("pusher.on_message_s", self "pusher", "s");
    ("daemon.step_s", self "daemon.step", "s");
    ("daemon.accept_s", self "daemon.accept", "s");
    ("daemon.select_iterations", per_session (c "daemon.select_iterations"), "count");
    ("sigcache.hit_rate", (if lookups > 0.0 then c "sigcache.hits" /. lookups else 0.0), "ratio");
    ("sigcache.lookups", per_session lookups, "count");
    ("sig_cache_hits", per_session (c "sig_cache_hits"), "count");
    ("server_full_fallbacks", per_session (c "server_full_fallbacks"), "count");
    ("store_full_served", per_session (c "store_full_served"), "count");
    ("store_hits", per_session (c "store_hits"), "count");
    ("store_bytes_deduped", per_session (c "store_bytes_deduped"), "B");
    ("io.fsyncs", per_session (float_of_int Io_meter.counts.fsyncs), "count");
    ("io.bytes_written", per_session (float_of_int Io_meter.counts.bytes_written), "B");
    ("io.setup_fsyncs", c "io.setup_fsyncs", "count");
    ("io.s", self "io", "s");
    ("transport.s", self "transport", "s");
    ("gossip.on_message_s", self "gossip", "s");
    ("swarm.round_s",
     (if t.rounds > 0 then Layers.total_s layers "bench.round" /. float_of_int t.rounds
      else 0.0),
     "s");
    ("swarm.rounds",
     (if t.epochs > 0 then float_of_int t.rounds /. float_of_int t.epochs else 0.0),
     "count");
    ("gossip_short_circuits", per_session (c "gossip_short_circuits"), "count");
    ("gossip_installs", per_session (c "gossip_installs"), "count");
    ("swarm.conflicts", per_session (c "swarm.conflicts"), "count");
    ("replica.set_s", self "replica.set", "s");
    ("phase.metadata_s", per_session (phase "phase:metadata"), "s");
    ("phase.hash_rounds_s", per_session (phase "phase:hash_rounds"), "s");
    ("phase.literals_s", per_session (phase "phase:literals"), "s");
    ("phase.push_s", per_session (phase "phase:push"), "s");
    ("store.io_s", per_session (phase "store:io"), "s");
    ("gc.peak_heap_mb", heap_mb, "MB");
    ("trace.coverage", Layers.covered_s layers /. t.loop_s, "ratio");
    ("trace.overhead", t.loop_s /. untraced.loop_s, "ratio");
  ]

let json_line ~correct ~attempted ~failed metrics =
  let metric (name, v, unit) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric metrics))

let summarize name (t : Tally.t) =
  let tail, pct = Tally.tail (sync_times t) in
  Printf.printf
    "%s: %d epochs, %d sessions (%d failed, error rate %.4f), loop %.2f s wall, %.2f s user CPU\n"
    name t.epochs t.attempted t.failed
    (float_of_int t.failed /. float_of_int (max 1 t.attempted))
    t.loop_s t.loop_work_s;
  Printf.printf "  sync_s_tail is p%.1f of %d sessions: %.3f s\n" pct
    (List.length t.sessions) tail;
  let tm = Unix.times () in
  Printf.printf "  process so far: user %.2f s, system %.2f s, %.0f M words allocated\n"
    tm.Unix.tms_utime tm.Unix.tms_stime ((Gc.quick_stat ()).minor_words /. 1e6);
  Printf.printf "  set-up samples: %s s\n"
    (String.concat " " (List.rev_map (Printf.sprintf "%.4f") t.setups));
  List.iter (fun e -> Printf.printf "  error: %s\n" e) t.errors

let check_wire (t : Tally.t) =
  let sessions = List.fold_left (fun acc s -> acc + s.Tally.wire_bytes) 0 t.sessions in
  Wire.check t.wire ~accounted:sessions

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  let corrupt = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " time budget: how many whole input cycles to serve");
      ("--trace", Arg.Set_int trace, " 1: per-layer run");
      ("--corrupt-replica", Arg.Set corrupt,
       " damage one replica after a session, to show the output check fails");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("perfbench: --workload must be one of " ^ String.concat ", " workloads);
    exit 2
  end;
  Files.corrupt := !corrupt;
  let state_root = Filename.concat (Sys.getcwd ()) ".bench_state" in
  let state =
    Filename.concat state_root (Printf.sprintf "%s-%d" !workload (Unix.getpid ()))
  in
  Files.mkdir_p state;
  let seconds = float_of_int !seconds in
  let traced = Int.equal !trace 1 in
  let tallies, metrics =
    Fun.protect
      ~finally:(fun () ->
        Files.rm_rf state;
        try Sys.rmdir state_root with Sys_error _ -> ())
      (fun () ->
        if not traced then begin
          let t =
            run_workload !workload ~state ~seed:!seed ~traced:false
              ~seconds
          in
          summarize !workload t;
          check_wire t;
          ([ t ], end_to_end t)
        end
        else begin
          let a =
            run_workload !workload ~state ~seed:!seed ~traced:false
              ~seconds:(seconds /. 2.0)
          in
          summarize (!workload ^ " (untraced)") a;
          let heap_mb = Tally.peak_heap_mb () in
          Layers.reset ();
          Io_meter.reset ();
          Drive.phase_trace := [];
          Layers.enabled := true;
          let b =
            run_workload !workload ~state ~seed:!seed ~traced:true
              ~seconds:(seconds /. 2.0)
          in
          Layers.enabled := false;
          summarize (!workload ^ " (traced)") b;
          check_wire b;
          let out = Filename.concat (Sys.getcwd ()) ".bench_out" in
          Files.mkdir_p out;
          let path =
            Filename.concat out (Printf.sprintf "trace-%s-seed%d.jsonl" !workload !seed)
          in
          Layers.write_jsonl path ~extra:(List.rev !Drive.phase_trace);
          let layers = Layers.layers () in
          let ms = per_layer ~untraced:a ~heap_mb ~layers b in
          Printf.printf "  layer self time per session (span log: %s):\n" path;
          List.iter
            (fun (l : Layers.layer) ->
              Printf.printf "    %-14s %10.6f s  %5.1f%%  %d calls\n" l.lname
                (l.self_s /. float_of_int (max 1 (List.length b.sessions)))
                (100.0 *. l.self_s /. b.loop_s) l.calls)
            layers;
          ([ a; b ], ms)
        end)
  in
  let attempted = List.fold_left (fun acc (t : Tally.t) -> acc + t.attempted) 0 tallies in
  let failed = List.fold_left (fun acc (t : Tally.t) -> acc + t.failed) 0 tallies in
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  let correct = Int.equal failed 0 && attempted > 0 && finite in
  print_endline (json_line ~correct ~attempted ~failed metrics);
  if not correct then exit 1
