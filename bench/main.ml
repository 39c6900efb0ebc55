(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§6) on the synthetic stand-ins for its datasets.

     fig61    Fig 6.1  basic protocol vs min block size (gcc)
     fig62    Fig 6.2  same on emacs
     fig63    Fig 6.3  continuation hashes (gcc + emacs)
     fig64    Fig 6.4  match verification strategies (gcc)
     table61  Table 6.1  best results, all techniques
     table62  Table 6.2  web collection update cost
     metadata linear vs Merkle collection-metadata reconciliation
              (QUICK=1 shrinks the matrix for CI smoke tests); also
              writes BENCH_metadata.json
     collection  web-collection update costs per method, exported as
              BENCH_collection.json (scenario x config records with
              bytes, rounds, times and observability counters)
     server   concurrent-daemon throughput: client fleets pulling one
              collection through Fsync_server over the loopback driver,
              exported as BENCH_server.json with the shared
              signature-cache hit rate per run
     store    chunk-store dedup: overlapping client pushes with and
              without the store (BENCH_store.json, dedup ratio and the
              warm-restart signature-cache rate)
     swarm    N-peer anti-entropy: peers x change-rate matrix, gossip
              rounds-to-convergence and bytes-on-wire vs the all-pairs
              pairwise baseline (BENCH_swarm.json, schema fsync-swarm/1)
     torture  crash-tolerance matrix: {crash point x disk-fault
              schedule} x {push, pull, gc, compact} under injected
              faults, restart + fsck + convergence asserted per cell,
              plus the resumed-pull payload bar (BENCH_torture.json;
              QUICK=1 shrinks the crash-point sweep)
     ablate   ablations: decomposable / skip rules / candidate cap / local
     speed    bechamel micro-benchmarks (hashes, compressors, protocol)
     all      everything above (default)

   Costs are reported in KB as in the paper.  Dataset scale is controlled
   by FSYNC_SCALE (default "small"); the absolute KB therefore differ from
   the paper, but every comparison the paper makes is reproduced. *)

module Table = Fsync_util.Table
module Config = Fsync_core.Config
module Protocol = Fsync_core.Protocol
module Rsync = Fsync_rsync.Rsync
module Delta = Fsync_delta.Delta
module Source_tree = Fsync_workload.Source_tree
module Datasets = Fsync_workload.Datasets
module Driver = Fsync_collection.Driver
module Snapshot = Fsync_collection.Snapshot

let kb = Table.cell_kb

(* Monomorphic comparisons for (path, content) trees — the harness
   asserts replica equality constantly and must not rely on polymorphic
   compare (lint R1). *)
let entry_compare (p1, c1) (p2, c2) =
  match String.compare p1 p2 with 0 -> String.compare c1 c2 | c -> c

let entries_equal a b =
  List.equal
    (fun (p1, c1) (p2, c2) -> String.equal p1 p2 && String.equal c1 c2)
    a b

(* ---- machine-readable export (BENCH_*.json) ----

   The [metadata] and [collection] targets additionally write one JSON
   document each so CI (and scripts) can track the trajectory without
   scraping tables.  Schema: a header plus a [records] array of
   scenario x config rows; each row carries the link costs, the
   simulated slow-link time, the measured wall clock, and every
   observability counter the run produced (DESIGN.md §9). *)

module Json = Fsync_obs.Json

(* [Table.print] left the library (console I/O is the binary's job, R3);
   render here and print ourselves. *)
let print_table t =
  print_string (Fsync_util.Table.render t);
  print_newline ()


let quick_mode () =
  match Sys.getenv_opt "QUICK" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

(* The default slow link of the paper's evaluation: 50 ms one-way
   latency, 1 Mbit/s. *)
let slow_link_time ~rounds bytes =
  (2.0 *. 0.05 *. float_of_int rounds)
  +. (float_of_int bytes /. (1_000_000.0 /. 8.0))

let bench_record ~scenario ~config ~bytes_up ~bytes_down ~rounds ~elapsed_s
    ~wall_ns reg =
  Json.Obj
    [
      ("scenario", Json.String scenario);
      ("config", Json.String config);
      ("bytes_up", Json.Int bytes_up);
      ("bytes_down", Json.Int bytes_down);
      ("rounds", Json.Int rounds);
      ("elapsed_s", Json.Float elapsed_s);
      ("wall_ns", Json.Int wall_ns);
      ( "counters",
        Json.Obj
          (List.map
             (fun (name, v) -> (name, Json.Int v))
             (Fsync_obs.Registry.counters reg)) );
    ]

let write_bench_json path records =
  let doc =
    Json.Obj
      [
        ("schema", Json.String "fsync-bench/1");
        ("generated_unix_s", Json.Float (Unix.gettimeofday ()));
        ("scale", Json.String (Datasets.scale_name ()));
        ("quick", Json.Bool (quick_mode ()));
        ("records", Json.List records);
      ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Json.to_string doc);
      output_char oc '\n');
  Printf.printf "wrote %s (%d records)\n" path (List.length records)

(* Run [f] under a fresh registry; returns its result, the registry, and
   the measured wall clock in nanoseconds. *)
let observed f =
  let reg = Fsync_obs.Registry.create () in
  let scope = Fsync_obs.Scope.of_registry reg in
  let w0 = Unix.gettimeofday () in
  let x = f scope in
  let wall_ns = int_of_float ((Unix.gettimeofday () -. w0) *. 1e9) in
  (x, reg, wall_ns)

(* ---- aggregated costs over a list of (old, new) file pairs ---- *)

type ours_cost = {
  map_s2c : int;
  map_c2s : int;
  delta : int;
  header : int;
  total : int;
  roundtrips : int; (* max over files: files are processed concurrently, so
                       the collection pays the deepest file's trips *)
}

let run_ours cfg pairs =
  List.fold_left
    (fun acc (old_file, new_file) ->
      let r = Protocol.run ~config:cfg ~old_file new_file in
      assert (String.equal r.reconstructed new_file);
      let rep = r.report in
      {
        map_s2c = acc.map_s2c + rep.map_s2c;
        map_c2s = acc.map_c2s + rep.map_c2s;
        delta = acc.delta + rep.delta_bytes + rep.fallback_bytes;
        header = acc.header + rep.header_c2s + rep.header_s2c;
        total = acc.total + Protocol.total_bytes rep;
        roundtrips = max acc.roundtrips rep.roundtrips;
      })
    { map_s2c = 0; map_c2s = 0; delta = 0; header = 0; total = 0; roundtrips = 0 }
    pairs

let run_rsync ?config pairs =
  List.fold_left
    (fun (c2s, s2c) (old_file, new_file) ->
      let c = Rsync.cost_only ?config ~old_file new_file in
      (c2s + c.client_to_server, s2c + c.server_to_client))
    (0, 0) pairs

let run_rsync_best pairs =
  List.fold_left
    (fun (c2s, s2c) (old_file, new_file) ->
      let _, c = Rsync.best_block_size ~old_file new_file in
      (c2s + c.client_to_server, s2c + c.server_to_client))
    (0, 0) pairs

let run_delta profile pairs =
  List.fold_left
    (fun acc (old_file, new_file) ->
      acc + Delta.encoded_size ~profile ~reference:old_file new_file)
    0 pairs

let pairs_of_tree (pair : Source_tree.pair) =
  List.map
    (fun ((o : Source_tree.file), (n : Source_tree.file)) -> (o.content, n.content))
    (Source_tree.changed_files pair)

let dataset_header (pair : Source_tree.pair) =
  Printf.printf "dataset %s [%s scale]: %d files, %.1f MB -> %.1f MB\n"
    pair.name (Datasets.scale_name ())
    (List.length pair.new_version)
    (float_of_int (Source_tree.total_bytes pair.old_version) /. 1048576.0)
    (float_of_int (Source_tree.total_bytes pair.new_version) /. 1048576.0)

(* ---- Fig 6.1 / 6.2: basic protocol vs minimum block size ---- *)

let fig_basic ~fig (pair : Source_tree.pair) =
  dataset_header pair;
  let pairs = pairs_of_tree pair in
  let t =
    Table.create
      ~caption:
        (Printf.sprintf
           "Figure %s: basic protocol (recursive halving + decomposable \
            hashes + per-candidate verification) on %s; costs in KB"
           fig pair.name)
      [
        ("variant", Table.Left); ("s2c map", Table.Right); ("c2s map", Table.Right);
        ("delta", Table.Right); ("header", Table.Right); ("total", Table.Right);
        ("rt", Table.Right);
      ]
  in
  List.iter
    (fun min_block ->
      let cfg = { Config.basic with min_global_block = min_block } in
      let c = run_ours cfg pairs in
      Table.add_row t
        [ Printf.sprintf "ours, min block %d" min_block;
          kb c.map_s2c; kb c.map_c2s; kb c.delta; kb c.header; kb c.total;
          string_of_int c.roundtrips ])
    [ 512; 256; 128; 64; 32; 16 ];
  Table.add_rule t;
  let c2s, s2c = run_rsync pairs in
  Table.add_row t
    [ "rsync (block 700)"; kb s2c; kb c2s; "-"; "-"; kb (c2s + s2c); "1" ];
  let bc2s, bs2c = run_rsync_best pairs in
  Table.add_row t
    [ "rsync (best block)"; kb bs2c; kb bc2s; "-"; "-"; kb (bc2s + bs2c); "1" ];
  let z = run_delta Delta.Zdelta pairs in
  Table.add_row t [ "zdelta (lower bound)"; "-"; "-"; kb z; "-"; kb z; "1" ];
  print_table t

(* ---- Fig 6.3: continuation hashes ---- *)

let fig63 () =
  List.iter
    (fun pair ->
      dataset_header pair;
      let pairs = pairs_of_tree pair in
      let base_cfg =
        { Config.basic with
          verification = Config.grouped_verification 1;
          min_global_block = 128 }
      in
      let t =
        Table.create
          ~caption:
            (Printf.sprintf
               "Figure 6.3: continuation hashes on %s (group verification \
                on, global hashes stop at 128 B); costs in KB"
               pair.name)
          [
            ("continuation", Table.Left); ("s2c map", Table.Right);
            ("c2s map", Table.Right); ("delta", Table.Right);
            ("total", Table.Right);
          ]
      in
      let run name cfg =
        let c = run_ours cfg pairs in
        Table.add_row t [ name; kb c.map_s2c; kb c.map_c2s; kb c.delta; kb c.total ]
      in
      run "none (group verify only)" base_cfg;
      List.iter
        (fun cont_min ->
          run
            (Printf.sprintf "down to %d B" cont_min)
            (Config.with_continuation ~cont_min_block:cont_min base_cfg))
        [ 64; 32; 16; 8 ];
      print_table t)
    [ Datasets.gcc (); Datasets.emacs () ]

(* ---- Fig 6.4: match verification strategies ---- *)

let fig64 () =
  let pair = Datasets.gcc () in
  dataset_header pair;
  let pairs = pairs_of_tree pair in
  let base = Config.with_continuation { Config.basic with min_global_block = 128 } in
  let t =
    Table.create
      ~caption:
        "Figure 6.4: match verification strategies on gcc (continuation on); \
         costs in KB; 'vrt' = verification round trips per round"
      [
        ("strategy", Table.Left); ("vrt", Table.Right); ("c2s map", Table.Right);
        ("s2c map", Table.Right); ("delta", Table.Right); ("total", Table.Right);
      ]
  in
  List.iter
    (fun (name, vrt, verification) ->
      let c = run_ours { base with verification } pairs in
      Table.add_row t
        [ name; string_of_int vrt; kb c.map_c2s; kb c.map_s2c; kb c.delta;
          kb c.total ])
    [
      ("trivial 16-bit per candidate", 1, Config.trivial_verification);
      ("weak filter + group", 2, Config.grouped_verification 1);
      ("+ individual salvage, retry", 3, Config.grouped_verification 2);
      ("+ growing groups", 4, Config.grouped_verification 3);
    ];
  print_table t

(* ---- Table 6.1: best results with all techniques ---- *)

let table61 () =
  let t =
    Table.create
      ~caption:"Table 6.1: best results using all techniques (KB)"
      [
        ("method", Table.Left); ("gcc", Table.Right); ("emacs", Table.Right);
        ("gcc vs rsync", Table.Right); ("emacs vs rsync", Table.Right);
      ]
  in
  let datasets = [ Datasets.gcc (); Datasets.emacs () ] in
  List.iter dataset_header datasets;
  let all_pairs = List.map pairs_of_tree datasets in
  let costs f = List.map f all_pairs in
  let rsync_costs = costs (fun pairs -> let a, b = run_rsync pairs in a + b) in
  let add name cs =
    let ratios =
      List.map2
        (fun c r -> Printf.sprintf "%.2fx" (float_of_int r /. float_of_int c))
        cs rsync_costs
    in
    Table.add_row t ((name :: List.map kb cs) @ ratios)
  in
  add "rsync (block 700)" rsync_costs;
  add "rsync (best block)" (costs (fun p -> let a, b = run_rsync_best p in a + b));
  add "cdc (LBFS-style)"
    (costs
       (List.fold_left
          (fun acc (old_file, new_file) ->
            acc
            + Fsync_cdc.Lbfs_sync.total
                (Fsync_cdc.Lbfs_sync.sync ~old_file new_file).cost)
          0));
  add "ours (single round)"
    (costs (fun p -> (run_ours Config.single_round p).total));
  add "ours (one-way broadcast)"
    (costs
       (List.fold_left
          (fun acc (old_file, new_file) ->
            acc
            + Fsync_core.Oneway.total_bytes
                (Fsync_core.Oneway.sync ~old_file new_file).report)
          0));
  add "ours (all techniques)" (costs (fun p -> (run_ours Config.tuned p).total));
  add "vcdiff (lower bound)" (costs (run_delta Delta.Vcdiff));
  add "zdelta (lower bound)" (costs (run_delta Delta.Zdelta));
  print_table t

(* ---- Table 6.2: web collection update cost ---- *)

let table62 () =
  let days = [ 1; 2; 7 ] in
  let base = Datasets.web_base () in
  let snapshots = Datasets.web_snapshots ~days in
  let n_pages = Array.length base in
  Printf.printf
    "web collection [%s scale]: %d pages, %.1f MB base; costs below are KB \
     for this scale (paper: 10,000 pages)\n"
    (Datasets.scale_name ()) n_pages
    (float_of_int (Fsync_workload.Web_collection.total_bytes base) /. 1048576.0);
  let t =
    Table.create
      ~caption:
        "Table 6.2: cost of updating the web collection, by update interval \
         (KB; per-file fingerprints skip unchanged pages)"
      [
        ("method", Table.Left); ("1 day", Table.Right); ("2 days", Table.Right);
        ("7 days", Table.Right);
      ]
  in
  let to_snapshot pages =
    Snapshot.of_files
      (Array.to_list
         (Array.map
            (fun (p : Fsync_workload.Web_collection.page) -> (p.url, p.content))
            pages))
  in
  let client = to_snapshot base in
  let servers = List.map to_snapshot snapshots in
  let methods =
    [
      Driver.Full_compressed;
      Driver.Rsync_default;
      Driver.Fsync Config.tuned;
      Driver.Delta_lower_bound Delta.Zdelta;
    ]
  in
  List.iter
    (fun m ->
      let cells =
        List.map
          (fun server ->
            let updated, summary = Driver.sync m ~client ~server in
            assert (entries_equal (Snapshot.files updated) (Snapshot.files server));
            kb (Driver.total summary))
          servers
      in
      Table.add_row t (Driver.method_name m :: cells))
    methods;
  print_table t

(* ---- ablations ---- *)

let ablate () =
  let pair = Datasets.gcc () in
  dataset_header pair;
  let pairs = pairs_of_tree pair in
  let t =
    Table.create
      ~caption:"Ablations on gcc (KB): each row toggles one design choice"
      [
        ("configuration", Table.Left); ("s2c map", Table.Right);
        ("c2s map", Table.Right); ("delta", Table.Right); ("total", Table.Right);
      ]
  in
  let run name cfg =
    let c = run_ours cfg pairs in
    Table.add_row t [ name; kb c.map_s2c; kb c.map_c2s; kb c.delta; kb c.total ]
  in
  let tuned = Config.tuned in
  run "tuned (reference)" tuned;
  run "- decomposable hashes" { tuned with decomposable = false };
  run "- continuation hashes"
    { tuned with continuation = { tuned.continuation with cont_enabled = false } };
  run "- skip sibling after cont" { tuned with skip_sibling_after_cont = false };
  run "+ omit global after cont miss"
    { tuned with omit_global_after_cont_miss = true };
  run "+ local hashes"
    { tuned with
      local =
        { local_enabled = true; local_bits = 10; local_window = 64;
          local_range = 4096 } };
  run "candidate cap 1" { tuned with candidate_cap = 1 };
  run "candidate cap 8" { tuned with candidate_cap = 8 };
  run "+ message compression" { tuned with compress_messages = true };
  run "vcdiff delta profile" { tuned with delta_profile = Delta.Vcdiff };
  run "single-round preset" Config.single_round;
  print_table t;
  (* Adaptive selection (S7): per-file probing then the chosen config. *)
  let ad_total, probe_total =
    List.fold_left
      (fun (t, p) (old_file, new_file) ->
        let r, pr = Fsync_core.Adaptive.sync ~old_file new_file in
        ( t + Protocol.total_bytes r.report,
          p + pr.probe_c2s + pr.probe_s2c ))
      (0, 0) pairs
  in
  Printf.printf "adaptive: %.1f KB + %.1f KB probe cost\n"
    (float_of_int ad_total /. 1024.) (float_of_int probe_total /. 1024.);
  (* Harvest rates (§6.2): the percentage of hashes that produce candidate
     matches and confirmed matches, per phase.  The paper observes that
     continuation hashes have a much higher harvest rate than global
     hashes, which is why they remain profitable at tiny block sizes. *)
  let tbl = Hashtbl.create 4 in
  List.iter
    (fun (old_file, new_file) ->
      let r = Protocol.run ~config:tuned ~old_file new_file in
      List.iter
        (fun (name, (st : Protocol.phase_stat)) ->
          let h, hit, c =
            match Hashtbl.find_opt tbl name with
            | Some v -> v
            | None -> (0, 0, 0)
          in
          Hashtbl.replace tbl name
            (h + st.hashes, hit + st.hits, c + st.confirms))
        r.report.phase_stats)
    pairs;
  let ht =
    Table.create ~caption:"harvest rate by phase (tuned config)"
      [
        ("phase", Table.Left); ("hashes", Table.Right); ("hits", Table.Right);
        ("confirmed", Table.Right); ("harvest", Table.Right);
      ]
  in
  List.iter
    (fun name ->
      match Hashtbl.find_opt tbl name with
      | None -> ()
      | Some (h, hit, c) ->
          Table.add_row ht
            [ name; string_of_int h; string_of_int hit; string_of_int c;
              Printf.sprintf "%.1f%%" (100.0 *. float_of_int c /. float_of_int (max h 1)) ])
    [ "cont"; "global"; "local" ];
  print_table ht

(* ---- broadcast: the asymmetric one-way setting (S7) ---- *)

let broadcast () =
  (* One current file, many clients holding slightly different outdated
     versions.  The interactive protocol repeats per-client work; the
     one-way signature is published once. *)
  let rng = Fsync_util.Prng.create 314L in
  let new_file = Fsync_workload.Text_gen.c_like rng ~lines:12_000 in
  let make_client i =
    let rng = Fsync_util.Prng.create (Int64.of_int (9000 + i)) in
    ( Fsync_workload.Edit_model.mutate rng
        ~profile:Fsync_workload.Edit_model.light
        ~gen_text:(fun rng n ->
          String.init n (fun _ -> Char.chr (97 + Fsync_util.Prng.int rng 26)))
        new_file,
      new_file )
  in
  Printf.printf "broadcast scenario: one %d-byte file, outdated clients\n"
    (String.length new_file);
  let t =
    Table.create
      ~caption:
        "server upload to bring N clients up to date (KB); one-way \
         publishes its signature once and does no per-client rounds"
      [
        ("clients", Table.Right); ("full (compressed)", Table.Right);
        ("interactive (tuned)", Table.Right); ("one-way", Table.Right);
        ("one-way/client", Table.Right);
      ]
  in
  let full_one = Fsync_compress.Deflate.compressed_size new_file in
  List.iter
    (fun n ->
      let clients = List.init n make_client in
      let interactive =
        List.fold_left
          (fun acc (old_file, nf) ->
            let r = Protocol.run ~config:Config.tuned ~old_file nf in
            acc + r.report.total_s2c)
          0 clients
      in
      let oneway = Fsync_core.Oneway.broadcast_cost ~clients () in
      Table.add_row t
        [
          string_of_int n; kb (full_one * n); kb interactive; kb oneway;
          kb (oneway / max n 1);
        ])
    [ 1; 4; 16; 64 ];
  print_table t;
  print_endline
    "one-way trades bytes for server passivity: no per-client rounds, a\n\
     broadcastable signature, ~4x below a full compressed send; the\n\
     interactive protocol stays the byte optimum when the server can\n\
     afford per-client work (S7's trade-off)."

(* ---- latency: roundtrip amortization on slow links (S2.3) ---- *)

let latency () =
  let pair = Datasets.gcc () in
  dataset_header pair;
  let triples =
    List.mapi
      (fun i (old_file, new_file) -> (string_of_int i, old_file, new_file))
      (pairs_of_tree pair)
  in
  let _, report = Fsync_collection.Pipeline.sync ~config:Config.tuned triples in
  let rsync_c2s, rsync_s2c = run_rsync (pairs_of_tree pair) in
  let rsync_bytes = rsync_c2s + rsync_s2c in
  Printf.printf
    "ours: %d KB, %d roundtrips sequentially, %d when rounds are batched \
     across files\n"
    (Fsync_collection.Pipeline.total_bytes report / 1024)
    report.sequential_roundtrips report.batched_roundtrips;
  (* The deployed daemon runs the batched schedule too: every file of a
     pull in lockstep, one round trip per hash level (fsyncd/1 rev 4). *)
  List.iter
    (fun (pair : Source_tree.pair) ->
      let files v =
        List.map (fun (f : Source_tree.file) -> (f.path, f.content)) v
      in
      let r, _ =
        Fsync_server.Loopback.run_in_memory
          ~cache:(Fsync_server.Sigcache.create ())
          ~server:(files pair.new_version) ~client:(files pair.old_version) ()
      in
      Printf.printf "daemon pull of %s (fsyncd/1): %.1f KB, %d round trips\n"
        pair.name
        (float_of_int (r.c2s_bytes + r.s2c_bytes) /. 1024.)
        r.roundtrips)
    [ pair; Datasets.emacs () ];
  let t =
    Table.create
      ~caption:
        "end-to-end time for the whole collection on a slow link (seconds; \
         rsync pays 1 batched round trip)"
      [
        ("link", Table.Left); ("rsync", Table.Right);
        ("ours sequential", Table.Right); ("ours batched", Table.Right);
      ]
  in
  List.iter
    (fun (name, latency_s, bandwidth_bps) ->
      let rsync_t =
        (2.0 *. latency_s) +. (float_of_int rsync_bytes /. (bandwidth_bps /. 8.0))
      in
      let seq =
        Fsync_collection.Pipeline.elapsed_s ~latency_s ~bandwidth_bps
          ~batched:false report
      in
      let bat =
        Fsync_collection.Pipeline.elapsed_s ~latency_s ~bandwidth_bps
          ~batched:true report
      in
      Table.add_row t
        [ name; Printf.sprintf "%.1f" rsync_t; Printf.sprintf "%.1f" seq;
          Printf.sprintf "%.1f" bat ])
    [
      ("DSL: 50 ms, 1 Mbit/s", 0.05, 1_000_000.0);
      ("modem: 150 ms, 56 kbit/s", 0.15, 56_000.0);
      ("LAN: 1 ms, 100 Mbit/s", 0.001, 100_000_000.0);
    ];
  print_table t

(* ---- dispersion: clustered vs dispersed changes (S2.3) ---- *)

let dispersion () =
  (* "If a single character is changed in each block, rsync will be
     completely ineffective; if all changes are clustered in a few areas,
     rsync will do well even with a large block size."  Same edit volume,
     varying clustering. *)
  let rng0 = Fsync_util.Prng.create 77L in
  let old_file = Fsync_workload.Text_gen.c_like rng0 ~lines:12_000 in
  let t =
    Table.create
      ~caption:
        (Printf.sprintf
           "clustered vs dispersed edits (%d-byte file, equal edit volume; \
            KB)"
           (String.length old_file))
      [
        ("clustering", Table.Left); ("rsync", Table.Right);
        ("ours (tuned)", Table.Right); ("zdelta", Table.Right);
        ("ours/rsync", Table.Right);
      ]
  in
  List.iter
    (fun clustering ->
      let rng = Fsync_util.Prng.create 78L in
      let profile =
        { Fsync_workload.Edit_model.medium with clustering }
      in
      let new_file =
        Fsync_workload.Edit_model.mutate rng ~profile
          ~gen_text:(fun rng n ->
            String.init n (fun _ ->
                Char.chr (97 + Fsync_util.Prng.int rng 26)))
          old_file
      in
      let rsync = Rsync.total (Rsync.cost_only ~old_file new_file) in
      let ours =
        Protocol.total_bytes
          (Protocol.run ~config:Config.tuned ~old_file new_file).report
      in
      let z = Delta.encoded_size ~reference:old_file new_file in
      Table.add_row t
        [
          Printf.sprintf "%.1f" clustering;
          kb rsync; kb ours; kb z;
          Printf.sprintf "%.2fx" (float_of_int rsync /. float_of_int ours);
        ])
    [ 0.95; 0.7; 0.4; 0.0 ];
  print_table t;
  (* The adversarial extreme: exactly one character changed every
     [stride] bytes, so no [stride]-sized block survives intact. *)
  let t2 =
    Table.create
      ~caption:"one changed character every N bytes (rsync's worst case; KB)"
      [
        ("stride", Table.Left); ("rsync", Table.Right);
        ("ours (tuned)", Table.Right); ("zdelta", Table.Right);
        ("ours/rsync", Table.Right);
      ]
  in
  List.iter
    (fun stride ->
      let bytes = Bytes.of_string old_file in
      let i = ref (stride / 2) in
      while !i < Bytes.length bytes do
        Bytes.set bytes !i '#';
        i := !i + stride
      done;
      let new_file = Bytes.to_string bytes in
      let rsync = Rsync.total (Rsync.cost_only ~old_file new_file) in
      let ours =
        Protocol.total_bytes
          (Protocol.run ~config:Config.tuned ~old_file new_file).report
      in
      let z = Delta.encoded_size ~reference:old_file new_file in
      Table.add_row t2
        [
          Printf.sprintf "%d B" stride;
          kb rsync; kb ours; kb z;
          Printf.sprintf "%.2fx" (float_of_int rsync /. float_of_int ours);
        ])
    [ 4096; 1024; 600; 256 ];
  print_table t2

(* ---- metadata: linear fingerprint exchange vs Merkle reconciliation ---- *)

let metadata () =
  (* The paper's collection driver spends O(total files) metadata bytes
     per sync even when almost nothing changed.  This scenario sweeps
     collection size x changed fraction and compares the linear exchange
     against the Merkle anti-entropy descent, including simulated time on
     the default slow link (50 ms one-way, 1 Mbit/s). *)
  let quick = quick_mode () in
  let sizes = if quick then [ 100; 1000 ] else [ 100; 1000; 10_000 ] in
  let fractions = if quick then [ 0.01; 0.1 ] else [ 0.001; 0.01; 0.1 ] in
  let latency_s = 0.05 and bandwidth_bps = 1_000_000.0 in
  let link_time ~rounds bytes =
    (2.0 *. latency_s *. float_of_int rounds)
    +. (float_of_int bytes /. (bandwidth_bps /. 8.0))
  in
  let plain_meta_bytes = ref 0 and framed_meta_bytes = ref 0 in
  let records = ref [] in
  let t =
    Table.create
      ~caption:
        "metadata reconciliation: bytes to agree on the changed/new/deleted \
         path sets (KB) and simulated metadata time on a 50 ms / 1 Mbit/s \
         link; the transfer phase is identical in both modes"
      [
        ("files", Table.Right); ("changed", Table.Right);
        ("linear KB", Table.Right); ("merkle KB", Table.Right);
        ("ratio", Table.Right); ("rounds", Table.Right);
        ("linear s", Table.Right); ("merkle s", Table.Right);
      ]
  in
  List.iter
    (fun n ->
      let rng = Fsync_util.Prng.create (Int64.of_int (7000 + n)) in
      let base =
        List.init n (fun i ->
            ( Printf.sprintf "site/d%02d/page%05d.html" (i mod 37) i,
              Printf.sprintf
                "<html><head><title>page %d</title></head><body>section %d \
                 content %d %d</body></html>"
                i (i mod 97)
                (Fsync_util.Prng.int rng 1_000_000)
                (Fsync_util.Prng.int rng 1_000_000) ))
      in
      let client = Snapshot.of_files base in
      List.iter
        (fun fraction ->
          let n_changed =
            int_of_float ((fraction *. float_of_int n) +. 0.5)
          in
          let server_files =
            List.mapi
              (fun i (p, c) ->
                (* Deterministically spread the changes over the
                   collection: every (n / n_changed)-th file is edited. *)
                if n_changed > 0 && i mod (max 1 (n / n_changed)) = 0
                   && i / max 1 (n / n_changed) < n_changed
                then (p, c ^ Printf.sprintf "<!-- edit %d -->" i)
                else (p, c))
              base
          in
          let server = Snapshot.of_files server_files in
          let run metadata =
            observed (fun scope ->
                let updated, summary =
                  Driver.sync ~metadata ~scope Driver.Full_raw ~client ~server
                in
                assert (entries_equal (Snapshot.files updated) (Snapshot.files server));
                summary)
          in
          let lin, lin_reg, lin_ns = run Driver.Linear in
          let mer, mer_reg, mer_ns = run Driver.Merkle in
          let lb = Driver.meta_total lin and mb = Driver.meta_total mer in
          let scenario =
            Printf.sprintf "metadata/files=%d/changed=%.3f" n fraction
          in
          let record (s : Driver.summary) reg wall_ns =
            bench_record ~scenario ~config:s.metadata_used
              ~bytes_up:s.meta_c2s ~bytes_down:s.meta_s2c
              ~rounds:s.meta_rounds
              ~elapsed_s:
                (slow_link_time ~rounds:s.meta_rounds (Driver.meta_total s))
              ~wall_ns reg
          in
          records :=
            record mer mer_reg mer_ns :: record lin lin_reg lin_ns
            :: !records;
          (* Framing-overhead audit: replay the same metadata dialogues
             over a channel with the reliability layer installed and
             accumulate both byte counts across the whole scenario. *)
          List.iter
            (fun metadata ->
              let measure framed =
                let ch = Fsync_net.Channel.create () in
                let frame =
                  if framed then Some (Fsync_net.Frame.attach ch) else None
                in
                let _ =
                  Driver.sync ~metadata ~meta_channel:ch Driver.Full_raw
                    ~client ~server
                in
                (match frame with
                | Some f -> Fsync_net.Frame.detach f
                | None -> ());
                Fsync_net.Channel.total_bytes ch
              in
              plain_meta_bytes := !plain_meta_bytes + measure false;
              framed_meta_bytes := !framed_meta_bytes + measure true)
            [ Driver.Linear; Driver.Merkle ];
          Table.add_row t
            [
              string_of_int n;
              Printf.sprintf "%.1f%%" (100.0 *. fraction);
              kb lb; kb mb;
              Printf.sprintf "%.1fx" (float_of_int lb /. float_of_int (max 1 mb));
              string_of_int mer.meta_rounds;
              Printf.sprintf "%.2f" (link_time ~rounds:lin.meta_rounds lb);
              Printf.sprintf "%.2f" (link_time ~rounds:mer.meta_rounds mb);
            ])
        fractions;
      Table.add_rule t)
    sizes;
  print_table t;
  let overhead =
    100.0
    *. float_of_int (!framed_meta_bytes - !plain_meta_bytes)
    /. float_of_int (max 1 !plain_meta_bytes)
  in
  Printf.printf
    "reliability framing overhead across the scenario: %d -> %d bytes \
     (+%.2f%%, target < 3%%)\n"
    !plain_meta_bytes !framed_meta_bytes overhead;
  print_endline
    "merkle wins when the changed fraction is small (the paper's nightly\n\
     recrawl regime); linear wins on heavily-changed collections where the\n\
     descent must open most subtrees anyway.  Rounds grow O(log n) and are\n\
     amortized across the collection exactly like the per-file protocol's.";
  write_bench_json "BENCH_metadata.json" (List.rev !records)

(* ---- collection: whole-driver costs, machine-readable ---- *)

let collection () =
  (* The web-collection scenario of Table 6.2, exported as
     BENCH_collection.json: one record per update interval x transfer
     method, carrying both directions' bytes, metadata rounds, the
     simulated slow-link time and the observability counters. *)
  let quick = quick_mode () in
  let days = if quick then [ 1 ] else [ 1; 2; 7 ] in
  let base = Datasets.web_base () in
  let snapshots = Datasets.web_snapshots ~days in
  Printf.printf "collection export [%s scale]: %d pages, %d update intervals\n"
    (Datasets.scale_name ()) (Array.length base) (List.length days);
  let to_snapshot pages =
    Snapshot.of_files
      (Array.to_list
         (Array.map
            (fun (p : Fsync_workload.Web_collection.page) -> (p.url, p.content))
            pages))
  in
  let client = to_snapshot base in
  let methods =
    if quick then [ Driver.Full_compressed; Driver.Fsync Config.tuned ]
    else
      [
        Driver.Full_compressed;
        Driver.Rsync_default;
        Driver.Fsync Config.tuned;
        Driver.Delta_lower_bound Delta.Zdelta;
      ]
  in
  let records =
    List.concat_map
      (fun (day, pages) ->
        let server = to_snapshot pages in
        List.map
          (fun m ->
            let (summary : Driver.summary), reg, wall_ns =
              observed (fun scope ->
                  let updated, summary =
                    Driver.sync ~metadata:Driver.Merkle ~scope m ~client
                      ~server
                  in
                  assert (entries_equal (Snapshot.files updated) (Snapshot.files server));
                  summary)
            in
            bench_record
              ~scenario:(Printf.sprintf "web/day=%d" day)
              ~config:(Driver.method_name m) ~bytes_up:summary.total_c2s
              ~bytes_down:summary.total_s2c ~rounds:summary.meta_rounds
              ~elapsed_s:
                (slow_link_time ~rounds:summary.meta_rounds
                   (Driver.total summary))
              ~wall_ns reg)
          methods)
      (List.combine days snapshots)
  in
  write_bench_json "BENCH_collection.json" records

(* ---- server: concurrent daemon throughput over the loopback driver ---- *)

let server () =
  (* Fleets of outdated clients pulling the same collection from one
     {!Fsync_server.Daemon} over socketpairs, exported as
     BENCH_server.json: one record per collection size x fleet size,
     with the aggregate bytes both ways, the max round-trip count of
     any client, the wall clock of the whole pump loop, and the shared
     signature cache's hit rate — the number the daemon exists for
     (every client after the first should find its level hashes hot). *)
  let module Daemon = Fsync_server.Daemon in
  let module Loopback = Fsync_server.Loopback in
  let module Sigcache = Fsync_server.Sigcache in
  let module Prng = Fsync_util.Prng in
  let quick = quick_mode () in
  let matrix =
    if quick then [ (12, 4) ]
    else [ (12, 2); (12, 8); (48, 2); (48, 8) ]
  in
  Printf.printf "server scenario [%s]: files x clients = %s\n"
    (if quick then "quick" else "full")
    (String.concat ", "
       (List.map (fun (f, c) -> Printf.sprintf "%dx%d" f c) matrix));
  let collection ~files seed =
    let rng = Prng.create (Int64.of_int seed) in
    List.init files (fun i ->
        ( Printf.sprintf "src/mod%02d.c" i,
          Fsync_workload.Text_gen.c_like rng ~lines:(80 + Prng.int rng 120) ))
  in
  let outdate ~seed files =
    (* Each client lags differently: some files intact, some locally
       edited (lines dropped and appended), one stale extra. *)
    let rng = Prng.create (Int64.of_int seed) in
    let lagged =
      List.filter_map
        (fun (path, content) ->
          if Prng.bernoulli rng 0.4 then Some (path, content)
          else if Prng.bernoulli rng 0.1 then None
          else
            let lines = String.split_on_char '\n' content in
            let kept =
              List.filteri (fun i _ -> not (Int.equal (i mod 17) (seed mod 17)))
                lines
            in
            Some
              ( path,
                String.concat "\n" kept
                ^ Fsync_workload.Text_gen.boilerplate rng ))
        files
    in
    ("old/stale.txt", Fsync_workload.Text_gen.boilerplate rng) :: lagged
  in
  let records =
    List.map
      (fun (files, clients) ->
        let server_files = collection ~files (files * 7) in
        let replicas =
          List.init clients (fun i -> outdate ~seed:((i * 131) + 17) server_files)
        in
        let (results, cache_rate), reg, wall_ns =
          observed (fun scope ->
              let daemon = Daemon.create ~scope server_files in
              let results = Loopback.run_pulls ~daemon replicas in
              let rate = Sigcache.hit_rate (Daemon.cache daemon) in
              Daemon.shutdown daemon;
              (results, rate))
        in
        List.iter
          (fun (r : Loopback.pull_result) ->
            assert (entries_equal r.files server_files))
          results;
        let sum f = List.fold_left (fun a r -> a + f r) 0 results in
        let bytes_up = sum (fun (r : Loopback.pull_result) -> r.c2s_bytes) in
        let bytes_down = sum (fun (r : Loopback.pull_result) -> r.s2c_bytes) in
        let rounds =
          List.fold_left
            (fun a (r : Loopback.pull_result) -> max a r.roundtrips)
            0 results
        in
        Printf.printf
          "  %2d files x %d clients: %6d up / %7d down, %2d rounds, \
           sig-cache %.0f%%\n"
          files clients bytes_up bytes_down rounds (100.0 *. cache_rate);
        bench_record
          ~scenario:(Printf.sprintf "server/files=%d" files)
          ~config:
            (Printf.sprintf "clients=%d,cache=%.3f" clients cache_rate)
          ~bytes_up ~bytes_down ~rounds
          ~elapsed_s:(slow_link_time ~rounds (bytes_up + bytes_down))
          ~wall_ns reg)
      matrix
  in
  write_bench_json "BENCH_server.json" records

(* ---- store: cross-client dedup and warm restart ---- *)

let store () =
  (* N clients push overlapping trees into one daemon, with and without
     a chunk store behind it, exported as BENCH_store.json: the
     store-less run is the PR-5 baseline, the store-backed run shows the
     trailing clients' upload collapsing to their unique content
     (dedup ratio in the config string).  A third record measures the
     warm restart: pull, kill the daemon, reopen the same store root,
     pull again — the signature cache must restart hot. *)
  let module Daemon = Fsync_server.Daemon in
  let module Loopback = Fsync_server.Loopback in
  let module Sigcache = Fsync_server.Sigcache in
  let module Store = Fsync_store.Store in
  let module Prng = Fsync_util.Prng in
  let quick = quick_mode () in
  let matrix = if quick then [ (8, 3) ] else [ (8, 3); (24, 6) ] in
  Printf.printf "store scenario [%s]: shared files x clients = %s\n"
    (if quick then "quick" else "full")
    (String.concat ", "
       (List.map (fun (f, c) -> Printf.sprintf "%dx%d" f c) matrix));
  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  let with_store_root f =
    let dir = Filename.temp_file "fsync_bench_store" "" in
    Sys.remove dir;
    Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)
  in
  let trees ~shared ~clients =
    let rng = Prng.create (Int64.of_int ((shared * 1009) + clients)) in
    let gen lines = Fsync_workload.Text_gen.c_like rng ~lines in
    let shared_files =
      List.init shared (fun i -> (Printf.sprintf "shared/s%02d.c" i, gen 120))
    in
    List.init clients (fun c ->
        shared_files
        @ List.init
            (max 1 (shared / 4))
            (fun j -> (Printf.sprintf "c%d/u%02d.c" c j, gen 100)))
  in
  (* Sequential pushes: each client sees what its predecessors stored.
     Returns the per-client accounted upload bytes, in client order,
     and the round trips the pushes took in all. *)
  let push_seq ~daemon ts =
    let rs =
      List.map
        (fun t ->
          match Loopback.run_pushes ~daemon [ t ] with
          | [ r ] -> (r.Loopback.up_bytes, r.Loopback.roundtrips)
          | _ -> (0, 0))
        ts
    in
    (List.map fst rs, List.fold_left (fun acc (_, n) -> acc + n) 0 rs)
  in
  let trailing = function [] -> 0 | _ :: rest -> List.fold_left ( + ) 0 rest in
  let records =
    List.concat_map
      (fun (shared, clients) ->
        let ts = trees ~shared ~clients in
        (* PR-5 baseline: no store, every push uploads everything. *)
        let (base_ups, base_rounds), base_reg, base_wall =
          observed (fun scope ->
              let daemon = Daemon.create ~scope [] in
              let ups = push_seq ~daemon ts in
              Daemon.shutdown daemon;
              ups)
        in
        let base_rec =
          bench_record
            ~scenario:(Printf.sprintf "store/push shared=%d" shared)
            ~config:(Printf.sprintf "clients=%d,mode=baseline" clients)
            ~bytes_up:(List.fold_left ( + ) 0 base_ups)
            ~bytes_down:0 ~rounds:base_rounds
            ~elapsed_s:
              (slow_link_time ~rounds:base_rounds
                 (List.fold_left ( + ) 0 base_ups))
            ~wall_ns:base_wall base_reg
        in
        let store_recs =
          with_store_root (fun root ->
              let ((ups, rounds), warm), reg, wall =
                observed (fun scope ->
                    let st = Store.open_store ~scope root in
                    let daemon = Daemon.create ~scope ~store:st [] in
                    let ups = push_seq ~daemon ts in
                    (* Warm restart: an outdated replica pulls, the
                       daemon dies, a fresh one over the same root
                       serves the same pull from persisted vectors. *)
                    let lag (path, content) =
                      let lines = String.split_on_char '\n' content in
                      ( path,
                        String.concat "\n"
                          (List.filteri (fun i _ -> i mod 9 <> 0) lines) )
                    in
                    let merged = Daemon.files daemon in
                    let replica = List.map lag merged in
                    ignore (Loopback.run_pulls ~daemon [ replica ]);
                    Daemon.shutdown daemon;
                    Store.close st;
                    let st2 = Store.open_store ~scope root in
                    let d2 = Daemon.create ~scope ~store:st2 merged in
                    (match Loopback.run_pulls ~daemon:d2 [ replica ] with
                    | [ r ] -> ignore r.Loopback.files
                    | _ -> ());
                    let warm =
                      ( Daemon.sigs_loaded d2,
                        Sigcache.warm_hit_rate (Daemon.cache d2) )
                    in
                    Daemon.shutdown d2;
                    Store.close st2;
                    (ups, warm))
              in
              let dedup =
                1.0
                -. (float_of_int (trailing ups)
                   /. float_of_int (max 1 (trailing base_ups)))
              in
              let sigs_loaded, warm_rate = warm in
              Printf.printf
                "  %2d shared x %d clients: trailing up %6d -> %6d \
                 (dedup %.0f%%), warm restart %d sigs, rate %.2f\n"
                shared clients (trailing base_ups) (trailing ups)
                (100.0 *. dedup) sigs_loaded warm_rate;
              [
                bench_record
                  ~scenario:(Printf.sprintf "store/push shared=%d" shared)
                  ~config:
                    (Printf.sprintf "clients=%d,mode=store,dedup=%.3f" clients
                       dedup)
                  ~bytes_up:(List.fold_left ( + ) 0 ups)
                  ~bytes_down:0 ~rounds
                  ~elapsed_s:
                    (slow_link_time ~rounds (List.fold_left ( + ) 0 ups))
                  ~wall_ns:wall reg;
                bench_record
                  ~scenario:(Printf.sprintf "store/warm shared=%d" shared)
                  ~config:
                    (Printf.sprintf "sigs=%d,warm=%.3f" sigs_loaded warm_rate)
                  ~bytes_up:0 ~bytes_down:0 ~rounds:1 ~elapsed_s:0.0
                  ~wall_ns:wall reg;
              ])
        in
        base_rec :: store_recs)
      matrix
  in
  write_bench_json "BENCH_store.json" records

(* ---- torture: crash points x disk-fault schedules x workloads ---- *)

let torture () =
  (* Crash-tolerance matrix (DESIGN.md §12): every cell runs one store
     or apply workload under a seeded {!Fsync_store.Fault_io} schedule
     with a hard crash at the K-th mutating syscall, then models the
     restart — reopen with a clean [Io], assert {!Store.fsck} reports
     zero error findings (or roll the apply journal forward), re-run the
     workload to completion and verify byte-identical convergence.  Any
     violation aborts the run; a completed run means every cell held.
     The resumed-pull measurement at the end asserts the fsyncd/1 resume
     token re-transfers at most 25% of a cold pull's payload.  Exported
     as BENCH_torture.json. *)
  let module Store = Fsync_store.Store in
  let module Fault_io = Fsync_store.Fault_io in
  let module Apply = Fsync_collection.Apply in
  let module Session = Fsync_server.Session in
  let module Puller = Fsync_server.Puller in
  let module Sigcache = Fsync_server.Sigcache in
  let module Scope = Fsync_obs.Scope in
  let module Prng = Fsync_util.Prng in
  let quick = quick_mode () in
  let crash_points =
    if quick then [ 1; 3; 8; 21 ] else [ 1; 2; 3; 5; 8; 13; 21; 34 ]
  in
  let schedules =
    [
      { Fault_io.none with Fault_io.p_enospc = 0.05 };
      { Fault_io.none with Fault_io.p_eio = 0.05 };
      { Fault_io.none with Fault_io.p_short = 0.1; Fault_io.p_eio = 0.02 };
    ]
  in
  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  let with_tmp_root f =
    let dir = Filename.temp_file "fsync_torture" "" in
    Sys.remove dir;
    Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)
  in
  let split content =
    let n = String.length content in
    if n = 0 then [ "" ]
    else begin
      let acc = ref [] in
      let i = ref 0 in
      while !i < n do
        let len = min 1024 (n - !i) in
        acc := String.sub content !i len :: !acc;
        i := !i + len
      done;
      List.rev !acc
    end
  in
  let tree seed n =
    List.init n (fun i ->
        ( Printf.sprintf "d%d/f%02d.txt" (i mod 3) i,
          Fsync_workload.Text_gen.c_like
            (Prng.create (Int64.of_int (seed + i)))
            ~lines:(10 + ((i mod 7) * 5)) ))
  in
  let files = tree 400 6 in
  let push_files st fs =
    List.iter
      (fun (path, content) ->
        let fps = List.map (Store.put st) (split content) in
        Store.set_manifest st ~path fps)
      fs
  in
  let reconstruct st path =
    match Store.manifest st ~path with
    | None -> None
    | Some chunks ->
        let buf = Buffer.create 256 in
        List.iter
          (fun (fp, _len) ->
            match Store.get st fp with
            | Some bytes -> Buffer.add_string buf bytes
            | None ->
                failwith (Printf.sprintf "torture: missing chunk of %s" path))
          chunks;
        Some (Buffer.contents buf)
  in
  let check_store st ~present ~absent =
    List.iter
      (fun (path, content) ->
        match reconstruct st path with
        | Some got when String.equal got content -> ()
        | Some _ -> failwith (Printf.sprintf "torture: %s diverged" path)
        | None -> failwith (Printf.sprintf "torture: %s missing" path))
      present;
    List.iter
      (fun (path, _) ->
        match Store.manifest st ~path with
        | None -> ()
        | Some _ ->
            failwith (Printf.sprintf "torture: %s survived removal" path))
      absent
  in
  let assert_fsck_clean what st =
    match Store.fsck_errors (Store.fsck st) with
    | [] -> ()
    | errs ->
        failwith
          (Printf.sprintf "torture %s: fsck found %d error(s) after restart"
             what (List.length errs))
  in
  (* Each workload: the faulty phase (crash/fault exceptions expected),
     then the restart — clean handle, fsck, re-run, convergence. *)
  let faulty f =
    match f () with
    | () -> ()
    | exception Fault_io.Crash_point _ -> ()
    | exception Fsync_core.Error.E _ -> ()
  in
  let run_push ~seed spec root =
    let io, stats = Fault_io.wrap ~seed spec in
    faulty (fun () ->
        let st = Store.open_store ~io root in
        push_files st files;
        Store.close st);
    let st = Store.open_store root in
    assert_fsck_clean "push" st;
    push_files st files;
    check_store st ~present:files ~absent:[];
    Store.close st;
    stats ()
  in
  let doomed = List.filteri (fun i _ -> i mod 2 = 0) files in
  let kept = List.filteri (fun i _ -> i mod 2 = 1) files in
  let run_gc ~seed spec root =
    let st0 = Store.open_store root in
    push_files st0 files;
    Store.close st0;
    let io, stats = Fault_io.wrap ~seed spec in
    let sweep st =
      List.iter (fun (path, _) -> Store.remove_manifest st ~path) doomed;
      ignore (Store.gc st : int * int)
    in
    faulty (fun () ->
        let st = Store.open_store ~io root in
        sweep st;
        Store.close st);
    let st = Store.open_store root in
    assert_fsck_clean "gc" st;
    sweep st;
    check_store st ~present:kept ~absent:doomed;
    Store.close st;
    stats ()
  in
  let rewritten =
    List.map (fun (p, c) -> (p, c ^ "\n/* rewritten */\n")) files
  in
  let run_compact ~seed spec root =
    let st0 = Store.open_store root in
    push_files st0 files;
    Store.close st0;
    let io, stats = Fault_io.wrap ~seed spec in
    let churn st =
      push_files st rewritten;
      Store.compact st;
      ignore (Store.gc st : int * int)
    in
    faulty (fun () ->
        let st = Store.open_store ~io root in
        churn st;
        Store.close st);
    let st = Store.open_store root in
    assert_fsck_clean "compact" st;
    churn st;
    check_store st ~present:rewritten ~absent:[];
    Store.close st;
    stats ()
  in
  let old_files = tree 500 6 in
  let new_files =
    (* Edit half, delete one, add one: every journal record kind. *)
    ("d0/added.txt", "fresh content\n")
    :: List.filteri (fun i _ -> i <> 1) (
         List.mapi
           (fun i (p, c) -> if i mod 2 = 0 then (p, c ^ "\n// edited\n") else (p, c))
           old_files)
  in
  let rec tree_of_dir acc dir rel =
    Array.fold_left
      (fun acc name ->
        if String.equal rel "" && String.equal name Apply.dirname then acc
        else
          let p = Filename.concat dir name in
          let r = if String.equal rel "" then name else rel ^ "/" ^ name in
          if Sys.is_directory p then tree_of_dir acc p r
          else
            let ic = open_in_bin p in
            let c =
              Fun.protect
                ~finally:(fun () -> close_in_noerr ic)
                (fun () -> really_input_string ic (in_channel_length ic))
            in
            (r, c) :: acc)
      acc (Sys.readdir dir)
  in
  let run_pull ~seed spec root =
    ignore (Apply.apply ~root ~old_files:[] old_files : Apply.stats);
    let io, stats = Fault_io.wrap ~seed spec in
    faulty (fun () ->
        ignore (Apply.apply ~io ~root ~old_files new_files : Apply.stats));
    ignore (Apply.resume root : Apply.resumed);
    let current = tree_of_dir [] root "" in
    ignore (Apply.apply ~root ~old_files:current new_files : Apply.stats);
    let final = List.sort entry_compare (tree_of_dir [] root "") in
    if not (entries_equal final (List.sort entry_compare new_files)) then
      failwith "torture pull: replica diverged after recovery";
    stats ()
  in
  let workloads =
    [
      ("push", run_push); ("pull", run_pull); ("gc", run_gc);
      ("compact", run_compact);
    ]
  in
  Printf.printf
    "torture [%s]: %d crash points x %d schedules x %d workloads\n"
    (if quick then "quick" else "full")
    (List.length crash_points) (List.length schedules)
    (List.length workloads);
  let records = ref [] in
  List.iteri
    (fun wi (wname, run) ->
      List.iteri
        (fun si spec ->
          let cells, reg, wall_ns =
            observed (fun scope ->
                List.fold_left
                  (fun cells k ->
                    let spec = { spec with Fault_io.crash_at = Some k } in
                    let seed = (wi * 1000) + (si * 100) + k in
                    let st =
                      with_tmp_root (fun root -> run ~seed spec root)
                    in
                    Scope.add scope "fault_ops" st.Fault_io.ops;
                    Scope.add scope "fault_enospc" st.Fault_io.enospc;
                    Scope.add scope "fault_eio" st.Fault_io.eio;
                    Scope.add scope "fault_short" st.Fault_io.short_writes;
                    if st.Fault_io.crashed then Scope.incr scope "crashes";
                    Scope.incr scope "cells_converged";
                    cells + 1)
                  0 crash_points)
          in
          let sched =
            Fault_io.to_string { spec with Fault_io.crash_at = None }
          in
          Printf.printf "  %-7s faults=%-24s %d cells converged, fsck clean\n"
            wname sched cells;
          records :=
            bench_record
              ~scenario:(Printf.sprintf "torture/%s" wname)
              ~config:(Printf.sprintf "faults=%s,cells=%d" sched cells)
              ~bytes_up:0 ~bytes_down:0 ~rounds:cells
              ~elapsed_s:(float_of_int wall_ns /. 1e9)
              ~wall_ns reg
            :: !records)
        schedules)
    workloads;
  (* Resume economy: kill a pull after 10 of 12 files, reconnect with
     the resume token, and compare re-transferred payload to a cold
     pull (the ISSUE 7 acceptance bar: at most 25%). *)
  let server_files =
    List.init 12 (fun i ->
        ( Printf.sprintf "f%02d.txt" i,
          Fsync_workload.Text_gen.c_like
            (Prng.create (Int64.of_int (900 + i)))
            ~lines:80 ))
  in
  let pump ?(abort_after = max_int) session puller =
    let s2c = ref 0 in
    let q = Queue.create () in
    List.iter (fun f -> Queue.add f q) (Puller.start puller);
    (try
       while not (Queue.is_empty q || Puller.finished puller) do
         let frame = Queue.pop q in
         List.iter
           (fun r ->
             s2c := !s2c + String.length r;
             let completed =
               match Puller.resume_token puller with
               | Some t -> List.length t.Puller.rt_completed
               | None -> 0
             in
             if completed >= abort_after then raise Exit;
             List.iter (fun f -> Queue.add f q) (Puller.on_message puller r))
           (Session.on_message session frame)
       done
     with Exit -> ());
    !s2c
  in
  let mk_session () = Session.create ~cache:(Sigcache.create ()) server_files in
  let ratio, reg, wall_ns =
    observed (fun scope ->
        let cold_puller = Puller.create [] in
        let cold = pump (mk_session ()) cold_puller in
        if not (Puller.finished cold_puller) then
          failwith "torture resume: cold pull did not finish";
        let p1 = Puller.create [] in
        let (_ : int) = pump ~abort_after:10 (mk_session ()) p1 in
        let token =
          match Puller.resume_token p1 with
          | Some t -> t
          | None -> failwith "torture resume: interrupted pull has no token"
        in
        let p2 = Puller.create ~resume:token [] in
        let resumed = pump (mk_session ()) p2 in
        if not (Puller.finished p2) then
          failwith "torture resume: resumed pull did not finish";
        Scope.add scope "cold_bytes" cold;
        Scope.add scope "resumed_bytes" resumed;
        let ratio = float_of_int resumed /. float_of_int (max 1 cold) in
        Printf.printf "  resume: cold %d B, resumed %d B (%.1f%% re-sent)\n"
          cold resumed (100.0 *. ratio);
        if ratio > 0.25 then
          failwith
            (Printf.sprintf
               "torture resume: re-transferred %.1f%% of the cold payload \
                (bar: 25%%)"
               (100.0 *. ratio));
        ratio)
  in
  records :=
    bench_record ~scenario:"torture/resume"
      ~config:(Printf.sprintf "killed_after=10of12,ratio=%.3f" ratio)
      ~bytes_up:0 ~bytes_down:0 ~rounds:1
      ~elapsed_s:(float_of_int wall_ns /. 1e9)
      ~wall_ns reg
    :: !records;
  write_bench_json "BENCH_torture.json" (List.rev !records)

(* ---- theory: group-testing planner and searching-with-liars ---- *)

let theory () =
  let module VP = Fsync_core.Verification_planner in
  let t =
    Table.create
      ~caption:
        "group-testing verification schedules: expected cost per candidate \
         (Monte-Carlo, n=64 candidates per round)"
      [
        ("schedule", Table.Left); ("p genuine", Table.Right);
        ("bits/cand", Table.Right); ("recall", Table.Right);
        ("false+", Table.Right); ("trips", Table.Right);
      ]
  in
  let name_of (v : Config.verification) =
    String.concat "+"
      (List.map
         (fun (b : Config.batch) -> Printf.sprintf "%dx%d" b.group_size b.bits)
         v.batches)
  in
  List.iter
    (fun p ->
      List.iter
        (fun v ->
          let o = VP.expected_cost ~p_genuine:p ~n:64 v in
          Table.add_row t
            [
              name_of v;
              Printf.sprintf "%.2f" p;
              Printf.sprintf "%.1f" o.bits_per_candidate;
              Printf.sprintf "%.3f" o.confirmed_genuine;
              Printf.sprintf "%.4f" o.false_confirms;
              Printf.sprintf "%.1f" o.roundtrips;
            ])
        VP.menu;
      Table.add_rule t)
    [ 0.5; 0.9; 0.99 ];
  print_table t;
  List.iter
    (fun p ->
      let v, o = VP.recommend ~p_genuine:p ~n:64 () in
      Printf.printf "recommended at p=%.2f: %s (%.1f bits/cand)\n" p (name_of v)
        o.bits_per_candidate)
    [ 0.5; 0.9; 0.99 ];
  print_newline ();
  let module LS = Fsync_core.Liar_search in
  let lt =
    Table.create
      ~caption:
        "searching with liars (continuation-hash extension, Ulam's problem): \
         locating the true extension length among 256 positions"
      [
        ("strategy", Table.Left); ("lie bits", Table.Right);
        ("avg bits", Table.Right); ("avg queries", Table.Right);
        ("errors", Table.Right);
      ]
  in
  List.iter
    (fun lie_bits ->
      List.iter
        (fun (s, (r : LS.result)) ->
          Table.add_row lt
            [
              LS.strategy_name s;
              string_of_int lie_bits;
              Printf.sprintf "%.1f" r.avg_query_bits;
              Printf.sprintf "%.1f" r.avg_queries;
              Printf.sprintf "%.3f" r.error_rate;
            ])
        (LS.compare_strategies ~lie_bits ~verify_bits:16 ~max_extent:256 ());
      Table.add_rule lt)
    [ 2; 4; 8 ];
  print_table lt

(* ---- bechamel micro-benchmarks ---- *)

let speed () =
  let open Bechamel in
  let mb = 1 lsl 20 in
  let rng = Fsync_util.Prng.create 42L in
  let text = Fsync_workload.Text_gen.c_like rng ~lines:(mb / 35) in
  let data = String.sub text 0 (min mb (String.length text)) in
  let small = String.sub data 0 (1 lsl 16) in
  let old_small =
    Fsync_workload.Edit_model.mutate rng
      ~profile:Fsync_workload.Edit_model.medium
      ~gen_text:(fun rng n ->
        String.init n (fun _ -> Char.chr (97 + Fsync_util.Prng.int rng 26)))
      small
  in
  let tests =
    Test.make_grouped ~name:"fsync"
      [
        Test.make ~name:"md5 1MB"
          (Staged.stage (fun () -> ignore (Fsync_hash.Md5.digest data)));
        Test.make ~name:"poly-roll 1MB"
          (Staged.stage (fun () ->
               let r =
                 Fsync_hash.Poly_hash.Roller.create data ~window:64 ~pos:0
               in
               while Fsync_hash.Poly_hash.Roller.can_roll r do
                 Fsync_hash.Poly_hash.Roller.roll r
               done));
        Test.make ~name:"adler-roll 1MB"
          (Staged.stage (fun () ->
               let a = ref (Fsync_hash.Adler32.of_sub data ~pos:0 ~len:64) in
               for p = 1 to String.length data - 64 do
                 a :=
                   Fsync_hash.Adler32.roll !a ~out:data.[p - 1]
                     ~in_:data.[p + 63]
               done));
        Test.make ~name:"deflate 64KB"
          (Staged.stage (fun () -> ignore (Fsync_compress.Deflate.compress small)));
        Test.make ~name:"zdelta 64KB"
          (Staged.stage (fun () ->
               ignore (Delta.encode ~reference:old_small small)));
        Test.make ~name:"rsync 64KB"
          (Staged.stage (fun () -> ignore (Rsync.sync ~old_file:old_small small)));
        Test.make ~name:"protocol 64KB (tuned)"
          (Staged.stage (fun () ->
               ignore (Protocol.run ~config:Config.tuned ~old_file:old_small small)));
      ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:(Some 100) () in
  let raw = Benchmark.all cfg instances tests in
  let results = List.map (fun i -> Analyze.all ols i raw) instances in
  let results = Analyze.merge ols instances results in
  print_endline "micro-benchmarks (per-run wall clock):";
  Hashtbl.iter
    (fun measure tbl ->
      if String.equal measure (Measure.label Toolkit.Instance.monotonic_clock) then
        Hashtbl.iter
          (fun name ols_result ->
            match Analyze.OLS.estimates ols_result with
            | Some [ est ] -> Printf.printf "  %-30s %10.3f ms\n" name (est /. 1e6)
            | _ -> Printf.printf "  %-30s (no estimate)\n" name)
          tbl)
    results;
  print_newline ()

(* ---- swarm: N-peer anti-entropy vs the all-pairs baseline ---- *)

(* Peers x change-rate matrix (DESIGN.md §13): K peers diverge from a
   common base by editing [rate * files] files each, then converge two
   ways — the swarm's seeded random gossip ({!Fsync_swarm.Swarm_loopback},
   O(log K) expected rounds, Merkle descent per session) and the
   pre-swarm baseline of every peer pairwise-pulling from every other
   peer (K*(K-1) plain pull sessions, full metadata each).  Both are the real
   measured protocols; BENCH_swarm.json (schema fsync-swarm/1) records
   bytes-on-wire, rounds and conflicts per cell, and each gossip record
   carries its bytes ratio against the baseline — the acceptance bar
   (<= 0.5 at 1% change) is enforced by tools/benchjson. *)

let swarm () =
  let module Prng = Fsync_util.Prng in
  let module Text_gen = Fsync_workload.Text_gen in
  let module Replica = Fsync_swarm.Replica in
  let module Swarm = Fsync_swarm.Swarm_loopback in
  let module Sloop = Fsync_server.Loopback in
  let module Sigcache = Fsync_server.Sigcache in
  let module Io = Fsync_store.Io in
  let quick = quick_mode () in
  let peer_counts = if quick then [ 4; 8 ] else [ 4; 8; 16 ] in
  let rates = if quick then [ 0.01; 0.10 ] else [ 0.01; 0.05; 0.20 ] in
  let base_files = if quick then 60 else 200 in
  Printf.printf "swarm scenario [%s]: %d base files, peers x rate = %s\n"
    (if quick then "quick" else "full")
    base_files
    (String.concat ", "
       (List.concat_map
          (fun k -> List.map (fun r -> Printf.sprintf "%dx%.2f" k r) rates)
          peer_counts));
  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  let with_swarm_root f =
    let dir = Filename.temp_file "fsync_bench_swarm" "" in
    Sys.remove dir;
    Unix.mkdir dir 0o755;
    Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)
  in
  (* The shared base every peer starts from, and the per-peer seeded
     edits ([max 1 (rate * files)] files each, appended lines at random
     positions).  Overlapping picks at high rates become genuine
     concurrent edits and must surface as conflict siblings. *)
  let base_tree ~peers =
    let rng = Prng.create (Int64.of_int ((peers * 7919) + base_files)) in
    List.init base_files (fun i ->
        (Printf.sprintf "src/f%03d.c" i, Text_gen.c_like rng ~lines:40))
  in
  let peer_edits ~peers ~rate base =
    let files = Array.of_list base in
    let changed = max 1 (int_of_float (rate *. float_of_int base_files)) in
    List.init peers (fun p ->
        let prng = Prng.create (Int64.of_int ((p * 104729) + peers)) in
        let picks = Hashtbl.create changed in
        while Hashtbl.length picks < changed do
          Hashtbl.replace picks (Prng.int prng base_files) ()
        done;
        let idxs =
          List.sort Int.compare
            (Hashtbl.fold (fun i () acc -> i :: acc) picks [])
        in
        List.map
          (fun i ->
            let path, content = files.(i) in
            (path, content ^ Text_gen.c_like prng ~lines:6))
          idxs)
  in
  let write_tree root tree =
    List.iter
      (fun (path, content) ->
        let dest = Filename.concat root path in
        Io.mkdir_p Io.real (Filename.dirname dest);
        let oc = open_out_bin dest in
        output_string oc content;
        close_out oc)
      tree
  in
  let counters reg =
    Json.Obj
      (List.map
         (fun (name, v) -> (name, Json.Int v))
         (Fsync_obs.Registry.counters reg))
  in
  let swarm_record ~peers ~rate ~mode ~rounds ~sessions ~bytes ~conflicts
      ?ratio reg =
    Json.Obj
      ([
         ("peers", Json.Int peers);
         ("change_rate", Json.Float rate);
         ("mode", Json.String mode);
         ("rounds", Json.Int rounds);
         ("sessions", Json.Int sessions);
         ("bytes", Json.Int bytes);
         ("conflicts", Json.Int conflicts);
       ]
      @ (match ratio with
        | Some r -> [ ("baseline_ratio", Json.Float r) ]
        | None -> [])
      @ [ ("counters", counters reg) ])
  in
  let records =
    List.concat_map
      (fun peers ->
        List.concat_map
          (fun rate ->
            let base = base_tree ~peers in
            let edits = peer_edits ~peers ~rate base in
            (* Each peer's divergent tree: the base with its own edits
               applied — the state both protocols start from. *)
            let trees =
              List.map
                (fun es ->
                  List.map
                    (fun (path, content) ->
                      match
                        List.find_opt (fun (p, _) -> String.equal p path) es
                      with
                      | Some (_, edited) -> (path, edited)
                      | None -> (path, content))
                    base)
                edits
            in
            (* Baseline: every ordered pair runs one plain pairwise
               pull over the divergent state — what keeping K replicas
               fresh costs without the swarm layer. *)
            let (base_bytes, base_sessions), base_reg, _ =
              observed (fun scope ->
                  List.fold_left
                    (fun acc (i, client) ->
                      List.fold_left
                        (fun (bytes, sessions) (j, server) ->
                          if Int.equal i j then (bytes, sessions)
                          else begin
                            let cache = Sigcache.create ~scope () in
                            let r, _ =
                              Sloop.run_in_memory ~scope ~cache ~server
                                ~client ()
                            in
                            ( bytes + r.Sloop.c2s_bytes + r.Sloop.s2c_bytes,
                              sessions + 1 )
                          end)
                        acc
                        (List.mapi (fun j t -> (j, t)) trees))
                    (0, 0)
                    (List.mapi (fun i t -> (i, t)) trees))
            in
            (* The swarm: replicas sharing causal history (one warm-up
               convergence over the identical base), then the seeded
               divergent edits, then measured gossip until byte-identical
               convergence. *)
            let (gossip_bytes, rounds, sessions, conflicts), reg, _ =
              observed (fun scope ->
                  with_swarm_root (fun dir ->
                      let replicas =
                        List.init peers (fun i ->
                            let root =
                              Filename.concat dir (Printf.sprintf "p%d" i)
                            in
                            Unix.mkdir root 0o755;
                            write_tree root base;
                            Replica.load ~root
                              ~peer:(Printf.sprintf "p%d" i) ())
                      in
                      (* Merge the per-peer load vectors so divergence
                         below is the only difference being measured. *)
                      ignore
                        (Swarm.run
                           (Swarm.create ~seed:(Int64.of_int peers) replicas));
                      List.iter2
                        (fun r es ->
                          List.iter
                            (fun (path, content) ->
                              Replica.set r ~path content)
                            es)
                        replicas edits;
                      let sw =
                        Swarm.create
                          ~seed:(Int64.of_int ((peers * 31) + 1))
                          ~scope replicas
                      in
                      (* Swarm.run itself raises a typed error if the
                         replicas fail to reach a common root. *)
                      let rounds = Swarm.run sw in
                      ( Swarm.bytes sw,
                        rounds,
                        Swarm.sessions sw,
                        Swarm.conflicts sw )))
            in
            let ratio =
              float_of_int gossip_bytes /. float_of_int (max 1 base_bytes)
            in
            Printf.printf
              "  %2d peers @ %4.0f%%: gossip %8d B in %d rounds \
               (%d sessions, %d conflicts) vs all-pairs %9d B (%d pulls) \
               -> ratio %.2f\n"
              peers (100.0 *. rate) gossip_bytes rounds sessions conflicts
              base_bytes base_sessions ratio;
            [
              swarm_record ~peers ~rate ~mode:"all-pairs"
                ~rounds:base_sessions ~sessions:base_sessions
                ~bytes:base_bytes ~conflicts:0 base_reg;
              swarm_record ~peers ~rate ~mode:"gossip" ~rounds ~sessions
                ~bytes:gossip_bytes ~conflicts ~ratio reg;
            ])
          rates)
      peer_counts
  in
  let doc =
    Json.Obj
      [
        ("schema", Json.String "fsync-swarm/1");
        ("generated_unix_s", Json.Float (Unix.gettimeofday ()));
        ("scale", Json.String (Datasets.scale_name ()));
        ("quick", Json.Bool quick);
        ("records", Json.List records);
      ]
  in
  let oc = open_out "BENCH_swarm.json" in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Json.to_string doc);
      output_char oc '\n');
  Printf.printf "wrote BENCH_swarm.json (%d records)\n" (List.length records)

(* ---- driver ---- *)

let usage () =
  print_endline
    "usage: main.exe \
     [fig61|fig62|fig63|fig64|table61|table62|metadata|collection|server|store|swarm|torture|ablate|dispersion|latency|broadcast|theory|speed|all]"

let () =
  let targets =
    match Array.to_list Sys.argv with [] | [ _ ] -> [ "all" ] | _ :: rest -> rest
  in
  let run_target = function
    | "fig61" -> fig_basic ~fig:"6.1" (Datasets.gcc ())
    | "fig62" -> fig_basic ~fig:"6.2" (Datasets.emacs ())
    | "fig63" -> fig63 ()
    | "fig64" -> fig64 ()
    | "table61" -> table61 ()
    | "table62" -> table62 ()
    | "metadata" -> metadata ()
    | "collection" -> collection ()
    | "server" -> server ()
    | "store" -> store ()
    | "swarm" -> swarm ()
    | "torture" -> torture ()
    | "ablate" -> ablate ()
    | "dispersion" -> dispersion ()
    | "latency" -> latency ()
    | "broadcast" -> broadcast ()
    | "theory" -> theory ()
    | "speed" -> speed ()
    | "all" ->
        fig_basic ~fig:"6.1" (Datasets.gcc ());
        fig_basic ~fig:"6.2" (Datasets.emacs ());
        fig63 ();
        fig64 ();
        table61 ();
        table62 ();
        metadata ();
        collection ();
        server ();
        store ();
        swarm ();
        torture ();
        ablate ();
        dispersion ();
        latency ();
        broadcast ();
        theory ();
        speed ()
    | other ->
        Printf.printf "unknown target %s\n" other;
        usage ();
        exit 1
  in
  List.iter run_target targets
