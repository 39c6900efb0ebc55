(* src-pull: the §6.1 gcc and emacs release pairs through the daemon.

   The releases are a fixed family: [family] gcc and as many emacs
   pairs, from the presets' default dataset seeds (release #0, the pair
   every paper-table bench uses) and the next [family - 1] seeds.  Each
   release is served by a fresh, store-less [Daemon] with a cold
   signature cache; two clients holding the old release pull it
   concurrently.  The workload seed picks the order the releases are
   served in and how many loop iterations the second client starts
   after the first, which decides how much of the shared cache the
   first client has warmed for it.  One epoch is one release; a cycle
   is the whole family.  Every run serves whole cycles, so its byte and
   round-trip figures do not depend on the seed. *)

module Source_tree = Fsync_workload.Source_tree
module Datasets = Fsync_workload.Datasets
module Daemon = Fsync_server.Daemon
module Prng = Fsync_util.Prng

let family = 10
let max_stagger = 64

(* A store-less [Daemon.create] takes about a microsecond, so a set-up
   sample repeats it, in batches of [setup_batch] between clock
   readings, for at least [setup_window] seconds and reports the mean. *)
let setup_window = 0.002
let setup_batch = 64

type release = {
  label : string;
  dataset_seed : int64;
  old_files : (string * string) list;
  new_files : (string * string) list;
  content : int;
}

let as_pairs files =
  Files.sorted
    (List.map (fun f -> (f.Source_tree.path, f.Source_tree.content)) files)

(* Release [i] of the family: gcc #[i/2] for even [i], emacs for odd.
   It is generated when served, outside the timed loop, so the heap the
   loop runs against holds one release, not the whole family. *)
let release i =
  let scale = Datasets.scale () in
  let preset =
    if Int.equal (i mod 2) 0 then Source_tree.gcc_preset ~scale
    else Source_tree.emacs_preset ~scale
  in
  let dataset_seed = Int64.add preset.seed (Int64.of_int (i / 2)) in
  let pair = Source_tree.generate { preset with seed = dataset_seed } in
  {
    label = Printf.sprintf "%s#%d" preset.preset_name (i / 2);
    dataset_seed;
    old_files = as_pairs pair.old_version;
    new_files = as_pairs pair.new_version;
    content = Source_tree.total_bytes pair.new_version;
  }

let time_setup files =
  let c0 = Tally.work_now () in
  let reps = ref 0 in
  while
    for _ = 1 to setup_batch do ignore (Daemon.create files) done;
    reps := !reps + setup_batch;
    Tally.work_now () -. c0 < setup_window
  do () done;
  (Tally.work_now () -. c0) /. float_of_int !reps

let serve_release ~traced ~verbose tally ~stagger r =
  tally.Tally.setups <- time_setup r.new_files :: tally.Tally.setups;
  let obs, _ = Drive.create_daemon ~traced r.new_files in
  let pull () = Drive.connect obs.daemon (Drive.pull ~traced tally r.old_files) in
  let cs =
    Tally.timed tally (fun () ->
        let first = pull () in
        Drive.pump obs.daemon ~late:[ (stagger, pull) ] [ first ])
  in
  let ok (c : Drive.client) =
    Files.equal (Files.damage (c.m.replica ())) c.expected
  in
  let times = List.filter_map (Drive.settle tally ~ok ~what:r.label) cs in
  List.iter (fun _ -> tally.Tally.content_bytes <- tally.Tally.content_bytes + r.content) times;
  Daemon.shutdown obs.daemon;
  Drive.harvest tally obs;
  if not (List.is_empty times) then
    tally.Tally.converge <- List.fold_left Float.max 0.0 times :: tally.Tally.converge;
  if verbose then
    Printf.printf "  release %-8s dataset seed 0x%Lx: round trips %s\n" r.label
      r.dataset_seed
      (String.concat " "
         (List.map (fun (c : Drive.client) ->
              string_of_int (Fsync_net.Channel.roundtrips c.ch)) cs))

let cycle = 2 * family
let cycle_s = 12.0

let run ~seed ~traced ~epochs =
  let n = cycle in
  let rng = Prng.create (Int64.of_int (0x5c + seed)) in
  let tally = Tally.create () in
  Tally.start_loop ();
  let order = Array.init n Fun.id in
  while tally.Tally.epochs < epochs do
    let k = tally.Tally.epochs mod n in
    Layers.start_epoch tally.Tally.epochs;
    if Int.equal k 0 then Prng.shuffle rng order;
    let r = release order.(k) in
    serve_release ~traced ~verbose:(tally.Tally.epochs < n) tally
      ~stagger:(Prng.int rng max_stagger) r;
    tally.Tally.epochs <- tally.Tally.epochs + 1
  done;
  tally
