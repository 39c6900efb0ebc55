(* web-mirror: the §6.2 web collection on a store-backed daemon, with a
   publisher writing beside a lagging mirror.

   The collection is [Datasets.web_base] (800 pages at the default
   scale) and its nightly history a fixed [Web_collection.evolve]
   sequence.  The daemon starts serving day [max_lag].  Each day, two
   connections run at once: the publisher pushes the pages that changed
   overnight ([Pusher], chunk dedup, [Store] writes), and a mirror whose
   replica lags 1 to [max_lag] days pulls the live collection.  The
   workload seed deals the lags out, a fresh permutation per cycle of
   [max_lag] days, so every cycle sees each lag once. *)

module Web = Fsync_workload.Web_collection
module Datasets = Fsync_workload.Datasets
module Prng = Fsync_util.Prng
module Daemon = Fsync_server.Daemon
module Store = Fsync_store.Store
module Fp = Fsync_hash.Fingerprint

let max_lag = 7
let setups = 5

let path_of_url url =
  let scheme = "http://" in
  let n = String.length scheme in
  if String.length url > n && String.equal (String.sub url 0 n) scheme then
    String.sub url n (String.length url - n)
  else url

let as_files pages =
  Files.sorted
    (Array.to_list
       (Array.map (fun p -> (path_of_url p.Web.url, p.Web.content)) pages))

(* The history, kept for the last [max_lag + 2] days: snapshot [d] is
   the collection after [d] nights, each night evolved with its own
   derived preset seed. *)
type history = {
  preset : Web.preset;
  mutable snaps : (int * Web.page array) list;
}

let snapshot h d = List.assoc d h.snaps

let advance h d =
  let night = { h.preset with seed = Int64.add h.preset.seed (Int64.of_int d) } in
  let next = Web.evolve night (snapshot h (d - 1)) ~days:1 in
  h.snaps <- (d, next) :: List.filter (fun (k, _) -> k > d - max_lag - 2) h.snaps

let changed h d =
  let before = snapshot h (d - 1) in
  List.concat
    (List.mapi
       (fun i p ->
         if String.equal p.Web.content before.(i).Web.content then []
         else [ (path_of_url p.Web.url, p.Web.content) ])
       (Array.to_list (snapshot h d)))

(* One set-up: open a fresh store and start the daemon over the live
   collection, ingest included. *)
let set_up ~state ~traced files index =
  let dir = Filename.concat state (Printf.sprintf "web-store-%d" index) in
  (* Traced, the store's hit and dedup counters join the daemon's. *)
  let registry = if traced then Some (Fsync_obs.Registry.create ()) else None in
  let scope = Option.map Fsync_obs.Scope.of_registry registry in
  let c0 = Tally.work_now () in
  let store = Store.open_store ?scope ~io:Io_meter.io dir in
  let setup_open = Tally.work_now () -. c0 in
  let obs, setup_daemon = Drive.create_daemon ~store ?registry ~traced files in
  ((dir, store, obs), setup_open +. setup_daemon)

(* Every pushed page is served with the fingerprint it was pushed with. *)
let published daemon pushed =
  let served = Daemon.files daemon in
  List.for_all
    (fun (path, content) ->
      match List.assoc_opt path served with
      | Some c -> Fp.equal (Fp.of_string c) (Fp.of_string content)
      | None -> false)
    pushed

let cycle = max_lag
let cycle_s = 15.0

let run ~state ~seed ~traced ~epochs =
  let tally = Tally.create () in
  let h =
    { preset = Web.default_preset ~scale:(Datasets.scale ());
      snaps = [ (0, Datasets.web_base ()) ] }
  in
  for d = 1 to max_lag do advance h d done;
  let live = as_files (snapshot h max_lag) in
  let dir, store, obs =
    Tally.set_ups tally ~n:setups
      ~set_up:(fun i -> set_up ~state ~traced:(traced && Int.equal i setups) live i)
      ~tear_down:(fun (dir, store, _) ->
        Store.close store;
        Files.rm_rf dir)
  in
  let rng = Prng.create (Int64.of_int (0x3e6 + seed)) in
  let lags = Array.init max_lag (fun i -> i + 1) in
  Tally.start_loop ();
  while tally.Tally.epochs < epochs do
    let k = tally.Tally.epochs mod max_lag in
    Layers.start_epoch tally.Tally.epochs;
    if Int.equal k 0 then Prng.shuffle rng lags;
    let d = max_lag + 1 + tally.Tally.epochs in
    advance h d;
    let pushed = changed h d in
    let replica = as_files (snapshot h (d - 1 - lags.(k))) in
    let cs =
      Tally.timed tally (fun () ->
          let push = Drive.connect obs.daemon (Drive.push ~traced pushed) in
          let pull = Drive.connect obs.daemon (Drive.pull ~traced tally replica) in
          Drive.pump obs.daemon [ push; pull ])
    in
    (* The mirror must hold exactly what the daemon served when it
       connected; every pushed page must be published as pushed. *)
    (match cs with
    | [ push; pull ] -> (
        let push_s =
          Drive.settle tally push
            ~what:(Printf.sprintf "day %d push" d)
            ~ok:(fun _ -> published obs.daemon pushed)
        in
        let pull_s =
          Drive.settle tally pull
            ~what:(Printf.sprintf "day %d mirror pull" d)
            ~ok:(fun c -> Files.equal (Files.damage (c.m.replica ())) c.expected)
        in
        match (push_s, pull_s) with
        | Some a, Some b ->
            tally.Tally.content_bytes <-
              tally.Tally.content_bytes + Files.bytes pushed + Files.bytes pull.expected;
            tally.Tally.converge <- Float.max a b :: tally.Tally.converge
        | _ -> ())
    | _ -> assert false);
    tally.Tally.epochs <- tally.Tally.epochs + 1
  done;
  Drive.harvest tally obs;
  Daemon.shutdown obs.daemon;
  Store.close store;
  Files.rm_rf dir;
  tally
