(* swarm-gossip: [peers] replicas anti-entropy gossiping after local
   edits.

   The peers share a fixed [base_files]-file base tree.  Set-up loads
   every [Replica] (through the metered [Io]) and runs the library's
   own [Swarm_loopback.run] to a common history.  Each epoch, every peer
   makes its next [edits_per_peer] edits (1% of the files, from a fixed
   sequence), then gossip rounds run until [Swarm_loopback.converged]:
   every round, each peer opens one session to a random partner, the
   schedule of [Swarm_loopback.round], drawn from the workload seed.
   Sessions are pumped here, one at a time over in-memory queues, so
   every frame can be classified; their bytes, round trips and
   simulated time are accounted on a [Channel] with the default link,
   with the 4-byte frame header a socket transport adds.  The pump is
   the benchmark's own code: in the traced run it is the [bench.round]
   layer, which the coverage figure leaves out. *)

module Channel = Fsync_net.Channel
module Prng = Fsync_util.Prng
module Text_gen = Fsync_workload.Text_gen
module Replica = Fsync_swarm.Replica
module Gossip = Fsync_swarm.Gossip
module Swarm = Fsync_swarm.Swarm_loopback

let peers = 8
let base_files = 200
let edits_per_peer = 2
let setups = 3
let max_rounds = 64

let set_up ~state ~base ~seed index =
  let dir = Filename.concat state (Printf.sprintf "swarm-%d" index) in
  let roots =
    List.init peers (fun p ->
        let root = Filename.concat dir (Printf.sprintf "p%d" p) in
        Files.mkdir_p root;
        Files.write_tree root base;
        root)
  in
  let c0 = Tally.work_now () in
  let replicas =
    List.mapi
      (fun p root ->
        Replica.load ~io:Io_meter.io ~root ~peer:(Printf.sprintf "p%d" p) ())
      roots
  in
  ignore (Swarm.run (Swarm.create ~seed:(Int64.of_int seed) replicas));
  ((dir, replicas), Tally.work_now () -. c0)

(* One gossip session, pumped like [Swarm_loopback.session]; returns
   its simulated time on the paper's link. *)
let session tally ~initiator ~responder =
  tally.Tally.attempted <- tally.Tally.attempted + 1;
  let acct = Channel.create () in
  let wire = Wire.create () in
  let c2s = Queue.create () and s2c = Queue.create () in
  let send dir q frame =
    Wire.note wire frame;
    Channel.note acct dir (Wire.frame_bytes frame);
    Queue.push frame q
  in
  let t0 = Layers.now () in
  match
    let ini = Layers.span "gossip" (fun () -> Gossip.Initiator.create initiator) in
    let resp = Layers.span "gossip" (fun () -> Gossip.Responder.create responder) in
    List.iter (send Channel.Client_to_server c2s)
      (Layers.span "gossip" (fun () -> Gossip.Initiator.start ini));
    let progress = ref true in
    while !progress do
      match Queue.take_opt c2s with
      | Some m ->
          List.iter (send Channel.Server_to_client s2c)
            (Layers.span "gossip" (fun () -> Gossip.Responder.on_message resp m))
      | None -> (
          match Queue.take_opt s2c with
          | Some m ->
              List.iter (send Channel.Client_to_server c2s)
                (Layers.span "gossip" (fun () -> Gossip.Initiator.on_message ini m))
          | None -> progress := false)
    done;
    if not (Gossip.Initiator.finished ini) then failwith "gossip session stalled";
    (Gossip.Initiator.stats ini, Gossip.Responder.stats resp)
  with
  | exception e ->
      Tally.fail tally (Drive.message_of_exn e);
      None
  (* Both machines count the payload bytes they encode and decode: each
     side must have received what the other sent, and those counts, not
     the pump's, are what the per-kind totals must match. *)
  | ist, rst
    when not
           (Int.equal ist.Gossip.bytes_in rst.Gossip.bytes_out
           && Int.equal rst.Gossip.bytes_in ist.Gossip.bytes_out) ->
      Tally.fail tally "gossip session: bytes received differ from bytes sent";
      None
  | ist, rst ->
      let accounted =
        ist.Gossip.bytes_out + rst.Gossip.bytes_out
        + (wire.Wire.frames * Fsync_net.Fd_transport.header_bytes)
      in
      Wire.check wire ~accounted;
      Wire.add_into ~into:tally.Tally.wire wire;
      let sync_s = Channel.elapsed_s acct +. (Layers.now () -. t0) in
      Tally.session tally ~sync_s ~wire_bytes:accounted ~rts:(Channel.roundtrips acct);
      Tally.add tally "swarm.conflicts" (float_of_int ist.Gossip.conflicts);
      Tally.add tally "gossip_installs"
        (float_of_int (ist.Gossip.installs + rst.Gossip.installs));
      if ist.Gossip.short_circuit then Tally.add tally "gossip_short_circuits" 1.0;
      Some sync_s

(* One round: every peer initiates once against a random partner.
   Returns the slowest session's simulated time. *)
let round tally rng replicas =
  let k = Array.length replicas in
  let order = Array.init k Fun.id in
  Prng.shuffle rng order;
  tally.Tally.rounds <- tally.Tally.rounds + 1;
  Layers.span "bench.round" (fun () ->
      Array.fold_left
        (fun slowest i ->
          let j = (i + 1 + Prng.int rng (k - 1)) mod k in
          match session tally ~initiator:replicas.(i) ~responder:replicas.(j) with
          | Some s -> Float.max slowest s
          | None -> slowest)
        0.0 order)

let cycle = 36
let cycle_s = 10.0

let run ~state ~seed ~traced:_ ~epochs =
  let tally = Tally.create () in
  let gen = Prng.create 0x5a7L in
  let base =
    List.init base_files (fun i ->
        (Printf.sprintf "src/f%03d.c" i, Text_gen.c_like gen ~lines:40))
  in
  let dir, replicas =
    Tally.set_ups tally ~n:setups ~set_up:(set_up ~state ~base ~seed)
      ~tear_down:(fun (dir, _) -> Files.rm_rf dir)
  in
  let sw = Swarm.create replicas in
  let replicas = Array.of_list replicas in
  let paths = Array.of_list (List.map fst base) in
  let sched = Prng.create (Int64.of_int (0x90551 + seed)) in
  Tally.start_loop ();
  while tally.Tally.epochs < epochs do
    Layers.start_epoch tally.Tally.epochs;
    (* The epoch's edits are generated outside the timed loop. *)
    let edits =
      Array.map
        (fun r ->
          let picks = Hashtbl.create edits_per_peer in
          while Hashtbl.length picks < edits_per_peer do
            Hashtbl.replace picks paths.(Prng.int gen base_files) ()
          done;
          List.map
            (fun path ->
              let old = Option.value (Replica.content r path) ~default:"" in
              (path, old ^ Text_gen.c_like gen ~lines:6))
            (List.sort String.compare (Hashtbl.fold (fun p () acc -> p :: acc) picks [])))
        replicas
    in
    let converge =
      Tally.timed tally (fun () ->
          Array.iteri
            (fun p es ->
              List.iter
                (fun (path, content) ->
                  Layers.span "replica.set" (fun () ->
                      Replica.set replicas.(p) ~path content))
                es)
            edits;
          let total = ref 0.0 and n = ref 0 in
          while (not (Swarm.converged sw)) && !n < max_rounds do
            incr n;
            total := !total +. round tally sched replicas
          done;
          !total)
    in
    (* Byte-identical trees and equal version tables on every peer. *)
    if Files.take_corruption () then
      Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644
        (Filename.concat (Replica.root replicas.(1)) paths.(0))
        (fun oc -> output_string oc "\000");
    let read r = Files.read_tree (Replica.root r) in
    let tree0 = read replicas.(0) in
    let entries0 = Replica.entries replicas.(0) in
    let same r =
      Files.equal (read r) tree0
      && List.equal
           (fun (p1, e1) (p2, e2) -> String.equal p1 p2 && Replica.entry_equal e1 e2)
           (Replica.entries r) entries0
    in
    if Swarm.converged sw && Array.for_all same replicas then begin
      tally.Tally.converge <- converge :: tally.Tally.converge;
      tally.Tally.content_bytes <-
        tally.Tally.content_bytes
        + (peers * Files.bytes tree0)
    end
    else
      Tally.fail tally
        (Printf.sprintf "epoch %d: replicas not byte-identical after gossip"
           tally.Tally.epochs);
    tally.Tally.epochs <- tally.Tally.epochs + 1
  done;
  Files.rm_rf dir;
  tally
