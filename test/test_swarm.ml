(* Tests for Fsync_swarm: version-vector algebra (qcheck laws), entry
   and recon codecs, the swarm Hello, deterministic K-peer gossip
   convergence with typed conflict surfacing, read-repair, replay and
   peer-death robustness, and crash-tolerant persistence under injected
   disk faults. *)

module Vv = Fsync_swarm.Version_vector
module Replica = Fsync_swarm.Replica
module Resolve = Fsync_swarm.Resolve
module Plan = Fsync_swarm.Plan
module Swarm_wire = Fsync_swarm.Swarm_wire
module Gossip = Fsync_swarm.Gossip
module Repair = Fsync_swarm.Repair
module Loopback = Fsync_swarm.Swarm_loopback
module Peer = Fsync_swarm.Peer
module Msg = Fsync_server.Msg
module Fp = Fsync_hash.Fingerprint
module Error = Fsync_core.Error
module Io = Fsync_store.Io
module Fault_io = Fsync_store.Fault_io
module Scope = Fsync_obs.Scope
module Prng = Fsync_util.Prng

let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ---- filesystem scaffolding ---- *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_root f =
  let dir = Filename.temp_file "fsync_swarm" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let subdir root name =
  let d = Filename.concat root name in
  Unix.mkdir d 0o755;
  d

let write_raw root path content =
  let dest = Filename.concat root path in
  Io.mkdir_p Io.real (Filename.dirname dest);
  let oc = open_out_bin dest in
  output_string oc content;
  close_out oc

(* ---- version-vector laws ---- *)

let vv_gen =
  QCheck2.Gen.(
    map Vv.of_list
      (list_size (int_bound 5)
         (pair (oneofl [ "a"; "b"; "c"; "d"; "e" ]) (int_range 1 4))))

let vv_pair = QCheck2.Gen.pair vv_gen vv_gen
let vv_triple = QCheck2.Gen.triple vv_gen vv_gen vv_gen

let vv_laws =
  [
    qtest "merge commutative" vv_pair (fun (a, b) ->
        Vv.equal (Vv.merge a b) (Vv.merge b a));
    qtest "merge associative" vv_triple (fun (a, b, c) ->
        Vv.equal (Vv.merge a (Vv.merge b c)) (Vv.merge (Vv.merge a b) c));
    qtest "merge idempotent" vv_gen (fun a -> Vv.equal (Vv.merge a a) a);
    qtest "merge is an upper bound" vv_pair (fun (a, b) ->
        let m = Vv.merge a b in
        (Vv.equal m a || Vv.dominates m a)
        && (Vv.equal m b || Vv.dominates m b));
    qtest "dominates irreflexive" vv_gen (fun a -> not (Vv.dominates a a));
    qtest "dominates asymmetric" vv_pair (fun (a, b) ->
        not (Vv.dominates a b && Vv.dominates b a));
    qtest "dominates transitive" vv_triple (fun (a, b, c) ->
        (not (Vv.dominates a b && Vv.dominates b c)) || Vv.dominates a c);
    qtest "bump dominates" vv_gen (fun a -> Vv.dominates (Vv.bump a "z") a);
    qtest "concurrent iff neither dominates" vv_pair (fun (a, b) ->
        Bool.equal (Vv.concurrent a b)
          ((not (Vv.equal a b))
          && (not (Vv.dominates a b))
          && not (Vv.dominates b a)));
    qtest "codec roundtrip" vv_gen (fun a ->
        let b = Buffer.create 32 in
        Vv.put_vv b a;
        let got, pos = Vv.get_vv (Buffer.contents b) ~pos:0 in
        Vv.equal got a && Int.equal pos (Buffer.length b));
  ]

(* ---- entry and recon codecs ---- *)

let entry_gen =
  QCheck2.Gen.(
    map
      (fun (vv, author, present, content) ->
        if present then
          {
            Replica.vv;
            author;
            present = true;
            fp = Fp.of_string content;
            len = String.length content;
          }
        else
          { Replica.vv; author; present = false; fp = Fp.of_string ""; len = 0 })
      (quad vv_gen
         (oneofl [ "a"; "b"; "long-peer-name" ])
         bool
         (string_size ~gen:printable (int_bound 40))))

let codec_tests =
  [
    qtest "entry codec roundtrip" entry_gen (fun e ->
        let b = Buffer.create 64 in
        Replica.put_entry b e;
        let got, pos = Replica.get_entry (Buffer.contents b) ~pos:0 in
        Replica.entry_equal got e && Int.equal pos (Buffer.length b));
    qtest "table codec roundtrip"
      QCheck2.Gen.(
        list_size (int_bound 6)
          (pair (string_size ~gen:printable (int_range 1 12)) (option entry_gen)))
      (fun table ->
        let got = Swarm_wire.decode_table (Swarm_wire.encode_table table) in
        List.for_all2
          (fun (p, e) (p', e') ->
            String.equal p p'
            &&
            match (e, e') with
            | None, None -> true
            | Some a, Some b -> Replica.entry_equal a b
            | _ -> false)
          table got);
  ]

let test_recon_codec () =
  let q (lo, size) d = { Swarm_wire.range = { lo; size }; digest = d } in
  let d c = String.make 16 c in
  let cases =
    [
      Swarm_wire.Greet { peer = "peer-1"; root = d 'r' };
      Swarm_wire.Queries [ q (0, 1024) (d 'a'); q (64, 64) (d 'b') ];
      Swarm_wire.Answers
        [
          Swarm_wire.Equal { lo = 0; size = 16 };
          Swarm_wire.Leaves
            ( { lo = 16; size = 16 },
              [ ("x.txt", Fp.of_string "x"); ("y/z.txt", Fp.of_string "z") ] );
          Swarm_wire.Descend
            ({ lo = 32; size = 32 }, [ q (32, 16) (d 'c'); q (48, 16) (d 'd') ]);
        ];
    ]
  in
  List.iter
    (fun r ->
      let got = Swarm_wire.decode_recon (Swarm_wire.encode_recon r) in
      Alcotest.(check bool) "recon roundtrip" true (got = r))
    cases

let test_recon_malformed () =
  let check_err what s =
    match Swarm_wire.decode_recon s with
    | _ -> Alcotest.failf "%s must raise" what
    | exception Error.E _ -> ()
  in
  check_err "empty" "";
  check_err "bad kind" "Z";
  check_err "truncated greet" "H\005pe";
  (* query count claiming more entries than the body holds *)
  check_err "overrun count" "Q\255\255\003";
  match Swarm_wire.decode_fetch "\003abc" with
  | _ -> Alcotest.fail "truncated fetch must raise"
  | exception Error.E _ -> ()

let test_swarm_hello_codec () =
  let config = Msg.default_sync_config in
  let summary = Fp.of_string "root" in
  let cases =
    [
      Msg.Hello
        {
          version = Msg.version;
          trace = None;
          swarm = Some { Msg.peer = "alpha"; summary };
        };
      Msg.Hello
        {
          version = Msg.version;
          trace = Some (String.make Msg.trace_bytes '\007');
          swarm = Some { Msg.peer = "beta"; summary };
        };
      Msg.Swarm_table "table-bytes";
      Msg.Swarm_recon "recon-bytes";
      Msg.Swarm_query "a/path";
      Msg.Swarm_fetch "fetch-bytes";
      Msg.Swarm_end;
    ]
  in
  List.iter
    (fun m ->
      let got = Msg.decode ~config (Msg.encode ~config m) in
      Alcotest.(check bool) "swarm msg roundtrip" true (got = m))
    cases

(* ---- plan ---- *)

let mk_entry ?(present = true) ~vv ~author content =
  if present then
    {
      Replica.vv;
      author;
      present = true;
      fp = Fp.of_string content;
      len = String.length content;
    }
  else { Replica.vv; author; present = false; fp = Fp.of_string ""; len = 0 }

let test_plan_rules () =
  let v peers = Vv.of_list peers in
  (* theirs dominates: adopt from the wire *)
  let ours = mk_entry ~vv:(v [ ("a", 1) ]) ~author:"a" "old" in
  let theirs = mk_entry ~vv:(v [ ("a", 1); ("b", 1) ]) ~author:"b" "new" in
  let o = Plan.decide ~path:"f" ~ours:(Some ours) ~theirs:(Some theirs) () in
  Alcotest.(check bool) "adopt no conflict" false o.Plan.conflict;
  (match o.Plan.installs with
  | [ { Plan.dest = "f"; source = Plan.Remote "f"; entry } ] ->
      Alcotest.(check bool) "adopted entry" true
        (Replica.entry_equal entry theirs)
  | _ -> Alcotest.fail "expected one remote install");
  (* ours dominates: nothing to do *)
  let o = Plan.decide ~path:"f" ~ours:(Some theirs) ~theirs:(Some ours) () in
  Alcotest.(check int) "behind peer ignored" 0 (List.length o.Plan.installs);
  (* concurrent, same content: silent vector merge *)
  let e1 = mk_entry ~vv:(v [ ("a", 1) ]) ~author:"a" "same" in
  let e2 = mk_entry ~vv:(v [ ("b", 1) ]) ~author:"b" "same" in
  let o = Plan.decide ~path:"f" ~ours:(Some e1) ~theirs:(Some e2) () in
  Alcotest.(check bool) "same-fp merge no conflict" false o.Plan.conflict;
  (match o.Plan.installs with
  | [ { Plan.entry; _ } ] ->
      Alcotest.(check bool) "vv merged" true
        (Vv.equal entry.Replica.vv (Vv.merge e1.Replica.vv e2.Replica.vv))
  | _ -> Alcotest.fail "expected one merge install");
  (* concurrent, different content: conflict sibling pair *)
  let e1 = mk_entry ~vv:(v [ ("a", 1) ]) ~author:"a" "mine" in
  let e2 = mk_entry ~vv:(v [ ("b", 1) ]) ~author:"b" "theirs" in
  let o = Plan.decide ~path:"f" ~ours:(Some e1) ~theirs:(Some e2) () in
  Alcotest.(check bool) "conflict surfaced" true o.Plan.conflict;
  Alcotest.(check int) "winner + sibling" 2 (List.length o.Plan.installs);
  let sibling =
    List.find (fun i -> Plan.is_conflict_path i.Plan.dest) o.Plan.installs
  in
  let winner =
    List.find (fun i -> not (Plan.is_conflict_path i.Plan.dest)) o.Plan.installs
  in
  Alcotest.(check bool) "both carry the merged vector" true
    (Vv.equal winner.Plan.entry.Replica.vv sibling.Plan.entry.Replica.vv);
  (* the mirror decision on the other side lands the same outcome *)
  let o' = Plan.decide ~path:"f" ~ours:(Some e2) ~theirs:(Some e1) () in
  let digests oc =
    List.sort compare
      (List.map
         (fun i -> (i.Plan.dest, Fp.to_hex (Replica.entry_digest i.Plan.entry)))
         oc.Plan.installs)
  in
  Alcotest.(check bool) "mirror-image plans" true (digests o = digests o');
  (* concurrent edit-vs-delete: the edit wins, no sibling *)
  let tomb = mk_entry ~present:false ~vv:(v [ ("b", 1) ]) ~author:"b" "" in
  let o = Plan.decide ~path:"f" ~ours:(Some e1) ~theirs:(Some tomb) () in
  Alcotest.(check bool) "edit-vs-delete no conflict" false o.Plan.conflict;
  match o.Plan.installs with
  | [ { Plan.entry; _ } ] ->
      Alcotest.(check bool) "edit survives" true entry.Replica.present
  | _ -> Alcotest.fail "expected the surviving edit"

(* ---- gossip convergence ---- *)

let load ?io root peer = Replica.load ?io ~root ~peer ()

let check_all_equal what replicas =
  let first = Replica.summary (List.hd replicas) in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s converged" what (Replica.peer r))
        true
        (Fp.equal (Replica.summary r) first))
    replicas;
  (* byte-identical, not just digest-identical *)
  let files = Replica.files (List.hd replicas) in
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s byte-identical" what (Replica.peer r))
        true
        (files = Replica.files r))
    replicas

let test_two_peer_convergence () =
  with_root (fun dir ->
      let ra = subdir dir "a" and rb = subdir dir "b" in
      write_raw ra "shared.txt" "common";
      write_raw rb "shared.txt" "common";
      write_raw ra "a/deep/only-a.txt" (String.make 9000 'a');
      write_raw rb "only-b.txt" "beta";
      let a = load ra "A" and b = load rb "B" in
      let r = Loopback.session ~initiator:a ~responder:b () in
      check_all_equal "pair" [ a; b ];
      Alcotest.(check int) "no conflicts" 0 r.Loopback.initiator.Gossip.conflicts;
      Alcotest.(check bool) "not short-circuited" false
        r.Loopback.initiator.Gossip.short_circuit;
      (* a converged pair short-circuits in four tiny frames *)
      let r2 = Loopback.session ~initiator:a ~responder:b () in
      Alcotest.(check bool) "short-circuit" true
        r2.Loopback.initiator.Gossip.short_circuit;
      Alcotest.(check bool) "short-circuit is cheap" true
        (r2.Loopback.c2s_bytes + r2.Loopback.s2c_bytes < 200);
      (* and survives a reload from disk *)
      let a' = load ra "A" and b' = load rb "B" in
      check_all_equal "reloaded" [ a'; b' ])

let test_single_peer_noop () =
  with_root (fun dir ->
      let ra = subdir dir "solo" in
      write_raw ra "f.txt" "alone";
      let sw = Loopback.create ~seed:7L [ load ra "solo" ] in
      Alcotest.(check bool) "trivially converged" true (Loopback.converged sw);
      Alcotest.(check int) "zero rounds" 0 (Loopback.run sw);
      Alcotest.(check int) "zero sessions" 0 (Loopback.sessions sw))

(* The acceptance bar: 8 peers with seeded divergent edits converge
   byte-identically within 5 gossip rounds, and every concurrent-edit
   pair surfaces as a typed conflict sibling rather than a silent
   last-writer-wins. *)
let test_eight_peer_convergence () =
  with_root (fun dir ->
      let rng = Prng.create 0x5eedL in
      let peers = List.init 8 (fun i -> Printf.sprintf "p%d" i) in
      let replicas =
        List.map
          (fun p ->
            let root = subdir dir p in
            write_raw root "base.txt" "every peer starts from this";
            load root p)
          peers
      in
      (* divergent seeded edits: each peer adds its own files... *)
      List.iteri
        (fun i r ->
          Replica.set r ~path:(Printf.sprintf "from-%d.txt" i)
            (String.init (200 + Prng.int rng 800) (fun j ->
                 Char.chr (97 + ((i + j) mod 26))));
          Replica.set r ~path:"popular.txt"
            (if i < 4 then "faction one" else "faction two"))
        replicas;
      let scope = Scope.of_registry (Fsync_obs.Registry.create ()) in
      let sw = Loopback.create ~seed:0xabcdeL ~scope replicas in
      let rounds = Loopback.run ~max_rounds:5 sw in
      Alcotest.(check bool) "within five rounds" true (rounds <= 5);
      check_all_equal "swarm" replicas;
      (* the concurrent popular.txt pair surfaced as a conflict... *)
      Alcotest.(check bool) "conflicts surfaced" true (Loopback.conflicts sw > 0);
      let files = Replica.files (List.hd replicas) in
      Alcotest.(check bool) "conflict sibling exists" true
        (List.exists (fun (p, _) -> Plan.is_conflict_path p) files);
      (* ...and both factions' bytes survived somewhere *)
      let contents = List.map snd files in
      Alcotest.(check bool) "faction one bytes survive" true
        (List.mem "faction one" contents);
      Alcotest.(check bool) "faction two bytes survive" true
        (List.mem "faction two" contents);
      (* converged: one more round is all short-circuits, no new state *)
      let before = Replica.summary (List.hd replicas) in
      Loopback.round sw;
      Alcotest.(check bool) "stable after convergence" true
        (Fp.equal before (Replica.summary (List.hd replicas))))

let test_conflict_files_do_not_reconflict () =
  with_root (fun dir ->
      let ra = subdir dir "a" and rb = subdir dir "b" in
      write_raw ra "f.txt" "ancestor";
      write_raw rb "f.txt" "ancestor";
      let a = load ra "A" and b = load rb "B" in
      ignore (Loopback.session ~initiator:a ~responder:b ());
      Replica.set a ~path:"f.txt" "edit by A";
      Replica.set b ~path:"f.txt" "edit by B";
      let r = Loopback.session ~initiator:a ~responder:b () in
      Alcotest.(check bool) "conflict detected" true
        (r.Loopback.initiator.Gossip.conflicts > 0);
      check_all_equal "post-conflict" [ a; b ];
      let conflict_files =
        List.filter
          (fun (p, _) -> Plan.is_conflict_path p)
          (Replica.files a)
      in
      Alcotest.(check int) "exactly one sibling" 1 (List.length conflict_files);
      (* further gossip must not conflict again or mutate anything *)
      let r2 = Loopback.session ~initiator:a ~responder:b () in
      Alcotest.(check int) "no re-conflict" 0
        r2.Loopback.initiator.Gossip.conflicts;
      Alcotest.(check bool) "short-circuits" true
        r2.Loopback.initiator.Gossip.short_circuit)

(* Three peers concurrently rewrite the same path with three distinct
   contents.  As the conflicts propagate, a later round's fresh sibling
   can collide with a sibling that an earlier round already installed on
   one side — the plans must still be mirror images and the swarm must
   still converge (regression: compute_plan dedupes same-dest installs,
   keeping the conflict sibling on both sides). *)
let test_three_way_conflict_converges () =
  with_root (fun dir ->
      let peers = [ "A"; "B"; "C" ] in
      let replicas =
        List.map
          (fun p ->
            let root = subdir dir p in
            write_raw root "f.txt" "ancestor";
            load root p)
          peers
      in
      ignore (Loopback.run (Loopback.create ~seed:1L replicas));
      List.iter2
        (fun r p -> Replica.set r ~path:"f.txt" ("edit by " ^ p))
        replicas peers;
      let sw = Loopback.create ~seed:2L replicas in
      ignore (Loopback.run sw);
      check_all_equal "three-way" replicas;
      Alcotest.(check bool) "conflicts surfaced" true (Loopback.conflicts sw > 0);
      let files = Replica.files (List.hd replicas) in
      Alcotest.(check bool) "sibling exists" true
        (List.exists (fun (p, _) -> Plan.is_conflict_path p) files);
      (* one more swarm over the converged state stays silent *)
      let sw2 = Loopback.create ~seed:3L replicas in
      Alcotest.(check int) "stable" 0 (Loopback.run sw2))

(* Drive one session by hand so frames can be captured / withheld. *)
let drive_session ?(drop_after = max_int) a b =
  let ini = Gossip.Initiator.create a in
  let resp = Gossip.Responder.create b in
  let c2s = Queue.create () and s2c = Queue.create () in
  let sent = ref [] in
  let push_all q ms = List.iter (fun m -> Queue.push m q) ms in
  push_all c2s (Gossip.Initiator.start ini);
  let steps = ref 0 in
  (try
     while
       (not (Gossip.Initiator.finished ini))
       && (not (Queue.is_empty c2s && Queue.is_empty s2c))
       && !steps < drop_after
     do
       incr steps;
       if not (Queue.is_empty c2s) then begin
         let f = Queue.pop c2s in
         sent := f :: !sent;
         push_all s2c (Gossip.Responder.on_message resp f)
       end
       else begin
         let f = Queue.pop s2c in
         push_all c2s (Gossip.Initiator.on_message ini f)
       end
     done
   with Error.E _ -> ());
  (List.rev !sent, Gossip.Initiator.finished ini)

let test_stale_replay_harmless () =
  with_root (fun dir ->
      let ra = subdir dir "a" and rb = subdir dir "b" in
      write_raw ra "x.txt" "from a";
      write_raw rb "y.txt" "from b";
      let a = load ra "A" and b = load rb "B" in
      let frames, finished = drive_session a b in
      Alcotest.(check bool) "original session completed" true finished;
      check_all_equal "pre-replay" [ a; b ];
      let root_before = Replica.summary b in
      (* replay the initiator's captured frames against a fresh responder:
         every entry is stale now, so nothing may change *)
      let resp = Gossip.Responder.create b in
      (try List.iter (fun f -> ignore (Gossip.Responder.on_message resp f)) frames
       with Error.E _ -> ());
      Alcotest.(check bool) "replay left the replica untouched" true
        (Fp.equal root_before (Replica.summary b));
      check_all_equal "post-replay" [ a; b ])

let test_peer_death_mid_round () =
  with_root (fun dir ->
      let ra = subdir dir "a" and rb = subdir dir "b" in
      write_raw ra "x.txt" (String.make 5000 'x');
      write_raw rb "y.txt" (String.make 5000 'y');
      let a = load ra "A" and b = load rb "B" in
      let root_a = Replica.summary a and root_b = Replica.summary b in
      (* the peer dies after a few frames, on every prefix length *)
      for cut = 1 to 6 do
        let _, finished = drive_session ~drop_after:cut a b in
        Alcotest.(check bool)
          (Printf.sprintf "cut=%d did not finish" cut)
          false finished;
        (* no partial apply: both replicas exactly as before *)
        Alcotest.(check bool) "a untouched" true
          (Fp.equal root_a (Replica.summary a));
        Alcotest.(check bool) "b untouched" true
          (Fp.equal root_b (Replica.summary b))
      done;
      (* and survivors still converge afterwards *)
      ignore (Loopback.session ~initiator:a ~responder:b ());
      check_all_equal "after deaths" [ a; b ];
      (* disk state is consistent too *)
      check_all_equal "after reload" [ load ra "A"; load rb "B" ])

let test_responder_rejects_plain_hello () =
  with_root (fun dir ->
      let rb = subdir dir "b" in
      let b = load rb "B" in
      let resp = Gossip.Responder.create b in
      let config = Msg.default_sync_config in
      let plain =
        Msg.encode ~config
          (Msg.Hello { version = Msg.version; trace = None; swarm = None })
      in
      match Gossip.Responder.on_message resp plain with
      | _ -> Alcotest.fail "plain Hello must be rejected"
      | exception Error.E _ ->
          Alcotest.(check bool) "failed" true (Gossip.Responder.failed resp))

(* ---- read-repair ---- *)

let test_repair_pulls_missing_path () =
  with_root (fun dir ->
      let ra = subdir dir "a" and rb = subdir dir "b" and rc = subdir dir "c" in
      write_raw ra "data.txt" "authoritative";
      write_raw rb "data.txt" "authoritative";
      let a = load ra "A" and b = load rb "B" in
      ignore (Loopback.session ~initiator:a ~responder:b ());
      let c = load rc "C" in
      let outcomes =
        Loopback.repair ~replica:c ~peers:[ a; b ] ~path:"data.txt" ()
      in
      Alcotest.(check int) "both peers probed" 2 (List.length outcomes);
      (match outcomes with
      | [ o1; o2 ] ->
          Alcotest.(check bool) "first peer had it" true o1.Repair.had_entry;
          Alcotest.(check int) "first peer delivered" 1 o1.Repair.pulled;
          Alcotest.(check int) "second peer agreed" 0 o2.Repair.pulled;
          Alcotest.(check bool) "no conflict" false
            (o1.Repair.conflict || o2.Repair.conflict)
      | _ -> Alcotest.fail "expected two outcomes");
      Alcotest.(check (option string)) "content repaired"
        (Some "authoritative")
        (Replica.content c "data.txt");
      (* the repaired entry carries the peers' vector: a later full
         gossip has nothing left to transfer for it *)
      let r = Loopback.session ~initiator:c ~responder:a () in
      Alcotest.(check int) "nothing re-pulled" 0
        r.Loopback.initiator.Gossip.files_pulled)

let test_repair_concurrent_conflict () =
  with_root (fun dir ->
      let ra = subdir dir "a" and rc = subdir dir "c" in
      write_raw ra "f.txt" "quorum copy";
      write_raw rc "f.txt" "local divergent";
      let a = load ra "A" in
      let c = load rc "C" in
      let outcomes = Loopback.repair ~replica:c ~peers:[ a ] ~path:"f.txt" () in
      (match outcomes with
      | [ o ] -> Alcotest.(check bool) "conflict surfaced" true o.Repair.conflict
      | _ -> Alcotest.fail "expected one outcome");
      (* both versions live on: winner at the path, loser as sibling *)
      let files = Replica.files c in
      let contents = List.map snd files in
      Alcotest.(check bool) "local bytes survive" true
        (List.mem "local divergent" contents);
      Alcotest.(check bool) "quorum bytes survive" true
        (List.mem "quorum copy" contents);
      match Repair.create c ~path:"../evil" with
      | _ -> Alcotest.fail "invalid repair path must be rejected"
      | exception Error.E _ -> ())

(* ---- the peer endpoint: a daemon routing both dialects ---- *)

module Daemon = Fsync_server.Daemon
module Srv_loopback = Fsync_server.Loopback
module Ch = Fsync_net.Channel
module Tr = Fsync_net.Fd_transport

let initiator_machine ini =
  {
    Fsync_server.Backoff.start = (fun () -> Gossip.Initiator.start ini);
    on_message = Gossip.Initiator.on_message ini;
    finished = (fun () -> Gossip.Initiator.finished ini);
  }

let count_dir ch dir =
  List.length
    (List.filter (fun (d, _, _) -> d = dir) (Ch.transcript ch))

let test_peer_daemon_routes_both_dialects () =
  with_root (fun dir ->
      let rs = subdir dir "server" and rc = subdir dir "client" in
      write_raw rs "srv.txt" "server data";
      write_raw rc "cli.txt" "client data";
      let server = load rs "S" and client = load rc "C" in
      let peer = Peer.create server in
      let daemon = Peer.daemon peer in
      (* dialect one: a swarm gossip exchange *)
      ignore
        (Srv_loopback.pump ~daemon ~what:"gossip"
           [ initiator_machine (Gossip.Initiator.create client) ]);
      check_all_equal "socket gossip" [ server; client ];
      (* dialect two: a plain pull from the same endpoint
         sees the post-gossip collection *)
      (match Srv_loopback.run_pulls ~daemon [ [] ] with
      | [ r ] ->
          Alcotest.(check bool) "plain pull serves the converged swarm state"
            true
            (List.sort compare r.Srv_loopback.files = Replica.files server)
      | _ -> Alcotest.fail "expected one pull");
      Alcotest.(check int) "one gossip session" 1 (Peer.gossip_sessions peer);
      Alcotest.(check int) "one plain session" 1 (Peer.plain_sessions peer);
      Daemon.shutdown daemon)

(* A push into a swarm endpoint used to be acknowledged and then
   dropped; the endpoint's plain sessions are read-only, so the pusher
   must fail typed and the replica stay as it was. *)
let test_push_to_peer_refused () =
  with_root (fun dir ->
      let rs = subdir dir "server" in
      write_raw rs "srv.txt" "server data";
      let server = load rs "S" in
      let before = Replica.files server in
      let peer = Peer.create server in
      let daemon = Peer.daemon peer in
      let pusher = Fsync_server.Pusher.create [ ("pushed.txt", "payload") ] in
      (match
         Srv_loopback.pump ~daemon ~what:"push"
           [
             {
               Fsync_server.Backoff.start =
                 (fun () -> Fsync_server.Pusher.start pusher);
               on_message = Fsync_server.Pusher.on_message pusher;
               finished = (fun () -> Fsync_server.Pusher.finished pusher);
             };
           ]
       with
      | _ -> Alcotest.fail "a push to a swarm endpoint must fail"
      | exception Error.E _ -> ());
      let iters = ref 0 in
      while Daemon.active_sessions daemon > 0 && !iters < 1000 do
        incr iters;
        Daemon.step ~timeout_s:0.001 daemon
      done;
      let st = Daemon.stats daemon in
      Alcotest.(check int) "session counted failed" 1 st.Daemon.failed;
      Alcotest.(check int) "nothing completed" 0 st.Daemon.completed;
      Alcotest.(check bool) "replica unchanged" true
        (Replica.files server = before);
      Alcotest.(check bool) "disk unchanged" true
        (Replica.files (load rs "S") = before);
      Daemon.shutdown daemon)

(* Open a raw connection to a peer and send a gossip Hello; returns the
   client transport. *)
let open_gossip daemon replica =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Daemon.add_connection daemon b;
  let tr = Tr.of_fd a in
  let ini = Gossip.Initiator.create replica in
  List.iter
    (fun m -> Ch.send (Tr.channel tr) Ch.Client_to_server m)
    (Gossip.Initiator.start ini);
  tr

let step_until daemon cond =
  let iters = ref 0 in
  while (not (cond ())) && !iters < 2000 do
    incr iters;
    Daemon.step ~timeout_s:0.002 daemon
  done;
  Alcotest.(check bool) "condition reached" true (cond ())

let test_peer_idle_gossip_times_out () =
  with_root (fun dir ->
      let rs = subdir dir "server" and rc = subdir dir "client" in
      write_raw rs "srv.txt" "server data";
      write_raw rc "cli.txt" "client data";
      let peer =
        Peer.create
          ~config:{ Daemon.default_config with session_timeout_s = 0.05 }
          (load rs "S")
      in
      let daemon = Peer.daemon peer in
      let tr = open_gossip daemon (load rc "C") in
      (* The initiator goes quiet after its Hello. *)
      step_until daemon (fun () -> Daemon.active_sessions daemon = 0);
      let rec last acc =
        match Ch.recv_opt (Tr.channel tr) Ch.Server_to_client with
        | Some f -> last (Some f)
        | None -> acc
        | exception Tr.Closed -> acc
      in
      (match last None with
      | Some f -> (
          match Msg.decode ~config:Msg.default_sync_config f with
          | Msg.Error_msg _ -> ()
          | m -> Alcotest.failf "expected Error_msg, got %s" (Msg.label m))
      | None -> Alcotest.fail "idle gossip closed without a typed teardown");
      let st = Daemon.stats daemon in
      Alcotest.(check int) "counted as a timeout" 1 st.Daemon.timeouts;
      Alcotest.(check int) "and as failed" 1 st.Daemon.failed;
      Tr.close tr;
      Daemon.shutdown daemon)

let test_peer_hangup_mid_gossip_fails () =
  with_root (fun dir ->
      let rs = subdir dir "server" and rc = subdir dir "client" in
      write_raw rs "srv.txt" "server data";
      write_raw rc "cli.txt" "client data";
      let peer = Peer.create (load rs "S") in
      let daemon = Peer.daemon peer in
      let tr = open_gossip daemon (load rc "C") in
      step_until daemon (fun () ->
          Option.is_some (Ch.recv_opt (Tr.channel tr) Ch.Server_to_client));
      Tr.close tr;
      step_until daemon (fun () -> Daemon.active_sessions daemon = 0);
      let st = Daemon.stats daemon in
      Alcotest.(check int) "hang-up counted failed" 1 st.Daemon.failed;
      Alcotest.(check int) "nothing completed" 0 st.Daemon.completed;
      Daemon.shutdown daemon)

(* Past max_sessions a swarm port sheds with a typed Busy, as a plain
   daemon does. *)
let test_peer_sheds_busy () =
  with_root (fun dir ->
      let rs = subdir dir "server" in
      write_raw rs "srv.txt" "server data";
      let peer =
        Peer.create
          ~config:{ Daemon.default_config with max_sessions = 0 }
          (load rs "S")
      in
      let daemon = Peer.daemon peer in
      let port = Daemon.listen daemon ~host:"127.0.0.1" ~port:0 in
      let tr = Fsync_server.Backoff.connect ~host:"127.0.0.1" ~port in
      let got = ref None in
      step_until daemon (fun () ->
          (match Ch.recv_opt (Tr.channel tr) Ch.Server_to_client with
          | Some f -> got := Some f
          | None | (exception Tr.Closed) -> ());
          Option.is_some !got);
      (match Option.map (Msg.decode ~config:Msg.default_sync_config) !got with
      | Some (Msg.Busy { retry_after_ms }) ->
          Alcotest.(check bool) "retry-after carried" true (retry_after_ms > 0)
      | _ -> Alcotest.fail "expected Busy");
      Alcotest.(check int) "counted as shed" 1 (Daemon.stats daemon).Daemon.shed;
      Tr.close tr;
      Daemon.shutdown daemon)

(* The same gossip through the daemon loop over a socketpair and over
   the in-memory reference: identical payload bytes per direction once
   the 4-byte frame headers are taken off, identical round trips. *)
let test_socket_gossip_byte_parity () =
  with_root (fun dir ->
      let pair tag =
        let ra = subdir dir ("a" ^ tag) and rb = subdir dir ("b" ^ tag) in
        write_raw ra "shared.txt" (String.make 3000 'x' ^ "tail a");
        write_raw rb "shared.txt" (String.make 3000 'x' ^ "tail b");
        write_raw ra "only-a.txt" "alpha";
        write_raw rb "dir/only-b.txt" "beta";
        (load ra "A", load rb "B")
      in
      let a1, b1 = pair "1" and a2, b2 = pair "2" in
      let mem = Loopback.session ~initiator:a1 ~responder:b1 () in
      let peer = Peer.create b2 in
      let ch =
        match
          Srv_loopback.pump ~daemon:(Peer.daemon peer) ~what:"gossip"
            [ initiator_machine (Gossip.Initiator.create a2) ]
        with
        | [ ch ] -> ch
        | _ -> Alcotest.fail "expected one channel"
      in
      let payload dir =
        Ch.bytes ch dir - (Tr.header_bytes * count_dir ch dir)
      in
      Alcotest.(check int) "c2s payload identical" mem.Loopback.c2s_bytes
        (payload Ch.Client_to_server);
      Alcotest.(check int) "s2c payload identical" mem.Loopback.s2c_bytes
        (payload Ch.Server_to_client);
      Alcotest.(check int) "same round trips" mem.Loopback.roundtrips
        (Ch.roundtrips ch);
      check_all_equal "socket pair" [ a2; b2 ];
      check_all_equal "both runs" [ a1; a2 ];
      Daemon.shutdown (Peer.daemon peer))

(* ---- crash-tolerant persistence ---- *)

(* Sweep a hard crash across every mutating syscall of a responder's
   apply: whatever instant the process dies, a clean reload must come
   back consistent and the next gossip round must converge. *)
let test_crash_sweep_during_apply () =
  let k = ref 1 in
  let sweeping = ref true in
  while !sweeping do
    if !k > 200 then Alcotest.fail "crash sweep did not terminate";
    with_root (fun dir ->
        let ra = subdir dir "a" and rb = subdir dir "b" in
        write_raw ra "one.txt" (String.make 2000 '1');
        write_raw ra "two/deep.txt" "fresh";
        write_raw rb "stale.txt" "stale";
        let a = load ra "A" in
        let io, _stats =
          Fault_io.wrap ~seed:!k
            { Fault_io.none with Fault_io.crash_at = Some !k }
        in
        let crashed = ref false in
        (try
           let b = load ~io rb "B" in
           ignore (Loopback.session ~initiator:a ~responder:b ())
         with
        | Fault_io.Crash_point _ -> crashed := true
        | Error.E _ -> crashed := true);
        if not !crashed then sweeping := false
        else begin
          (* the replica wrote content files before the vector table;
             a clean reload may see unrecorded bytes as local edits but
             must never lose data or corrupt the table *)
          let b' = load rb "B" in
          let a' = load ra "A" in
          ignore (Loopback.session ~initiator:a' ~responder:b' ());
          check_all_equal (Printf.sprintf "crash_at=%d" !k) [ a'; b' ]
        end);
    incr k
  done

let suite =
  vv_laws @ codec_tests
  @ [
      Alcotest.test_case "recon codec" `Quick test_recon_codec;
      Alcotest.test_case "recon malformed" `Quick test_recon_malformed;
      Alcotest.test_case "swarm hello codec" `Quick test_swarm_hello_codec;
      Alcotest.test_case "plan rules" `Quick test_plan_rules;
      Alcotest.test_case "two-peer convergence" `Quick
        test_two_peer_convergence;
      Alcotest.test_case "single-peer no-op" `Quick test_single_peer_noop;
      Alcotest.test_case "eight-peer convergence" `Quick
        test_eight_peer_convergence;
      Alcotest.test_case "conflict files do not re-conflict" `Quick
        test_conflict_files_do_not_reconflict;
      Alcotest.test_case "three-way conflict converges" `Quick
        test_three_way_conflict_converges;
      Alcotest.test_case "stale replay harmless" `Quick
        test_stale_replay_harmless;
      Alcotest.test_case "peer death mid-round" `Quick
        test_peer_death_mid_round;
      Alcotest.test_case "responder rejects plain hello" `Quick
        test_responder_rejects_plain_hello;
      Alcotest.test_case "repair pulls missing path" `Quick
        test_repair_pulls_missing_path;
      Alcotest.test_case "repair surfaces concurrent conflict" `Quick
        test_repair_concurrent_conflict;
      Alcotest.test_case "push to a peer refused typed" `Quick
        test_push_to_peer_refused;
      Alcotest.test_case "peer idle gossip times out" `Quick
        test_peer_idle_gossip_times_out;
      Alcotest.test_case "peer hang-up mid-gossip fails" `Quick
        test_peer_hangup_mid_gossip_fails;
      Alcotest.test_case "peer sheds busy" `Quick test_peer_sheds_busy;
      Alcotest.test_case "socket gossip byte parity" `Quick
        test_socket_gossip_byte_parity;
      Alcotest.test_case "peer daemon routes both dialects" `Quick
        test_peer_daemon_routes_both_dialects;
      Alcotest.test_case "crash sweep during apply" `Quick
        test_crash_sweep_during_apply;
    ]
