(* Tests for Fsync_server: message codec, signature cache, the
   session/puller state machines (in memory and over socketpairs against
   the daemon event loop), timeouts, backpressure, and the blocking TCP
   pull client against a forked daemon. *)

open Fsync_server
module Prng = Fsync_util.Prng
module Fp = Fsync_hash.Fingerprint
module Channel = Fsync_net.Channel
module Meta_wire = Fsync_collection.Meta_wire

let cfg = Msg.default_sync_config

let mk_files seed n =
  let rng = Prng.create (Int64.of_int seed) in
  List.init n (fun i ->
      ( Printf.sprintf "dir%d/file%03d.txt" (i mod 3) i,
        Fsync_workload.Text_gen.c_like rng ~lines:(20 + Prng.int rng 80) ))

let mutate_some seed files =
  let rng = Prng.create (Int64.of_int ((seed * 37) + 5)) in
  List.map
    (fun (path, content) ->
      if Prng.bernoulli rng 0.5 then (path, content)
      else
        ( path,
          Fsync_workload.Edit_model.mutate rng
            ~profile:Fsync_workload.Edit_model.medium
            ~gen_text:(fun rng n ->
              String.init n (fun _ -> Char.chr (97 + Prng.int rng 26)))
            content ))
    files

(* Every file edited: a pull of these runs hash rounds and tails. *)
let mutate_all seed files =
  let rng = Prng.create (Int64.of_int ((seed * 41) + 3)) in
  List.map
    (fun (path, content) ->
      ( path,
        Fsync_workload.Edit_model.mutate rng
          ~profile:Fsync_workload.Edit_model.medium
          ~gen_text:(fun rng n ->
            String.init n (fun _ -> Char.chr (97 + Prng.int rng 26)))
          content ))
    files

let sorted files =
  List.sort (fun (a, _) (b, _) -> String.compare a b) files

let check_files what expected actual =
  Alcotest.(check (list (pair string string))) what (sorted expected) actual

(* ---- Msg codec ---- *)

let roundtrip m =
  Msg.decode ~config:cfg (Msg.encode ~config:cfg m)

let test_msg_roundtrip () =
  let fp = Fp.of_string "content" in
  let check_eq what a b =
    Alcotest.(check string)
      what
      (Msg.encode ~config:cfg a)
      (Msg.encode ~config:cfg b)
  in
  List.iter
    (fun m -> check_eq (Msg.label m) m (roundtrip m))
    [
      Msg.Hello { version = Msg.version; trace = None; swarm = None };
      Msg.Welcome
        { version = 1; file_count = 42; root = fp; config = cfg };
      Msg.Announce "announce-bytes";
      Msg.Verdict "verdict-bytes";
      Msg.File_begin
        [ (0, { Msg.new_len = 123_456; fp }); (7, { Msg.new_len = 0; fp }) ];
      Msg.Hashes [ (2, [| 0; 1; 0x3fffffff; 12345 |]); (300, [||]) ];
      Msg.Hashes [];
      Msg.Matched [ (0, "\x80\x01"); (5, "") ];
      Msg.Tail { slot = 3; literals = "literals" };
      Msg.Full { slot = 1000; body = "full-bytes" };
      Msg.File_ack [ (0, true) ];
      Msg.File_ack [ (1, false); (2, true); (129, false) ];
      Msg.Bye { root = fp };
      Msg.Error_msg "went wrong";
      Msg.Push_begin
        [
          ( 0,
            {
              Msg.path = "up/loaded.txt";
              file_len = 123;
              fp;
              manifest = [ (fp, 100); (Fp.of_string "other chunk", 23) ];
            } );
          (9, { Msg.path = "empty.txt"; file_len = 0; fp; manifest = [] });
        ];
      Msg.Push_begin [];
      Msg.Chunk_need [ (0, "\x05\x80"); (9, "") ];
      Msg.Chunk_data "deflated-chunk-bytes";
      Msg.Push_done;
      Msg.Resume { root = fp; bitmap = "\x05\xff\x00" };
      Msg.Resume { root = fp; bitmap = "" };
      Msg.Busy { retry_after_ms = 0 };
      Msg.Busy { retry_after_ms = 1500 };
    ]

let test_msg_malformed () =
  let expect_error raw =
    match Msg.decode ~config:cfg raw with
    | _ -> Alcotest.fail "expected a typed error"
    | exception Fsync_core.Error.E _ -> ()
  in
  expect_error "";
  expect_error "L";
  expect_error "B\x05ab";
  (* hash array overrunning the message *)
  expect_error "S\x00\x7f";
  (* hostile varint count (2^61): [count * width] would overflow
     negative and slip past a sum-based bounds check *)
  expect_error "S\x00\x80\x80\x80\x80\x80\x80\x80\x80\x20abcd";
  (* batch items: a repeated or descending slot, a truncated varint *)
  expect_error "K\x03\x03";
  expect_error "K\x05\x03";
  expect_error "M\x01\x00\x01\x00";
  expect_error "K\x80";
  expect_error "T"

let test_bitmap_roundtrip () =
  let cases =
    [ []; [ true ]; [ false ]; [ true; false; true ];
      List.init 17 (fun i -> Int.equal (i mod 3) 0) ]
  in
  List.iter
    (fun bits ->
      let encoded = Msg.encode_bitmap bits in
      Alcotest.(check int)
        "byte length"
        ((List.length bits + 7) / 8)
        (String.length encoded);
      Alcotest.(check (list bool))
        "roundtrip" bits
        (Array.to_list (Msg.decode_bitmap ~count:(List.length bits) encoded)))
    cases

(* ---- batch frames: the decoder and the drivers are total ---- *)

let expect_typed what f =
  match f () with
  | _ -> Alcotest.failf "%s: accepted" what
  | exception Fsync_core.Error.E _ -> ()
  | exception e -> Alcotest.failf "%s: untyped %s" what (Printexc.to_string e)

let fetch_driver slots =
  Batch.Fetch.create ~who:"test" ~config:cfg
    ~counters:(Fetch_file.fresh_counters ())
    ~path:(Printf.sprintf "p%d")
    ~old:(fun _ -> "")
    ~on_file:(fun _ _ -> ())
    ~slots

let test_batch_frames_rejected () =
  let fp = Fp.of_string "x" in
  let enc m = Msg.encode ~config:cfg m in
  let decode raw () = Msg.decode ~config:cfg raw in
  let item slot = (slot, { Msg.new_len = 100; fp }) in
  (* duplicate slots *)
  expect_typed "repeated begin slot" (decode (enc (Msg.File_begin [ item 1; item 1 ])));
  expect_typed "repeated hashes slot"
    (decode (enc (Msg.Hashes [ (2, [| 1 |]); (2, [| 2 |]) ])));
  expect_typed "descending matched slots"
    (decode (enc (Msg.Matched [ (4, "\x80"); (0, "\x80") ])));
  expect_typed "repeated ack slot"
    (decode (enc (Msg.File_ack [ (3, true); (3, false) ])));
  (* item counts larger than the frame *)
  expect_typed "hash count past the frame" (decode "S\x00\xe8\x07ab");
  expect_typed "bitmap length past the frame" (decode "M\x00\x32ab");
  expect_typed "hostile hash count"
    (decode "S\x00\xff\xff\xff\xff\xff\xff\xff\xff\x7fab");
  (* trailing bytes that do not make a whole item *)
  expect_typed "begin trailing byte" (decode (enc (Msg.File_begin [ item 0 ]) ^ "\x05"));
  expect_typed "hashes trailing byte"
    (decode (enc (Msg.Hashes [ (0, [| 7 |]) ]) ^ "\x07"));
  expect_typed "matched trailing byte"
    (decode (enc (Msg.Matched [ (0, "\x80") ]) ^ "\x09"));
  expect_typed "ack trailing half varint" (decode (enc (Msg.File_ack [ (0, true) ]) ^ "\x80"));
  (* slots at or past the in-flight count, and a slot twice in a turn,
     are the drivers' to reject *)
  let f = fetch_driver 3 in
  expect_typed "begin past the slots" (fun () ->
      Batch.Fetch.on_message f (Msg.File_begin [ item 3 ]));
  expect_typed "tail past the slots" (fun () ->
      Batch.Fetch.on_message f (Msg.Tail { slot = max_int; literals = "" }));
  let body = Meta_wire.encode_file_msg ~path:"p0" ~fp:(Fp.of_string "a") ~tag:'R' ~body:"a" in
  let f = fetch_driver 3 in
  Alcotest.(check int) "full accepted" 0
    (List.length (Batch.Fetch.on_message f (Msg.Full { slot = 0; body })));
  expect_typed "slot twice in one turn" (fun () ->
      Batch.Fetch.on_message f (Msg.Full { slot = 0; body }));
  expect_typed "full for another slot's path" (fun () ->
      Batch.Fetch.on_message (fetch_driver 3) (Msg.Full { slot = 1; body }));
  expect_typed "empty server turn" (fun () ->
      Batch.Fetch.on_message (fetch_driver 3) (Msg.Hashes []));
  let serve =
    Batch.Serve.create ~who:"test"
      ~make:(Serve_file.create ~full_content:(fun _ -> None)
               ~on_fallback:ignore ~who:"test" ~config:cfg
               ~cache:(Sigcache.create ()) ~counters:(Serve_file.fresh_counters ()))
      ~slots:2
      [ (0, { Serve_file.path = "p0"; content = "a"; fp = Fp.of_string "a"; has_old = false }) ]
  in
  Alcotest.(check int) "opening turn: full + hashes" 2 (List.length (Batch.Serve.start serve));
  expect_typed "ack past the slots" (fun () ->
      Batch.Serve.on_message serve (Msg.File_ack [ (2, true) ]));
  expect_typed "ack for an unopened slot" (fun () ->
      Batch.Serve.on_message serve (Msg.File_ack [ (1, true) ]));
  expect_typed "matched where an ack is due" (fun () ->
      Batch.Serve.on_message serve (Msg.Matched [ (0, "") ]))

(* A pull run up to its first transfer turn (every kind of server frame:
   begin, full, hashes): fresh machines, the turn's frames after the
   verdict, and the client's answer to them. *)
let live_turn () =
  let server_files = mk_files 17 5 in
  let client_files = mutate_all 17 (List.filteri (fun i _ -> i < 4) server_files) in
  let session = Session.create ~cache:(Sigcache.create ()) server_files in
  let puller = Puller.create client_files in
  let to_s = List.concat_map (Session.on_message session) in
  let to_p = List.concat_map (Puller.on_message puller) in
  match to_s (to_p (to_s (Puller.start puller))) with
  | verdict :: frames ->
      ignore (to_p [ verdict ]);
      (session, puller, frames)
  | [] -> Alcotest.fail "no verdict"

let mutate_frame (pos, kind, junk) frame =
  let n = String.length frame in
  let i = 1 + (pos mod max 1 (n - 1)) in
  match kind with
  | 0 when n > 1 ->
      String.mapi
        (fun j c -> if Int.equal j i then Char.chr (Char.code c lxor (Char.code junk.[0] lor 1)) else c)
        frame
  | 1 -> String.sub frame 0 (min n i)
  | 2 -> frame ^ junk
  | _ -> frame ^ String.sub frame 1 (min (n - 1) i)

let mutation_gen =
  QCheck2.Gen.(
    triple (int_bound 10_000) (int_bound 3)
      (string_size ~gen:char (int_range 1 6)))

(* Under [Error.guard] — what the daemon runs every frame through — a
   mutated frame is accepted or fails typed; no other exception gets
   out, and the bare decoder raises typed errors only. *)
let typed_only feed frames =
  List.iter
    (fun raw ->
      match Msg.decode ~config:cfg raw with
      | _ | (exception Fsync_core.Error.E _) -> ())
    frames;
  match Fsync_core.Error.guard (fun () -> List.iter (fun f -> ignore (feed f)) frames) with
  | Ok () | Error _ -> true

let prop_mutated_server_turn =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:120 ~name:"mutated server turn: typed errors only"
       mutation_gen (fun (which, kind, junk) ->
         let _, puller, frames = live_turn () in
         let k = which mod List.length frames in
         let frames =
           List.mapi (fun i f -> if Int.equal i k then mutate_frame (which, kind, junk) f else f) frames
         in
         typed_only (Puller.on_message puller) frames))

let prop_mutated_client_turn =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:120 ~name:"mutated client turn: typed errors only"
       mutation_gen (fun (which, kind, junk) ->
         let session, puller, frames = live_turn () in
         let answer = List.concat_map (Puller.on_message puller) frames in
         let k = which mod List.length answer in
         let answer =
           List.mapi (fun i f -> if Int.equal i k then mutate_frame (which, kind, junk) f else f) answer
         in
         typed_only (Session.on_message session) answer))

(* ---- Sigcache ---- *)

let test_sigcache_hits_and_eviction () =
  let c = Sigcache.create ~max_entries:2 () in
  let content = String.make 5000 'a' ^ String.make 3000 'b' in
  let fp = Fp.of_string content in
  let v1, hit1 = Sigcache.find_or_compute c ~fp ~size:2048 ~bits:30 content in
  Alcotest.(check bool) "first is a miss" false hit1;
  Alcotest.(check int) "vector covers the file" 4 (Array.length v1);
  Alcotest.(check (array int))
    "pure function" v1
    (Sigcache.compute content ~size:2048 ~bits:30);
  let v2, hit2 = Sigcache.find_or_compute c ~fp ~size:2048 ~bits:30 content in
  Alcotest.(check bool) "second is a hit" true hit2;
  Alcotest.(check (array int)) "same vector" v1 v2;
  (* Distinct levels are distinct entries; a third evicts the LRU. *)
  ignore (Sigcache.find_or_compute c ~fp ~size:1024 ~bits:30 content);
  ignore (Sigcache.find_or_compute c ~fp ~size:512 ~bits:30 content);
  let s = Sigcache.stats c in
  Alcotest.(check int) "bounded" 2 s.Sigcache.entries;
  Alcotest.(check int) "evicted one" 1 s.Sigcache.evictions;
  Alcotest.(check int) "hits" 1 s.Sigcache.hits;
  Alcotest.(check int) "misses" 3 s.Sigcache.misses

(* ---- session + puller, in memory ---- *)

let test_in_memory_sync () =
  let server_files = mk_files 1 12 in
  (* Old replica: mutated copies, one deleted file, one extra file the
     server no longer has. *)
  let client_files =
    mutate_some 1 (List.filteri (fun i _ -> i < 11) server_files)
    @ [ ("zzz/stale.txt", "to be deleted") ]
  in
  let cache = Sigcache.create () in
  let r, st =
    Loopback.run_in_memory ~cache ~server:server_files ~client:client_files ()
  in
  check_files "replica converges" server_files r.Loopback.files;
  Alcotest.(check bool)
    "hash rounds happened" true
    (st.Session.rounds > 0);
  Alcotest.(check bool)
    "old bytes reused" true
    (r.Loopback.stats.Puller.matched_bytes > 0)

let test_in_memory_identical_and_empty () =
  let files = mk_files 2 5 in
  let cache = Sigcache.create () in
  let r, st = Loopback.run_in_memory ~cache ~server:files ~client:files () in
  check_files "identical replicas" files r.Loopback.files;
  Alcotest.(check int) "no rounds" 0 st.Session.rounds;
  let r2, _ = Loopback.run_in_memory ~cache ~server:[] ~client:[] () in
  check_files "empty collections" [] r2.Loopback.files;
  let r3, _ = Loopback.run_in_memory ~cache ~server:files ~client:[] () in
  check_files "bootstrap from nothing" files r3.Loopback.files

let test_sigcache_across_clients () =
  (* Second client syncing the same outdated replica must be served
     almost entirely from the shared cache. *)
  let server_files = mk_files 3 10 in
  let client_files = mutate_some 3 server_files in
  let cache = Sigcache.create () in
  let _, st1 =
    Loopback.run_in_memory ~cache ~server:server_files ~client:client_files ()
  in
  let _, st2 =
    Loopback.run_in_memory ~cache ~server:server_files ~client:client_files ()
  in
  Alcotest.(check bool)
    "first client computes" true
    (st1.Session.hashes_total > 0);
  let ratio =
    float_of_int st2.Session.hashes_cached
    /. float_of_int (max 1 st2.Session.hashes_total)
  in
  if ratio < 0.9 then
    Alcotest.failf "second client cached ratio %.2f < 0.9 (%d/%d)" ratio
      st2.Session.hashes_cached st2.Session.hashes_total

(* ---- the daemon over socketpairs: concurrent interleaved sessions ---- *)

let test_loopback_eight_clients () =
  let server_files = mk_files 7 10 in
  let daemon = Daemon.create server_files in
  let clients = List.init 8 (fun i -> mutate_some (i + 10) server_files) in
  let results = Loopback.run_pulls ~daemon clients in
  Alcotest.(check int) "eight results" 8 (List.length results);
  List.iteri
    (fun i r ->
      check_files
        (Printf.sprintf "client %d converges" i)
        server_files r.Loopback.files)
    results;
  let ds = Daemon.stats daemon in
  Alcotest.(check int) "eight accepted" 8 ds.Daemon.accepted;
  Alcotest.(check int) "eight completed" 8 ds.Daemon.completed;
  Alcotest.(check int) "none failed" 0 ds.Daemon.failed;
  (* The shared cache was exercised across the fleet. *)
  let cs = Sigcache.stats (Daemon.cache daemon) in
  Alcotest.(check bool) "cache hits across clients" true (cs.Sigcache.hits > 0);
  Daemon.shutdown daemon

let test_loopback_matches_in_memory () =
  (* The socket path and the in-memory path run the same state
     machines: results byte-identical, payload bytes identical (the
     transport only adds the 4-byte frame headers). *)
  (* Realistically sized files: the 4-byte frame headers are the only
     difference between the accountings and must stay inside the 3%
     budget. *)
  let rng = Prng.create 99L in
  let server_files =
    List.init 8 (fun i ->
        ( Printf.sprintf "src/mod%02d.ml" i,
          Fsync_workload.Text_gen.c_like rng ~lines:(250 + Prng.int rng 150)
        ))
  in
  let client_files = mutate_some 9 server_files in
  let daemon = Daemon.create server_files in
  let tcp =
    match Loopback.run_pulls ~daemon [ client_files ] with
    | [ r ] -> r
    | _ -> Alcotest.fail "one result expected"
  in
  Daemon.shutdown daemon;
  let mem, _ =
    Loopback.run_in_memory
      ~cache:(Sigcache.create ())
      ~server:server_files ~client:client_files ()
  in
  check_files "same replica" mem.Loopback.files tcp.Loopback.files;
  Alcotest.(check int)
    "same roundtrips" mem.Loopback.roundtrips tcp.Loopback.roundtrips;
  (* Same machines, same frames: stripping the 4-byte frame header from
     the socket accounting must recover the in-memory payload exactly —
     which trivially lands inside the 3% parity budget. *)
  let payload bytes msgs = bytes - (4 * msgs) in
  Alcotest.(check int)
    "c2s payload identical" mem.Loopback.c2s_bytes
    (payload tcp.Loopback.c2s_bytes tcp.Loopback.c2s_msgs);
  Alcotest.(check int)
    "s2c payload identical" mem.Loopback.s2c_bytes
    (payload tcp.Loopback.s2c_bytes tcp.Loopback.s2c_msgs);
  (* And even with headers included the slack stays single-digit
     percent on a realistic collection. *)
  let total_mem = mem.Loopback.c2s_bytes + mem.Loopback.s2c_bytes in
  let total_tcp = tcp.Loopback.c2s_bytes + tcp.Loopback.s2c_bytes in
  if float_of_int (total_tcp - total_mem) > 0.10 *. float_of_int total_mem
  then
    Alcotest.failf "transport overhead %d of %d bytes (> 10%%)"
      (total_tcp - total_mem) total_mem

(* Hash levels a file runs through: start_block, halved down to
   min_block. *)
let hash_levels (c : Msg.sync_config) =
  let rec go size = if size < c.min_block then 0 else 1 + go (size / 2) in
  go c.start_block

let test_roundtrip_bound () =
  (* Every file of a pull runs in lockstep, so the round trips are the
     hash levels plus a fixed handful (hello, tails, acks, one full
     fallback) whatever the file count. *)
  let bound = 4 + hash_levels Msg.default_sync_config in
  Alcotest.(check int) "ten with the default config" 10 bound;
  List.iter
    (fun n ->
      let rng = Prng.create (Int64.of_int (300 + n)) in
      let server_files =
        List.init n (fun i ->
            ( Printf.sprintf "src/m%03d.c" i,
              Fsync_workload.Text_gen.c_like rng ~lines:(150 + Prng.int rng 150) ))
      in
      let client_files = mutate_all n server_files in
      let daemon = Daemon.create server_files in
      let r =
        match Loopback.run_pulls ~daemon [ client_files ] with
        | [ r ] -> r
        | _ -> Alcotest.fail "one result expected"
      in
      Daemon.shutdown daemon;
      check_files (Printf.sprintf "%d files converge" n) server_files r.Loopback.files;
      Alcotest.(check bool)
        (Printf.sprintf "%d files matched old bytes" n)
        true
        (r.Loopback.stats.Puller.matched_bytes > 0);
      if r.Loopback.roundtrips > bound then
        Alcotest.failf "%d files took %d round trips (bound %d)" n
          r.Loopback.roundtrips bound)
    [ 1; 8; 40 ]

let test_turn_budget () =
  (* A fresh clone larger than the turn budget: no server turn queues
     more than the budget plus one file of literals, and the clone
     takes extra turns instead. *)
  let rng = Prng.create 77L in
  let file_len = 1 lsl 20 in
  let server_files =
    List.init 4 (fun i ->
        ( Printf.sprintf "blob%d.bin" i,
          String.init file_len (fun _ -> Char.chr (Prng.int rng 256)) ))
    @ [ ("tail.txt", "the file that waits for the next turn") ]
  in
  let session = Session.create ~cache:(Sigcache.create ()) server_files in
  let puller = Puller.create [] in
  let turns = ref [] in
  let q = Queue.create () in
  List.iter (fun f -> Queue.add f q) (Puller.start puller);
  while not (Queue.is_empty q || Puller.finished puller) do
    let turn = Session.on_message session (Queue.pop q) in
    let literals =
      List.fold_left
        (fun acc r ->
          match Msg.decode ~config:cfg r with
          | Msg.Full { body; _ } -> acc + String.length body
          | _ -> acc)
        0 turn
    in
    if literals > 0 then turns := literals :: !turns;
    List.iter
      (fun r -> List.iter (fun f -> Queue.add f q) (Puller.on_message puller r))
      turn
  done;
  check_files "clone converges" server_files (Puller.result puller);
  Alcotest.(check int) "two literal turns" 2 (List.length !turns);
  Alcotest.(check bool) "the last file waited" true (List.hd !turns < 100);
  List.iter
    (fun n ->
      if n > Batch.turn_budget + file_len + 64 then
        Alcotest.failf "a turn queued %d literal bytes" n)
    !turns

let test_timeout_teardown () =
  let config =
    { Daemon.default_config with Daemon.session_timeout_s = 0.05 }
  in
  let daemon = Daemon.create ~config (mk_files 4 3) in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Daemon.add_connection daemon b;
  (* Say hello, then go silent. *)
  let tr = Fsync_net.Fd_transport.of_fd a in
  let ch = Fsync_net.Fd_transport.channel tr in
  Channel.send ch ~label:"t" Channel.Client_to_server
    (Msg.encode ~config:cfg (Msg.Hello { version = Msg.version; trace = None; swarm = None }));
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Daemon.active_sessions daemon > 0 && Unix.gettimeofday () < deadline do
    Daemon.step ~timeout_s:0.01 daemon
  done;
  Alcotest.(check int) "session reaped" 0 (Daemon.active_sessions daemon);
  let ds = Daemon.stats daemon in
  Alcotest.(check int) "one timeout" 1 ds.Daemon.timeouts;
  Alcotest.(check int) "one failure" 1 ds.Daemon.failed;
  (* The teardown is typed: Welcome first, then Error_msg. *)
  (match Channel.recv_opt ch Channel.Server_to_client with
  | Some raw -> (
      match Msg.decode ~config:cfg raw with
      | Msg.Welcome _ -> ()
      | m -> Alcotest.failf "expected Welcome, got %s" (Msg.label m))
  | None -> Alcotest.fail "expected the Welcome reply");
  (match Channel.recv_opt ch Channel.Server_to_client with
  | Some raw -> (
      match Msg.decode ~config:cfg raw with
      | Msg.Error_msg _ -> ()
      | m -> Alcotest.failf "expected Error_msg, got %s" (Msg.label m))
  | None -> Alcotest.fail "expected the typed teardown");
  Fsync_net.Fd_transport.close tr;
  Daemon.shutdown daemon

let test_protocol_violation_teardown () =
  let daemon = Daemon.create (mk_files 5 2) in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Daemon.add_connection daemon b;
  let tr = Fsync_net.Fd_transport.of_fd a in
  let ch = Fsync_net.Fd_transport.channel tr in
  (* An Announce before Hello is a protocol violation. *)
  Channel.send ch ~label:"t" Channel.Client_to_server
    (Msg.encode ~config:cfg (Msg.Announce "x"));
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Daemon.active_sessions daemon > 0 && Unix.gettimeofday () < deadline do
    Daemon.step ~timeout_s:0.01 daemon
  done;
  let ds = Daemon.stats daemon in
  Alcotest.(check int) "failed, not completed" 1 ds.Daemon.failed;
  Alcotest.(check int) "not completed" 0 ds.Daemon.completed;
  (match Channel.recv_opt ch Channel.Server_to_client with
  | Some raw -> (
      match Msg.decode ~config:cfg raw with
      | Msg.Error_msg _ -> ()
      | m -> Alcotest.failf "expected Error_msg, got %s" (Msg.label m))
  | None -> Alcotest.fail "expected the typed teardown");
  Fsync_net.Fd_transport.close tr;
  Daemon.shutdown daemon

(* ---- Conn: backpressure ---- *)

let test_conn_backpressure () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let conn = Conn.create ~max_outbox:1024 a in
  Conn.queue_msg conn (String.make 4096 'x');
  Alcotest.(check bool) "wants write" true (Conn.wants_write conn);
  Alcotest.(check bool)
    "over backpressure" true
    (Conn.over_backpressure conn);
  (* Drain by reading the peer until the outbox empties. *)
  let buf = Bytes.create 65536 in
  let deadline = Unix.gettimeofday () +. 5.0 in
  let received = ref 0 in
  while Conn.wants_write conn && Unix.gettimeofday () < deadline do
    Conn.handle_writable conn;
    match Unix.read b buf 0 (Bytes.length buf) with
    | n -> received := !received + n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        ()
  done;
  Alcotest.(check bool) "drained" false (Conn.over_backpressure conn);
  Alcotest.(check int) "frame on the wire" (4096 + 4) !received;
  Alcotest.(check int) "payload accounting" 4096 (Conn.bytes_out conn);
  Conn.close conn;
  (match Unix.close b with
  | () -> ()
  | exception Unix.Unix_error _ -> ());
  (* Close is idempotent and queue_msg after close is a no-op. *)
  Conn.close conn;
  Conn.queue_msg conn "late";
  Alcotest.(check bool) "still closed" true (Conn.closed conn)

let test_oversized_frame_teardown () =
  (* A non-protocol peer (e.g. an HTTP probe) whose first 4 bytes decode
     to a frame length over the limit must fail only its own session —
     the daemon keeps serving everyone else. *)
  let server_files = mk_files 13 6 in
  let daemon = Daemon.create server_files in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Daemon.add_connection daemon b;
  let probe = "GET / HTTP/1.1\r\n\r\n" in
  let n = Unix.write_substring a probe 0 (String.length probe) in
  Alcotest.(check int) "probe written" (String.length probe) n;
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Daemon.active_sessions daemon > 0 && Unix.gettimeofday () < deadline do
    Daemon.step ~timeout_s:0.01 daemon
  done;
  Alcotest.(check int) "probe reaped" 0 (Daemon.active_sessions daemon);
  let ds = Daemon.stats daemon in
  Alcotest.(check int) "one failure" 1 ds.Daemon.failed;
  Alcotest.(check int) "no completion" 0 ds.Daemon.completed;
  (* The typed teardown reached the probe's socket. *)
  let tr = Fsync_net.Fd_transport.of_fd a in
  (match
     Channel.recv_opt (Fsync_net.Fd_transport.channel tr)
       Channel.Server_to_client
   with
  | Some raw -> (
      match Msg.decode ~config:cfg raw with
      | Msg.Error_msg _ -> ()
      | m -> Alcotest.failf "expected Error_msg, got %s" (Msg.label m))
  | None -> Alcotest.fail "expected the typed teardown");
  Fsync_net.Fd_transport.close tr;
  (* The daemon survived: a real client still syncs through it. *)
  let client_files = mutate_some 13 server_files in
  (match Loopback.run_pulls ~daemon [ client_files ] with
  | [ r ] -> check_files "daemon still serves" server_files r.Loopback.files
  | _ -> Alcotest.fail "one result expected");
  Daemon.shutdown daemon

let test_conn_peer_gone () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let conn = Conn.create a in
  Unix.close b;
  Conn.queue_msg conn "undeliverable";
  let deadline = Unix.gettimeofday () +. 5.0 in
  while (not (Conn.peer_gone conn)) && Unix.gettimeofday () < deadline do
    if not (Conn.wants_write conn) then Conn.queue_msg conn "undeliverable";
    Conn.handle_writable conn
  done;
  Alcotest.(check bool) "peer gone" true (Conn.peer_gone conn);
  Alcotest.(check bool) "not closed yet" false (Conn.closed conn);
  Alcotest.(check bool) "outbox dropped" false (Conn.wants_write conn);
  Alcotest.(check int) "no unsent bytes" 0 (Conn.pending_out conn);
  (* queue_msg after peer_gone is a no-op. *)
  Conn.queue_msg conn "late";
  Alcotest.(check int) "still empty" 0 (Conn.pending_out conn);
  (* close really releases the fd (regression: the old code marked the
     connection closed on EPIPE and leaked the descriptor). *)
  let fd = Conn.fd conn in
  Conn.close conn;
  match Unix.fstat fd with
  | _ -> Alcotest.fail "fd still open after close"
  | exception Unix.Unix_error (Unix.EBADF, _, _) -> ()

let test_daemon_peer_gone_accounting () =
  (* A peer that vanishes while a teardown notification is still queued
     must be closed AND counted, not silently dropped from the stats. *)
  let daemon = Daemon.create (mk_files 6 2) in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Daemon.add_connection daemon b;
  let tr = Fsync_net.Fd_transport.of_fd a in
  (* Announce before Hello: the violation queues a typed Error_msg... *)
  Channel.send
    (Fsync_net.Fd_transport.channel tr)
    ~label:"t" Channel.Client_to_server
    (Msg.encode ~config:cfg (Msg.Announce "x"));
  Daemon.step ~timeout_s:0.0 daemon;
  (* ...but the peer is gone before the outbox can flush it. *)
  Fsync_net.Fd_transport.close tr;
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Daemon.active_sessions daemon > 0 && Unix.gettimeofday () < deadline do
    Daemon.step ~timeout_s:0.01 daemon
  done;
  Alcotest.(check int) "reaped" 0 (Daemon.active_sessions daemon);
  let ds = Daemon.stats daemon in
  Alcotest.(check int) "counted as failed" 1 ds.Daemon.failed;
  Alcotest.(check int) "not completed" 0 ds.Daemon.completed;
  Daemon.shutdown daemon

let test_conn_chunked_frames () =
  (* Frames arriving in many small pieces (and one large frame) must
     reassemble byte-identically through the offset input buffer. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let conn = Conn.create b in
  let frame s =
    let len = String.length s in
    let h = Bytes.create 4 in
    Bytes.set h 0 (Char.chr ((len lsr 24) land 0xff));
    Bytes.set h 1 (Char.chr ((len lsr 16) land 0xff));
    Bytes.set h 2 (Char.chr ((len lsr 8) land 0xff));
    Bytes.set h 3 (Char.chr (len land 0xff));
    Bytes.to_string h ^ s
  in
  let big = String.init 200_000 (fun i -> Char.chr (i mod 251)) in
  let small = "tiny" in
  let raw = frame big ^ frame small in
  let frames = ref [] in
  let drain () =
    match Conn.handle_readable conn with
    | `Msgs (fs, _) -> frames := !frames @ fs
    | `Eof -> Alcotest.fail "unexpected eof"
  in
  let pos = ref 0 in
  while !pos < String.length raw do
    let n = min 8192 (String.length raw - !pos) in
    let w = Unix.write_substring a raw !pos n in
    pos := !pos + w;
    drain ()
  done;
  drain ();
  (match !frames with
  | [ f1; f2 ] ->
      Alcotest.(check string) "big frame intact" big f1;
      Alcotest.(check string) "small frame intact" small f2
  | fs -> Alcotest.failf "expected 2 frames, got %d" (List.length fs));
  Alcotest.(check int)
    "payload accounting"
    (String.length big + String.length small)
    (Conn.bytes_in conn);
  Conn.close conn;
  match Unix.close a with
  | () -> ()
  | exception Unix.Unix_error _ -> ()

(* ---- the real thing: TCP against a forked daemon ---- *)

let with_forked_daemon ?config files f =
  let daemon = Daemon.create ?config files in
  let port = Daemon.listen daemon ~host:"127.0.0.1" ~port:0 in
  match Unix.fork () with
  | 0 ->
      (* Child: serve until SIGTERM flips the stop flag. *)
      Sys.set_signal Sys.sigterm
        (Sys.Signal_handle (fun _ -> Daemon.request_stop daemon));
      (match Daemon.run ~timeout_s:0.02 ~drain_s:1.0 daemon with
      | () -> ()
      | exception _ -> ());
      Unix._exit 0
  | pid ->
      Fun.protect
        ~finally:(fun () ->
          (match Unix.kill pid Sys.sigterm with
          | () -> ()
          | exception Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid))
        (fun () -> f port)

let test_tcp_pull () =
  let server_files = mk_files 11 8 in
  let client_files = mutate_some 11 server_files in
  with_forked_daemon server_files (fun port ->
      let r =
        Pull.run ~host:"127.0.0.1" ~port ~idle_timeout_s:10.0 client_files
      in
      check_files "tcp pull converges" server_files r.Pull.files;
      Alcotest.(check int) "first attempt" 1 r.Pull.attempts;
      (* A pull under a faulty link retries until it converges.  The
         schedule is a pure function of the seed; this one corrupts
         frames on the first attempts and lets a later one through. *)
      let fault =
        match Fsync_net.Fault.parse "corrupt=0.2" with
        | Ok spec -> spec
        | Error e -> Alcotest.fail e
      in
      let r2 =
        Pull.run ~attempts:12 ~fault ~seed:42 ~host:"127.0.0.1" ~port
          ~idle_timeout_s:5.0 client_files
      in
      check_files "faulted pull converges" server_files r2.Pull.files;
      Alcotest.(check bool) "needed a retry" true (r2.Pull.attempts > 1))

(* ---- sigcache lookup accounting (stats contract) ---- *)

let test_sigcache_lookup_stats () =
  let c = Sigcache.create () in
  (* The zero-lookup convention: an untouched cache reports rate 0.0,
     not NaN and not a flattering 1.0. *)
  Alcotest.(check int) "no lookups yet" 0 (Sigcache.stats c).Sigcache.lookups;
  Alcotest.(check (float 0.0)) "hit rate at zero lookups" 0.0
    (Sigcache.hit_rate c);
  Alcotest.(check (float 0.0)) "warm rate at zero lookups" 0.0
    (Sigcache.warm_hit_rate c);
  let saves = ref [] in
  Sigcache.set_persist c
    { Sigcache.save = (fun ~fp:_ ~size ~bits:_ _ -> saves := size :: !saves) };
  let content = String.make 4096 'q' in
  let fp = Fp.of_string content in
  ignore (Sigcache.find_or_compute c ~fp ~size:2048 ~bits:30 content);
  ignore (Sigcache.find_or_compute c ~fp ~size:2048 ~bits:30 content);
  let s = Sigcache.stats c in
  Alcotest.(check int) "lookups = hits + misses" 2 s.Sigcache.lookups;
  Alcotest.(check int) "one hit" 1 s.Sigcache.hits;
  Alcotest.(check int) "one miss" 1 s.Sigcache.misses;
  Alcotest.(check (float 1e-9)) "hit rate" 0.5 (Sigcache.hit_rate c);
  Alcotest.(check (list int)) "miss persisted, hit not" [ 2048 ] !saves;
  (* Seeding is not a lookup; a hit on the seeded entry is a warm hit. *)
  let content2 = String.make 4096 'w' in
  let fp2 = Fp.of_string content2 in
  Sigcache.seed c ~fp:fp2 ~size:1024 ~bits:30
    (Sigcache.compute content2 ~size:1024 ~bits:30);
  Alcotest.(check int) "seed is no lookup" 2
    (Sigcache.stats c).Sigcache.lookups;
  Alcotest.(check int) "warmed" 1 (Sigcache.stats c).Sigcache.warmed;
  let v, hit = Sigcache.find_or_compute c ~fp:fp2 ~size:1024 ~bits:30 content2 in
  Alcotest.(check bool) "warm entry hits" true hit;
  Alcotest.(check (array int)) "warm vector correct"
    (Sigcache.compute content2 ~size:1024 ~bits:30) v;
  Alcotest.(check int) "warm hit counted" 1
    (Sigcache.stats c).Sigcache.warm_hits;
  Alcotest.(check (list int)) "warm hit not re-persisted" [ 2048 ] !saves

(* ---- push direction: loopback, dedup, warm restart ---- *)

module Store = Fsync_store.Store

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_store_root f =
  let dir = Filename.temp_file "fsync_sstore" "" in
  Sys.remove dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let test_push_loopback () =
  (* Storeless daemon: every chunk is requested, the pushed tree
     replaces/extends the served collection. *)
  let served = mk_files 21 4 in
  let tree = mk_files 22 6 in
  let daemon = Daemon.create served in
  (match Loopback.run_pushes ~daemon [ tree ] with
  | [ r ] ->
      Alcotest.(check int) "all files pushed" 6
        r.Loopback.pusher.Pusher.files_pushed;
      Alcotest.(check int) "no store, everything uploaded"
        r.Loopback.pusher.Pusher.chunks_total
        r.Loopback.pusher.Pusher.chunks_sent
  | _ -> Alcotest.fail "one result expected");
  (* mk_files 22 6 covers every path of mk_files 21 4, so the daemon
     now serves exactly the pushed tree — visible to the next puller. *)
  (match Loopback.run_pulls ~daemon [ [] ] with
  | [ r ] -> check_files "pushed tree served" tree r.Loopback.files
  | _ -> Alcotest.fail "one result expected");
  let ds = Daemon.stats daemon in
  Alcotest.(check int) "both sessions completed" 2 ds.Daemon.completed;
  Alcotest.(check int) "none failed" 0 ds.Daemon.failed;
  Daemon.shutdown daemon

let overlap_trees seed =
  (* Two trees sharing > 50% of their content by byte volume. *)
  let rng = Prng.create (Int64.of_int seed) in
  let gen lines = Fsync_workload.Text_gen.c_like rng ~lines in
  let shared =
    List.init 6 (fun i -> (Printf.sprintf "shared/f%02d.txt" i, gen 120))
  in
  let uniq tag =
    List.init 2 (fun i -> (Printf.sprintf "%s/g%02d.txt" tag i, gen 100))
  in
  (shared @ uniq "a", shared @ uniq "b")

let push_two ~daemon tree_a tree_b =
  (* Sequential runs so the second push sees what the first stored. *)
  let first l = match l with [ r ] -> r | _ -> Alcotest.fail "one result" in
  let _ = first (Loopback.run_pushes ~daemon [ tree_a ]) in
  first (Loopback.run_pushes ~daemon [ tree_b ])

let test_push_dedup_two_clients () =
  let tree_a, tree_b = overlap_trees 33 in
  (* Baseline: no store, the second client re-uploads everything. *)
  let d0 = Daemon.create [] in
  let base = push_two ~daemon:d0 tree_a tree_b in
  Daemon.shutdown d0;
  Alcotest.(check int) "baseline uploads all chunks"
    base.Loopback.pusher.Pusher.chunks_total
    base.Loopback.pusher.Pusher.chunks_sent;
  with_store_root (fun root ->
      let store = Store.open_store root in
      let d1 = Daemon.create ~store [] in
      let dedup = push_two ~daemon:d1 tree_a tree_b in
      Daemon.shutdown d1;
      Alcotest.(check bool) "shared chunks skipped" true
        (dedup.Loopback.pusher.Pusher.chunks_sent
        < dedup.Loopback.pusher.Pusher.chunks_total);
      Alcotest.(check bool) "dedup bytes accounted" true
        (dedup.Loopback.pusher.Pusher.bytes_deduped > 0);
      (* The acceptance bar: the second client's wire bytes drop by at
         least 40% against the store-less daemon. *)
      let up = float_of_int dedup.Loopback.up_bytes in
      let base_up = float_of_int base.Loopback.up_bytes in
      if up > 0.6 *. base_up then
        Alcotest.failf "second push sent %.0f bytes, baseline %.0f (%.0f%%)"
          up base_up (100.0 *. up /. base_up);
      (* Both full trees are served back intact. *)
      (match Loopback.run_pulls ~daemon:d1 [ [] ] with
      | [ r ] ->
          check_files "merged collection served"
            (sorted tree_b
            @ List.filter (fun (p, _) -> not (List.mem_assoc p tree_b)) tree_a)
            r.Loopback.files
      | _ -> Alcotest.fail "one result expected");
      Store.close store)

(* ---- batched push (fsyncd/1 rev 5): flat round trips, typed frames ---- *)

let test_push_roundtrips_flat () =
  (* Every file of a push moves in lockstep: hello, begin/need and
     data/ack+bye, whatever the file count. *)
  List.iter
    (fun n ->
      let tree = mk_files (500 + n) n in
      let daemon = Daemon.create [] in
      (match Loopback.run_pushes ~daemon [ tree ] with
      | [ r ] ->
          Alcotest.(check int)
            (Printf.sprintf "%d files pushed" n)
            n r.Loopback.pusher.Pusher.files_pushed;
          if r.Loopback.roundtrips > 4 then
            Alcotest.failf "a push of %d files took %d round trips" n
              r.Loopback.roundtrips
      | _ -> Alcotest.fail "one result expected");
      (match Loopback.run_pulls ~daemon [ [] ] with
      | [ r ] -> check_files "pushed tree served" tree r.Loopback.files
      | _ -> Alcotest.fail "one result expected");
      Daemon.shutdown daemon)
    [ 1; 10; 100 ]

let push_item ~slot path content =
  let fp = Fp.of_string content in
  ( slot,
    { Msg.path; file_len = String.length content; fp;
      manifest = [ (fp, String.length content) ] } )

(* A server session past its Hello, fed encoded frames; uploads need a
   publisher, without one the session is read-only. *)
let push_session ?(publish = fun ~path:_ ~content:_ -> ()) () =
  let s = Session.create ~publish ~cache:(Sigcache.create ()) [] in
  ignore
    (Session.on_message s
       (Msg.encode ~config:cfg
          (Msg.Hello { version = Msg.version; trace = None; swarm = None })));
  s

let feed s m = Session.on_message s (Msg.encode ~config:cfg m)

(* A payload whose leading varint declares [n] bytes, stored mode. *)
let declaring n =
  let b = Buffer.create 16 in
  Fsync_util.Varint.write b n;
  Buffer.add_char b '\000';
  Buffer.contents b

let test_push_frames_rejected () =
  let enc m = Msg.encode ~config:cfg m in
  let decode raw () = Msg.decode ~config:cfg raw in
  let a = push_item ~slot:0 "a" "alpha" and b = push_item ~slot:1 "b" "beta" in
  (* descending and duplicate slots fail in the decoder *)
  expect_typed "descending begin slots" (decode (enc (Msg.Push_begin [ b; a ])));
  expect_typed "repeated begin slot"
    (decode (enc (Msg.Push_begin [ a; (0, snd b) ])));
  expect_typed "descending need slots"
    (decode (enc (Msg.Chunk_need [ (3, "\x80"); (1, "\x80") ])));
  expect_typed "repeated need slot"
    (decode (enc (Msg.Chunk_need [ (2, "\x80"); (2, "") ])));
  expect_typed "need bitmap past the frame" (decode "N\x00\x32ab");
  let read_only = Session.create ~cache:(Sigcache.create ()) [] in
  ignore
    (Session.on_message read_only
       (enc (Msg.Hello { version = Msg.version; trace = None; swarm = None })));
  expect_typed "a read-only session refuses uploads" (fun () ->
      feed read_only (Msg.Push_begin [ a ]));
  (* out of range on the server: slots open in order, once *)
  expect_typed "first slot not 0" (fun () ->
      feed (push_session ()) (Msg.Push_begin [ push_item ~slot:1 "b" "beta" ]));
  expect_typed "an empty begin turn" (fun () ->
      feed (push_session ()) (Msg.Push_begin []));
  let s = push_session () in
  ignore (feed s (Msg.Push_begin [ a ]));
  ignore (feed s (Msg.Chunk_data (Fsync_compress.Deflate.compress "alpha")));
  expect_typed "slot reopened" (fun () -> feed s (Msg.Push_begin [ a ]));
  (* chunk data before any chunk was asked for *)
  expect_typed "data before the first need" (fun () ->
      feed (push_session ()) (Msg.Chunk_data (Fsync_compress.Deflate.compress "")));
  let s = push_session () in
  ignore (feed s (Msg.Push_begin [ a ]));
  ignore (feed s (Msg.Chunk_data (Fsync_compress.Deflate.compress "alpha")));
  expect_typed "a second data frame in one turn" (fun () ->
      feed s (Msg.Chunk_data (Fsync_compress.Deflate.compress "")));
  let s = push_session () in
  ignore (feed s (Msg.Push_begin [ a ]));
  expect_typed "begin before the data it owes" (fun () ->
      feed s (Msg.Push_begin [ push_item ~slot:1 "b" "beta" ]));
  (* a payload whose declared length is not the turn's needed total *)
  List.iter
    (fun (what, z) ->
      let s = push_session () in
      ignore (feed s (Msg.Push_begin [ a; b ]));
      expect_typed what (fun () -> feed s (Msg.Chunk_data z)))
    [
      ("payload one byte long", Fsync_compress.Deflate.compress "alphabetax");
      ("payload short", Fsync_compress.Deflate.compress "alpha");
      ("payload declaring 2^50", declaring (1 lsl 50));
      ("payload without a length", "");
    ];
  (* the right length with the wrong bytes fails the chunk hash *)
  let s = push_session () in
  ignore (feed s (Msg.Push_begin [ a; b ]));
  expect_typed "chunk bytes swapped" (fun () ->
      feed s (Msg.Chunk_data (Fsync_compress.Deflate.compress "betaalpha")));
  (* out of range, repeated or unowed on the client *)
  let pusher () =
    let p = Pusher.create [ ("a", "alpha"); ("b", "beta") ] in
    ignore (Pusher.start p);
    let welcome =
      Msg.Welcome
        { version = Msg.version; file_count = 0; root = Fp.of_string ""; config = cfg }
    in
    (match List.map (Msg.decode ~config:cfg) (Pusher.on_message p (enc welcome)) with
    | [ Msg.Push_begin [ (0, _); (1, _) ] ] -> ()
    | _ -> Alcotest.fail "both files open in the first turn");
    p
  in
  let to_p p m () = Pusher.on_message p (enc m) in
  expect_typed "need past the slots" (to_p (pusher ()) (Msg.Chunk_need [ (2, "\x80") ]));
  expect_typed "ack before any data" (to_p (pusher ()) (Msg.File_ack [ (0, true) ]));
  expect_typed "bye with slots unanswered"
    (to_p (pusher ()) (Msg.Bye { root = Fp.of_string "" }));
  let p = pusher () in
  ignore (to_p p (Msg.Chunk_need [ (0, "\x80") ]) ());
  expect_typed "slot twice in one turn" (to_p p (Msg.Chunk_need [ (0, "\x80") ]));
  expect_typed "bitmap of the wrong size"
    (to_p (pusher ()) (Msg.Chunk_need [ (0, "\x80\x80") ]))

let test_hostile_push_teardown () =
  (* A push declaring a 2^50-byte file must fail its own session typed:
     an allocation sized by that length would raise Out_of_memory,
     which Error.guard does not convert, and stop the event loop for
     every session. *)
  let server_files = mk_files 97 5 in
  let daemon = Daemon.create server_files in
  let hostile payload =
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Daemon.add_connection daemon b;
    let tr = Fsync_net.Fd_transport.of_fd a in
    let ch = Fsync_net.Fd_transport.channel tr in
    let fp = Fp.of_string "evil" in
    List.iter
      (fun m ->
        Channel.send ch ~label:"t" Channel.Client_to_server
          (Msg.encode ~config:cfg m))
      [
        Msg.Hello { version = Msg.version; trace = None; swarm = None };
        Msg.Push_begin
          [ (0, { Msg.path = "evil"; file_len = 1 lsl 50; fp;
                  manifest = [ (fp, 1 lsl 50) ] }) ];
        Msg.Chunk_data payload;
      ];
    tr
  in
  let hostiles = [ hostile "\x05junk"; hostile (declaring (1 lsl 50)) ] in
  let client_files = mutate_some 97 server_files in
  (match Loopback.run_pulls ~daemon [ client_files ] with
  | [ r ] -> check_files "concurrent pull completes" server_files r.Loopback.files
  | _ -> Alcotest.fail "one result expected");
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Daemon.active_sessions daemon > 0 && Unix.gettimeofday () < deadline do
    Daemon.step ~timeout_s:0.01 daemon
  done;
  let ds = Daemon.stats daemon in
  Alcotest.(check int) "hostile sessions failed" 2 ds.Daemon.failed;
  Alcotest.(check int) "the pull completed" 1 ds.Daemon.completed;
  List.iter
    (fun tr ->
      let ch = Fsync_net.Fd_transport.channel tr in
      let rec last acc =
        match Channel.recv_opt ch Channel.Server_to_client with
        | Some raw -> last (Some (Msg.decode ~config:cfg raw))
        | None | (exception Fsync_net.Fd_transport.Closed) -> acc
      in
      (match last None with
      | Some (Msg.Error_msg _) -> ()
      | Some m -> Alcotest.failf "expected Error_msg, got %s" (Msg.label m)
      | None -> Alcotest.fail "expected the typed teardown");
      Fsync_net.Fd_transport.close tr)
    hostiles;
  Daemon.shutdown daemon

let test_push_store_retry_batched () =
  (* A resident chunk corrupted under the bitmap: the server asks for
     that file again, all of it, in the turn that acks the others. *)
  let served = mk_files 43 3 in
  with_store_root (fun root ->
      let store = Store.open_store root in
      let reg = Fsync_obs.Registry.create () in
      let daemon =
        Daemon.create ~scope:(Fsync_obs.Scope.of_registry reg) ~store served
      in
      let victim, _ = List.hd served in
      (match Store.manifest store ~path:victim with
      | Some ((cfp, _) :: _) ->
          let hex = Fp.to_hex cfp in
          let path =
            Filename.concat root
              (Filename.concat "chunks" (Filename.concat (String.sub hex 0 2) hex))
          in
          Out_channel.with_open_bin path (fun oc -> output_string oc "garbage")
      | Some [] | None -> Alcotest.fail "the victim has no manifest");
      let tree =
        List.hd served :: List.map (fun (p, c) -> ("up/" ^ p, c)) (mk_files 44 2)
      in
      (match Loopback.run_pushes ~daemon [ tree ] with
      | [ r ] ->
          Alcotest.(check int) "every file pushed" (List.length tree)
            r.Loopback.pusher.Pusher.files_pushed;
          Alcotest.(check bool) "retry inside the round-trip bound" true
            (r.Loopback.roundtrips <= 4)
      | _ -> Alcotest.fail "one result expected");
      Alcotest.(check int) "one store retry" 1
        (Fsync_obs.Registry.counter reg "push_store_retries");
      Daemon.shutdown daemon;
      Store.close store)

let test_daemon_restart_warm () =
  let server_files = mk_files 41 10 in
  let client_files = mutate_some 41 server_files in
  with_store_root (fun root ->
      let misses_first =
        let store = Store.open_store root in
        let d = Daemon.create ~store server_files in
        (match Loopback.run_pulls ~daemon:d [ client_files ] with
        | [ r ] -> check_files "first pull converges" server_files r.Loopback.files
        | _ -> Alcotest.fail "one result expected");
        let s = Sigcache.stats (Daemon.cache d) in
        Daemon.shutdown d;
        Store.close store;
        s.Sigcache.misses
      in
      Alcotest.(check bool) "first run computed vectors" true
        (misses_first > 0);
      (* Kill/restart: a fresh store handle and daemon over the same
         root must warm-start from the persisted vectors. *)
      let store = Store.open_store root in
      let d = Daemon.create ~store server_files in
      Alcotest.(check int) "every vector reloaded" misses_first
        (Daemon.sigs_loaded d);
      (match Loopback.run_pulls ~daemon:d [ client_files ] with
      | [ r ] -> check_files "second pull converges" server_files r.Loopback.files
      | _ -> Alcotest.fail "one result expected");
      let c = Daemon.cache d in
      let s = Sigcache.stats c in
      Alcotest.(check int) "nothing recomputed" 0 s.Sigcache.misses;
      let rate = Sigcache.warm_hit_rate c in
      if rate < 0.9 then
        Alcotest.failf "warm hit rate %.2f < 0.9 (%d/%d)" rate
          s.Sigcache.warm_hits s.Sigcache.lookups;
      Daemon.shutdown d;
      Store.close store)

(* ---- resumable sessions, busy shedding, SIGKILL soak ---- *)

(* Drive puller<->session over an in-memory exchange; stop abruptly (a
   simulated client kill) once [abort_after] files completed.  Returns
   server-to-client payload bytes. *)
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

let test_resume_pull () =
  let server_files =
    List.init 12 (fun i ->
        ( Printf.sprintf "f%02d.txt" i,
          Fsync_workload.Text_gen.c_like
            (Prng.create (Int64.of_int (50 + i)))
            ~lines:60 ))
  in
  let mk_session () = Session.create ~cache:(Sigcache.create ()) server_files in
  (* Cold pull from nothing: the baseline payload. *)
  let cold_puller = Puller.create [] in
  let cold = pump (mk_session ()) cold_puller in
  Alcotest.(check bool) "cold pull finishes" true (Puller.finished cold_puller);
  (* Kill the client after 10 of 12 files, reconnect with the token. *)
  let p1 = Puller.create [] in
  let (_ : int) = pump ~abort_after:10 (mk_session ()) p1 in
  Alcotest.(check bool) "interrupted mid-session" false (Puller.finished p1);
  let token =
    match Puller.resume_token p1 with
    | Some t -> t
    | None -> Alcotest.fail "interrupted puller must yield a token"
  in
  Alcotest.(check int) "token carries completed files" 10
    (List.length token.Puller.rt_completed);
  let p2 = Puller.create ~resume:token [] in
  let s2 = mk_session () in
  let resumed = pump s2 p2 in
  Alcotest.(check bool) "resumed pull finishes" true (Puller.finished p2);
  check_files "resumed replica converges" server_files (Puller.result p2);
  Alcotest.(check int) "server skipped the completed jobs" 10
    (Session.stats s2).Session.resumed_jobs;
  Alcotest.(check int) "client accounted the skips" 10
    (Puller.stats p2).Puller.resumed_files;
  (* The acceptance bar: a resumed pull re-transfers at most 25% of the
     cold payload. *)
  if float_of_int resumed > 0.25 *. float_of_int cold then
    Alcotest.failf "resumed pull re-transferred %d of %d cold bytes (> 25%%)"
      resumed cold;
  (* A server whose collection moved on ignores the stale token: no
     skips, but the pull still converges. *)
  let changed =
    ("f00.txt", "entirely different contents") :: List.tl server_files
  in
  let s3 = Session.create ~cache:(Sigcache.create ()) changed in
  let p3 = Puller.create ~resume:token [] in
  let (_ : int) = pump s3 p3 in
  Alcotest.(check bool) "stale-token pull finishes" true (Puller.finished p3);
  check_files "stale token converges on the new tree" changed
    (Puller.result p3);
  Alcotest.(check int) "stale token skips nothing" 0
    (Session.stats s3).Session.resumed_jobs

let test_resume_changed_pull () =
  (* Kill a pull of changed files while its tails arrive: the resumed
     session skips exactly the files that verified, and serves the rest
     through the hash rounds again. *)
  let server_files =
    List.init 12 (fun i ->
        ( Printf.sprintf "g%02d.c" i,
          Fsync_workload.Text_gen.c_like
            (Prng.create (Int64.of_int (70 + i)))
            ~lines:80 ))
  in
  let client_files = mutate_all 7 server_files in
  let mk_session () = Session.create ~cache:(Sigcache.create ()) server_files in
  let p1 = Puller.create client_files in
  let (_ : int) = pump ~abort_after:5 (mk_session ()) p1 in
  Alcotest.(check bool) "interrupted mid-session" false (Puller.finished p1);
  Alcotest.(check bool) "killed after the hash rounds" true
    ((Puller.stats p1).Puller.rounds > 0
    && (Puller.stats p1).Puller.matched_bytes > 0);
  let token =
    match Puller.resume_token p1 with
    | Some t -> t
    | None -> Alcotest.fail "interrupted puller must yield a token"
  in
  let verified = token.Puller.rt_completed in
  Alcotest.(check int) "token carries the verified files" 5 (List.length verified);
  List.iter
    (fun (p, c) ->
      Alcotest.(check string) ("verified " ^ p) (List.assoc p server_files) c)
    verified;
  (* The resumed session: count the slots it opens. *)
  let s2 = mk_session () in
  let p2 = Puller.create ~resume:token client_files in
  let opened = Hashtbl.create 16 in
  let q = Queue.create () in
  List.iter (fun f -> Queue.add f q) (Puller.start p2);
  while not (Queue.is_empty q || Puller.finished p2) do
    List.iter
      (fun r ->
        (match Msg.decode ~config:cfg r with
        | Msg.File_begin items ->
            List.iter (fun (slot, _) -> Hashtbl.replace opened slot ()) items
        | Msg.Full { slot; _ } -> Hashtbl.replace opened slot ()
        | _ -> ());
        List.iter (fun f -> Queue.add f q) (Puller.on_message p2 r))
      (Session.on_message s2 (Queue.pop q))
  done;
  Alcotest.(check bool) "resumed pull finishes" true (Puller.finished p2);
  check_files "resumed replica converges" server_files (Puller.result p2);
  Alcotest.(check int) "server skipped exactly the verified files" 5
    (Session.stats s2).Session.resumed_jobs;
  Alcotest.(check int) "and opened the other seven" 7 (Hashtbl.length opened);
  Alcotest.(check bool) "through hash rounds again" true
    ((Session.stats s2).Session.rounds > 0)

let test_busy_shed () =
  (* max_sessions = 0: every connection is shed with a typed Busy. *)
  let config = { Daemon.default_config with Daemon.max_sessions = 0 } in
  with_forked_daemon ~config (mk_files 61 3) (fun port ->
      (match
         Pull.run ~attempts:1 ~host:"127.0.0.1" ~port ~idle_timeout_s:5.0 []
       with
      | _ -> Alcotest.fail "pull against a full daemon must raise Busy"
      | exception
          Fsync_core.Error.E (Fsync_core.Error.Busy { retry_after_s }) ->
          Alcotest.(check bool) "retry-after carried" true
            (retry_after_s > 0.0));
      (* A retrying push honours the server's retry-after between
         attempts before giving up with the same typed error. *)
      let t0 = Unix.gettimeofday () in
      match
        Push.run ~attempts:2 ~host:"127.0.0.1" ~port ~idle_timeout_s:5.0
          [ ("x.txt", "y") ]
      with
      | _ -> Alcotest.fail "push against a full daemon must raise Busy"
      | exception Fsync_core.Error.E (Fsync_core.Error.Busy _) ->
          let elapsed = Unix.gettimeofday () -. t0 in
          Alcotest.(check bool)
            (Printf.sprintf "slept retry-after between attempts (%.3fs)"
               elapsed)
            true
            (elapsed >= 0.3))

let test_push_resume_between_turns () =
  (* Five 1 MiB files: the first four fill a turn's budget, so the push
     takes two data turns.  The link breaks on the second data frame,
     after the first turn's acks arrived; the retry inside Push.run
     re-sends only the unacked file. *)
  let mib = 1 lsl 20 in
  let tree =
    List.init 5 (fun i ->
        ( Printf.sprintf "big/f%d.bin" i,
          String.init mib (fun j -> Char.chr (97 + ((j * (i + 3)) mod 26))) ))
  in
  Alcotest.(check bool) "four files fill one turn" true
    (4 * mib >= Batch.turn_budget && 3 * mib < Batch.turn_budget);
  with_forked_daemon [] (fun port ->
      let fault =
        { Fsync_net.Fault.none with disconnect_after = Some 5; max_disconnects = 1 }
      in
      let r =
        Push.run ~attempts:2 ~fault ~host:"127.0.0.1" ~port ~idle_timeout_s:10.0
          tree
      in
      Alcotest.(check int) "second attempt" 2 r.Push.attempts;
      Alcotest.(check int) "acked files skipped" 4 r.Push.stats.Pusher.resumed_files;
      Alcotest.(check int) "only the unacked file re-sent" 1
        r.Push.stats.Pusher.files_pushed;
      Alcotest.(check int) "the resumed session is one turn" 3 r.Push.roundtrips;
      let pulled = Pull.run ~host:"127.0.0.1" ~port ~idle_timeout_s:10.0 [] in
      check_files "every file served" tree pulled.Pull.files)

let fork_store_daemon ~root files =
  let store = Store.open_store root in
  let daemon = Daemon.create ~store files in
  let port = Daemon.listen daemon ~host:"127.0.0.1" ~port:0 in
  match Unix.fork () with
  | 0 ->
      Sys.set_signal Sys.sigterm
        (Sys.Signal_handle (fun _ -> Daemon.request_stop daemon));
      (match Daemon.run ~timeout_s:0.02 ~drain_s:1.0 daemon with
      | () -> ()
      | exception _ -> ());
      Unix._exit 0
  | pid ->
      (* The child owns the store from here; drop the parent's handle. *)
      Store.close store;
      (port, pid)

let test_sigkill_mid_push_soak () =
  let base = mk_files 71 4 in
  let tree = mk_files 72 10 in
  with_store_root (fun root ->
      (* SIGKILL the daemon at seeded instants mid-push; after every
         kill the store must reopen fsck-clean. *)
      List.iter
        (fun delay ->
          let port, pid = fork_store_daemon ~root base in
          let killer =
            match Unix.fork () with
            | 0 ->
                Unix.sleepf delay;
                (match Unix.kill pid Sys.sigkill with
                | () -> ()
                | exception Unix.Unix_error _ -> ());
                Unix._exit 0
            | kpid -> kpid
          in
          (match
             Push.run ~attempts:1 ~host:"127.0.0.1" ~port ~idle_timeout_s:2.0
               tree
           with
          | (_ : Push.outcome) -> () (* the push beat the killer: fine *)
          | exception Fsync_core.Error.E _ -> ()
          | exception Fsync_net.Fd_transport.Closed -> ()
          | exception Unix.Unix_error _ -> ());
          (match Unix.kill pid Sys.sigkill with
          | () -> ()
          | exception Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid);
          ignore (Unix.waitpid [] killer);
          let s = Store.open_store root in
          (match Store.fsck_errors (Store.fsck s) with
          | [] -> ()
          | errs ->
              Alcotest.failf "fsck after SIGKILL at +%.3fs: %d error(s)" delay
                (List.length errs));
          Store.close s)
        [ 0.005; 0.015; 0.03; 0.06 ];
      (* Weather cleared: push then pull must converge byte-identically
         (the pushed tree covers every base path). *)
      let port, pid = fork_store_daemon ~root base in
      Fun.protect
        ~finally:(fun () ->
          (match Unix.kill pid Sys.sigterm with
          | () -> ()
          | exception Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid))
        (fun () ->
          let (_ : Push.outcome) =
            Push.run ~host:"127.0.0.1" ~port ~idle_timeout_s:10.0 tree
          in
          let r = Pull.run ~host:"127.0.0.1" ~port ~idle_timeout_s:10.0 [] in
          check_files "post-crash push+pull converges" tree r.Pull.files))

(* ---- telemetry: trace propagation, admin plane, event log ---- *)

module Scope = Fsync_obs.Scope
module Registry = Fsync_obs.Registry
module Trace_id = Fsync_obs.Trace_id
module Json = Fsync_obs.Json

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec loop i =
    i + nn <= nh && (String.sub haystack i nn = needle || loop (i + 1))
  in
  nn = 0 || loop 0

let read_lines path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (if String.trim line = "" then acc else line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let test_hello_version_compat () =
  let files = mk_files 91 2 in
  let mk () = Session.create ~cache:(Sigcache.create ()) files in
  let hello v trace = Msg.encode ~config:cfg (Msg.Hello { version = v; trace; swarm = None }) in
  (* Revision 5 is a clean break: Hellos of revisions 1-4 (with or
     without a trace id), and any revision past the current one, are
     rejected with a typed error and fail the session. *)
  List.iter
    (fun (v, trace) ->
      let s = mk () in
      match Session.on_message s (hello v trace) with
      | exception Fsync_core.Error.E (Fsync_core.Error.Malformed _) ->
          Alcotest.(check bool)
            (Printf.sprintf "v%d session failed" v)
            true (Session.failed s)
      | exception e ->
          Alcotest.failf "version %d: untyped %s" v (Printexc.to_string e)
      | _ -> Alcotest.failf "version %d accepted" v)
    [
      (0, None); (1, None); (2, Some (String.make Msg.trace_bytes '\001'));
      (3, None); (4, None); (Msg.version + 1, None);
    ];
  (* A v5 client's trace id is adopted verbatim, and the Welcome
     answers at v5. *)
  let id = Trace_id.mint () in
  let s5 = mk () in
  (match Session.on_message s5 (hello Msg.version (Some (Trace_id.to_raw id))) with
  | [ reply ] -> (
      match Msg.decode ~config:cfg reply with
      | Msg.Welcome { version; _ } ->
          Alcotest.(check int) "welcome at v5" 5 version
      | m -> Alcotest.failf "expected Welcome, got %s" (Msg.label m))
  | l -> Alcotest.failf "expected 1 reply, got %d" (List.length l));
  match Session.trace_id s5 with
  | Some sid ->
      Alcotest.(check bool) "wire id adopted" true (Trace_id.equal id sid)
  | None -> Alcotest.fail "v5 hello left no trace id"

let test_trace_shared_id_and_coverage () =
  let server_files = mk_files 83 6 in
  let client_files = mutate_some 83 server_files in
  let creg = Registry.create () and sreg = Registry.create () in
  let tid = Trace_id.mint () in
  (* What Pull.run does for the client half; the server half happens
     inside the session when the Hello arrives. *)
  Registry.set_trace creg ~trace:(Trace_id.to_hex tid) ~role:"client";
  let session =
    Session.create
      ~trace:(Scope.of_registry sreg)
      ~cache:(Sigcache.create ()) server_files
  in
  let puller =
    Puller.create ~scope:(Scope.of_registry creg) ~trace_id:tid client_files
  in
  let (_ : int) = pump session puller in
  Alcotest.(check bool) "pull finished" true (Puller.finished puller);
  check_files "converged" server_files (Puller.result puller);
  (match Session.trace_id session with
  | Some sid ->
      Alcotest.(check bool) "server adopted the wire id" true
        (Trace_id.equal tid sid)
  | None -> Alcotest.fail "server has no trace id");
  (* Both streams merge into one session keyed by the shared id, with
     phase spans tiling the session span on both roles. *)
  let lines =
    List.filter
      (fun l -> String.trim l <> "")
      (String.split_on_char '\n'
         (Registry.to_jsonl creg ^ Registry.to_jsonl sreg))
  in
  let module R = Fsync_obs.Trace_report in
  match R.of_lines lines with
  | Error e -> Alcotest.failf "trace report: %s" e
  | Ok [ s ] ->
      Alcotest.(check string) "merged on the shared id"
        (Trace_id.to_hex tid) s.R.trace;
      Alcotest.(check (list string)) "both roles" [ "client"; "server" ]
        (List.sort compare s.R.roles);
      if s.R.coverage < 0.95 then
        Alcotest.failf "phase coverage %.3f < 0.95" s.R.coverage;
      List.iter
        (fun name ->
          Alcotest.(check bool) (name ^ " present") true
            (List.exists (fun p -> p.R.p_name = name) s.R.phases))
        [ "phase:metadata"; "phase:hash_rounds" ]
  | Ok l -> Alcotest.failf "expected 1 merged session, got %d" (List.length l)

let with_forked_admin_daemon ?config files f =
  let daemon = Daemon.create ?config files in
  let port = Daemon.listen daemon ~host:"127.0.0.1" ~port:0 in
  let admin_port = Daemon.admin_listen daemon ~host:"127.0.0.1" ~port:0 in
  match Unix.fork () with
  | 0 ->
      Sys.set_signal Sys.sigterm
        (Sys.Signal_handle (fun _ -> Daemon.request_stop daemon));
      (match Daemon.run ~timeout_s:0.02 ~drain_s:1.0 daemon with
      | () -> ()
      | exception _ -> ());
      Unix._exit 0
  | pid ->
      Fun.protect
        ~finally:(fun () ->
          (match Unix.kill pid Sys.sigterm with
          | () -> ()
          | exception Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid))
        (fun () -> f port admin_port)

let test_admin_socket_tcp () =
  let server_files = mk_files 71 5 in
  let client_files = mutate_some 71 server_files in
  with_forked_admin_daemon server_files (fun port admin_port ->
      let host = "127.0.0.1" in
      (* A well-formed scrape names the native daemon series. *)
      let metrics = Admin.metrics ~host ~port:admin_port () in
      List.iter
        (fun needle ->
          Alcotest.(check bool) ("scrape has " ^ needle) true
            (contains metrics needle))
        [
          "# TYPE fsync_sessions_active gauge";
          "fsync_sessions_accepted";
          "fsync_uptime_s";
        ];
      (* The status document is schema-tagged and structured. *)
      let doc = Admin.status ~host ~port:admin_port () in
      Alcotest.(check (option string)) "schema" (Some "fsyncd-status/1")
        (Option.bind (Json.member "schema" doc) Json.to_string_opt);
      Alcotest.(check bool) "sessions object present" true
        (Json.member "sessions" doc <> None);
      (* A hostile HTTP probe: "GET " reads as a ~1.2 GB frame header,
         which the framing layer rejects; the daemon must close only
         that one connection. *)
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, admin_port));
      let probe = "GET / HTTP/1.0\r\n\r\n" in
      let (_ : int) =
        Unix.write_substring fd probe 0 (String.length probe)
      in
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
      let buf = Bytes.create 64 in
      (match Unix.read fd buf 0 64 with
      | 0 -> ()
      | n -> Alcotest.failf "HTTP probe got %d reply bytes" n
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
          ());
      Unix.close fd;
      (* Data sessions never noticed: a pull still converges... *)
      let r = Pull.run ~host ~port ~idle_timeout_s:10.0 client_files in
      check_files "pull after probe converges" server_files r.Pull.files;
      (* ...and the daemon accounted exactly one hostile teardown. *)
      let doc2 = Admin.status ~host ~port:admin_port () in
      let admin = Option.value ~default:Json.Null (Json.member "admin" doc2) in
      Alcotest.(check (option int)) "one admin error" (Some 1)
        (Option.bind (Json.member "errors" admin) Json.to_int_opt))

let test_scrape_parity () =
  let server_files = mk_files 73 6 in
  let client_files = mutate_some 73 server_files in
  let run ~scrape =
    let daemon = Daemon.create server_files in
    let admin_port = Daemon.admin_listen daemon ~host:"127.0.0.1" ~port:0 in
    let afd =
      if not scrape then None
      else begin
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd
          (Unix.ADDR_INET (Unix.inet_addr_loopback, admin_port));
        (* A pending "metrics" frame, answered by the same select loop
           that is pumping the pull below — a scrape mid-session. *)
        let frame = "\000\000\000\007metrics" in
        let (_ : int) =
          Unix.write_substring fd frame 0 (String.length frame)
        in
        Some fd
      end
    in
    let result =
      match Loopback.run_pulls ~daemon [ client_files ] with
      | [ r ] -> r
      | _ -> Alcotest.fail "expected one pull result"
    in
    (match afd with
    | Some fd ->
        (* Let the loop flush the reply, then check the scrape got a
           real exposition back. *)
        for _ = 1 to 20 do
          Daemon.step ~timeout_s:0.0 daemon
        done;
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
        let buf = Bytes.create 65536 in
        let n = Unix.read fd buf 0 65536 in
        Alcotest.(check bool) "scrape replied" true (n > 4);
        Alcotest.(check bool) "reply is an exposition" true
          (contains (Bytes.sub_string buf 0 n) "fsync_sessions_accepted");
        Unix.close fd
    | None -> ());
    check_files "pull converges" server_files result.Loopback.files;
    Daemon.shutdown daemon;
    result
  in
  let plain = run ~scrape:false in
  let scraped = run ~scrape:true in
  (* The scrape perturbed nothing: byte-for-byte identical accounting. *)
  Alcotest.(check int) "c2s bytes identical" plain.Loopback.c2s_bytes
    scraped.Loopback.c2s_bytes;
  Alcotest.(check int) "s2c bytes identical" plain.Loopback.s2c_bytes
    scraped.Loopback.s2c_bytes;
  Alcotest.(check int) "roundtrips identical" plain.Loopback.roundtrips
    scraped.Loopback.roundtrips

let test_event_log_daemon_lifecycle () =
  let root = Filename.temp_file "fsync_evlog" "" in
  Unix.unlink root;
  Unix.mkdir root 0o700;
  Fun.protect
    ~finally:(fun () -> rm_rf root)
    (fun () ->
      let evpath = Filename.concat root "events.jsonl" in
      let trpath = Filename.concat root "trace.jsonl" in
      let server_files = mk_files 79 4 in
      let daemon = Daemon.create server_files in
      (* slow_s = 0: every session is "slow", so the threshold event is
         exercised deterministically. *)
      Daemon.set_event_log daemon ~slow_s:0.0 evpath;
      Daemon.set_trace_stream daemon trpath;
      (match Loopback.run_pulls ~daemon [ mutate_some 79 server_files ] with
      | [ r ] -> check_files "pull converges" server_files r.Loopback.files
      | _ -> Alcotest.fail "expected one result");
      (* run_pulls returns as soon as the puller is done; step until the
         daemon reaps the session and writes its end-of-life events. *)
      let rec settle n =
        if n > 0 && Daemon.active_sessions daemon > 0 then begin
          Daemon.step ~timeout_s:0.0 daemon;
          settle (n - 1)
        end
      in
      settle 100;
      Daemon.shutdown daemon;
      let events =
        List.map
          (fun l ->
            match Json.parse l with
            | Ok j -> j
            | Error e -> Alcotest.failf "bad event line %S: %s" l e)
          (read_lines evpath)
      in
      let kind j = Option.bind (Json.member "event" j) Json.to_string_opt in
      List.iter
        (fun k ->
          Alcotest.(check bool) (k ^ " logged") true
            (List.exists (fun j -> kind j = Some k) events))
        [ "session_start"; "slow_session"; "session_end"; "daemon_stop" ];
      let e =
        List.find (fun j -> kind j = Some "session_end") events
      in
      (match Option.bind (Json.member "trace" e) Json.to_string_opt with
      | Some hex ->
          Alcotest.(check int) "trace id is 32 hex chars" 32
            (String.length hex)
      | None -> Alcotest.fail "session_end without trace id");
      (match Json.member "ok" e with
      | Some (Json.Bool true) -> ()
      | _ -> Alcotest.fail "session_end not ok:true");
      Alcotest.(check bool) "session_end counts bytes" true
        (match Option.bind (Json.member "bytes_out" e) Json.to_int_opt with
        | Some n -> n > 0
        | None -> false);
      (* The per-session trace stream is a joinable server-side trace
         with near-total phase coverage. *)
      let module R = Fsync_obs.Trace_report in
      match R.of_lines (read_lines trpath) with
      | Error err -> Alcotest.failf "trace stream: %s" err
      | Ok [ s ] ->
          Alcotest.(check (list string)) "server role" [ "server" ]
            s.R.roles;
          if s.R.coverage < 0.95 then
            Alcotest.failf "server phase coverage %.3f < 0.95" s.R.coverage
      | Ok l ->
          Alcotest.failf "expected 1 traced session, got %d" (List.length l))

let test_event_log_rotation_and_faults () =
  let root = Filename.temp_file "fsync_evrot" "" in
  Unix.unlink root;
  Unix.mkdir root 0o700;
  Fun.protect
    ~finally:(fun () -> rm_rf root)
    (fun () ->
      let path = Filename.concat root "ev.jsonl" in
      (* Size-based rotation: a cap of 256 bytes forces FILE -> FILE.1
         and both generations hold only whole lines. *)
      let log = Event_log.create ~max_bytes:256 path in
      for i = 1 to 40 do
        Event_log.write log
          (Json.Obj [ ("event", Json.String "tick"); ("i", Json.Int i) ])
      done;
      Event_log.close log;
      Alcotest.(check int) "no errors on the real fs" 0
        (Event_log.errors log);
      Alcotest.(check bool) "rotated generation exists" true
        (Sys.file_exists (path ^ ".1"));
      List.iter
        (fun p ->
          List.iter
            (fun l ->
              match Json.parse l with
              | Ok _ -> ()
              | Error e -> Alcotest.failf "%s: torn line %S: %s" p l e)
            (read_lines p))
        [ path; path ^ ".1" ];
      (* Under an injected always-EIO disk the sink absorbs every
         failure: errors are counted, nothing raises, and the daemon
         would keep running. *)
      let fio, _stats =
        Fsync_store.Fault_io.wrap ~seed:7
          { Fsync_store.Fault_io.none with Fsync_store.Fault_io.p_eio = 1.0 }
      in
      let flog =
        Event_log.create ~io:fio (Filename.concat root "faulty.jsonl")
      in
      for i = 1 to 5 do
        Event_log.write flog
          (Json.Obj [ ("event", Json.String "tick"); ("i", Json.Int i) ])
      done;
      Event_log.close flog;
      Alcotest.(check bool) "faulted writes counted" true
        (Event_log.errors flog > 0))

let suite =
  [
    ("msg roundtrip", `Quick, test_msg_roundtrip);
    ("msg malformed", `Quick, test_msg_malformed);
    ("bitmap roundtrip", `Quick, test_bitmap_roundtrip);
    ("batch frames rejected", `Quick, test_batch_frames_rejected);
    prop_mutated_server_turn;
    prop_mutated_client_turn;
    ("sigcache hits and eviction", `Quick, test_sigcache_hits_and_eviction);
    ("in-memory sync", `Quick, test_in_memory_sync);
    ("in-memory identical and empty", `Quick, test_in_memory_identical_and_empty);
    ("sigcache across clients", `Quick, test_sigcache_across_clients);
    ("loopback eight clients", `Quick, test_loopback_eight_clients);
    ("loopback matches in-memory", `Quick, test_loopback_matches_in_memory);
    ("round trips bounded by hash levels", `Quick, test_roundtrip_bound);
    ("turn budget caps literals", `Quick, test_turn_budget);
    ("timeout teardown", `Quick, test_timeout_teardown);
    ("protocol violation teardown", `Quick, test_protocol_violation_teardown);
    ("conn backpressure", `Quick, test_conn_backpressure);
    ("oversized frame teardown", `Quick, test_oversized_frame_teardown);
    ("conn peer gone", `Quick, test_conn_peer_gone);
    ("daemon peer gone accounting", `Quick, test_daemon_peer_gone_accounting);
    ("conn chunked frames", `Quick, test_conn_chunked_frames);
    ("tcp pull with faults", `Quick, test_tcp_pull);
    ("sigcache lookup stats", `Quick, test_sigcache_lookup_stats);
    ("push loopback", `Quick, test_push_loopback);
    ("push dedup two clients", `Quick, test_push_dedup_two_clients);
    ("push round trips flat in file count", `Quick, test_push_roundtrips_flat);
    ("push frames rejected", `Quick, test_push_frames_rejected);
    ("hostile push teardown", `Quick, test_hostile_push_teardown);
    ("push store retry batched", `Quick, test_push_store_retry_batched);
    ("daemon restart warm", `Quick, test_daemon_restart_warm);
    ("resume pull", `Quick, test_resume_pull);
    ("resume pull of changed files", `Quick, test_resume_changed_pull);
    ("busy shed", `Quick, test_busy_shed);
    ("push resume between turns", `Quick, test_push_resume_between_turns);
    ("sigkill mid-push soak", `Quick, test_sigkill_mid_push_soak);
    ("hello version compat", `Quick, test_hello_version_compat);
    ("trace shared id and coverage", `Quick, test_trace_shared_id_and_coverage);
    ("admin socket over tcp", `Quick, test_admin_socket_tcp);
    ("scrape parity", `Quick, test_scrape_parity);
    ("event log daemon lifecycle", `Quick, test_event_log_daemon_lifecycle);
    ("event log rotation and faults", `Quick, test_event_log_rotation_and_faults);
  ]
