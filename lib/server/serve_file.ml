module Fp = Fsync_hash.Fingerprint
module Block_tree = Fsync_core.Block_tree
module Error = Fsync_core.Error
module Deflate = Fsync_compress.Deflate
module Meta_wire = Fsync_collection.Meta_wire

type job = { path : string; content : string; fp : Fp.t; has_old : bool }

type counters = {
  mutable hashes_total : int;
  mutable hashes_cached : int;
  mutable full_fallbacks : int;
  mutable rounds : int;
}

let fresh_counters () =
  { hashes_total = 0; hashes_cached = 0; full_fallbacks = 0; rounds = 0 }

type send =
  | Begin of { new_len : int; fp : Fp.t; hashes : int array }
  | Hashes of int array
  | Tail of string
  | Full of string

type state =
  | Idle
  | Rounds of Block_tree.t
  | Awaiting_ack of { mutable full_sent : bool }
  | Complete

type t = {
  who : string;
  config : Msg.sync_config;
  cache : Sigcache.t;
  counters : counters;
  full_content : job -> string option;
  on_fallback : unit -> unit;
  job : job;
  mutable state : state;
}

let create ?(full_content = fun _ -> None) ?(on_fallback = fun () -> ())
    ~who ~config ~cache ~counters job =
  { who; config; cache; counters; full_content; on_fallback; job;
    state = Idle }

let expecting t =
  match t.state with
  | Idle | Rounds _ -> `Matched
  | Awaiting_ack _ -> `Ack
  | Complete -> `Done

(* The verified full-file fallback ('Z' when compression pays, 'R'
   otherwise; never 'D' — the server does not hold the client's copy).
   [full_content] lets {!Session} substitute a store-assembled payload
   for the in-memory one. *)
let full_msg t =
  let content =
    match t.full_content t.job with Some c -> c | None -> t.job.content
  in
  let z = Deflate.compress content in
  let tag, body =
    if String.length z < String.length content then ('Z', z) else ('R', content)
  in
  Full (Meta_wire.encode_file_msg ~path:t.job.path ~fp:t.job.fp ~tag ~body)

(* One round's hash burst: the cached full-level vector indexed by
   [off / size] covers every active block, whichever client asks. *)
let level_hashes t tree =
  let size = Block_tree.current_size tree in
  let vector, hit =
    Sigcache.find_or_compute t.cache ~fp:t.job.fp ~size
      ~bits:t.config.hash_bits t.job.content
  in
  let hs =
    Array.of_list
      (List.map
         (fun (b : Block_tree.block) -> vector.(b.off / size))
         (Block_tree.active_blocks tree))
  in
  t.counters.hashes_total <- t.counters.hashes_total + Array.length hs;
  if hit then t.counters.hashes_cached <- t.counters.hashes_cached + Array.length hs;
  hs

let start t =
  if
    (not t.job.has_old)
    || String.length t.job.content < 2 * t.config.min_block
  then begin
    (* No old copy to match against, or too small for even one split:
       the verified full transfer is strictly cheaper than a round. *)
    t.state <- Awaiting_ack { full_sent = true };
    full_msg t
  end
  else begin
    let tree =
      Block_tree.create
        ~file_len:(String.length t.job.content)
        ~start_block:t.config.start_block
    in
    t.state <- Rounds tree;
    Begin
      {
        new_len = String.length t.job.content;
        fp = t.job.fp;
        hashes = level_hashes t tree;
      }
  end

let on_matched t bitmap =
  match t.state with
  | Idle | Awaiting_ack _ | Complete ->
      Error.malformed "%s: Matched outside a hash round" t.who
  | Rounds tree -> (
      let active = Block_tree.active_blocks tree in
      let flags = Msg.decode_bitmap ~count:(List.length active) bitmap in
      List.iteri
        (fun i (b : Block_tree.block) -> if flags.(i) then b.confirmed <- true)
        active;
      t.counters.rounds <- t.counters.rounds + 1;
      match Msg.decide_next ~config:t.config tree with
      | `Split ->
          Block_tree.split tree;
          Hashes (level_hashes t tree)
      | `Tail ->
          let buf = Buffer.create 256 in
          List.iter
            (fun (b : Block_tree.block) ->
              Buffer.add_substring buf t.job.content b.off b.len)
            (Block_tree.active_blocks tree);
          t.state <- Awaiting_ack { full_sent = false };
          Tail (Deflate.compress (Buffer.contents buf)))

let on_ack t ok =
  match t.state with
  | Idle | Rounds _ | Complete ->
      Error.malformed "%s: ack outside a transfer" t.who
  | Awaiting_ack ack ->
      if ok then begin
        t.state <- Complete;
        None
      end
      else if ack.full_sent then
        Error.fail
          (Error.Verification_failed
             (Printf.sprintf "%s: %s rejected after verified full transfer"
                t.who t.job.path))
      else begin
        ack.full_sent <- true;
        t.counters.full_fallbacks <- t.counters.full_fallbacks + 1;
        t.on_fallback ();
        Some (full_msg t)
      end
