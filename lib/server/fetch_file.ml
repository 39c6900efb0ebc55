module Fp = Fsync_hash.Fingerprint
module Block_tree = Fsync_core.Block_tree
module Candidates = Fsync_core.Candidates
module Poly_hash = Fsync_hash.Poly_hash
module Error = Fsync_core.Error
module Deflate = Fsync_compress.Deflate

type counters = {
  mutable rounds : int;
  mutable matched_bytes : int;
  mutable literal_bytes : int;
}

let fresh_counters () = { rounds = 0; matched_bytes = 0; literal_bytes = 0 }

type t = {
  who : string;
  config : Msg.sync_config;
  counters : counters;
  new_len : int;
  fp : Fp.t;
  old : string;
  tree : Block_tree.t;
  mutable matches : (int * int * int) list; (* (new_off, len, old_pos), rev *)
  mutable delta : int; (* last observed old_pos - new_off: offset prediction *)
  mutable expect_tail : bool;
}

let create ~who ~config ~counters ~new_len ~fp ~old =
  {
    who;
    config;
    counters;
    new_len;
    fp;
    old;
    tree = Block_tree.create ~file_len:new_len ~start_block:config.start_block;
    matches = [];
    delta = 0;
    expect_tail = false;
  }

let expect_tail t = t.expect_tail

(* ---- per-round matching ---- *)

(* The window index over the old copy, built for one round and dropped
   with it: every round halves the block size, so a cached index would
   never be hit again — and with every file of a session in flight at
   once, keeping one per file would cost ~24 bytes per old byte
   collection-wide. *)
let level_index t ~size ~bits =
  if String.length t.old < size then None
  else Some (Candidates.build t.old ~window:size ~bits)

(* A block shorter than the round's window (the file tail) cannot use
   the rolling index; probe the predicted and the same-offset positions
   directly. *)
let match_short t (b : Block_tree.block) ~bits h =
  let try_pos pos =
    pos >= 0
    && pos + b.len <= String.length t.old
    && Int.equal
         (Poly_hash.truncate (Poly_hash.hash_sub t.old ~pos ~len:b.len) ~bits)
         h
  in
  let predicted = b.off + t.delta in
  if try_pos predicted then Some predicted
  else if (not (Int.equal predicted b.off)) && try_pos b.off then Some b.off
  else None

let match_block t idx ~size ~bits (b : Block_tree.block) h =
  if Int.equal b.len size then
    match idx with
    | None -> None
    | Some idx -> (
        match
          Candidates.select ~cap:1
            ~predicted:(Some (b.off + t.delta))
            (Candidates.lookup idx h)
        with
        | pos :: _ -> Some pos
        | [] -> None)
  else match_short t b ~bits h

let on_hashes t hs =
  let active = Block_tree.active_blocks t.tree in
  if not (Int.equal (Array.length hs) (List.length active)) then
    Error.malformed "%s: %d hashes for %d active blocks" t.who
      (Array.length hs) (List.length active);
  let size = Block_tree.current_size t.tree in
  let bits = t.config.hash_bits in
  let idx = level_index t ~size ~bits in
  let bits_out =
    List.mapi
      (fun i (b : Block_tree.block) ->
        match match_block t idx ~size ~bits b hs.(i) with
        | Some pos ->
            b.confirmed <- true;
            t.matches <- (b.off, b.len, pos) :: t.matches;
            t.delta <- pos - b.off;
            true
        | None -> false)
      active
  in
  t.counters.rounds <- t.counters.rounds + 1;
  (* Mirror the server's decision so the next message is unambiguous. *)
  (match Msg.decide_next ~config:t.config t.tree with
  | `Split -> Block_tree.split t.tree
  | `Tail -> t.expect_tail <- true);
  Msg.encode_bitmap bits_out

(* ---- reconstruction ---- *)

let on_tail t z =
  let literals = Deflate.decompress z in
  let remaining = Block_tree.active_blocks t.tree in
  let needed =
    List.fold_left (fun acc (b : Block_tree.block) -> acc + b.len) 0 remaining
  in
  if not (Int.equal (String.length literals) needed) then
    Error.malformed "%s: %d literal bytes for %d unconfirmed" t.who
      (String.length literals) needed;
  let matched =
    List.fold_left (fun acc (_, len, _) -> acc + len) 0 t.matches
  in
  if not (Int.equal (matched + needed) t.new_len) then
    Error.malformed "%s: %d matched + %d literal <> %d file bytes" t.who
      matched needed t.new_len;
  let out = Bytes.create t.new_len in
  List.iter
    (fun (off, len, pos) -> Bytes.blit_string t.old pos out off len)
    t.matches;
  let cursor = ref 0 in
  List.iter
    (fun (b : Block_tree.block) ->
      Bytes.blit_string literals !cursor out b.off b.len;
      cursor := !cursor + b.len)
    remaining;
  let content = Bytes.to_string out in
  t.counters.matched_bytes <- t.counters.matched_bytes + matched;
  t.counters.literal_bytes <- t.counters.literal_bytes + needed;
  if Fp.equal (Fp.of_string content) t.fp then Some content
  else
    (* Weak-hash collision led us astray; ask for the verified full
       copy instead of guessing further. *)
    None
