module Fp = Fsync_hash.Fingerprint
module Varint = Fsync_util.Varint
module Error = Fsync_core.Error

(* Protocol revision 2 appended an optional 16-byte trace id to [Hello]
   (DESIGN.md §9) and revision 3 an optional swarm extension after it
   (peer id + entry-table root digest, DESIGN.md §13).  Revision 4 keys
   every per-file message by a slot and batches one round of every file
   in flight into one frame per message kind (DESIGN.md §10).  Revision
   5 does the same for uploads: [Push_begin] and [Chunk_need] carry one
   item per slot, [Chunk_data] one payload per turn.  Each was a clean
   break: both endpoints accept revision 5 only. *)
let version = 5

let min_version = 5

let version_ok v = v >= min_version && v <= version

type sync_config = { start_block : int; min_block : int; hash_bits : int }

let default_sync_config = { start_block = 2048; min_block = 64; hash_bits = 30 }

let clamp lo hi v = if v < lo then lo else if v > hi then hi else v

let validate_sync_config c =
  let hash_bits = clamp 8 56 c.hash_bits in
  let min_block = max 16 c.min_block in
  let start_block = max min_block c.start_block in
  { start_block; min_block; hash_bits }

let hash_width c = (c.hash_bits + 7) / 8

let trace_bytes = 16

type swarm_hello = { peer : string; summary : Fp.t }

type file_begin = { new_len : int; fp : Fp.t }

type push_begin = {
  path : string;
  file_len : int;
  fp : Fp.t;
  manifest : (Fp.t * int) list;
}

type t =
  | Hello of {
      version : int;
      trace : string option;
      swarm : swarm_hello option;
    }
      (** [trace], when present, is exactly {!trace_bytes} raw bytes *)
  | Welcome of {
      version : int;
      file_count : int;
      root : Fp.t;
      config : sync_config;
    }
  | Announce of string
  | Verdict of string
  | File_begin of (int * file_begin) list
  | Hashes of (int * int array) list
  | Matched of (int * string) list
  | Tail of { slot : int; literals : string }
  | Full of { slot : int; body : string }
  | File_ack of (int * bool) list
  | Bye of { root : Fp.t }
  | Error_msg of string
  | Push_begin of (int * push_begin) list
  | Chunk_need of (int * string) list
  | Chunk_data of string
  | Push_done
  | Resume of { root : Fp.t; bitmap : string }
  | Busy of { retry_after_ms : int }
  | Swarm_table of string
  | Swarm_recon of string
  | Swarm_query of string
  | Swarm_fetch of string
  | Swarm_end

let tag_of = function
  | Hello _ -> 'H'
  | Welcome _ -> 'W'
  | Announce _ -> 'A'
  | Verdict _ -> 'V'
  | File_begin _ -> 'B'
  | Hashes _ -> 'S'
  | Matched _ -> 'M'
  | Tail _ -> 'T'
  | Full _ -> 'F'
  | File_ack _ -> 'K'
  | Bye _ -> 'Y'
  | Error_msg _ -> 'E'
  | Push_begin _ -> 'P'
  | Chunk_need _ -> 'N'
  | Chunk_data _ -> 'C'
  | Push_done -> 'D'
  | Resume _ -> 'R'
  | Busy _ -> 'U'
  | Swarm_table _ -> 'G'
  | Swarm_recon _ -> 'J'
  | Swarm_query _ -> 'Q'
  | Swarm_fetch _ -> 'X'
  | Swarm_end -> 'O'

let label = function
  | Hello _ -> "srv:hello"
  | Welcome _ -> "srv:welcome"
  | Announce _ -> "linear:announce"
  | Verdict _ -> "linear:verdict"
  | File_begin _ -> "srv:file-begin"
  | Hashes _ -> "srv:hashes"
  | Matched _ -> "srv:matched"
  | Tail _ -> "srv:tail"
  | Full _ -> "file:data"
  | File_ack _ -> "srv:ack"
  | Bye _ -> "srv:bye"
  | Error_msg _ -> "srv:error"
  | Push_begin _ -> "push:begin"
  | Chunk_need _ -> "push:need"
  | Chunk_data _ -> "push:data"
  | Push_done -> "push:done"
  | Resume _ -> "srv:resume"
  | Busy _ -> "srv:busy"
  | Swarm_table _ -> "swarm:table"
  | Swarm_recon _ -> "swarm:recon"
  | Swarm_query _ -> "swarm:query"
  | Swarm_fetch _ -> "swarm:fetch"
  | Swarm_end -> "swarm:end"

(* Label an already-encoded frame by its tag byte alone, for channel
   transcripts on transports that never decode what they carry. *)
let wire_label raw =
  if Int.equal (String.length raw) 0 then "srv:?"
  else
    match raw.[0] with
    | 'H' -> "srv:hello"
    | 'W' -> "srv:welcome"
    | 'A' -> "linear:announce"
    | 'V' -> "linear:verdict"
    | 'B' -> "srv:file-begin"
    | 'S' -> "srv:hashes"
    | 'M' -> "srv:matched"
    | 'T' -> "srv:tail"
    | 'F' -> "file:data"
    | 'K' -> "srv:ack"
    | 'Y' -> "srv:bye"
    | 'E' -> "srv:error"
    | 'P' -> "push:begin"
    | 'N' -> "push:need"
    | 'C' -> "push:data"
    | 'D' -> "push:done"
    | 'R' -> "srv:resume"
    | 'U' -> "srv:busy"
    | 'G' -> "swarm:table"
    | 'J' -> "swarm:recon"
    | 'Q' -> "swarm:query"
    | 'X' -> "swarm:fetch"
    | 'O' -> "swarm:end"
    | _ -> "srv:?"

(* ---- encoding ---- *)

let put_string b s =
  Varint.write b (String.length s);
  Buffer.add_string b s

let put_hash_le b ~width v =
  for i = 0 to width - 1 do
    Buffer.add_char b (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let put_manifest b manifest =
  Varint.write b (List.length manifest);
  List.iter
    (fun (fp, len) ->
      Buffer.add_string b (Fp.to_raw fp);
      Varint.write b len)
    manifest

let encode ~config msg =
  let b = Buffer.create 64 in
  Buffer.add_char b (tag_of msg);
  (match msg with
  | Hello { version; trace; swarm } ->
      Varint.write b version;
      (* The swarm extension sits after the trace id, so its presence
         requires one: a swarm Hello without a caller-supplied trace
         carries an all-zero id (the server mints its own then, exactly
         as for a v1 peer). *)
      (match trace with
      | Some id when Int.equal (String.length id) trace_bytes ->
          Buffer.add_string b id
      | Some _ | None ->
          if Option.is_some swarm then
            Buffer.add_string b (String.make trace_bytes '\000'));
      (match swarm with
      | Some { peer; summary } ->
          put_string b peer;
          Buffer.add_string b (Fp.to_raw summary)
      | None -> ())
  | Welcome { version; file_count; root; config } ->
      Varint.write b version;
      Varint.write b file_count;
      Buffer.add_string b (Fp.to_raw root);
      Varint.write b config.start_block;
      Varint.write b config.min_block;
      Varint.write b config.hash_bits
  | Announce body | Verdict body -> Buffer.add_string b body
  | File_begin items ->
      List.iter
        (fun (slot, { new_len; fp }) ->
          Varint.write b slot;
          Varint.write b new_len;
          Buffer.add_string b (Fp.to_raw fp))
        items
  | Hashes items ->
      let width = hash_width config in
      List.iter
        (fun (slot, hs) ->
          Varint.write b slot;
          Varint.write b (Array.length hs);
          Array.iter (fun h -> put_hash_le b ~width h) hs)
        items
  | Tail { slot; literals = body } | Full { slot; body } ->
      Varint.write b slot;
      Buffer.add_string b body
  | File_ack items ->
      List.iter
        (fun (slot, ok) -> Varint.write b ((slot lsl 1) lor Bool.to_int ok))
        items
  | Bye { root } -> Buffer.add_string b (Fp.to_raw root)
  | Error_msg m -> put_string b m
  | Push_begin items ->
      List.iter
        (fun (slot, { path; file_len; fp; manifest }) ->
          Varint.write b slot;
          put_string b path;
          Varint.write b file_len;
          Buffer.add_string b (Fp.to_raw fp);
          put_manifest b manifest)
        items
  | Matched items | Chunk_need items ->
      List.iter
        (fun (slot, bitmap) ->
          Varint.write b slot;
          put_string b bitmap)
        items
  | Chunk_data z -> Buffer.add_string b z
  | Swarm_table body | Swarm_recon body | Swarm_query body | Swarm_fetch body
    ->
      Buffer.add_string b body
  | Push_done | Swarm_end -> ()
  | Resume { root; bitmap } ->
      Buffer.add_string b (Fp.to_raw root);
      Buffer.add_string b bitmap
  | Busy { retry_after_ms } -> Varint.write b retry_after_ms);
  Buffer.contents b

(* ---- decoding (hardened: every length validated before any read) ---- *)

let need msg pos n what =
  if pos + n > String.length msg then
    Error.truncated "Msg: %s needs %d bytes, %d left" what n
      (String.length msg - pos)

(* [Varint.read] signals bad input with [Invalid_argument]; every reader
   here goes through this wrapper so the decoder raises typed errors
   only. *)
let get_varint msg ~pos what =
  match Varint.read msg ~pos with
  | v, p ->
      if v < 0 then Error.malformed "Msg: negative %s" what;
      (v, p)
  | exception Invalid_argument _ -> Error.truncated "Msg: bad varint in %s" what

let get_string msg ~pos what =
  let len, p = get_varint msg ~pos (what ^ " length") in
  need msg p len what;
  (String.sub msg p len, p + len)

let get_fp msg ~pos what =
  need msg pos Fp.size_bytes what;
  (Fp.of_raw (String.sub msg pos Fp.size_bytes), pos + Fp.size_bytes)

let get_hash_le msg ~pos ~width =
  let v = ref 0 in
  for i = 0 to width - 1 do
    v := !v lor (Char.code msg.[pos + i] lsl (8 * i))
  done;
  !v

let rest msg pos = String.sub msg pos (String.length msg - pos)

let get_manifest msg ~pos =
  let count, pos = get_varint msg ~pos "manifest count" in
  (* Each entry is at least fp + a 1-byte varint: bound [count] before
     trusting it (same discipline as the Hashes decoder). *)
  if count > (String.length msg - pos) / (Fp.size_bytes + 1) then
    Error.truncated "Msg: %d manifest entries overrun %d bytes" count
      (String.length msg);
  let pos = ref pos in
  let entries =
    List.init count (fun _ ->
        let fp, p = get_fp msg ~pos:!pos "manifest chunk" in
        let len, p = get_varint msg ~pos:p "chunk length" in
        pos := p;
        (fp, len))
  in
  (entries, !pos)

(* A batch body is a run of slot-keyed items up to the end of the frame.
   Slots must be strictly ascending — which also rules out duplicates —
   so each check is O(1); whether a slot is in range is the receiving
   driver's business ({!Batch}), which alone knows how many are in
   flight.  Items are read until the frame ends, so a body with bytes
   left over that do not form a whole item fails typed. *)
let get_items msg ~pos what item =
  let rec go pos prev acc =
    if pos >= String.length msg then List.rev acc
    else begin
      let slot, p = get_varint msg ~pos (what ^ " slot") in
      if slot <= prev then
        Error.malformed "Msg: %s slot %d after slot %d" what slot prev;
      let v, p = item ~slot p in
      go p slot (v :: acc)
    end
  in
  go pos (-1) []

let decode ~config msg =
  if String.equal msg "" then Error.truncated "Msg: empty message";
  let pos = 1 in
  match msg.[0] with
  | 'H' ->
      let version, pos = get_varint msg ~pos "version" in
      (* A Hello ends at the varint, or carries exactly the trace id, or
         the trace id and then the swarm extension.  Any other shape is
         a framing bug, not a trace. *)
      let remaining = String.length msg - pos in
      if Int.equal remaining 0 then
        Hello { version; trace = None; swarm = None }
      else if Int.equal remaining trace_bytes then
        Hello { version; trace = Some (rest msg pos); swarm = None }
      else if remaining > trace_bytes then begin
        let trace = String.sub msg pos trace_bytes in
        let pos = pos + trace_bytes in
        let peer, pos = get_string msg ~pos "swarm peer id" in
        let summary, pos = get_fp msg ~pos "swarm summary" in
        if not (Int.equal pos (String.length msg)) then
          Error.malformed "Msg: %d stray bytes after swarm hello"
            (String.length msg - pos);
        let trace =
          if String.equal trace (String.make trace_bytes '\000') then None
          else Some trace
        in
        Hello { version; trace; swarm = Some { peer; summary } }
      end
      else Hello { version; trace = None; swarm = None }
  | 'W' ->
      let version, pos = get_varint msg ~pos "version" in
      let file_count, pos = get_varint msg ~pos "file count" in
      let root, pos = get_fp msg ~pos "welcome root" in
      let start_block, pos = get_varint msg ~pos "start block" in
      let min_block, pos = get_varint msg ~pos "min block" in
      let hash_bits, _ = get_varint msg ~pos "hash bits" in
      let config =
        validate_sync_config { start_block; min_block; hash_bits }
      in
      Welcome { version; file_count; root; config }
  | 'A' -> Announce (rest msg pos)
  | 'V' -> Verdict (rest msg pos)
  | 'B' ->
      File_begin
        (get_items msg ~pos "file-begin" (fun ~slot p ->
             let new_len, p = get_varint msg ~pos:p "file length" in
             let fp, p = get_fp msg ~pos:p "file fingerprint" in
             ((slot, { new_len; fp }), p)))
  | 'S' ->
      let width = hash_width config in
      Hashes
        (get_items msg ~pos "hashes" (fun ~slot p ->
             let count, p = get_varint msg ~pos:p "hash count" in
             (* Bound [count] before any multiplication: a hostile
                varint near max_int would overflow [count * width]
                negative and slip past a sum-based check. *)
             if count > (String.length msg - p) / width then
               Error.truncated "Msg: %d hashes of %d bytes overrun %d" count
                 width (String.length msg);
             let hs =
               Array.init count (fun i ->
                   get_hash_le msg ~pos:(p + (i * width)) ~width)
             in
             ((slot, hs), p + (count * width))))
  | 'M' ->
      Matched
        (get_items msg ~pos "matched" (fun ~slot p ->
             let bitmap, p = get_string msg ~pos:p "matched bitmap" in
             ((slot, bitmap), p)))
  | 'T' ->
      let slot, pos = get_varint msg ~pos "tail slot" in
      Tail { slot; literals = rest msg pos }
  | 'F' ->
      let slot, pos = get_varint msg ~pos "full slot" in
      Full { slot; body = rest msg pos }
  | 'K' ->
      (* One varint per ack, the flag in its low bit. *)
      let rec acks pos prev acc =
        if pos >= String.length msg then List.rev acc
        else begin
          let v, p = get_varint msg ~pos "ack" in
          let slot = v lsr 1 in
          if slot <= prev then
            Error.malformed "Msg: ack slot %d after slot %d" slot prev;
          acks p slot ((slot, Int.equal (v land 1) 1) :: acc)
        end
      in
      File_ack (acks pos (-1) [])
  | 'Y' ->
      let root, _ = get_fp msg ~pos "bye root" in
      Bye { root }
  | 'E' ->
      let m, _ = get_string msg ~pos "error text" in
      Error_msg m
  | 'P' ->
      Push_begin
        (get_items msg ~pos "push-begin" (fun ~slot p ->
             let path, p = get_string msg ~pos:p "push path" in
             let file_len, p = get_varint msg ~pos:p "push file length" in
             let fp, p = get_fp msg ~pos:p "push fingerprint" in
             let manifest, p = get_manifest msg ~pos:p in
             ((slot, { path; file_len; fp; manifest }), p)))
  | 'N' ->
      Chunk_need
        (get_items msg ~pos "chunk-need" (fun ~slot p ->
             let bitmap, p = get_string msg ~pos:p "need bitmap" in
             ((slot, bitmap), p)))
  | 'C' -> Chunk_data (rest msg pos)
  | 'D' -> Push_done
  | 'R' ->
      let root, pos = get_fp msg ~pos "resume root" in
      Resume { root; bitmap = rest msg pos }
  | 'U' ->
      let retry_after_ms, _ = get_varint msg ~pos "retry-after" in
      Busy { retry_after_ms }
  | 'G' -> Swarm_table (rest msg pos)
  | 'J' -> Swarm_recon (rest msg pos)
  | 'Q' -> Swarm_query (rest msg pos)
  | 'X' -> Swarm_fetch (rest msg pos)
  | 'O' -> Swarm_end
  | c -> Error.malformed "Msg: unknown tag %C" c

(* ---- shared protocol rules ----

   Both endpoints mirror the same block tree, so the bitmap order and
   the split-vs-tail decision must be computed identically on each side
   from public state only.  They live here, next to the codec, so the
   daemon and the puller cannot drift. *)

let encode_bitmap bits =
  let count = List.length bits in
  let b = Bytes.make ((count + 7) / 8) '\000' in
  List.iteri
    (fun i v ->
      if v then begin
        let byte = i / 8 and bit = 7 - (i mod 8) in
        Bytes.set b byte
          (Char.chr (Char.code (Bytes.get b byte) lor (1 lsl bit)))
      end)
    bits;
  Bytes.to_string b

let decode_bitmap ~count s =
  if not (Int.equal (String.length s) ((count + 7) / 8)) then
    Error.malformed "Msg: bitmap of %d bytes for %d blocks" (String.length s)
      count;
  Array.init count (fun i ->
      let byte = i / 8 and bit = 7 - (i mod 8) in
      not (Int.equal ((Char.code s.[byte] lsr bit) land 1) 0))

let decide_next ~config tree =
  match Fsync_core.Block_tree.active_blocks tree with
  | [] -> `Tail
  | _ :: _ ->
      if Fsync_core.Block_tree.current_size tree / 2 < config.min_block then
        `Tail
      else `Split
