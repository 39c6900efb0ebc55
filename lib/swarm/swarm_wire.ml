module Fp = Fsync_hash.Fingerprint
module Error = Fsync_core.Error
module Varint = Fsync_util.Varint
module Merkle = Fsync_reconcile.Merkle

type query = { range : Merkle.range; digest : string }

type answer =
  | Equal of Merkle.range
  | Leaves of Merkle.range * (string * Fp.t) list
  | Descend of Merkle.range * query list

type recon =
  | Greet of { peer : string; root : string }
  | Queries of query list
  | Answers of answer list

let digest_bytes = 16

(* ---- primitives ---- *)

let read_varint msg ~pos what =
  match Varint.read msg ~pos with
  | v -> v
  | exception Invalid_argument _ ->
      Error.truncated "Swarm_wire: bad varint in %s" what

let put_string b s =
  Varint.write b (String.length s);
  Buffer.add_string b s

let get_string msg ~pos what =
  let len, p = read_varint msg ~pos what in
  if len < 0 || p + len > String.length msg then
    Error.truncated "Swarm_wire: %s of %d bytes overruns" what len;
  (String.sub msg p len, p + len)

let put_digest b d =
  if not (Int.equal (String.length d) digest_bytes) then
    Error.malformed "Swarm_wire: digest of %d bytes" (String.length d);
  Buffer.add_string b d

let get_digest msg ~pos what =
  if pos + digest_bytes > String.length msg then
    Error.truncated "Swarm_wire: %s digest overruns" what;
  (String.sub msg pos digest_bytes, pos + digest_bytes)

let put_range b (r : Merkle.range) =
  Varint.write b r.lo;
  Varint.write b r.size

let get_range msg ~pos =
  let lo, pos = read_varint msg ~pos "range lo" in
  let size, pos = read_varint msg ~pos "range size" in
  if lo < 0 || size <= 0 then
    Error.malformed "Swarm_wire: range [%d, %d)" lo size;
  (({ lo; size } : Merkle.range), pos)

let put_query b { range; digest } =
  put_range b range;
  put_digest b digest

let get_query msg ~pos =
  let range, pos = get_range msg ~pos in
  let digest, pos = get_digest msg ~pos "query" in
  ({ range; digest }, pos)

let put_queries b qs =
  Varint.write b (List.length qs);
  List.iter (put_query b) qs

let get_queries msg ~pos =
  let count, pos = read_varint msg ~pos "query count" in
  if count < 0 || count > (String.length msg - pos) / (2 + digest_bytes) then
    Error.truncated "Swarm_wire: %d queries overrun %d bytes" count
      (String.length msg);
  let pos = ref pos in
  let qs =
    List.init count (fun _ ->
        let q, p = get_query msg ~pos:!pos in
        pos := p;
        q)
  in
  (qs, !pos)

(* ---- recon ---- *)

let encode_recon r =
  let b = Buffer.create 128 in
  (match r with
  | Greet { peer; root } ->
      Buffer.add_char b 'H';
      put_string b peer;
      put_digest b root
  | Queries qs ->
      Buffer.add_char b 'Q';
      put_queries b qs
  | Answers answers ->
      Buffer.add_char b 'R';
      Varint.write b (List.length answers);
      List.iter
        (fun a ->
          match a with
          | Equal r ->
              Buffer.add_char b '\000';
              put_range b r
          | Leaves (r, leaves) ->
              Buffer.add_char b '\001';
              put_range b r;
              Varint.write b (List.length leaves);
              List.iter
                (fun (path, d) ->
                  put_string b path;
                  Buffer.add_string b (Fp.to_raw d))
                leaves
          | Descend (r, children) ->
              Buffer.add_char b '\002';
              put_range b r;
              put_queries b children)
        answers);
  Buffer.contents b

let get_leaves msg ~pos =
  let count, pos = read_varint msg ~pos "leaf count" in
  if count < 0 || count > (String.length msg - pos) / (1 + digest_bytes) then
    Error.truncated "Swarm_wire: %d leaves overrun %d bytes" count
      (String.length msg);
  let pos = ref pos in
  let leaves =
    List.init count (fun _ ->
        let path, p = get_string msg ~pos:!pos "leaf path" in
        let d, p = get_digest msg ~pos:p "leaf" in
        pos := p;
        (path, Fp.of_raw d))
  in
  (leaves, !pos)

let decode_recon msg =
  if String.equal msg "" then Error.truncated "Swarm_wire: empty recon body";
  let pos = 1 in
  match msg.[0] with
  | 'H' ->
      let peer, pos = get_string msg ~pos "greet peer" in
      let root, _ = get_digest msg ~pos "greet root" in
      Greet { peer; root }
  | 'Q' ->
      let qs, _ = get_queries msg ~pos in
      Queries qs
  | 'R' ->
      let count, pos = read_varint msg ~pos "answer count" in
      if count < 0 || count > (String.length msg - pos) / 3 then
        Error.truncated "Swarm_wire: %d answers overrun %d bytes" count
          (String.length msg);
      let pos = ref pos in
      let answers =
        List.init count (fun _ ->
            if !pos >= String.length msg then
              Error.truncated "Swarm_wire: answer kind overruns";
            let kind = msg.[!pos] in
            let p = !pos + 1 in
            match kind with
            | '\000' ->
                let r, p = get_range msg ~pos:p in
                pos := p;
                Equal r
            | '\001' ->
                let r, p = get_range msg ~pos:p in
                let leaves, p = get_leaves msg ~pos:p in
                pos := p;
                Leaves (r, leaves)
            | '\002' ->
                let r, p = get_range msg ~pos:p in
                let children, p = get_queries msg ~pos:p in
                pos := p;
                Descend (r, children)
            | c -> Error.malformed "Swarm_wire: answer kind %C" c)
      in
      Answers answers
  | c -> Error.malformed "Swarm_wire: recon kind %C" c

(* ---- entry table ---- *)

let encode_table entries =
  let b = Buffer.create 256 in
  Varint.write b (List.length entries);
  List.iter
    (fun (path, e) ->
      put_string b path;
      match e with
      | None -> Buffer.add_char b '\000'
      | Some e ->
          Buffer.add_char b '\001';
          Replica.put_entry b e)
    entries;
  Buffer.contents b

let decode_table msg =
  let count, pos = read_varint msg ~pos:0 "table count" in
  if count < 0 || count > (String.length msg - pos) / 2 then
    Error.truncated "Swarm_wire: %d table entries overrun %d bytes" count
      (String.length msg);
  let pos = ref pos in
  List.init count (fun _ ->
      let path, p = get_string msg ~pos:!pos "table path" in
      if p >= String.length msg then
        Error.truncated "Swarm_wire: table marker overruns";
      match msg.[p] with
      | '\000' ->
          pos := p + 1;
          (path, None)
      | '\001' ->
          let e, p = Replica.get_entry msg ~pos:(p + 1) in
          pos := p;
          (path, Some e)
      | c -> Error.malformed "Swarm_wire: table marker %C" c)

(* ---- fetch / query ---- *)

type fetch = { path : string; has_old : bool }

(* One request per slot, in slot order, up to the end of the body. *)
let encode_fetch fetches =
  let b = Buffer.create 64 in
  List.iter
    (fun { path; has_old } ->
      put_string b path;
      Buffer.add_char b (if has_old then '\001' else '\000'))
    fetches;
  Buffer.contents b

let decode_fetch msg =
  let rec go pos acc =
    if pos >= String.length msg then List.rev acc
    else begin
      let path, pos = get_string msg ~pos "fetch path" in
      if pos >= String.length msg then
        Error.truncated "Swarm_wire: fetch flag overruns";
      go (pos + 1) ({ path; has_old = Char.equal msg.[pos] '\001' } :: acc)
    end
  in
  go 0 []

let encode_query path =
  let b = Buffer.create 64 in
  put_string b path;
  Buffer.contents b

let decode_query msg =
  let path, _ = get_string msg ~pos:0 "query path" in
  path
