(* R7: wire-derived lengths must be bounds-checked before use. *)

(* The PR-5 'S'-decode shape: multiply before the guard. *)
let entry_bytes s pos =
  let count, _ = Varint.read s ~pos in
  let total = count * 21 in
  if total > String.length s then None else Some total

(* Allocation with no guard at all. *)
let read_payload s pos =
  let len, pos = Varint.read s ~pos in
  (Bytes.create len, pos)

(* A declared length sizing a buffer: the push assembly shape. *)
let assembly_buffer s pos =
  let len, _ = Varint.read s ~pos in
  Buffer.create len
