(* Per-kind wire accounting.

   Every frame the benchmark sends or receives is classified by its tag
   byte ([Msg.wire_label]) and charged its payload plus the transport's
   4-byte length header.  The per-kind totals must add up to exactly
   what the transport itself accounted; [check] asserts that. *)

module Msg = Fsync_server.Msg
module Fd_transport = Fsync_net.Fd_transport

let kinds = [| "metadata"; "hashes"; "literals"; "push"; "swarm" |]

(* metadata: hello/welcome/announce/verdict/resume/bye and the control
   frames (error, busy); hashes: map construction; literals: the bytes
   of unmatched content; push and swarm: their own extensions. *)
let kind_of_label = function
  | "srv:file-begin" | "srv:hashes" | "srv:matched" | "srv:ack" -> 1
  | "srv:tail" | "file:data" -> 2
  | "push:begin" | "push:need" | "push:data" | "push:done" -> 3
  | "swarm:table" | "swarm:recon" | "swarm:query" | "swarm:fetch"
  | "swarm:end" ->
      4
  | _ -> 0

type t = { bytes : int array; mutable frames : int }

let create () = { bytes = Array.make (Array.length kinds) 0; frames = 0 }

let frame_bytes frame = String.length frame + Fd_transport.header_bytes

let note t frame =
  let k = kind_of_label (Msg.wire_label frame) in
  t.bytes.(k) <- t.bytes.(k) + frame_bytes frame;
  t.frames <- t.frames + 1

let total t = Array.fold_left ( + ) 0 t.bytes

let add_into ~into t =
  Array.iteri (fun i b -> into.bytes.(i) <- into.bytes.(i) + b) t.bytes;
  into.frames <- into.frames + t.frames

let check t ~accounted =
  if not (Int.equal (total t) accounted) then
    failwith
      (Printf.sprintf
         "wire accounting: per-kind frames sum to %d B, transport saw %d B"
         (total t) accounted)
