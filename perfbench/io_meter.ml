(* A counting and timing wrapper around [Fsync_store.Io.real].

   The store and the swarm replicas take it through their [?io]
   argument, so every open, write, fsync, rename and read they make is
   counted and timed here, and in the traced run also logged as the
   [io] layer.  Fsync stays on as shipped: [fsyncs] is the disk-side
   figure the benchmark reports, because the latency of the same fsync
   does not repeat on a VM disk. *)

module Io = Fsync_store.Io

type counts = {
  mutable fsyncs : int;
  mutable bytes_written : int;
  mutable io_s : float;  (** wall time inside the calls *)
}

let counts = { fsyncs = 0; bytes_written = 0; io_s = 0.0 }


let reset () =
  counts.fsyncs <- 0;
  counts.bytes_written <- 0;
  counts.io_s <- 0.0

let op f =
  let t0 = Layers.now () in
  let book () = counts.io_s <- counts.io_s +. (Layers.now () -. t0) in
  match Layers.span "io" f with
  | x ->
      book ();
      x
  | exception e ->
      book ();
      raise e

let wrap_handle (h : Io.handle) : Io.handle =
  {
    h_write =
      (fun s ->
        counts.bytes_written <- counts.bytes_written + String.length s;
        op (fun () -> h.h_write s));
    h_fsync =
      (fun () ->
        counts.fsyncs <- counts.fsyncs + 1;
        op h.h_fsync);
    h_close = (fun () -> op h.h_close);
  }

let io : Io.t =
  let r = Io.real in
  {
    open_out =
      (fun ~append path -> wrap_handle (op (fun () -> r.open_out ~append path)));
    rename = (fun ~src ~dst -> op (fun () -> r.rename ~src ~dst));
    unlink = (fun p -> op (fun () -> r.unlink p));
    mkdir = (fun p -> op (fun () -> r.mkdir p));
    rmdir = (fun p -> op (fun () -> r.rmdir p));
    read_file = (fun p -> op (fun () -> r.read_file p));
    exists = (fun p -> op (fun () -> r.exists p));
    is_dir = (fun p -> op (fun () -> r.is_dir p));
    readdir = (fun p -> op (fun () -> r.readdir p));
  }

(* An in-memory sink for the daemon's per-session trace stream: the
   JSONL the daemon would append to a file is kept in [buffer] and
   parsed after the loop, so tracing adds no disk traffic. *)
let memory_sink () =
  let buffer = Buffer.create 65536 in
  let handle : Io.handle =
    { h_write = Buffer.add_string buffer; h_fsync = ignore; h_close = ignore }
  in
  let sink : Io.t =
    {
      Io.real with
      open_out = (fun ~append:_ _ -> handle);
      exists = (fun _ -> false);
    }
  in
  (sink, buffer)
