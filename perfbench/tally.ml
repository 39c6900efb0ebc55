(* What one workload run measured: per-session slow-link figures, the
   loop's time, set-up samples, and the per-kind wire totals.

   Set-up and loop times are the process's user CPU time ([work_now]).
   On a shared VM the wall time of the same fsync-heavy set-up varies
   2-3x from run to run, and its system CPU time (file, socket and
   select syscalls, kernel writeback) by a third, far more than its
   user CPU time.  Kernel and disk work is reported as counts instead:
   fsyncs, bytes written, select iterations.

   A session's simulated time on the paper's link is
   [Channel.elapsed_s] of the channel that carried it — the single
   50 ms one-way / 1 Mbit/s definition of [Fsync_net.Channel.create],
   i.e. [2 × 0.05 × round_trips + wire_bytes × 8 / 1e6] — plus the
   session's measured wall time in the loop. *)

type session = { sync_s : float; wire_bytes : int; rts : int }

type t = {
  mutable sessions : session list;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (** first few failure messages *)
  mutable content_bytes : int;  (** replica content brought up to date *)
  mutable loop_s : float;  (** wall time of the measured loop *)
  mutable loop_work_s : float;  (** its user CPU time *)
  mutable converge : float list;  (** per epoch *)
  mutable setups : float list;
  mutable epochs : int;
  mutable rounds : int;  (** gossip rounds (swarm only) *)
  wire : Wire.t;
  counters : (string, float) Hashtbl.t;
      (** per-layer totals the workload adds (counters, stats) *)
}

let create () =
  {
    sessions = [];
    attempted = 0;
    failed = 0;
    errors = [];
    content_bytes = 0;
    loop_s = 0.0;
    loop_work_s = 0.0;
    converge = [];
    setups = [];
    epochs = 0;
    rounds = 0;
    wire = Wire.create ();
    counters = Hashtbl.create 16;
  }

let add t name v =
  let prev = Option.value (Hashtbl.find_opt t.counters name) ~default:0.0 in
  Hashtbl.replace t.counters name (prev +. v)

let counter t name = Option.value (Hashtbl.find_opt t.counters name) ~default:0.0

let fail t msg =
  t.failed <- t.failed + 1;
  if List.length t.errors < 5 then t.errors <- msg :: t.errors

let session t ~sync_s ~wire_bytes ~rts =
  t.sessions <- { sync_s; wire_bytes; rts } :: t.sessions

let work_now () = (Unix.times ()).Unix.tms_utime


let sorted xs = List.sort Float.compare xs |> Array.of_list

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if Int.equal n 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The highest percentile with at least 10 sessions beyond it: the
   value with exactly ten samples above it.  That is a tail only once
   it sits at p75 or above, i.e. from 40 sessions on; a run with fewer
   (web-mirror serves 14 a cycle) reports the nearest-rank p90 instead.
   Returns (value, percentile). *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n >= 40 then (a.(n - 11), 100.0 *. float_of_int (n - 10) /. float_of_int n)
  else
    let rank = max 1 (int_of_float (Float.ceil (0.9 *. float_of_int n))) in
    (a.(rank - 1), 100.0 *. float_of_int rank /. float_of_int n)

let mean_int f xs =
  match xs with
  | [] -> nan
  | _ ->
      float_of_int (List.fold_left (fun acc x -> acc + f x) 0 xs)
      /. float_of_int (List.length xs)

(* [n] set-ups in a row, each timed by [set_up i] itself (it returns
   its state and its time); all but the last are torn down, the last
   serves the loop.  Their fsyncs are averaged into [io.setup_fsyncs]. *)
let set_ups t ~n ~set_up ~tear_down =
  Io_meter.reset ();
  let rec go i =
    let x, s = set_up i in
    t.setups <- s :: t.setups;
    if i < n then begin
      tear_down x;
      go (i + 1)
    end
    else x
  in
  let x = go 1 in
  add t "io.setup_fsyncs" (float_of_int Io_meter.counts.fsyncs /. float_of_int n);
  Printf.printf "  set-up: %d fsyncs, %.3f s in filesystem calls\n" Io_meter.counts.fsyncs
    Io_meter.counts.io_s;
  x

(* The major heap's peak over the measured sections.  [start_loop]
   clears the I/O counters set-up left behind and compacts away what
   set-up allocated; from then on the heap is sampled when a [timed]
   section starts and ends, and by a GC alarm at the end of every major
   cycle that falls inside one. *)
let peak_heap_words = ref 0
let in_timed = ref false
let alarm = ref None

let sample_heap () =
  peak_heap_words := max !peak_heap_words (Gc.quick_stat ()).heap_words

let start_loop () =
  Io_meter.reset ();
  Gc.compact ();
  peak_heap_words := 0;
  if Option.is_none !alarm then
    alarm := Some (Gc.create_alarm (fun () -> if !in_timed then sample_heap ()))

let peak_heap_mb () =
  float_of_int (!peak_heap_words * (Sys.word_size / 8)) /. 1e6

(* Time [f] and add it to the loop clocks; in the traced run its layer
   spans are recorded.  Verification and input generation stay outside
   these brackets. *)
let timed t f =
  sample_heap ();
  in_timed := true;
  let w0 = work_now () and t0 = Layers.now () in
  let x =
    Fun.protect ~finally:(fun () -> in_timed := false) (fun () -> Layers.recording f)
  in
  t.loop_s <- t.loop_s +. (Layers.now () -. t0);
  t.loop_work_s <- t.loop_work_s +. (work_now () -. w0);
  sample_heap ();
  x

(* How many epochs a run serves: whole cycles of its input, as many as
   fit [seconds] at the workload's nominal [cycle_s] per cycle (the
   wall time of one cycle on a 2-vCPU VM), and at least one.  The count
   depends only on the arguments, never on how fast the machine is, so
   every run with the same arguments does the same work. *)
let epochs_for ~seconds ~cycle ~cycle_s =
  cycle * max 1 (int_of_float (Float.round (seconds /. cycle_s)))
