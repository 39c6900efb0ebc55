(* Per-layer spans for the traced run, kept in [Fsync_obs.Registry].

   Every call the benchmark makes into a layer's public function goes
   through [span name f].  Spans are recorded only while the traced run
   is inside a [Tally.timed] section ([recording]), so the layer times
   and the loop's wall time cover the same work; elsewhere [span] is one
   branch.  Each epoch (release, day, gossip epoch) gets its own
   registry, so the span log says which unit of work a span served.
   Nothing is written until [write_jsonl] runs after the loop.

   A layer's self time is its spans' time minus that of the spans
   opened directly inside them.  Self times of all layers sum to the
   time spent under top-level spans.  Layers named [bench.*] are the
   benchmark's own driving code, so the coverage figure leaves them
   out. *)

module Registry = Fsync_obs.Registry

let now = Fsync_obs.Monotonic.now

let enabled = ref false

(* Registries of the epochs so far, newest first. *)
let epochs : (int * Registry.t) list ref = ref []
let current : Registry.t option ref = ref None

let start_epoch e =
  if !enabled then epochs := (e, Registry.create ()) :: !epochs

(* Run [f] with span recording on, into the current epoch's registry. *)
let recording f =
  match !epochs with
  | (_, r) :: _ when !enabled ->
      current := Some r;
      Fun.protect ~finally:(fun () -> current := None) f
  | _ -> f ()

let span name f =
  match !current with None -> f () | Some r -> Registry.with_span r name f

let reset () =
  epochs := [];
  current := None

type layer = { lname : string; self_s : float; total_s : float; calls : int }

(* Every layer's times, largest self time first. *)
let layers () =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (_, r) ->
      let spans = Registry.spans r in
      let dur (s : Registry.span) = s.t1 -. s.t0 in
      let child = Hashtbl.create 256 in
      List.iter
        (fun (s : Registry.span) ->
          let prev = Option.value (Hashtbl.find_opt child s.parent) ~default:0.0 in
          Hashtbl.replace child s.parent (prev +. dur s))
        spans;
      List.iter
        (fun (s : Registry.span) ->
          let self = dur s -. Option.value (Hashtbl.find_opt child s.id) ~default:0.0 in
          let l =
            Option.value (Hashtbl.find_opt tbl s.name)
              ~default:{ lname = s.name; self_s = 0.0; total_s = 0.0; calls = 0 }
          in
          Hashtbl.replace tbl s.name
            { l with self_s = l.self_s +. self; total_s = l.total_s +. dur s;
              calls = l.calls + 1 })
        spans)
    !epochs;
  List.sort
    (fun a b -> Float.compare b.self_s a.self_s)
    (Hashtbl.fold (fun _ l acc -> l :: acc) tbl [])

let find ls name = List.find_opt (fun l -> String.equal l.lname name) ls

let self_s ls name = match find ls name with Some l -> l.self_s | None -> 0.0
let total_s ls name = match find ls name with Some l -> l.total_s | None -> 0.0

let is_bench l = String.starts_with ~prefix:"bench." l.lname

(* Time under top-level spans, less the benchmark's own driving code. *)
let covered_s ls =
  List.fold_left (fun acc l -> if is_bench l then acc else acc +. l.self_s) 0.0 ls

(* One registry's JSONL per epoch, oldest first, each stamped with its
   epoch as the trace tag; then the [extra] lines. *)
let write_jsonl path ~extra =
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun (e, r) ->
          Registry.set_trace r ~trace:(Printf.sprintf "epoch-%d" e) ~role:"bench";
          output_string oc (Registry.to_jsonl r))
        (List.rev !epochs);
      List.iter
        (fun line ->
          output_string oc line;
          output_char oc '\n')
        extra)
