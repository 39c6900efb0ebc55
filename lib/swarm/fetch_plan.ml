module Error = Fsync_core.Error
module Msg = Fsync_server.Msg
module Batch = Fsync_server.Batch
module Fetch_file = Fsync_server.Fetch_file

type t = {
  replica : Replica.t;
  counters : Fetch_file.counters;
  config : unit -> Msg.sync_config;
  mutable queue : Plan.install list;
  mutable batch : Batch.Fetch.t option;
  pulled : (string, string) Hashtbl.t; (* dest -> fetched content *)
}

let create ~config replica =
  {
    replica;
    counters = Fetch_file.fresh_counters ();
    config;
    queue = [];
    batch = None;
    pulled = Hashtbl.create 16;
  }

let src_of (i : Plan.install) =
  match i.source with
  | Plan.Remote p -> p
  | Plan.Local _ | Plan.Absent ->
      Error.malformed "Fetch_plan: fetch of a non-remote install"

let enqueue t installs =
  t.queue <-
    t.queue
    @ List.filter
        (fun (i : Plan.install) ->
          match i.source with
          | Plan.Remote _ -> true
          | Plan.Local _ | Plan.Absent -> false)
        installs

let start t =
  match t.queue with
  | [] -> []
  | queue ->
      let installs = Array.of_list queue in
      (* The old copy to match against: what the destination holds, or
         else the source path's local bytes. *)
      let olds =
        Array.map
          (fun (i : Plan.install) ->
            match Replica.content t.replica i.dest with
            | Some _ as o -> o
            | None -> Replica.content t.replica (src_of i))
          installs
      in
      t.batch <-
        Some
          (Batch.Fetch.create ~who:"Fetch_plan" ~config:(t.config ())
             ~counters:t.counters
             ~path:(fun i -> src_of installs.(i))
             ~old:(fun i -> Option.value olds.(i) ~default:"")
             ~on_file:(fun i content ->
               Hashtbl.replace t.pulled installs.(i).Plan.dest content)
             ~slots:(Array.length installs));
      [
        Msg.Swarm_fetch
          (Swarm_wire.encode_fetch
             (Array.to_list
                (Array.mapi
                   (fun i inst ->
                     {
                       Swarm_wire.path = src_of inst;
                       has_old = Option.is_some olds.(i);
                     })
                   installs)));
      ]

let on_message t msg =
  match t.batch with
  | Some b -> Batch.Fetch.on_message b msg
  | None -> Error.malformed "Fetch_plan: %s with no fetch open" (Msg.label msg)

let complete t =
  match t.batch with
  | Some b -> Batch.Fetch.complete b
  | None -> List.is_empty t.queue

let pulled t dest = Hashtbl.find_opt t.pulled dest
let count t = Hashtbl.length t.pulled
