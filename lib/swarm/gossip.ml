module Fp = Fsync_hash.Fingerprint
module Error = Fsync_core.Error
module Scope = Fsync_obs.Scope
module Merkle = Fsync_reconcile.Merkle
module Msg = Fsync_server.Msg
module Handshake = Fsync_server.Handshake
module Serve_file = Fsync_server.Serve_file
module Batch = Fsync_server.Batch
module Sigcache = Fsync_server.Sigcache

(* The responder expands a differing range to its leaves once it covers
   at most this many of its paths; above it, it answers with child-range
   digests for the initiator to prune.  Both constants only shape the
   descent's frame count, never its result. *)
let leaf_cutoff = 16

type stats = {
  conflicts : int;
  files_pulled : int;
  installs : int;
  bytes_in : int;
  bytes_out : int;
  short_circuit : bool;
}

(* ---- state shared by both roles ---- *)

type common = {
  replica : Replica.t;
  policy : Resolve.policy;
  scope : Scope.t;
  cache : Sigcache.t;
  serve_counters : Serve_file.counters;
  tree : Merkle.t; (* session-start snapshot; replica mutates at apply *)
  config : Msg.sync_config ref; (* shared with [fetch]; Welcome updates it *)
  mutable peer_id : string option;
  mutable installs : Plan.install list;
  fetch : Fetch_plan.t;
  mutable serve : Batch.Serve.t option; (* the peer's fetches, once asked *)
  mutable conflicts : int;
  mutable applied : int;
  mutable bytes_in : int;
  mutable bytes_out : int;
  mutable short_circuit : bool;
}

let common ?(policy = Resolve.default) ?(scope = Scope.disabled)
    ?(config = Msg.default_sync_config) replica =
  let config = ref (Msg.validate_sync_config config) in
  {
    replica;
    policy;
    scope;
    cache = Sigcache.create ();
    serve_counters = Serve_file.fresh_counters ();
    tree = Replica.merkle replica;
    config;
    peer_id = None;
    installs = [];
    fetch = Fetch_plan.create ~config:(fun () -> !config) replica;
    serve = None;
    conflicts = 0;
    applied = 0;
    bytes_in = 0;
    bytes_out = 0;
    short_circuit = false;
  }

let stats_of c =
  {
    conflicts = c.conflicts;
    files_pulled = Fetch_plan.count c.fetch;
    installs = c.applied;
    bytes_in = c.bytes_in;
    bytes_out = c.bytes_out;
    short_circuit = c.short_circuit;
  }

let root_digest c = Merkle.root_digest c.tree

(* ---- descent answers (responder side of the split Recon.run) ---- *)

let answer_query c (q : Swarm_wire.query) =
  let mine = Merkle.digest_of_range c.tree q.range in
  if String.equal mine q.digest then Swarm_wire.Equal q.range
  else
    let children = Merkle.children (Merkle.config c.tree) q.range in
    if
      Int.equal (Array.length children) 0
      || Merkle.count_in_range c.tree q.range <= leaf_cutoff
    then Swarm_wire.Leaves (q.range, Merkle.leaves_in_range c.tree q.range)
    else
      Swarm_wire.Descend
        ( q.range,
          List.map
            (fun r ->
              {
                Swarm_wire.range = r;
                digest = Merkle.digest_of_range c.tree r;
              })
            (Array.to_list children) )

(* ---- plan ---- *)

let compute_plan c pairs =
  let pairs =
    List.sort (fun (a, _) (b, _) -> String.compare a b) pairs
  in
  let decided =
    List.concat_map
      (fun (path, theirs) ->
        let ours = Replica.find c.replica path in
        let o = Plan.decide ~policy:c.policy ~path ~ours ~theirs () in
        if o.Plan.conflict then begin
          c.conflicts <- c.conflicts + 1;
          Scope.incr c.scope "conflicts_detected"
        end;
        List.map (fun i -> (path, i)) o.Plan.installs)
      pairs
  in
  (* A fresh conflict sibling can collide with the table's own decision
     for that literal path — the sibling already existed on one side
     from an earlier round, so one endpoint also plans an adoption for
     it.  Keep the sibling install and drop the same-dest path decision:
     both endpoints hold the same conflicting pair, so both keep the
     same entry and the plans stay mirror images. *)
  let sibling_dests =
    List.filter_map
      (fun (path, (i : Plan.install)) ->
        if String.equal path i.dest then None else Some i.dest)
      decided
  in
  let installs =
    List.filter_map
      (fun (path, (i : Plan.install)) ->
        if
          String.equal path i.dest
          && List.exists (String.equal i.dest) sibling_dests
        then None
        else Some i)
      decided
  in
  c.installs <- c.installs @ installs;
  Fetch_plan.enqueue c.fetch installs

(* ---- the serving side of a transfer phase ---- *)

(* The peer asks for every file of its phase in one [Swarm_fetch]; each
   request's position is its slot, and all of them run in lockstep. *)
let serve_on_fetch c body =
  if Option.is_some c.serve then
    Error.malformed "Gossip: overlapping fetch requests";
  let fetches = Swarm_wire.decode_fetch body in
  let jobs =
    List.mapi
      (fun i { Swarm_wire.path; has_old } ->
        match Replica.content c.replica path with
        | None -> Error.malformed "Gossip: fetch of absent path %s" path
        | Some content ->
            let fp = Fp.of_string content in
            (i, { Serve_file.path; content; fp; has_old }))
      fetches
  in
  let batch =
    Batch.Serve.create ~who:"Gossip"
      ~make:(fun job ->
        Serve_file.create ~who:"Gossip" ~config:!(c.config) ~cache:c.cache
          ~counters:c.serve_counters job)
      ~slots:(List.length fetches) jobs
  in
  c.serve <- Some batch;
  Batch.Serve.start batch

let serve_on_reply c msg =
  match c.serve with
  | Some batch -> Batch.Serve.on_message batch msg
  | None -> Error.malformed "Gossip: reply with no open serve"

(* The peer may only move on once everything it asked for is acked. *)
let check_served c =
  match c.serve with
  | Some batch when not (Batch.Serve.complete batch) ->
      Error.malformed "Gossip: peer moved on with fetches in flight"
  | Some _ | None -> ()

(* ---- apply ---- *)

(* Snapshot every [Local] source before the first write: a conflict
   loser's bytes live at the path its winner is about to overwrite. *)
let apply c =
  let resolved =
    List.map
      (fun (i : Plan.install) ->
        let content =
          match i.source with
          | Plan.Absent -> None
          | Plan.Local p -> (
              match Replica.content c.replica p with
              | Some _ as s -> s
              | None -> Error.malformed "Gossip: local source %s vanished" p)
          | Plan.Remote _ -> (
              match Fetch_plan.pulled c.fetch i.dest with
              | Some _ as s -> s
              | None ->
                  Error.fail
                    (Error.Disconnected
                       (Printf.sprintf
                          "Gossip: peer never delivered content for %s" i.dest)))
        in
        (i, content))
      c.installs
  in
  List.iter
    (fun ((i : Plan.install), content) ->
      Replica.install c.replica ~path:i.dest i.entry content)
    resolved;
  Replica.flush c.replica;
  c.applied <- List.length resolved;
  Scope.add c.scope "gossip_installs" c.applied

let account_in c raw =
  c.bytes_in <- c.bytes_in + String.length raw;
  Scope.add c.scope "gossip_bytes" (String.length raw)

let encode_all c msgs =
  List.map
    (fun m ->
      let raw = Msg.encode ~config:!(c.config) m in
      c.bytes_out <- c.bytes_out + String.length raw;
      Scope.add c.scope "gossip_bytes" (String.length raw);
      raw)
    msgs

(* ---- initiator ---- *)

module Initiator = struct
  type phase =
    | Expect_welcome
    | Expect_greet
    | Recon
    | Expect_table
    | Pulling
    | Serving (* the responder's pull phase, then its Bye *)
    | Done
    | Failed

  type t = {
    c : common;
    diff : (string, unit) Hashtbl.t; (* symmetric-difference paths *)
    mutable phase : phase;
  }

  let create ?policy ?scope replica =
    let c = common ?policy ?scope replica in
    Scope.incr c.scope "gossip_sessions";
    { c; diff = Hashtbl.create 16; phase = Expect_welcome }

  let finished t = match t.phase with Done -> true | _ -> false
  let failed t = match t.phase with Failed -> true | _ -> false
  let peer_id t = t.c.peer_id
  let stats t = stats_of t.c

  let start t =
    encode_all t.c
      [
        Handshake.hello
          ~swarm:
            {
              Msg.peer = Replica.peer t.c.replica;
              summary = Fp.of_raw (root_digest t.c);
            }
          ();
      ]

  let add_diff t path = Hashtbl.replace t.diff path ()

  (* One answer frame in, the next query frontier out. *)
  let process_answers t answers =
    let next = ref [] in
    List.iter
      (fun (a : Swarm_wire.answer) ->
        match a with
        | Swarm_wire.Equal _ -> ()
        | Swarm_wire.Leaves (r, theirs) ->
            let remaining = Hashtbl.create 8 in
            List.iter
              (fun (p, d) -> Hashtbl.replace remaining p d)
              theirs;
            List.iter
              (fun (p, d) ->
                (match Hashtbl.find_opt remaining p with
                | Some d' when Fp.equal d d' -> ()
                | Some _ | None -> add_diff t p);
                Hashtbl.remove remaining p)
              (Merkle.leaves_in_range t.c.tree r);
            Hashtbl.iter (fun p _ -> add_diff t p) remaining
        | Swarm_wire.Descend (_, children) ->
            List.iter
              (fun (q : Swarm_wire.query) ->
                let mine = Merkle.digest_of_range t.c.tree q.range in
                if not (String.equal mine q.digest) then
                  next := { q with digest = mine } :: !next)
              children)
      answers;
    List.rev !next

  let table_of_diff t =
    let paths =
      List.sort String.compare
        (Hashtbl.fold (fun p () acc -> p :: acc) t.diff [])
    in
    List.map (fun p -> (p, Replica.find t.c.replica p)) paths

  let end_pull t replies =
    t.phase <- Serving;
    replies @ [ Msg.Swarm_end ]

  let begin_pull t =
    match Fetch_plan.start t.c.fetch with
    | [] -> end_pull t []
    | ms ->
        t.phase <- Pulling;
        ms

  let on_fetch_frame t msg =
    let replies = Fetch_plan.on_message t.c.fetch msg in
    if Fetch_plan.complete t.c.fetch then end_pull t replies else replies

  let on_bye t root =
    apply t.c;
    let mine = Replica.summary t.c.replica in
    if not (Fp.equal mine root) then begin
      t.phase <- Failed;
      Error.fail
        (Error.Verification_failed
           (Printf.sprintf
              "Gossip: post-exchange root %s, peer announced %s" (Fp.to_hex mine)
              (Fp.to_hex root)))
    end;
    t.phase <- Done;
    []

  let on_message t raw =
    account_in t.c raw;
    let msg = Msg.decode ~config:!(t.c.config) raw in
    let dispatch () =
      match (t.phase, msg) with
      | Expect_welcome, Msg.Welcome { version; config; _ } ->
          Handshake.check_version ~who:"Gossip" version;
          t.c.config := config;
          t.phase <- Expect_greet;
          []
      | Expect_welcome, Msg.Busy { retry_after_ms } ->
          Handshake.reject_busy ~retry_after_ms
      | Expect_greet, Msg.Swarm_recon body -> (
          match Swarm_wire.decode_recon body with
          | Swarm_wire.Greet { peer; root } ->
              t.c.peer_id <- Some peer;
              if String.equal root (root_digest t.c) then begin
                (* Converged already: the whole session is four frames. *)
                t.c.short_circuit <- true;
                Scope.incr t.c.scope "gossip_short_circuits";
                t.phase <- Serving;
                [ Msg.Swarm_end ]
              end
              else begin
                t.phase <- Recon;
                [
                  Msg.Swarm_recon
                    (Swarm_wire.encode_recon
                       (Swarm_wire.Queries
                          [
                            {
                              range = Merkle.root_range;
                              digest = root_digest t.c;
                            };
                          ]));
                ]
              end
          | Swarm_wire.Queries _ | Swarm_wire.Answers _ ->
              Error.malformed "Gossip: expected the recon greeting")
      | Recon, Msg.Swarm_recon body -> (
          match Swarm_wire.decode_recon body with
          | Swarm_wire.Answers answers -> (
              match process_answers t answers with
              | _ :: _ as next ->
                  [
                    Msg.Swarm_recon
                      (Swarm_wire.encode_recon (Swarm_wire.Queries next));
                  ]
              | [] ->
                  t.phase <- Expect_table;
                  [ Msg.Swarm_table (Swarm_wire.encode_table (table_of_diff t)) ])
          | Swarm_wire.Greet _ | Swarm_wire.Queries _ ->
              Error.malformed "Gossip: expected recon answers")
      | Expect_table, Msg.Swarm_table body ->
          compute_plan t.c (Swarm_wire.decode_table body);
          begin_pull t
      | Pulling, (Msg.File_begin _ | Msg.Hashes _ | Msg.Tail _ | Msg.Full _)
        ->
          on_fetch_frame t msg
      | Serving, Msg.Swarm_fetch body -> serve_on_fetch t.c body
      | Serving, (Msg.Matched _ | Msg.File_ack _) -> serve_on_reply t.c msg
      | Serving, Msg.Bye { root } ->
          check_served t.c;
          on_bye t root
      | _, Msg.Error_msg m ->
          t.phase <- Failed;
          Error.fail
            (Error.Disconnected (Printf.sprintf "Gossip: peer error: %s" m))
      | _, other ->
          t.phase <- Failed;
          Error.malformed "Gossip: unexpected %s" (Msg.label other)
    in
    let replies =
      try dispatch ()
      with e ->
        (match t.phase with Done -> () | _ -> t.phase <- Failed);
        raise e
    in
    encode_all t.c replies
end

(* ---- responder ---- *)

module Responder = struct
  type phase =
    | Expect_hello
    | Serving (* descent, table, the initiator's pulls *)
    | Pushing (* our own pulls, then apply + Bye *)
    | Done
    | Failed

  type t = { c : common; mutable phase : phase }

  let create ?policy ?scope ?config replica =
    { c = common ?policy ?scope ?config replica; phase = Expect_hello }

  let finished t = match t.phase with Done -> true | _ -> false
  let failed t = match t.phase with Failed -> true | _ -> false
  let peer_id t = t.c.peer_id
  let stats t = stats_of t.c

  let finish t =
    apply t.c;
    t.phase <- Done;
    [ Msg.Bye { root = Replica.summary t.c.replica } ]

  let begin_push t =
    match Fetch_plan.start t.c.fetch with
    | [] -> finish t
    | ms ->
        t.phase <- Pushing;
        ms

  let on_message t raw =
    account_in t.c raw;
    let msg = Msg.decode ~config:!(t.c.config) raw in
    let dispatch () =
      match (t.phase, msg) with
      | Expect_hello, Msg.Hello { version; trace = _; swarm } -> (
          Handshake.check_version ~who:"Gossip" version;
          match swarm with
          | None ->
              Error.malformed
                "Gossip: plain Hello on a swarm endpoint (route to Session)"
          | Some { Msg.peer; summary = _ } ->
              t.c.peer_id <- Some peer;
              Scope.incr t.c.scope "gossip_sessions";
              t.phase <- Serving;
              [
                Handshake.welcome ~client_version:version
                  ~file_count:(List.length (Replica.files t.c.replica))
                  ~root:(Fp.of_raw (root_digest t.c))
                  ~config:!(t.c.config);
                Msg.Swarm_recon
                  (Swarm_wire.encode_recon
                     (Swarm_wire.Greet
                        {
                          peer = Replica.peer t.c.replica;
                          root = root_digest t.c;
                        }));
              ])
      | Serving, Msg.Swarm_recon body -> (
          match Swarm_wire.decode_recon body with
          | Swarm_wire.Queries qs ->
              [
                Msg.Swarm_recon
                  (Swarm_wire.encode_recon
                     (Swarm_wire.Answers (List.map (answer_query t.c) qs)));
              ]
          | Swarm_wire.Greet _ | Swarm_wire.Answers _ ->
              Error.malformed "Gossip: expected recon queries")
      | Serving, Msg.Swarm_query body ->
          let path = Swarm_wire.decode_query body in
          [
            Msg.Swarm_table
              (Swarm_wire.encode_table
                 [ (path, Replica.find t.c.replica path) ]);
          ]
      | Serving, Msg.Swarm_table body ->
          let theirs = Swarm_wire.decode_table body in
          let mine =
            List.map (fun (p, _) -> (p, Replica.find t.c.replica p)) theirs
          in
          compute_plan t.c theirs;
          [ Msg.Swarm_table (Swarm_wire.encode_table mine) ]
      | Serving, Msg.Swarm_fetch body -> serve_on_fetch t.c body
      | Serving, (Msg.Matched _ | Msg.File_ack _) -> serve_on_reply t.c msg
      | Serving, Msg.Swarm_end ->
          check_served t.c;
          begin_push t
      | Pushing, (Msg.File_begin _ | Msg.Hashes _ | Msg.Tail _ | Msg.Full _)
        ->
          let replies = Fetch_plan.on_message t.c.fetch msg in
          if Fetch_plan.complete t.c.fetch then replies @ finish t
          else replies
      | _, Msg.Error_msg m ->
          t.phase <- Failed;
          Error.fail
            (Error.Disconnected (Printf.sprintf "Gossip: peer error: %s" m))
      | _, other ->
          t.phase <- Failed;
          Error.malformed "Gossip: unexpected %s" (Msg.label other)
    in
    let replies =
      try dispatch ()
      with e ->
        (match t.phase with Done -> () | _ -> t.phase <- Failed);
        raise e
    in
    encode_all t.c replies
end
