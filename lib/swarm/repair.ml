module Error = Fsync_core.Error
module Scope = Fsync_obs.Scope
module Msg = Fsync_server.Msg
module Handshake = Fsync_server.Handshake

type outcome = {
  peer : string;
  had_entry : bool;
  pulled : int;
  installed : int;
  conflict : bool;
}

type phase =
  | Expect_welcome
  | Expect_greet
  | Expect_table
  | Pulling
  | Expect_bye
  | Done
  | Failed

type t = {
  replica : Replica.t;
  policy : Resolve.policy;
  scope : Scope.t;
  path : string;
  config : Msg.sync_config ref;
  fetch : Fetch_plan.t;
  mutable peer_id : string option;
  mutable installs : Plan.install list;
  mutable had_entry : bool;
  mutable conflict : bool;
  mutable applied : int;
  mutable phase : phase;
}

let create ?(policy = Resolve.default) ?(scope = Scope.disabled) replica ~path =
  if not (Replica.valid_path path) then
    Error.malformed "Repair: invalid path %S" path;
  let config = ref Msg.default_sync_config in
  {
    replica;
    policy;
    scope;
    path;
    config;
    fetch = Fetch_plan.create ~config:(fun () -> !config) replica;
    peer_id = None;
    installs = [];
    had_entry = false;
    conflict = false;
    applied = 0;
    phase = Expect_welcome;
  }

let finished t = match t.phase with Done -> true | _ -> false
let failed t = match t.phase with Failed -> true | _ -> false
let peer_id t = t.peer_id

let outcome t =
  {
    peer = (match t.peer_id with Some p -> p | None -> "?");
    had_entry = t.had_entry;
    pulled = Fetch_plan.count t.fetch;
    installed = t.applied;
    conflict = t.conflict;
  }

let encode_all t msgs = List.map (Msg.encode ~config:!(t.config)) msgs

let start t =
  encode_all t
    [
      Handshake.hello
        ~swarm:
          {
            Msg.peer = Replica.peer t.replica;
            summary = Replica.summary t.replica;
          }
        ();
    ]

let finish_pull t =
  t.phase <- Expect_bye;
  [ Msg.Swarm_end ]


let apply t =
  let resolved =
    List.map
      (fun (i : Plan.install) ->
        let content =
          match i.source with
          | Plan.Absent -> None
          | Plan.Local p -> (
              match Replica.content t.replica p with
              | Some _ as s -> s
              | None -> Error.malformed "Repair: local source %s vanished" p)
          | Plan.Remote _ -> (
              match Fetch_plan.pulled t.fetch i.dest with
              | Some _ as s -> s
              | None ->
                  Error.fail
                    (Error.Disconnected
                       (Printf.sprintf
                          "Repair: peer never delivered content for %s" i.dest)))
        in
        (i, content))
      t.installs
  in
  List.iter
    (fun ((i : Plan.install), content) ->
      Replica.install t.replica ~path:i.dest i.entry content)
    resolved;
  if not (Int.equal (List.length resolved) 0) then Replica.flush t.replica;
  t.applied <- List.length resolved;
  Scope.add t.scope "repair_pulls" (Fetch_plan.count t.fetch)

let on_message t raw =
  let msg = Msg.decode ~config:!(t.config) raw in
  let dispatch () =
    match (t.phase, msg) with
    | Expect_welcome, Msg.Welcome { version; config; _ } ->
        Handshake.check_version ~who:"Repair" version;
        t.config := config;
        t.phase <- Expect_greet;
        []
    | Expect_welcome, Msg.Busy { retry_after_ms } ->
        Handshake.reject_busy ~retry_after_ms
    | Expect_greet, Msg.Swarm_recon body -> (
        match Swarm_wire.decode_recon body with
        | Swarm_wire.Greet { peer; root = _ } ->
            t.peer_id <- Some peer;
            t.phase <- Expect_table;
            [ Msg.Swarm_query (Swarm_wire.encode_query t.path) ]
        | Swarm_wire.Queries _ | Swarm_wire.Answers _ ->
            Error.malformed "Repair: expected the recon greeting")
    | Expect_table, Msg.Swarm_table body -> (
        let theirs =
          match Swarm_wire.decode_table body with
          | [ (p, theirs) ] when String.equal p t.path -> theirs
          | _ ->
              Error.malformed "Repair: probe answer does not match %s" t.path
        in
        t.had_entry <- Option.is_some theirs;
        let ours = Replica.find t.replica t.path in
        let o = Plan.decide ~policy:t.policy ~path:t.path ~ours ~theirs () in
        if o.Plan.conflict then begin
          t.conflict <- true;
          Scope.incr t.scope "conflicts_detected"
        end;
        t.installs <- o.Plan.installs;
        Fetch_plan.enqueue t.fetch t.installs;
        match Fetch_plan.start t.fetch with
        | [] -> finish_pull t
        | ms ->
            t.phase <- Pulling;
            ms)
    | Pulling, (Msg.File_begin _ | Msg.Hashes _ | Msg.Tail _ | Msg.Full _) ->
        let replies = Fetch_plan.on_message t.fetch msg in
        if Fetch_plan.complete t.fetch then replies @ finish_pull t
        else replies
    | Expect_bye, Msg.Bye _ ->
        (* The roots legitimately differ — only [path] was repaired. *)
        apply t;
        t.phase <- Done;
        []
    | _, Msg.Error_msg m ->
        t.phase <- Failed;
        Error.fail
          (Error.Disconnected (Printf.sprintf "Repair: peer error: %s" m))
    | _, other ->
        t.phase <- Failed;
        Error.malformed "Repair: unexpected %s" (Msg.label other)
  in
  let replies =
    try dispatch ()
    with e ->
      (match t.phase with Done -> () | _ -> t.phase <- Failed);
      raise e
  in
  encode_all t replies
