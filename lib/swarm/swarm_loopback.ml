module Channel = Fsync_net.Channel
module Error = Fsync_core.Error
module Scope = Fsync_obs.Scope
module Prng = Fsync_util.Prng
module Loopback = Fsync_server.Loopback

type session_result = {
  initiator : Gossip.stats;
  responder : Gossip.stats;
  c2s_bytes : int;
  s2c_bytes : int;
  roundtrips : int;
}

let session ?policy ?scope ?config ~initiator ~responder () =
  let ch = Channel.create () in
  let ini = Gossip.Initiator.create ?policy ?scope initiator in
  let resp = Gossip.Responder.create ?policy ?scope ?config responder in
  Loopback.pump_in_memory ch ~server:(Gossip.Responder.on_message resp)
    ~what:"Swarm_loopback: gossip session"
    {
      start = (fun () -> Gossip.Initiator.start ini);
      on_message = Gossip.Initiator.on_message ini;
      finished = (fun () -> Gossip.Initiator.finished ini);
    };
  {
    initiator = Gossip.Initiator.stats ini;
    responder = Gossip.Responder.stats resp;
    c2s_bytes = Channel.bytes ch Channel.Client_to_server;
    s2c_bytes = Channel.bytes ch Channel.Server_to_client;
    roundtrips = Channel.roundtrips ch;
  }

let repair ?policy ?scope ?config ~replica ~peers ~path () =
  List.map
    (fun peer ->
      let ch = Channel.create () in
      let rep = Repair.create ?policy ?scope replica ~path in
      let resp = Gossip.Responder.create ?policy ?scope ?config peer in
      Loopback.pump_in_memory ch ~server:(Gossip.Responder.on_message resp)
        ~what:"Swarm_loopback: repair session"
        {
          start = (fun () -> Repair.start rep);
          on_message = Repair.on_message rep;
          finished = (fun () -> Repair.finished rep);
        };
      Repair.outcome rep)
    peers

type t = {
  replicas : Replica.t array;
  rng : Prng.t;
  scope : Scope.t;
  policy : Resolve.policy option;
  mutable rounds : int;
  mutable sessions : int;
  mutable bytes : int;
  mutable conflicts : int;
}

let create ?(seed = 0L) ?(scope = Scope.disabled) ?policy replicas =
  if Int.equal (List.length replicas) 0 then
    Error.malformed "Swarm_loopback: empty swarm";
  {
    replicas = Array.of_list replicas;
    rng = Prng.create seed;
    scope;
    policy;
    rounds = 0;
    sessions = 0;
    bytes = 0;
    conflicts = 0;
  }

let replicas t = Array.to_list t.replicas
let rounds t = t.rounds
let sessions t = t.sessions
let bytes t = t.bytes
let conflicts t = t.conflicts

let converged t =
  let root = Replica.summary t.replicas.(0) in
  Array.for_all
    (fun r -> Fsync_hash.Fingerprint.equal (Replica.summary r) root)
    t.replicas

let round t =
  let k = Array.length t.replicas in
  t.rounds <- t.rounds + 1;
  Scope.incr t.scope "gossip_rounds";
  if k > 1 then begin
    (* Every peer initiates once per round against a uniformly random
       partner — classic push-pull anti-entropy, so information known to
       one peer reaches all K in O(log K) expected rounds. *)
    let order = Array.init k (fun i -> i) in
    Prng.shuffle t.rng order;
    Array.iter
      (fun i ->
        let j = (i + 1 + Prng.int t.rng (k - 1)) mod k in
        let r =
          session ?policy:t.policy ~scope:t.scope
            ~initiator:t.replicas.(i) ~responder:t.replicas.(j) ()
        in
        t.sessions <- t.sessions + 1;
        t.bytes <- t.bytes + r.c2s_bytes + r.s2c_bytes;
        t.conflicts <- t.conflicts + r.initiator.Gossip.conflicts)
      order
  end

let run ?(max_rounds = 64) t =
  while (not (converged t)) && t.rounds < max_rounds do
    round t
  done;
  if not (converged t) then
    Error.fail
      (Error.Verification_failed
         (Printf.sprintf
            "Swarm_loopback: %d peers still divergent after %d rounds"
            (Array.length t.replicas) t.rounds));
  Scope.observe t.scope "swarm_convergence_rounds" (float_of_int t.rounds);
  t.rounds
