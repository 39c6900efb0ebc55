module Daemon = Fsync_server.Daemon
module Backoff = Fsync_server.Backoff
module Scope = Fsync_obs.Scope

type t = {
  daemon : Daemon.t;
  gossip_sessions : int ref;
  plain_sessions : int ref;
}

(* A Hello carrying the swarm extension starts an anti-entropy exchange
   against the replica; a plain Hello a read-only session over the
   replica's files as they are now, so sessions opened after a gossip
   apply serve the converged state. *)
let create ?(config = Daemon.default_config) ?(scope = Scope.disabled) ?policy
    replica =
  let gossip_sessions = ref 0 and plain_sessions = ref 0 in
  let route = function
    | Some _ ->
        incr gossip_sessions;
        let g =
          Gossip.Responder.create ?policy ~scope ~config:config.sync replica
        in
        Daemon.Machine
          {
            on_message = Gossip.Responder.on_message g;
            finished = (fun () -> Gossip.Responder.finished g);
          }
    | None ->
        incr plain_sessions;
        Daemon.Read_only (Replica.files replica)
  in
  { daemon = Daemon.create ~config ~scope ~route []; gossip_sessions;
    plain_sessions }

let daemon t = t.daemon
let gossip_sessions t = !(t.gossip_sessions)
let plain_sessions t = !(t.plain_sessions)

let gossip ?policy ?scope ?(idle_timeout_s = 30.0) ~host ~port replica =
  let ini = Gossip.Initiator.create ?policy ?scope replica in
  ignore
    (Backoff.drive ~idle_timeout_s ~host ~port ~what:"Peer: gossip"
       {
         start = (fun () -> Gossip.Initiator.start ini);
         on_message = Gossip.Initiator.on_message ini;
         finished = (fun () -> Gossip.Initiator.finished ini);
       });
  Gossip.Initiator.stats ini

let repair ?policy ?scope ?(idle_timeout_s = 30.0) ~host ~port replica ~path =
  let rep = Repair.create ?policy ?scope replica ~path in
  ignore
    (Backoff.drive ~idle_timeout_s ~host ~port ~what:"Peer: repair"
       {
         start = (fun () -> Repair.start rep);
         on_message = Repair.on_message rep;
         finished = (fun () -> Repair.finished rep);
       });
  Repair.outcome rep
