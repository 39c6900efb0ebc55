(** Server side of one fsyncd/1 session, as a pure message-in /
    messages-out state machine.

    The machine never touches a socket: the daemon feeds it decoded
    frames via {!on_message} and writes the encoded replies it returns
    into the connection's outbox.  That keeps one slow client from
    stalling the others (the loop interleaves machines) and lets the
    tests drive the very same logic over an in-memory channel for
    byte-parity checks.

    Phases mirror the protocol: hello, announce, then every changed and
    new file at once, in lockstep through {!Batch.Serve} — one turn per
    round, each file's hash rounds against its mirrored
    {!Fsync_core.Block_tree} until {!Msg.decide_next} says tail, then
    the client's ack (a failed ack triggers one verified [Full]
    fallback) — and finally [Bye] with the collection root.

    The first message after [Welcome] picks the direction: [Announce]
    starts a pull as above, [Push_begin] starts an upload.  A push moves
    every file of a client turn in lockstep (fsyncd/1 rev 5): each
    chunk manifest is answered with a residency bitmap from the shared
    {!Fsync_store.Store} (everything-needed when the daemon has none),
    all in one [Chunk_need] frame; the turn's one [Chunk_data] payload
    is checked against the needed total before it is inflated, its
    chunks hash-verified, assembled with the resident ones and checked
    against each file's fingerprint, then persisted, published and
    acked in one [File_ack] frame.  If the {e store} lets a file's
    assembly down (a chunk vanished or corrupted underneath the bitmap)
    the session re-requests all of that file's chunks once; a second
    failure — or any client-side hash or length mismatch — is a typed
    teardown. *)

type t

val create :
  ?config:Msg.sync_config ->
  ?scope:Fsync_obs.Scope.t ->
  ?trace:Fsync_obs.Scope.t ->
  ?store:Fsync_store.Store.t ->
  ?publish:(path:string -> content:string -> unit) ->
  cache:Sigcache.t ->
  (string * string) list ->
  t
(** One machine per client over the server's [(path, content)]
    collection.  [cache] is shared across sessions — that is the point
    of it.  [store] (shared too) enables push dedup and store-assembled
    full payloads; [publish] is called for every verified pushed file so
    the daemon can fold it into the served collection.  Without
    [publish] the session is read-only: it serves pulls and answers an
    upload's opening frame with a typed [Malformed] teardown, so a push
    is never acknowledged and then dropped.

    [scope] carries daemon-wide counters shared by every session;
    [trace] is this session's {e private} registry: the machine stamps
    it with the trace id from [Hello] (role ["server"]), opens a root
    [session] span on it, and keeps exactly one [phase:*] child span
    open at a time ([phase:metadata] / [phase:hash_rounds] /
    [phase:literals] / [phase:push]), plus [store:io] spans around
    store reads and writes.  Phase spans stay open across the waits
    between messages so they tile the session span — that is what the
    coverage figure in [fsync trace report] measures. *)

val trace_id : t -> Fsync_obs.Trace_id.t option
(** Set by the [Hello]: the client's id, or one minted for a v1 peer. *)

val phase_name : t -> string
(** Live one-word label for [fsync top] / the status doc: [hello],
    [announce], [pull:rounds], [pull:ack], [push:idle], [push:chunks],
    [done] or [failed]. *)

val on_message : t -> string -> string list
(** Feed one decoded frame; returns encoded reply frames in send order.
    Raises typed {!Fsync_core.Error} values ([E]) on protocol
    violations — the daemon converts those into an [Error_msg] teardown.
    After an error the machine is {!failed} and rejects further
    input. *)

val finished : t -> bool
(** [Bye] has been emitted; the daemon may close once the outbox
    drains. *)

val failed : t -> bool

type stats = {
  hashes_total : int;   (** level hashes sent over all rounds *)
  hashes_cached : int;  (** of those, served from the signature cache *)
  full_fallbacks : int; (** failed acks repaired by a verified [Full] *)
  rounds : int;
  pushed_files : int;   (** files verified and published by pushes *)
  chunks_uploaded : int;(** manifest entries the bitmap asked for *)
  chunks_deduped : int; (** manifest entries already resident in the store *)
  resumed_jobs : int;   (** jobs skipped for a valid [Resume] bitmap *)
}

val stats : t -> stats
