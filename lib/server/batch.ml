module Error = Fsync_core.Error
module Meta_wire = Fsync_collection.Meta_wire

let turn_budget = Conn.default_max_outbox

let check_slot ~who ~count slot =
  if slot < 0 || slot >= count then
    Error.malformed "%s: slot %d outside the %d of this session" who slot count

module Serve = struct
  type reply = Matched of string | Ack of bool

  type slot =
    | Idle  (** no job, or its file is done *)
    | Queued of Serve_file.job  (** not opened yet *)
    | Awaiting of Serve_file.t  (** the client owes a reply this turn *)
    | Replied of Serve_file.t * reply  (** to be answered next turn *)
    | Held of Serve_file.t * Serve_file.send
        (** a literal the turn budget held back *)

  type t = {
    who : string;
    make : Serve_file.job -> Serve_file.t;
    slots : slot array;
    mutable awaiting : int;  (** slots in [Awaiting] *)
    mutable live : int;  (** slots not [Idle] *)
    mutable hashing : bool;
  }

  let create ~who ~make ~slots jobs =
    let t =
      { who; make; slots = Array.make slots Idle; awaiting = 0;
        live = 0; hashing = false }
    in
    List.iter
      (fun (i, job) ->
        t.slots.(i) <- Queued job;
        t.live <- t.live + 1)
      jobs;
    t

  let complete t = Int.equal t.live 0
  let hashing t = t.hashing

  (* One server turn: answer every reply and send every held literal, in
     slot order, then open queued jobs while the budget lasts.  Hashes
     never count against the budget; the first literal of a turn always
     goes, so every turn makes progress. *)
  let turn t =
    let begins = ref [] and hashes = ref [] and literals = ref [] in
    let used = ref 0 in
    let await i sf =
      t.slots.(i) <- Awaiting sf;
      t.awaiting <- t.awaiting + 1
    in
    let literal i sf s msg len =
      if !used < turn_budget then begin
        used := !used + len;
        literals := msg :: !literals;
        await i sf
      end
      else t.slots.(i) <- Held (sf, s)
    in
    let send i sf (s : Serve_file.send) =
      match s with
      | Begin { new_len; fp; hashes = hs } ->
          begins := (i, { Msg.new_len; fp }) :: !begins;
          hashes := (i, hs) :: !hashes;
          await i sf
      | Hashes hs ->
          hashes := (i, hs) :: !hashes;
          await i sf
      | Tail z ->
          literal i sf s (Msg.Tail { slot = i; literals = z }) (String.length z)
      | Full body ->
          literal i sf s (Msg.Full { slot = i; body }) (String.length body)
    in
    Array.iteri
      (fun i slot ->
        match slot with
        | Held (sf, s) -> send i sf s
        | Replied (sf, Matched bitmap) ->
            send i sf (Serve_file.on_matched sf bitmap)
        | Replied (sf, Ack ok) -> (
            match Serve_file.on_ack sf ok with
            | Some s -> send i sf s
            | None ->
                t.slots.(i) <- Idle;
                t.live <- t.live - 1)
        | Idle | Queued _ | Awaiting _ -> ())
      t.slots;
    Array.iteri
      (fun i slot ->
        match slot with
        | Queued job when !used < turn_budget ->
            let sf = t.make job in
            send i sf (Serve_file.start sf)
        | Queued _ | Idle | Awaiting _ | Replied _ | Held _ -> ())
      t.slots;
    t.hashing <- not (List.is_empty !hashes);
    if complete t then []
    else
      (match !begins with [] -> [] | bs -> [ Msg.File_begin (List.rev bs) ])
      @ List.rev !literals
      @ [ Msg.Hashes (List.rev !hashes) ]

  let start t = if complete t then [] else turn t

  let reply t slot r =
    check_slot ~who:t.who ~count:(Array.length t.slots) slot;
    let unexpected () =
      Error.malformed "%s: unexpected reply for slot %d" t.who slot
    in
    match t.slots.(slot) with
    | Awaiting sf -> (
        match (Serve_file.expecting sf, r) with
        | `Matched, Matched _ | `Ack, Ack _ ->
            t.slots.(slot) <- Replied (sf, r);
            t.awaiting <- t.awaiting - 1
        | (`Matched | `Ack | `Done), _ -> unexpected ())
    | Idle | Queued _ | Replied _ | Held _ -> unexpected ()

  let on_message t msg =
    (match msg with
    | Msg.Matched items ->
        List.iter (fun (slot, bitmap) -> reply t slot (Matched bitmap)) items
    | Msg.File_ack items ->
        List.iter (fun (slot, ok) -> reply t slot (Ack ok)) items
    | other -> Error.malformed "%s: unexpected %s" t.who (Msg.label other));
    if Int.equal t.awaiting 0 && not (complete t) then turn t else []
end

module Fetch = struct
  type slot =
    | Closed  (** not opened (yet) *)
    | Begun of Msg.file_begin  (** opened; its first hashes are due *)
    | Rounds of Fetch_file.t
    | Fallback  (** acked false: the verified [Full] is due *)
    | Verified

  type t = {
    who : string;
    config : Msg.sync_config;
    counters : Fetch_file.counters;
    path : int -> string;
    old : int -> string;
    on_file : int -> string -> unit;
    slots : slot array;
    seen : int array;  (** the turn each slot last got a file message in *)
    mutable turn : int;
    mutable acks : (int * bool) list;  (** this turn's, newest first *)
    mutable in_flight : int;  (** slots [Begun], in [Rounds] or [Fallback] *)
    mutable in_rounds : int;  (** of those, expecting hashes *)
    mutable verified : int;
  }

  let create ~who ~config ~counters ~path ~old ~on_file ~slots =
    {
      who; config; counters; path; old; on_file;
      slots = Array.make slots Closed;
      seen = Array.make slots (-1);
      turn = 0; acks = []; in_flight = 0; in_rounds = 0; verified = 0;
    }

  let idle t = Int.equal t.in_flight 0 && List.is_empty t.acks

  let complete t =
    Int.equal t.verified (Array.length t.slots) && List.is_empty t.acks

  let hashing t = t.in_rounds > 0

  (* A slot takes at most one hashes, tail or full message per turn. *)
  let touch t slot =
    check_slot ~who:t.who ~count:(Array.length t.slots) slot;
    if Int.equal t.seen.(slot) t.turn then
      Error.malformed "%s: slot %d twice in one turn" t.who slot;
    t.seen.(slot) <- t.turn

  let ack t slot ok = t.acks <- (slot, ok) :: t.acks

  let verify t slot content =
    t.on_file slot content;
    t.slots.(slot) <- Verified;
    t.in_flight <- t.in_flight - 1;
    t.verified <- t.verified + 1;
    ack t slot true

  let on_begin t (slot, (b : Msg.file_begin)) =
    check_slot ~who:t.who ~count:(Array.length t.slots) slot;
    match t.slots.(slot) with
    | Closed ->
        t.slots.(slot) <- Begun b;
        t.in_flight <- t.in_flight + 1;
        t.in_rounds <- t.in_rounds + 1
    | Begun _ | Rounds _ | Fallback | Verified ->
        Error.malformed "%s: slot %d opened twice" t.who slot

  let on_hashes t (slot, hs) =
    touch t slot;
    let ff =
      match t.slots.(slot) with
      | Begun { new_len; fp } ->
          (* The block tree is built now, not at [File_begin]: a first
             level of at most [start_block]-byte blocks must cover the
             claimed length, so the hashes in hand bound what the tree
             may allocate. *)
          if new_len / t.config.start_block > Array.length hs then
            Error.malformed "%s: slot %d claims %d bytes with %d hashes"
              t.who slot new_len (Array.length hs);
          let ff =
            Fetch_file.create ~who:t.who ~config:t.config ~counters:t.counters
              ~new_len ~fp ~old:(t.old slot)
          in
          t.slots.(slot) <- Rounds ff;
          ff
      | Rounds ff when not (Fetch_file.expect_tail ff) -> ff
      | Closed | Rounds _ | Fallback | Verified ->
          Error.malformed "%s: hashes for slot %d outside its rounds" t.who slot
    in
    let bitmap = Fetch_file.on_hashes ff hs in
    if Fetch_file.expect_tail ff then t.in_rounds <- t.in_rounds - 1;
    (slot, bitmap)

  let on_tail t slot z =
    touch t slot;
    match t.slots.(slot) with
    | Rounds ff when Fetch_file.expect_tail ff -> (
        match Fetch_file.on_tail ff z with
        | Some content -> verify t slot content
        | None ->
            t.slots.(slot) <- Fallback;
            ack t slot false)
    | Closed | Begun _ | Rounds _ | Fallback | Verified ->
        Error.malformed "%s: tail for slot %d before its last round" t.who slot

  let on_full t slot body =
    touch t slot;
    (match t.slots.(slot) with
    | Closed -> t.in_flight <- t.in_flight + 1
    | Fallback -> ()
    | Begun _ | Rounds _ | Verified ->
        Error.malformed "%s: unexpected full file for slot %d" t.who slot);
    let path, content = Meta_wire.decode_file_msg ~old_content:"" body in
    if not (String.equal path (t.path slot)) then
      Error.malformed "%s: slot %d carries %s, not %s" t.who slot path
        (t.path slot);
    t.counters.literal_bytes <-
      t.counters.literal_bytes + String.length content;
    verify t slot content

  (* The closing [Hashes] frame: answer the whole turn at once. *)
  let end_turn t items =
    let matched = List.map (on_hashes t) items in
    let acks = List.sort (fun (a, _) (b, _) -> Int.compare a b) t.acks in
    t.acks <- [];
    t.turn <- t.turn + 1;
    match (acks, matched) with
    | [], [] -> Error.malformed "%s: a server turn with no file messages" t.who
    | _ ->
        (if List.is_empty acks then [] else [ Msg.File_ack acks ])
        @ if List.is_empty matched then [] else [ Msg.Matched matched ]

  let on_message t msg =
    match msg with
    | Msg.File_begin items ->
        List.iter (on_begin t) items;
        []
    | Msg.Tail { slot; literals } ->
        on_tail t slot literals;
        []
    | Msg.Full { slot; body } ->
        on_full t slot body;
        []
    | Msg.Hashes items -> end_turn t items
    | other -> Error.malformed "%s: unexpected %s" t.who (Msg.label other)
end
