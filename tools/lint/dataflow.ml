(* Intraprocedural dataflow for rules R6-R9.

   The engine walks each top-level binding's expression tree in
   evaluation order carrying a per-function environment:

   - R6 tracks {e acquired resources}: a value bound from an fd/channel
     constructor must be released (closed, protected by a finally, or
     handed off to an owner) on every control-flow path from its
     acquisition — see {!released} for the path logic.
   - R7 tracks {e tainted integers}: a value decoded from the wire stays
     tainted until a bounds guard (comparison / min / max) mentions it;
     an allocation or multiplication reached while still tainted is a
     finding.  Because the walk is in evaluation order, a guard placed
     {e after} the sink does not launder it — exactly the PR-5 `'S'`
     overflow shape.
   - R8 and R9 consult the {e call context} (which file this is,
     whether raw fd I/O is sanctioned here) to flag blocking calls in
     the event loop and un-mediated mutating syscalls in the crash-safe
     store paths.

   Everything is approximate in the direction the repo can live with:
   ownership hand-off (passing the resource to any unknown function,
   storing it in a structure or closure, returning it) discharges R6,
   and any comparison counts as an R7 guard.  False negatives are
   possible; false positives have the per-rule [@fsynlint.allow]
   escape hatch.

   Portability note: matching is restricted to Parsetree constructors
   whose shape is identical on 4.14 and 5.2 — in particular the
   function/fun nodes (which changed in 5.2) are never destructured;
   closures are handled through the generic [mentions] capture check
   and the default-iterator traversal. *)

open Parsetree

(* Which of R6-R9 apply here, and the file-specific call context. *)
type ctx = {
  file : string;
  enabled : Rule.t -> bool;
  allows : attributes -> Rule.t list;
      (* [@fsynlint.allow "rN ..."] payloads, resolved by the caller *)
  decode_module : bool;
      (* unqualified get_*/read_* calls are taint sources here (the
         file is one of the Msg/Wire/Frame/Meta_wire codec modules) *)
  conn_io_ok : bool;
      (* raw nonblocking Unix.read/write sanctioned (Conn's buffers) *)
}

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

(* ------------------------------------------------------------------ *)
(* Ident classification                                                *)
(* ------------------------------------------------------------------ *)

let lident_path (id : Longident.t) =
  (* "Unix.openfile", "Fun.protect", "read" ... — flattened with dots,
     enough to classify; functor applications never appear in these
     call sites. *)
  String.concat "." (Longident.flatten id)

(* R6: calls that mint a resource the caller must release. *)
let acquisition = function
  | "Unix.openfile" | "Unix.socket" | "Unix.accept" | "Unix.opendir"
  | "Unix.socketpair" | "Unix.dup" | "open_in" | "open_in_bin"
  | "open_in_gen" | "open_out" | "open_out_bin" | "open_out_gen"
  | "Stdlib.open_in" | "Stdlib.open_in_bin" | "Stdlib.open_out"
  | "Stdlib.open_out_bin" ->
      true
  | _ -> false

(* R6: calls that release a resource passed to them. *)
let release = function
  | "Unix.close" | "Unix.closedir" | "close_in" | "close_in_noerr"
  | "close_out" | "close_out_noerr" | "Stdlib.close_in"
  | "Stdlib.close_in_noerr" | "Stdlib.close_out" | "Stdlib.close_out_noerr" ->
      true
  | _ -> false

(* R6: calls that merely use a resource — neither a release nor an
   ownership hand-off.  Anything not listed here or in [release] is
   assumed to take ownership (Conn.create, Fd_transport.of_fd, a record
   field, ...), which discharges the acquirer. *)
let operation = function
  | "Unix.read" | "Unix.write" | "Unix.write_substring" | "Unix.single_write"
  | "Unix.send" | "Unix.recv" | "Unix.send_substring" | "Unix.setsockopt"
  | "Unix.set_nonblock" | "Unix.clear_nonblock" | "Unix.bind" | "Unix.listen"
  | "Unix.connect" | "Unix.getsockname" | "Unix.getpeername" | "Unix.select"
  | "Unix.fsync" | "Unix.lseek" | "Unix.ftruncate" | "Unix.readdir"
  | "Unix.rewinddir" | "Unix.set_close_on_exec" | "Unix.getsockopt"
  | "input" | "really_input" | "really_input_string" | "input_line"
  | "input_char" | "input_byte" | "in_channel_length" | "seek_in" | "pos_in"
  | "set_binary_mode_in" | "output" | "output_string" | "output_bytes"
  | "output_char" | "output_byte" | "flush" | "seek_out" | "pos_out"
  | "out_channel_length" | "set_binary_mode_out" | "ignore" ->
      true
  | _ -> false

(* R7 sinks: the declared size reaches an allocator.  [Buffer.create]
   counts: its initial size is allocated up front, so a declared length
   sizing a buffer is as dangerous as one sizing a [Bytes]. *)
let allocator = function
  | "Bytes.create" | "Bytes.make" | "Bytes.init" | "String.make"
  | "String.init" | "Array.make" | "Array.init" | "Array.create_float"
  | "List.init" | "Buffer.create" ->
      true
  | _ -> false

(* R7 guards: a comparison or clamp mentioning the tainted value.  Any
   comparison counts — the rule enforces that {e some} bound is checked
   before the value is trusted, not which bound. *)
let comparison = function
  | "=" | "<>" | "<" | ">" | "<=" | ">=" | "==" | "!=" | "compare" | "min"
  | "max" | "Int.equal" | "Int.compare" | "Int.min" | "Int.max" ->
      true
  | _ -> false

(* R7 sources: wire readers returning attacker-controlled integers.
   Qualified forms work anywhere; unqualified get_*/read_* only inside
   the codec modules themselves (where the readers are local). *)
let qualified_source path =
  match String.rindex_opt path '.' with
  | None -> false
  | Some i ->
      let m = String.sub path 0 i in
      let f = String.sub path (i + 1) (String.length path - i - 1) in
      let known_module =
        match m with
        | "Varint" | "Fsync_util.Varint" | "Msg" | "Fsync_server.Msg"
        | "Wire" | "Fsync_core.Wire" | "Frame" | "Fsync_net.Frame"
        | "Meta_wire" | "Fsync_collection.Meta_wire" ->
            true
        | _ -> false
      in
      known_module
      && (String.equal f "read" || String.equal f "read_signed"
         || starts_with ~prefix:"get_" f
         || starts_with ~prefix:"read_" f)

let taint_source ctx path =
  qualified_source path
  || ctx.decode_module
     && (starts_with ~prefix:"get_" path
        || starts_with ~prefix:"read_" path)

(* R8: calls that block the event loop outright. *)
let blocking = function
  | "Unix.sleep" | "Unix.sleepf" | "Thread.delay" | "Unix.system"
  | "Sys.command" | "Unix.wait" | "Unix.waitpid" | "Unix.gethostbyname"
  | "Unix.getaddrinfo" ->
      true
  | _ -> false

(* R8: raw fd I/O — blocking unless the fd is under Conn's non-blocking
   discipline, which only conn.ml itself is trusted to maintain. *)
let raw_fd_io = function
  | "Unix.read" | "Unix.write" | "Unix.write_substring" | "Unix.single_write"
  | "Unix.recv" | "Unix.send" | "Unix.send_substring" ->
      true
  | _ -> false

(* R9: mutating filesystem entry points that bypass Fsync_store.Io. *)
let raw_mutation = function
  | "Unix.rename" | "Unix.unlink" | "Unix.mkdir" | "Unix.rmdir"
  | "Unix.fsync" | "Unix.truncate" | "Unix.ftruncate" | "Unix.link"
  | "Unix.symlink" | "Unix.chmod" | "Sys.rename" | "Sys.remove" | "Sys.mkdir"
  | "Sys.rmdir" | "open_out" | "open_out_bin" | "open_out_gen"
  | "Stdlib.open_out" | "Stdlib.open_out_bin" ->
      true
  | _ -> false

let write_flag = function
  | "O_WRONLY" | "O_RDWR" | "O_CREAT" | "O_TRUNC" | "O_APPEND" -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Pattern / expression helpers                                        *)
(* ------------------------------------------------------------------ *)

let rec pattern_vars (p : pattern) =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> [ txt ]
  | Ppat_alias (inner, { txt; _ }) -> txt :: pattern_vars inner
  | Ppat_tuple ps -> List.concat_map pattern_vars ps
  | Ppat_constraint (inner, _) -> pattern_vars inner
  | Ppat_construct (_, Some (_, inner)) -> pattern_vars inner
  | Ppat_record (fields, _) ->
      List.concat_map (fun (_, p) -> pattern_vars p) fields
  | Ppat_or (a, b) -> pattern_vars a @ pattern_vars b
  | _ -> []

(* The wire readers return either the value itself or a
   (value, next_pos) pair; only the value component is a length. *)
let taint_vars_of_pattern (p : pattern) =
  match p.ppat_desc with
  | Ppat_tuple (first :: _) -> pattern_vars first
  | _ -> pattern_vars p

let head_ident (e : expression) =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (lident_path txt)
  | _ -> None

(* Does [v] occur (as an ident) anywhere inside [e]?  Shadowing is
   ignored — an over-approximation that errs towards "the resource was
   handed off" / "the taint spread". *)
let mentions v e =
  let found = ref false in
  let super = Ast_iterator.default_iterator in
  let expr it (x : expression) =
    (match x.pexp_desc with
    | Pexp_ident { txt = Longident.Lident n; _ } when String.equal n v ->
        found := true
    | _ -> ());
    super.expr it x
  in
  let it = { super with expr } in
  it.expr it e;
  !found

let constructs_write_flag e =
  let found = ref false in
  let super = Ast_iterator.default_iterator in
  let expr it (x : expression) =
    (match x.pexp_desc with
    | Pexp_construct ({ txt; _ }, _) -> (
        match List.rev (Longident.flatten txt) with
        | last :: _ when write_flag last -> found := true
        | _ -> ())
    | _ -> ());
    super.expr it x
  in
  let it = { super with expr } in
  it.expr it e;
  !found

let is_bare_ident (e : expression) =
  match e.pexp_desc with Pexp_ident _ -> true | _ -> false

(* Does [e] contain a [Fun.protect] call whose arguments mention [v]?
   Ownership handed to Fun.protect survives exceptions, so a [try]
   around it needs no release in its handlers. *)
let protected v e =
  let found = ref false in
  let super = Ast_iterator.default_iterator in
  let expr it (x : expression) =
    (match x.pexp_desc with
    | Pexp_apply (f, args) -> (
        match head_ident f with
        | Some "Fun.protect" ->
            if List.exists (fun (_, a) -> mentions v a) args then found := true
        | _ -> ())
    | _ -> ());
    super.expr it x
  in
  let it = { super with expr } in
  it.expr it e;
  !found

(* ------------------------------------------------------------------ *)
(* R6: every-path release analysis                                     *)
(* ------------------------------------------------------------------ *)

(* [released v e]: does every terminating path through [e] either close
   [v], hand its ownership off, or keep it reachable by an owner?

   The path logic, briefly:
   - a sequence releases if either half does;
   - both arms of an if / all arms of a match must release (a one-armed
     [if] releases only via its condition);
   - [try]/[match ... with exception] arms must {e each} release — an
     error arm that drops the value is precisely the PR-5 fd leak;
   - passing [v] to an unknown function (Fun.protect included),
     returning it, or storing it in any constructed value or closure is
     a hand-off: the new owner closes it;
   - an [operation] on [v] (read/write/bind/...) is use, not hand-off. *)
let rec released v (e : expression) =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident n; _ } ->
      String.equal n v (* returned to the caller *)
  | Pexp_apply (f, args) -> released_apply v f args
  | Pexp_let (_, vbs, body) ->
      List.exists (fun vb -> released v vb.pvb_expr) vbs
      || (not
            (List.exists
               (fun vb -> List.mem v (pattern_vars vb.pvb_pat))
               vbs)
         && released v body)
  | Pexp_sequence (a, b) -> released v a || released v b
  | Pexp_ifthenelse (c, t, Some e') ->
      released v c || (released v t && released v e')
  | Pexp_ifthenelse (c, _, None) -> released v c
  | Pexp_match (scrut, cases) ->
      released v scrut
      || (match cases with
         | [] -> false
         | _ :: _ ->
             List.for_all
               (fun c ->
                 (not (List.mem v (pattern_vars c.pc_lhs)))
                 && released v c.pc_rhs)
               cases)
  | Pexp_try (body, cases) ->
      (* The body can raise at any point {e before} its release, so a
         release inside the body does not cover the exception path:
         every handler must also release (or the body must have handed
         ownership to Fun.protect, whose ~finally survives the raise).
         A handler that drops the value is the PR-5 peer-gone leak. *)
      protected v body
      || released v body
         && List.for_all
              (fun c ->
                (not (List.mem v (pattern_vars c.pc_lhs)))
                && released v c.pc_rhs)
              cases
  | Pexp_construct (_, Some arg) | Pexp_variant (_, Some arg) ->
      mentions v arg || released v arg
  | Pexp_tuple es | Pexp_array es ->
      List.exists (fun x -> mentions v x || released v x) es
  | Pexp_record (fields, base) ->
      List.exists (fun (_, x) -> mentions v x || released v x) fields
      || (match base with Some b -> released v b | None -> false)
  | Pexp_setfield (r, _, x) -> mentions v x || released v r || released v x
  | Pexp_field (r, _) -> released v r
  | Pexp_constraint (x, _) | Pexp_coerce (x, _, _) | Pexp_assert x
  | Pexp_lazy x | Pexp_open (_, x) | Pexp_letmodule (_, _, x)
  | Pexp_letexception (_, x) | Pexp_newtype (_, x) ->
      released v x
  | Pexp_while (c, _) -> released v c (* the body may run zero times *)
  | Pexp_for (_, lo, hi, _, _) -> released v lo || released v hi
  | _ ->
      (* Function nodes land here (their shape changed across compiler
         versions): a closure capturing [v] is a hand-off. *)
      mentions v e && not (is_bare_ident e)

and released_apply v f args =
  let arg_is_v (_, (a : expression)) =
    match a.pexp_desc with
    | Pexp_ident { txt = Longident.Lident n; _ } -> String.equal n v
    | _ -> false
  in
  let arg_exprs = List.map snd args in
  (* A bare [v] argument is a use or a hand-off depending on the
     callee; it is never "released by being evaluated", so exclude it
     from the recursive check. *)
  let any_arg_releases () =
    List.exists
      (fun (a : expression) -> (not (is_bare_ident a)) && released v a)
      arg_exprs
  in
  match head_ident f with
  | Some p when release p -> List.exists arg_is_v args || any_arg_releases ()
  | Some p when operation p -> any_arg_releases ()
  | Some ("raise" | "raise_notrace") ->
      List.exists (fun a -> mentions v a) arg_exprs
  | Some _ | None ->
      (* Unknown callee (Fun.protect, Conn.create, ...): passing [v],
         even inside a closure or structure, hands ownership off. *)
      List.exists (fun a -> mentions v a) arg_exprs || any_arg_releases ()

(* ------------------------------------------------------------------ *)
(* The walk                                                            *)
(* ------------------------------------------------------------------ *)

type state = {
  ctx : ctx;
  mutable findings : Rule.finding list;
  mutable suppressed : Rule.t list;
  tainted : (string, unit) Hashtbl.t;
}

let add st rule (loc : Location.t) msg =
  if st.ctx.enabled rule && not (List.exists (Rule.equal rule) st.suppressed)
  then
    st.findings <-
      Rule.finding_of_loc rule ~file:st.ctx.file loc msg :: st.findings

let with_allows st attrs k =
  match st.ctx.allows attrs with
  | [] -> k ()
  | allows ->
      let saved = st.suppressed in
      st.suppressed <- allows @ saved;
      Fun.protect ~finally:(fun () -> st.suppressed <- saved) k

let is_tainted st v = Hashtbl.mem st.tainted v
let untaint st v = Hashtbl.remove st.tainted v
let taint st v = Hashtbl.replace st.tainted v ()

let tainted_ident st (e : expression) =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident n; _ } when is_tainted st n -> Some n
  | _ -> None

(* A composite expression counts as tainted when any currently-tainted
   variable occurs in it ([count + 1], [n * width], ...). *)
let expr_tainted st e =
  match tainted_ident st e with
  | Some v -> Some v
  | None ->
      Hashtbl.fold
        (fun v () acc ->
          match acc with
          | Some _ -> acc
          | None -> if mentions v e then Some v else None)
        st.tainted None

(* R6 entry: [pat] was just bound to the result of an acquisition at
   [loc]; every bound variable must be released within [scope]. *)
let check_acquisition st ~what ~(loc : Location.t) pat scope =
  if st.ctx.enabled Rule.R6 then begin
    match pattern_vars pat with
    | [] ->
        add st Rule.R6 loc
          (Printf.sprintf
             "`%s` result is discarded — the fd/channel can never be closed"
             what)
    | vars ->
        List.iter
          (fun v ->
            if not (released v scope) then
              add st Rule.R6 loc
                (Printf.sprintf
                   "`%s` may leak `%s`: close it on every path (including \
                    error branches) or wrap the use in Fun.protect ~finally"
                   what v))
          vars
  end

let rec go st (e : expression) =
  with_allows st e.pexp_attributes @@ fun () ->
  match e.pexp_desc with
  | Pexp_ident { txt; loc } ->
      let p = lident_path txt in
      if st.ctx.enabled Rule.R8 && blocking p then
        add st Rule.R8 loc
          (Printf.sprintf
             "`%s` used as a value inside the event loop — it blocks every \
              session"
             p);
      if st.ctx.enabled Rule.R9 && raw_mutation p then
        add st Rule.R9 loc
          (Printf.sprintf
             "`%s` passed around raw — mutations must go through \
              Fsync_store.Io so Fault_io can intercept them"
             p)
  | Pexp_let (_, vbs, body) ->
      List.iter (fun vb -> binding st vb body) vbs;
      go st body
  | Pexp_match (scrut, cases) -> (
      (* [match acquisition with] binds the resource per-case. *)
      go st scrut;
      match acquisition_of st scrut with
      | Some what ->
          List.iter
            (fun c ->
              (match pattern_vars c.pc_lhs with
              | [] -> ()
              | _ :: _ ->
                  check_acquisition st ~what ~loc:scrut.pexp_loc c.pc_lhs
                    c.pc_rhs);
              case st c)
            cases
      | None -> List.iter (fun c -> case st c) cases)
  | Pexp_try (body, cases) ->
      go st body;
      List.iter (fun c -> case st c) cases
  | Pexp_apply (f, args) -> apply st e f args
  | _ -> go_children st e

and case st (c : case) =
  shadowing st (pattern_vars c.pc_lhs) @@ fun () ->
  (match c.pc_guard with Some g -> go st g | None -> ());
  go st c.pc_rhs

and shadowing st vars k =
  (* Case bindings hide outer taints for the duration of the arm. *)
  let saved = List.filter (fun v -> is_tainted st v) vars in
  List.iter (untaint st) vars;
  Fun.protect ~finally:(fun () -> List.iter (taint st) saved) k

and acquisition_of st (e : expression) =
  if not (st.ctx.enabled Rule.R6) then None
  else
    match e.pexp_desc with
    | Pexp_apply (f, _) -> (
        match head_ident f with
        | Some p when acquisition p -> Some p
        | _ -> None)
    | _ -> None

and binding st (vb : value_binding) body =
  with_allows st vb.pvb_attributes @@ fun () ->
  with_allows st vb.pvb_expr.pexp_attributes @@ fun () ->
  match acquisition_of st vb.pvb_expr with
  | Some what ->
      go st vb.pvb_expr;
      check_acquisition st ~what ~loc:vb.pvb_expr.pexp_loc vb.pvb_pat body
  | None ->
      go st vb.pvb_expr;
      (* Taint transfer: a source call taints the value component; any
         rhs still mentioning a tainted var propagates; a clean rhs
         clears rebound names. *)
      let vars = pattern_vars vb.pvb_pat in
      let taints =
        if not (st.ctx.enabled Rule.R7) then []
        else
          match vb.pvb_expr.pexp_desc with
          | Pexp_apply (f, _)
            when (match head_ident f with
                 | Some p -> taint_source st.ctx p
                 | None -> false) ->
              taint_vars_of_pattern vb.pvb_pat
          | _ ->
              if Option.is_some (expr_tainted st vb.pvb_expr) then vars
              else []
      in
      List.iter (untaint st) vars;
      List.iter (taint st) taints

and apply st (e : expression) f args =
  let arg_exprs = List.map snd args in
  let p = match head_ident f with Some p -> p | None -> "" in
  (* R8 --------------------------------------------------------------- *)
  if st.ctx.enabled Rule.R8 then begin
    if blocking p then
      add st Rule.R8 f.pexp_loc
        (Printf.sprintf
           "`%s` blocks the event loop — every session stalls behind it" p);
    if raw_fd_io p && not st.ctx.conn_io_ok then
      add st Rule.R8 f.pexp_loc
        (Printf.sprintf
           "raw `%s` in the event loop — only Conn's non-blocking buffers \
            may touch session fds"
           p);
    if String.equal p "Unix.select" then
      match List.rev arg_exprs with
      | timeout :: _ when is_negative_float timeout ->
          add st Rule.R8 f.pexp_loc
            "`Unix.select` with a negative timeout blocks indefinitely — \
             the loop must keep its own deadline"
      | _ -> ()
  end;
  (* R9 --------------------------------------------------------------- *)
  if st.ctx.enabled Rule.R9 then begin
    if raw_mutation p then
      add st Rule.R9 f.pexp_loc
        (Printf.sprintf
           "raw `%s` bypasses Fsync_store.Io — Fault_io's crash-point \
            sweep cannot cover it"
           p)
    else if
      String.equal p "Unix.openfile"
      && List.exists constructs_write_flag arg_exprs
    then
      add st Rule.R9 f.pexp_loc
        "`Unix.openfile` with write flags bypasses Fsync_store.Io — route \
         the write through the Io record"
  end;
  (* R7 sinks fire on the taint state at the moment of evaluation. ---- *)
  if st.ctx.enabled Rule.R7 then begin
    (if allocator p then
       match positional_args args with
       | first :: _ -> (
           match expr_tainted st first with
           | Some v ->
               add st Rule.R7 f.pexp_loc
                 (Printf.sprintf
                    "wire-derived `%s` reaches `%s` without a bounds guard \
                     — compare it against a limit first"
                    v p)
           | None -> ())
       | [] -> ());
    if String.equal p "*" then
      List.iter
        (fun a ->
          match expr_tainted st a with
          | Some v ->
              add st Rule.R7 e.pexp_loc
                (Printf.sprintf
                   "multiplying wire-derived `%s` can overflow before any \
                    bounds check — bound the count first, then multiply"
                   v)
          | None -> ())
        arg_exprs
  end;
  (* Recurse: a complex callee, then the arguments in order (sinks
     nested inside a guard expression still fire before the guard). *)
  (match head_ident f with Some _ -> () | None -> go st f);
  List.iter (go st) arg_exprs;
  (* Guard effect: a comparison mentioning a tainted var launders it
     for the rest of the walk — which is evaluation order, so guards
     after a sink do not rescue it. *)
  if st.ctx.enabled Rule.R7 && comparison p then
    List.iter
      (fun a ->
        (* Untaint every variable the guard inspects, even inside a
           larger expression ([pos + len > limit] guards [len]). *)
        Hashtbl.fold (fun v () acc -> if mentions v a then v :: acc else acc)
          st.tainted []
        |> List.iter (untaint st))
      arg_exprs

and is_negative_float (e : expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float (s, _)) ->
      String.length s > 0 && Char.equal s.[0] '-'
  | Pexp_apply
      ( { pexp_desc = Pexp_ident { txt = Longident.Lident ("~-." | "~-"); _ };
          _ },
        [ (_, { pexp_desc = Pexp_constant _; _ }) ] ) ->
      true
  | _ -> false

and positional_args args =
  List.filter_map
    (fun (label, a) ->
      match label with Asttypes.Nolabel -> Some a | _ -> None)
    args

and go_children st (e : expression) =
  (* Generic traversal for every node shape not handled above; the
     default iterator knows the compiler's own Parsetree, so function
     nodes and future constructors are walked without matching them. *)
  let super = Ast_iterator.default_iterator in
  let it = { super with expr = (fun _ x -> go st x) } in
  super.expr it e

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let scan_structure ctx (str : structure) =
  if not (List.exists ctx.enabled [ Rule.R6; Rule.R7; Rule.R8; Rule.R9 ])
  then []
  else begin
    let st =
      { ctx; findings = []; suppressed = []; tainted = Hashtbl.create 8 }
    in
    let rec items sis =
      List.iter
        (fun (si : structure_item) ->
          match si.pstr_desc with
          | Pstr_value (_, vbs) ->
              List.iter
                (fun vb ->
                  (* One top-level binding = one function: fresh env. *)
                  Hashtbl.reset st.tainted;
                  with_allows st vb.pvb_attributes (fun () ->
                      go st vb.pvb_expr))
                vbs
          | Pstr_eval (e, attrs) ->
              Hashtbl.reset st.tainted;
              with_allows st attrs (fun () -> go st e)
          | Pstr_module
              { pmb_expr = { pmod_desc = Pmod_structure inner; _ }; _ } ->
              items inner
          | _ -> ())
        sis
    in
    items str;
    st.findings
  end
