(* fsynlint — repo-specific static analysis for the fsync code base.

   The sync protocols only work when both endpoints compute byte-identical
   hashes, maps and wire encodings.  A single use of OCaml's polymorphic
   [=] / [compare] / [Hashtbl.hash] on a protocol type, or an untyped
   [failwith] escaping a decode path, silently breaks the guarantees the
   typed-error layer ({!Fsync_core.Error}) provides.  These invariants are
   machine-enforced here rather than left to convention.

   The tool parses every [.ml]/[.mli] under the requested roots with the
   compiler's own front end ([Parse] + [Ast_iterator] from
   compiler-libs.common — no new dependencies) and applies the rules
   below.  Findings are diffed against a checked-in baseline — the
   ratchet: pre-existing debt is recorded per (rule, file); new
   violations fail the build; fixing a violation makes the recorded
   baseline stale, which also fails until the baseline is regenerated —
   so the baseline can only shrink. *)

(* ------------------------------------------------------------------ *)
(* Rules and findings (vocabulary lives in {!Rule})                    *)
(* ------------------------------------------------------------------ *)

(* R1-R5 are the syntactic rules implemented below; R6-R9 are the
   dataflow rules implemented in {!Dataflow}.  Both passes share the
   rule identifiers, rationale text and finding record from {!Rule};
   the re-export keeps this module the single public face. *)

type rule = Rule.t = R1 | R2 | R3 | R4 | R5 | R6 | R7 | R8 | R9

let all_rules = Rule.all
let rule_name = Rule.name
let rule_of_name = Rule.of_name
let rule_equal = Rule.equal
let explain = Rule.explain

type finding = Rule.finding = {
  rule : rule;
  file : string;
  line : int;
  col : int;
  msg : string;
}

let finding_compare = Rule.compare_finding
let pp_finding = Rule.pp_finding

(* ------------------------------------------------------------------ *)
(* Scope: which rules apply to which paths                             *)
(* ------------------------------------------------------------------ *)

(* Libraries whose values travel on (or directly shape) the wire. *)
let wire_sensitive_dirs =
  [ "lib/core"; "lib/net"; "lib/reconcile"; "lib/hashing"; "lib/rsync";
    "lib/delta"; "lib/server"; "lib/swarm" ]

let normalize path =
  (* The tool is run from the repository root; strip a leading "./". *)
  if String.length path > 2 && String.equal (String.sub path 0 2) "./" then
    String.sub path 2 (String.length path - 2)
  else path

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

let is_wire_sensitive path =
  List.exists (fun d -> starts_with ~prefix:(d ^ "/") path) wire_sensitive_dirs

let in_lib path = starts_with ~prefix:"lib/" path

(* bin/ and bench/ handle the same protocol values as lib/ and acquire
   the same fds, so R1/R2/R6/R7 apply; console I/O (R3) is their job. *)
let in_bin_or_bench path =
  starts_with ~prefix:"bin/" path || starts_with ~prefix:"bench/" path

(* R8's scope is exactly the single-threaded select loops. *)
let event_loop_files =
  [ "lib/server/daemon.ml"; "lib/server/conn.ml" ]

(* R9: the crash-safe paths Fault_io must be able to intercept;
   lib/store/io.ml is the sanctioned raw-syscall boundary.  The swarm's
   replica persistence (vector table + content installs) is covered by
   the same crash sweeps, so it writes through Io too. *)
let io_mediated path =
  (starts_with ~prefix:"lib/store/" path
  || starts_with ~prefix:"lib/collection/" path
  || starts_with ~prefix:"lib/swarm/" path)
  && not (String.equal path "lib/store/io.ml")

(* Files whose local get_*/read_* functions are wire readers — inside
   them an unqualified reader call is an R7 taint source. *)
let decode_modules =
  [ "lib/server/msg.ml"; "lib/core/wire.ml"; "lib/net/frame.ml";
    "lib/collection/meta_wire.ml"; "lib/swarm/swarm_wire.ml";
    "lib/swarm/version_vector.ml"; "lib/swarm/replica.ml" ]

let rules_for path =
  (if is_wire_sensitive path then [ R1; R5 ] else [])
  @ (if in_lib path then [ R2; R3; R4 ] else [])
  @ (if in_bin_or_bench path then [ R1; R2 ] else [])
  @ (if in_lib path || in_bin_or_bench path then [ R6; R7 ] else [])
  @ (if List.exists (String.equal path) event_loop_files then [ R8 ] else [])
  @ if io_mediated path then [ R9 ] else []

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

let with_lexbuf path f =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let lexbuf = Lexing.from_channel ic in
      Lexing.set_filename lexbuf path;
      try f lexbuf
      with exn ->
        let detail =
          match Location.error_of_exn exn with
          | Some (`Ok (e : Location.error)) ->
              Format.asprintf "%a" Location.print_report e
          | _ -> Printexc.to_string exn
        in
        raise (Parse_error (Printf.sprintf "%s: %s" path detail)))

let parse_implementation path = with_lexbuf path Parse.implementation
let parse_interface path = with_lexbuf path Parse.interface

(* ------------------------------------------------------------------ *)
(* AST predicates                                                      *)
(* ------------------------------------------------------------------ *)

open Parsetree

(* R1: polymorphic comparison entry points.  [Stdlib.] qualification is
   recognized so aliasing does not dodge the rule. *)
let r1_ident (id : Longident.t) =
  match id with
  | Lident (("=" | "<>" | "compare") as n)
  | Ldot (Lident "Stdlib", (("=" | "<>" | "compare") as n)) ->
      Some n
  | Ldot (Lident "Hashtbl", "hash")
  | Ldot (Ldot (Lident "Stdlib", "Hashtbl"), "hash") ->
      Some "Hashtbl.hash"
  | _ -> None

(* Comparing against an immediate literal ([x = 0], [c <> '\n'],
   [flag = true], [l = []], [u = ()]) is specialized by the compiler and
   cannot involve a protocol type's structure; exempting it keeps the
   rule focused on real determinism and perf hazards. *)
let immediate_literal (e : expression) =
  match e.pexp_desc with
  | Pexp_constant (Pconst_integer _ | Pconst_char _) -> true
  | Pexp_construct ({ txt = Lident ("true" | "false" | "()" | "[]"); _ }, None)
    ->
      true
  | _ -> false

(* R2: untyped crash points. *)
let r2_ident (id : Longident.t) =
  match id with
  | Lident (("failwith" | "invalid_arg") as n)
  | Ldot (Lident "Stdlib", (("failwith" | "invalid_arg") as n)) ->
      Some n
  | Ldot (Lident "List", "hd") -> Some "List.hd"
  | Ldot (Lident "Option", "get") -> Some "Option.get"
  | _ -> None

(* R3: direct console output. *)
let r3_ident (id : Longident.t) =
  let chan_fn n =
    match n with
    | "print_string" | "print_endline" | "print_newline" | "print_char"
    | "print_int" | "print_float" | "print_bytes" | "prerr_string"
    | "prerr_endline" | "prerr_newline" | "prerr_char" | "prerr_int"
    | "prerr_float" | "prerr_bytes" ->
        true
    | _ -> false
  in
  match id with
  | Lident n when chan_fn n -> Some n
  | Ldot (Lident "Stdlib", n) when chan_fn n -> Some ("Stdlib." ^ n)
  | Ldot (Lident (("Printf" | "Format") as m), (("printf" | "eprintf") as n))
    ->
      Some (m ^ "." ^ n)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Suppression                                                         *)
(* ------------------------------------------------------------------ *)

(* A deliberate, reviewed exception is annotated at the source:

     let print ch = print_string (render ch) [@@fsynlint.allow r3]

   The payload is a space-separated list of rule names.  Suppressions
   scope over the annotated binding or expression only, and are the
   escape hatch for sanctioned sinks (e.g. [Trace.print] is exactly the
   place where library output is allowed to reach stdout). *)
let allowed_rules_of_attrs (attrs : attributes) =
  List.concat_map
    (fun (a : attribute) ->
      if not (String.equal a.attr_name.txt "fsynlint.allow") then []
      else
        match a.attr_payload with
        | PStr
            [ { pstr_desc =
                  Pstr_eval
                    ( { pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ },
                      _ );
                _ } ] ->
            String.split_on_char ' ' s
            |> List.filter_map rule_of_name
        | _ -> [])
    attrs

(* ------------------------------------------------------------------ *)
(* The scanner                                                         *)
(* ------------------------------------------------------------------ *)

let scan_structure ~path (str : structure) =
  let applicable = rules_for path in
  let findings = ref [] in
  let suppressed = ref [] in
  let add rule (loc : Location.t) msg =
    if List.mem rule applicable && not (List.mem rule !suppressed) then
      let p = loc.loc_start in
      findings :=
        { rule; file = path; line = p.pos_lnum;
          col = p.pos_cnum - p.pos_bol; msg }
        :: !findings
  in
  let with_allows attrs k =
    match allowed_rules_of_attrs attrs with
    | [] -> k ()
    | allows ->
        let saved = !suppressed in
        suppressed := allows @ saved;
        Fun.protect ~finally:(fun () -> suppressed := saved) k
  in
  (* Top-level value names, for the R5 codec-symmetry check. *)
  let top_names = ref [] in
  let record_top_level (vb : value_binding) =
    match vb.pvb_pat.ppat_desc with
    | Ppat_var { txt; _ } -> top_names := (txt, vb.pvb_pat.ppat_loc) :: !top_names
    | _ -> ()
  in
  let super = Ast_iterator.default_iterator in
  let expr (it : Ast_iterator.iterator) (e : expression) =
    with_allows e.pexp_attributes @@ fun () ->
    match e.pexp_desc with
    | Pexp_apply
        ({ pexp_desc = Pexp_ident { txt; loc }; _ }, args)
      when r1_ident txt <> None
           || r2_ident txt <> None
           || r3_ident txt <> None -> (
        (match (r1_ident txt, args) with
        | Some (("=" | "<>") as n), [ (_, a); (_, b) ]
          when immediate_literal a || immediate_literal b ->
            ignore n (* literal comparison: exempt *)
        | Some (("=" | "<>") as n), _ ->
            add R1 loc
              (Printf.sprintf
                 "polymorphic `%s` — use a monomorphic equality \
                  (String.equal, Int.equal, a dedicated `equal`, or a match)"
                 n)
        | Some "compare", _ ->
            add R1 loc
              "polymorphic `compare` — use String.compare / Int.compare / a \
               dedicated `compare` for the type"
        | Some n, _ ->
            add R1 loc
              (Printf.sprintf
                 "`%s` mixes representation into the hash — use the \
                  repo's deterministic hash functions" n)
        | None, _ -> ());
        (match r2_ident txt with
        | Some n ->
            add R2 loc
              (Printf.sprintf
                 "`%s` is an untyped crash point — fail through \
                  Fsync_core.Error instead" n)
        | None -> ());
        (match r3_ident txt with
        | Some n ->
            add R3 loc
              (Printf.sprintf
                 "`%s` writes directly to the console — route library \
                  output through Trace" n)
        | None -> ());
        (* The callee ident was judged above; only the operands recurse. *)
        List.iter (fun (_, a) -> it.expr it a) args)
    | Pexp_ident { txt; loc } ->
        (match r1_ident txt with
        | Some n ->
            add R1 loc
              (Printf.sprintf
                 "polymorphic `%s` used as a value — pass a monomorphic \
                  function instead" n)
        | None -> ());
        (match r2_ident txt with
        | Some n ->
            add R2 loc
              (Printf.sprintf
                 "`%s` is an untyped crash point — fail through \
                  Fsync_core.Error instead" n)
        | None -> ());
        (match r3_ident txt with
        | Some n ->
            add R3 loc
              (Printf.sprintf
                 "`%s` writes directly to the console — route library \
                  output through Trace" n)
        | None -> ())
    | Pexp_assert
        { pexp_desc = Pexp_construct ({ txt = Lident "false"; _ }, None); _ }
      ->
        add R2 e.pexp_loc
          "`assert false` is an untyped crash point — fail through \
           Fsync_core.Error instead"
    | _ -> super.expr it e
  in
  let value_binding (it : Ast_iterator.iterator) (vb : value_binding) =
    with_allows vb.pvb_attributes @@ fun () -> super.value_binding it vb
  in
  let structure_item (it : Ast_iterator.iterator) (si : structure_item) =
    (match si.pstr_desc with
    | Pstr_value (_, vbs) -> List.iter record_top_level vbs
    | _ -> ());
    super.structure_item it si
  in
  let iter = { super with expr; value_binding; structure_item } in
  iter.structure iter str;
  (* R5: encoder/decoder symmetry by name. *)
  let names = List.map fst !top_names in
  let has n = List.exists (String.equal n) names in
  List.iter
    (fun (name, loc) ->
      let check ~w ~r =
        if starts_with ~prefix:w name then begin
          let suffix =
            String.sub name (String.length w)
              (String.length name - String.length w)
          in
          let want = r ^ suffix in
          if not (has want) then
            let p = (loc : Location.t).loc_start in
            findings :=
              { rule = R5; file = path; line = p.pos_lnum;
                col = p.pos_cnum - p.pos_bol;
                msg =
                  Printf.sprintf
                    "encoder `%s` has no matching decoder `%s` in this \
                     module" name want }
              :: !findings
        end
      in
      if List.mem R5 applicable then begin
        check ~w:"write_" ~r:"read_";
        check ~w:"put_" ~r:"get_"
      end)
    (List.rev !top_names);
  (* Second pass: the R6-R9 dataflow engine, sharing scope and
     [@fsynlint.allow] resolution with the syntactic rules above. *)
  let dataflow =
    Dataflow.scan_structure
      { Dataflow.file = path;
        enabled = (fun r -> List.exists (rule_equal r) applicable);
        allows = allowed_rules_of_attrs;
        decode_module = List.exists (String.equal path) decode_modules;
        conn_io_ok = String.equal path "lib/server/conn.ml" }
      str
  in
  dataflow @ !findings

(* R4 plus parse validation for an interface: nothing inside an [.mli]
   can violate R1–R3 (no expressions), but it must parse. *)
let scan_ml_file path =
  let str = parse_implementation path in
  let ast_findings = scan_structure ~path str in
  let r4 =
    if List.mem R4 (rules_for path) && not (Sys.file_exists (path ^ "i")) then
      [ { rule = R4; file = path; line = 1; col = 0;
          msg =
            Printf.sprintf "module has no interface — add %si to pin its \
                            public surface" path } ]
    else []
  in
  r4 @ ast_findings

let scan_file path =
  let path = normalize path in
  if Filename.check_suffix path ".mli" then begin
    ignore (parse_interface path);
    []
  end
  else List.sort finding_compare (scan_ml_file path)

(* ------------------------------------------------------------------ *)
(* File discovery                                                      *)
(* ------------------------------------------------------------------ *)

let rec walk dir acc =
  if not (Sys.file_exists dir) then acc
  else
    Array.fold_left
      (fun acc entry ->
        let p = Filename.concat dir entry in
        if Sys.is_directory p then
          if String.equal entry "_build" || String.equal entry ".git" then acc
          else walk p acc
        else if
          Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli"
        then p :: acc
        else acc)
      acc
      (let entries = Sys.readdir dir in
       Array.sort String.compare entries;
       entries)

let discover roots =
  List.concat_map
    (fun root ->
      let root = normalize root in
      if Sys.file_exists root && not (Sys.is_directory root) then [ root ]
      else List.rev (walk root []))
    roots

let scan roots =
  discover roots |> List.concat_map scan_file |> List.sort finding_compare

(* ------------------------------------------------------------------ *)
(* Baseline ratchet                                                    *)
(* ------------------------------------------------------------------ *)

(* The baseline records known debt as one line per (rule, file):

     R2 lib/core/oneway.ml 3

   Comparing a fresh scan against it yields three error classes, all
   fatal in check mode:

   - a (rule, file) count above its baseline → new violations;
   - a (rule, file) not in the baseline at all → new violations;
   - a baseline count above the current count → the debt shrank but the
     baseline was not regenerated; refresh it so the improvement is
     locked in (this is what makes the ratchet one-way).  *)

module Key = struct
  type t = rule * string

  let compare (r1, f1) (r2, f2) =
    match String.compare (rule_name r1) (rule_name r2) with
    | 0 -> String.compare f1 f2
    | c -> c
end

module KeyMap = Map.Make (Key)

let counts findings =
  List.fold_left
    (fun m f ->
      KeyMap.update (f.rule, f.file)
        (fun v -> Some (1 + Option.value v ~default:0))
        m)
    KeyMap.empty findings

let parse_baseline_line ~file lineno line =
  let line = String.trim line in
  if String.equal line "" || line.[0] = '#' then None
  else
    match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
    | [ rule; path; count ] -> (
        match (rule_of_name rule, int_of_string_opt count) with
        | Some r, Some n when n > 0 -> Some ((r, path), n)
        | _ ->
            raise
              (Parse_error
                 (Printf.sprintf "%s:%d: malformed baseline entry %S" file
                    lineno line)))
    | _ ->
        raise
          (Parse_error
             (Printf.sprintf "%s:%d: malformed baseline entry %S" file lineno
                line))

let read_baseline file =
  if not (Sys.file_exists file) then KeyMap.empty
  else begin
    let ic = open_in file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go lineno acc =
          match input_line ic with
          | exception End_of_file -> acc
          | line -> (
              match parse_baseline_line ~file lineno line with
              | None -> go (lineno + 1) acc
              | Some (k, n) -> go (lineno + 1) (KeyMap.add k n acc))
        in
        go 1 KeyMap.empty)
  end

let render_baseline counts =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    "# fsynlint baseline — the ratchet of known violations.\n\
     # One line per (rule, file): `RULE path count`.\n\
     # New violations fail the build; when debt is paid down, regenerate\n\
     # with `dune exec tools/lint/fsynlint.exe -- --update-baseline` so\n\
     # the count can only shrink.  See DESIGN.md §8.\n";
  KeyMap.iter
    (fun (r, f) n ->
      Buffer.add_string b (Printf.sprintf "%s %s %d\n" (rule_name r) f n))
    counts;
  Buffer.contents b

type verdict = {
  new_violations : (rule * string * finding list) list;
      (* (rule, file, the findings) where count exceeds the baseline *)
  stale : (rule * string * int * int) list;
      (* (rule, file, baseline, current) where the baseline overstates *)
}

let clean v = v.new_violations = [] && v.stale = []

let check ~baseline findings =
  let cur = counts findings in
  let keys =
    KeyMap.union
      (fun _ a _ -> Some a)
      (KeyMap.map (fun _ -> ()) cur)
      (KeyMap.map (fun _ -> ()) baseline)
    |> KeyMap.bindings |> List.map fst
  in
  let v =
    List.fold_left
      (fun v k ->
        let r, file = k in
        let c = Option.value (KeyMap.find_opt k cur) ~default:0 in
        let b = Option.value (KeyMap.find_opt k baseline) ~default:0 in
        if c > b then
          let fs =
            List.filter
              (fun f -> rule_equal f.rule r && String.equal f.file file)
              findings
          in
          { v with new_violations = (r, file, fs) :: v.new_violations }
        else if c < b then { v with stale = (r, file, b, c) :: v.stale }
        else v)
      { new_violations = []; stale = [] }
      keys
  in
  { new_violations = List.rev v.new_violations; stale = List.rev v.stale }

let growth ~baseline findings =
  (* (rule, file) keys whose current count exceeds the baseline; used to
     refuse `--update-baseline` runs that would grow the debt. *)
  KeyMap.fold
    (fun k c acc ->
      let b = Option.value (KeyMap.find_opt k baseline) ~default:0 in
      if c > b then k :: acc else acc)
    (counts findings) []
  |> List.rev

(* ------------------------------------------------------------------ *)
(* JSON report (CI artifact)                                           *)
(* ------------------------------------------------------------------ *)

(* The schema is deliberately tiny — a top-level object with a version
   tag, the full findings list, and (when a ratchet verdict is
   attached) the delta CI failed on.  Both the emitter and the parser
   are hand-rolled so the lint tool keeps its zero-dependency rule. *)

let json_schema = "fsynlint-findings/1"

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let finding_to_json f =
  Printf.sprintf
    "{\"rule\":\"%s\",\"file\":\"%s\",\"line\":%d,\"col\":%d,\"msg\":\"%s\"}"
    (rule_name f.rule) (json_escape f.file) f.line f.col (json_escape f.msg)

let json_report ?verdict findings =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    (Printf.sprintf "{\"schema\":\"%s\",\"findings\":[" json_schema);
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (finding_to_json f))
    findings;
  Buffer.add_char b ']';
  (match verdict with
  | None -> ()
  | Some v ->
      Buffer.add_string b ",\"new\":[";
      let first = ref true in
      List.iter
        (fun (_, _, fs) ->
          List.iter
            (fun f ->
              if not !first then Buffer.add_char b ',';
              first := false;
              Buffer.add_string b (finding_to_json f))
            fs)
        v.new_violations;
      Buffer.add_string b "],\"stale\":[";
      List.iteri
        (fun i (r, file, base, cur) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b
            (Printf.sprintf
               "{\"rule\":\"%s\",\"file\":\"%s\",\"baseline\":%d,\
                \"current\":%d}"
               (rule_name r) (json_escape file) base cur))
        v.stale;
      Buffer.add_char b ']');
  Buffer.add_string b "}\n";
  Buffer.contents b

(* Minimal recursive-descent parser for exactly the values the emitter
   produces (strings, integers, arrays, objects).  Anything else is a
   Parse_error — the round-trip test is the contract. *)

type json =
  | Jstr of string
  | Jint of int
  | Jlist of json list
  | Jobj of (string * json) list

let parse_json s =
  let pos = ref 0 in
  let len = String.length s in
  let fail msg =
    raise (Parse_error (Printf.sprintf "json:%d: %s" !pos msg))
  in
  let peek () = if !pos < len then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when Char.equal c c' -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 32 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> advance (); Buffer.add_char b '"'; go ()
          | Some '\\' -> advance (); Buffer.add_char b '\\'; go ()
          | Some '/' -> advance (); Buffer.add_char b '/'; go ()
          | Some 'n' -> advance (); Buffer.add_char b '\n'; go ()
          | Some 'r' -> advance (); Buffer.add_char b '\r'; go ()
          | Some 't' -> advance (); Buffer.add_char b '\t'; go ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > len then fail "truncated \\u escape";
              let hex = String.sub s !pos 4 in
              pos := !pos + 4;
              (match int_of_string_opt ("0x" ^ hex) with
              | Some code when code < 0x80 ->
                  Buffer.add_char b (Char.chr code)
              | Some _ -> fail "non-ASCII \\u escape unsupported"
              | None -> fail "malformed \\u escape");
              go ()
          | _ -> fail "unknown escape")
      | Some c ->
          advance ();
          Buffer.add_char b c;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_int () =
    let start = !pos in
    (match peek () with Some '-' -> advance () | _ -> ());
    let rec digits () =
      match peek () with
      | Some '0' .. '9' ->
          advance ();
          digits ()
      | _ -> ()
    in
    digits ();
    match int_of_string_opt (String.sub s start (!pos - start)) with
    | Some n -> n
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Jstr (parse_string ())
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Jobj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((k, v) :: acc)
            | _ -> fail "expected , or } in object"
          in
          Jobj (members [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Jlist []
        end
        else begin
          let rec elems acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elems (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected , or ] in array"
          in
          Jlist (elems [])
        end
    | Some ('-' | '0' .. '9') -> Jint (parse_int ())
    | _ -> fail "expected a value"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> len then fail "trailing garbage";
  v

let findings_of_json text =
  let fail msg = raise (Parse_error ("json: " ^ msg)) in
  let obj = parse_json text in
  match obj with
  | Jobj members -> (
      (match List.assoc_opt "schema" members with
      | Some (Jstr s) when String.equal s json_schema -> ()
      | Some (Jstr s) ->
          fail (Printf.sprintf "unknown schema %S (want %S)" s json_schema)
      | _ -> fail "missing schema tag");
      match List.assoc_opt "findings" members with
      | Some (Jlist fs) ->
          List.map
            (fun f ->
              match f with
              | Jobj m -> (
                  let str k =
                    match List.assoc_opt k m with
                    | Some (Jstr s) -> s
                    | _ -> fail (Printf.sprintf "finding lacks string %S" k)
                  in
                  let int k =
                    match List.assoc_opt k m with
                    | Some (Jint n) -> n
                    | _ -> fail (Printf.sprintf "finding lacks int %S" k)
                  in
                  match rule_of_name (str "rule") with
                  | Some rule ->
                      { rule; file = str "file"; line = int "line";
                        col = int "col"; msg = str "msg" }
                  | None ->
                      fail (Printf.sprintf "unknown rule %S" (str "rule")))
              | _ -> fail "finding is not an object")
            fs
      | _ -> fail "missing findings array")
  | _ -> fail "top level is not an object"
