(* fsynlint's own tests: every rule against fixture files with known
   violations, rule scoping across the mirrored repo layout, attribute
   suppression, and the baseline ratchet's three failure classes. *)

module Lint = Fsynlint_lib.Lint

(* The fixture tree mirrors the repository layout; scope resolution is
   path-prefix based, so the suite chdirs to the fixture root once. *)
let () =
  if Sys.file_exists "fixtures" then Sys.chdir "fixtures"

let findings_of file = Lint.scan_file file

let by_rule rule fs =
  List.filter (fun (f : Lint.finding) -> Lint.rule_equal f.rule rule) fs

let lines fs = List.map (fun (f : Lint.finding) -> f.line) fs

let check_lines what rule file expected =
  let fs = by_rule rule (findings_of file) in
  Alcotest.(check (list int)) what expected (lines fs)

(* ---- rule R1: polymorphic comparison ---- *)

let test_r1_flags_poly_compare () =
  check_lines "five R1 findings at known lines" Lint.R1 "lib/core/r1_bad.ml"
    [ 4; 6; 8; 10; 12 ]

let test_r1_literal_exemption () =
  (* The fixture's literal comparisons (= 0, <> '\n', = [], = true, = ())
     sit on lines 15-19 and none of them may be flagged. *)
  let fs = by_rule Lint.R1 (findings_of "lib/core/r1_bad.ml") in
  Alcotest.(check bool)
    "no finding past line 12" true
    (List.for_all (fun l -> l <= 12) (lines fs))

let test_r1_not_applied_outside_wire_libs () =
  check_lines "lib/workload is exempt from R1" Lint.R1
    "lib/workload/poly_ok.ml" []

(* ---- rule R2: crash points ---- *)

let test_r2_flags_crash_points () =
  check_lines "five R2 findings at known lines" Lint.R2 "lib/core/r2_bad.ml"
    [ 4; 5; 6; 9; 11 ]

let test_r2_applies_to_all_lib () =
  check_lines "R2 applies outside the wire-sensitive set" Lint.R2
    "lib/workload/poly_ok.ml" [ 8 ]

(* ---- rule R3: console output ---- *)

let test_r3_flags_prints () =
  check_lines "two R3 findings" Lint.R3 "lib/core/r3_bad.ml" [ 4; 6 ]

let test_r3_suppression_attribute () =
  (* Line 9's print_string carries [@fsynlint.allow "r3"]: no finding. *)
  let fs = by_rule Lint.R3 (findings_of "lib/core/r3_bad.ml") in
  Alcotest.(check bool)
    "annotated sink not flagged" true
    (not (List.mem 9 (lines fs)))

(* ---- rule R6: resource leaks (dataflow) ---- *)

let test_r6_flags_leaks () =
  (* Line 7: the PR-5 peer-gone shape (error arm of a try drops the
     accepted fd); line 18: never closed; line 24: one branch only. *)
  check_lines "three R6 findings at known lines" Lint.R6 "lib/fdio/r6_leak.ml"
    [ 7; 18; 24 ]

let test_r6_true_negatives () =
  (* Fun.protect ~finally, close-on-every-path (including the handler),
     and ownership hand-off are all releases. *)
  check_lines "protected/handed-off fds are clean" Lint.R6
    "lib/fdio/r6_ok.ml" []

let test_r6_allow_scopes_nested_lets () =
  (* The [@@fsynlint.allow "r6"] binding suppresses both of its nested
     acquisitions; the sibling binding is still checked. *)
  check_lines "only the unannotated sibling flagged" Lint.R6
    "lib/fdio/r6_allow.ml" [ 11 ]

(* ---- rule R7: tainted wire lengths (dataflow) ---- *)

let test_r7_flags_unguarded_lengths () =
  (* Line 6: the 'S'-decode shape — multiply first, guard after; the
     guard on line 7 does not launder it.  Line 12: unguarded alloc.
     Line 17: a declared length sizing a Buffer. *)
  check_lines "three R7 findings at known lines" Lint.R7 "lib/decode/r7_bad.ml"
    [ 6; 12; 17 ]

let test_r7_true_negatives () =
  check_lines "guarded and clamped lengths are clean" Lint.R7
    "lib/decode/r7_ok.ml" []

let test_r7_guard_after_sink_does_not_rescue () =
  (* The multiply on line 6 must be flagged even though line 7 guards
     the product: evaluation order is the contract. *)
  let fs = by_rule Lint.R7 (findings_of "lib/decode/r7_bad.ml") in
  Alcotest.(check bool) "line 6 flagged" true (List.mem 6 (lines fs))

(* ---- rule R8: event-loop blocking (dataflow) ---- *)

let test_r8_flags_blocking_calls () =
  (* sleepf, raw Unix.read, negative select timeout. *)
  check_lines "three R8 findings at known lines" Lint.R8
    "lib/server/daemon.ml" [ 4; 5; 6 ]

let test_r8_conn_raw_io_sanctioned () =
  check_lines "conn.ml raw fd I/O is sanctioned" Lint.R8 "lib/server/conn.ml"
    []

let test_r8_allow_attribute () =
  (* daemon.ml line 9 carries [@fsynlint.allow "r8"]. *)
  let fs = by_rule Lint.R8 (findings_of "lib/server/daemon.ml") in
  Alcotest.(check bool) "annotated sleep not flagged" true
    (not (List.mem 9 (lines fs)))

(* ---- rule R9: Io-mediated syscalls (dataflow) ---- *)

let test_r9_flags_raw_mutations () =
  (* rename, remove, open_out_bin, openfile with write flags. *)
  check_lines "four R9 findings at known lines" Lint.R9 "lib/store/r9_bad.ml"
    [ 4; 5; 8; 13 ]

let test_r9_io_boundary_exempt () =
  check_lines "lib/store/io.ml is the sanctioned boundary" Lint.R9
    "lib/store/io.ml" []

let test_r9_covers_collection () =
  check_lines "lib/collection is in scope" Lint.R9 "lib/collection/meta.ml"
    [ 3 ]

(* ---- rule R4: missing interface ---- *)

let test_r4_missing_mli () =
  check_lines "module without .mli flagged" Lint.R4 "lib/core/no_mli.ml" [ 1 ]

let test_r4_present_mli () =
  check_lines "module with .mli clean" Lint.R4 "lib/core/clean.ml" []

(* ---- rule R5: codec symmetry ---- *)

let test_r5_encoder_without_decoder () =
  check_lines "write_/put_ without read_/get_ flagged" Lint.R5
    "lib/core/r5_bad.ml" [ 4; 6 ]

let test_r5_symmetric_pair_clean () =
  check_lines "put_count/get_count pair clean" Lint.R5 "lib/core/clean.ml" []

let test_r5_not_applied_outside_wire_libs () =
  check_lines "write-only helper fine outside wire libs" Lint.R5
    "lib/workload/poly_ok.ml" []

(* ---- scoping ---- *)

let test_clean_file_has_no_findings () =
  Alcotest.(check int) "clean module" 0
    (List.length (findings_of "lib/core/clean.ml"))

let test_bin_console_exempt () =
  (* Console output is bin/'s job: R3 never applies there, but R1/R2
     do.  main_ok.ml prints and stays clean; main_bad.ml crashes and
     compares polymorphically and is flagged. *)
  Alcotest.(check int) "clean bin file has no findings" 0
    (List.length (findings_of "bin/main_ok.ml"));
  check_lines "R2 applies in bin" Lint.R2 "bin/main_bad.ml" [ 5 ];
  check_lines "R1 applies in bin" Lint.R1 "bin/main_bad.ml" [ 6 ];
  check_lines "R3 exempt in bin" Lint.R3 "bin/main_bad.ml" []

let test_scan_discovers_recursively () =
  let fs = Lint.scan [ "lib"; "bin" ] in
  (* 6 R1 + (5+1+1) R2 + 2 R3 + 1 R4 + 2 R5
     + 4 R6 + 3 R7 + 3 R8 + 5 R9 = 33 across the tree. *)
  Alcotest.(check int) "total findings across the fixture tree" 33
    (List.length fs)

(* ---- the baseline ratchet ---- *)

let scan_fixtures () = Lint.scan [ "lib"; "bin" ]

let test_ratchet_clean_when_baseline_matches () =
  let fs = scan_fixtures () in
  let baseline = Lint.counts fs in
  Alcotest.(check bool)
    "scan == baseline is clean" true
    (Lint.clean (Lint.check ~baseline fs))

let test_ratchet_fails_on_new_violation () =
  (* A fixture introducing a new violation must fail the check: simulate
     by recording a baseline that predates r2_bad.ml's List.hd. *)
  let fs = scan_fixtures () in
  let baseline =
    Lint.KeyMap.update
      (Lint.R2, "lib/core/r2_bad.ml")
      (function Some n -> Some (n - 1) | None -> None)
      (Lint.counts fs)
  in
  let v = Lint.check ~baseline fs in
  Alcotest.(check bool) "not clean" false (Lint.clean v);
  match v.new_violations with
  | [ (r, file, offending) ] ->
      Alcotest.(check string) "rule" "R2" (Lint.rule_name r);
      Alcotest.(check string) "file" "lib/core/r2_bad.ml" file;
      Alcotest.(check int) "all findings for the pair reported" 5
        (List.length offending)
  | _ -> Alcotest.fail "expected exactly one new-violation entry"

let test_ratchet_fails_on_unknown_file () =
  (* A violating file absent from the baseline is also a failure. *)
  let fs = scan_fixtures () in
  let baseline =
    Lint.KeyMap.remove (Lint.R4, "lib/core/no_mli.ml") (Lint.counts fs)
  in
  let v = Lint.check ~baseline fs in
  Alcotest.(check bool) "not clean" false (Lint.clean v);
  Alcotest.(check int) "one new-violation entry" 1
    (List.length v.new_violations)

let test_ratchet_flags_stale_baseline () =
  (* Paid-down debt must force a baseline refresh (one-way ratchet). *)
  let fs = scan_fixtures () in
  let baseline =
    Lint.KeyMap.update
      (Lint.R1, "lib/core/r1_bad.ml")
      (function Some n -> Some (n + 2) | None -> Some 2)
      (Lint.counts fs)
  in
  let v = Lint.check ~baseline fs in
  Alcotest.(check bool) "not clean" false (Lint.clean v);
  match v.stale with
  | [ (r, file, recorded, current) ] ->
      Alcotest.(check string) "rule" "R1" (Lint.rule_name r);
      Alcotest.(check string) "file" "lib/core/r1_bad.ml" file;
      Alcotest.(check int) "recorded" (current + 2) recorded
  | _ -> Alcotest.fail "expected exactly one stale entry"

let test_ratchet_growth_detection () =
  let fs = scan_fixtures () in
  let baseline =
    Lint.KeyMap.update
      (Lint.R2, "lib/core/r2_bad.ml")
      (function Some n -> Some (n - 1) | None -> None)
      (Lint.counts fs)
  in
  (match Lint.growth ~baseline fs with
  | [ (r, file) ] ->
      Alcotest.(check string) "rule" "R2" (Lint.rule_name r);
      Alcotest.(check string) "file" "lib/core/r2_bad.ml" file
  | _ -> Alcotest.fail "expected one grown key");
  Alcotest.(check int) "no growth against an exact baseline" 0
    (List.length (Lint.growth ~baseline:(Lint.counts fs) fs))

let test_baseline_roundtrip () =
  let fs = scan_fixtures () in
  let counts = Lint.counts fs in
  let file = Filename.temp_file "fsynlint" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let oc = open_out file in
      output_string oc (Lint.render_baseline counts);
      close_out oc;
      let back = Lint.read_baseline file in
      Alcotest.(check bool)
        "serialized baseline reads back identically" true
        (Lint.KeyMap.equal Int.equal counts back))

let test_baseline_missing_file_is_empty () =
  Alcotest.(check int) "missing baseline = no recorded debt" 0
    (Lint.KeyMap.cardinal (Lint.read_baseline "does-not-exist.txt"))

let test_ratchet_flags_removed_entry () =
  (* A baseline entry for a file with no findings at all (fixed or
     deleted) is stale debt and must force a regeneration. *)
  let fs = scan_fixtures () in
  let baseline =
    Lint.KeyMap.add (Lint.R6, "lib/fdio/gone.ml") 3 (Lint.counts fs)
  in
  let v = Lint.check ~baseline fs in
  Alcotest.(check bool) "not clean" false (Lint.clean v);
  match v.stale with
  | [ (r, file, recorded, current) ] ->
      Alcotest.(check string) "rule" "R6" (Lint.rule_name r);
      Alcotest.(check string) "file" "lib/fdio/gone.ml" file;
      Alcotest.(check int) "recorded" 3 recorded;
      Alcotest.(check int) "current" 0 current
  | _ -> Alcotest.fail "expected exactly one stale entry"

(* ---- JSON report ---- *)

let test_json_roundtrip () =
  let fs = scan_fixtures () in
  let back = Lint.findings_of_json (Lint.json_report fs) in
  Alcotest.(check int) "same cardinality" (List.length fs) (List.length back);
  List.iter2
    (fun (a : Lint.finding) (b : Lint.finding) ->
      Alcotest.(check int) "ordering preserved" 0 (Lint.finding_compare a b);
      Alcotest.(check string) "msg preserved" a.msg b.msg)
    fs back

let test_json_with_verdict () =
  (* The CI artifact carries the delta too; the findings array must
     still round-trip when a verdict is attached. *)
  let fs = scan_fixtures () in
  let baseline =
    Lint.KeyMap.update
      (Lint.R6, "lib/fdio/r6_leak.ml")
      (function Some n -> Some (n - 1) | None -> None)
      (Lint.counts fs)
  in
  let verdict = Lint.check ~baseline fs in
  let doc = Lint.json_report ~verdict fs in
  Alcotest.(check int) "findings recoverable" (List.length fs)
    (List.length (Lint.findings_of_json doc))

let test_json_rejects_unknown_schema () =
  match Lint.findings_of_json "{\"schema\":\"other/9\",\"findings\":[]}" with
  | _ -> Alcotest.fail "unknown schema accepted"
  | exception Lint.Parse_error _ -> ()

let test_baseline_rejects_garbage () =
  let file = Filename.temp_file "fsynlint" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let oc = open_out file in
      output_string oc "R9 nonsense notanumber\n";
      close_out oc;
      match Lint.read_baseline file with
      | _ -> Alcotest.fail "garbage baseline accepted"
      | exception Lint.Parse_error _ -> ())

(* ---- rule metadata ---- *)

let test_rule_names_roundtrip () =
  List.iter
    (fun r ->
      match Lint.rule_of_name (Lint.rule_name r) with
      | Some r' ->
          Alcotest.(check string) "roundtrip" (Lint.rule_name r)
            (Lint.rule_name r')
      | None -> Alcotest.fail "rule name did not parse back")
    Lint.all_rules;
  Alcotest.(check bool) "unknown rule rejected" true
    (Option.is_none (Lint.rule_of_name "r10"))

let test_scope_predicates () =
  let has r path = List.exists (Lint.rule_equal r) (Lint.rules_for path) in
  Alcotest.(check bool) "core is wire-sensitive" true
    (Lint.is_wire_sensitive "lib/core/wire.ml");
  Alcotest.(check bool) "workload is not" false
    (Lint.is_wire_sensitive "lib/workload/datasets.ml");
  (* bin/ and bench/ carry R1/R2 and the R6/R7 dataflow rules, but
     console I/O is their job: no R3. *)
  Alcotest.(check bool) "bin gets R1" true (has Lint.R1 "bin/fsync.ml");
  Alcotest.(check bool) "bin gets R2" true (has Lint.R2 "bin/fsync.ml");
  Alcotest.(check bool) "bin gets R6" true (has Lint.R6 "bin/fsync.ml");
  Alcotest.(check bool) "bench gets R7" true (has Lint.R7 "bench/main.ml");
  Alcotest.(check bool) "bin is R3-exempt" false (has Lint.R3 "bin/fsync.ml");
  (* The chunk store is a lib like any other: crash-point and
     console-output rules apply without a baseline entry. *)
  Alcotest.(check bool) "store gets R2" true
    (has Lint.R2 "lib/store/store.ml");
  Alcotest.(check bool) "store gets R3" true
    (has Lint.R3 "lib/store/sig_persist.ml");
  (* R8 is scoped to the event loop; R9 to store/collection minus the
     sanctioned io.ml boundary. *)
  Alcotest.(check bool) "daemon gets R8" true
    (has Lint.R8 "lib/server/daemon.ml");
  Alcotest.(check bool) "conn gets R8" true (has Lint.R8 "lib/server/conn.ml");
  Alcotest.(check bool) "pull is outside R8" false
    (has Lint.R8 "lib/server/pull.ml");
  Alcotest.(check bool) "store gets R9" true
    (has Lint.R9 "lib/store/store.ml");
  Alcotest.(check bool) "collection gets R9" true
    (has Lint.R9 "lib/collection/snapshot.ml");
  Alcotest.(check bool) "io.ml is the exempt boundary" false
    (has Lint.R9 "lib/store/io.ml")

let () =
  Alcotest.run "fsynlint"
    [
      ( "rules",
        [
          Alcotest.test_case "R1 flags poly compare" `Quick
            test_r1_flags_poly_compare;
          Alcotest.test_case "R1 literal exemption" `Quick
            test_r1_literal_exemption;
          Alcotest.test_case "R1 scoped to wire libs" `Quick
            test_r1_not_applied_outside_wire_libs;
          Alcotest.test_case "R2 flags crash points" `Quick
            test_r2_flags_crash_points;
          Alcotest.test_case "R2 applies to all lib" `Quick
            test_r2_applies_to_all_lib;
          Alcotest.test_case "R3 flags prints" `Quick test_r3_flags_prints;
          Alcotest.test_case "R3 suppression attribute" `Quick
            test_r3_suppression_attribute;
          Alcotest.test_case "R4 missing mli" `Quick test_r4_missing_mli;
          Alcotest.test_case "R4 present mli" `Quick test_r4_present_mli;
          Alcotest.test_case "R5 encoder without decoder" `Quick
            test_r5_encoder_without_decoder;
          Alcotest.test_case "R5 symmetric pair" `Quick
            test_r5_symmetric_pair_clean;
          Alcotest.test_case "R5 scoped to wire libs" `Quick
            test_r5_not_applied_outside_wire_libs;
        ] );
      ( "dataflow",
        [
          Alcotest.test_case "R6 flags leaks" `Quick test_r6_flags_leaks;
          Alcotest.test_case "R6 true negatives" `Quick test_r6_true_negatives;
          Alcotest.test_case "R6 allow scopes nested lets" `Quick
            test_r6_allow_scopes_nested_lets;
          Alcotest.test_case "R7 flags unguarded lengths" `Quick
            test_r7_flags_unguarded_lengths;
          Alcotest.test_case "R7 true negatives" `Quick test_r7_true_negatives;
          Alcotest.test_case "R7 guard after sink" `Quick
            test_r7_guard_after_sink_does_not_rescue;
          Alcotest.test_case "R8 flags blocking calls" `Quick
            test_r8_flags_blocking_calls;
          Alcotest.test_case "R8 conn sanctioned" `Quick
            test_r8_conn_raw_io_sanctioned;
          Alcotest.test_case "R8 allow attribute" `Quick
            test_r8_allow_attribute;
          Alcotest.test_case "R9 flags raw mutations" `Quick
            test_r9_flags_raw_mutations;
          Alcotest.test_case "R9 io boundary exempt" `Quick
            test_r9_io_boundary_exempt;
          Alcotest.test_case "R9 covers collection" `Quick
            test_r9_covers_collection;
        ] );
      ( "scoping",
        [
          Alcotest.test_case "clean file" `Quick test_clean_file_has_no_findings;
          Alcotest.test_case "bin console exempt" `Quick
            test_bin_console_exempt;
          Alcotest.test_case "recursive discovery" `Quick
            test_scan_discovers_recursively;
          Alcotest.test_case "scope predicates" `Quick test_scope_predicates;
          Alcotest.test_case "rule names roundtrip" `Quick
            test_rule_names_roundtrip;
        ] );
      ( "ratchet",
        [
          Alcotest.test_case "clean when baseline matches" `Quick
            test_ratchet_clean_when_baseline_matches;
          Alcotest.test_case "fails on new violation" `Quick
            test_ratchet_fails_on_new_violation;
          Alcotest.test_case "fails on unknown file" `Quick
            test_ratchet_fails_on_unknown_file;
          Alcotest.test_case "flags stale baseline" `Quick
            test_ratchet_flags_stale_baseline;
          Alcotest.test_case "growth detection" `Quick
            test_ratchet_growth_detection;
          Alcotest.test_case "flags removed entry" `Quick
            test_ratchet_flags_removed_entry;
          Alcotest.test_case "baseline roundtrip" `Quick
            test_baseline_roundtrip;
          Alcotest.test_case "missing baseline is empty" `Quick
            test_baseline_missing_file_is_empty;
          Alcotest.test_case "rejects garbage baseline" `Quick
            test_baseline_rejects_garbage;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "with verdict" `Quick test_json_with_verdict;
          Alcotest.test_case "rejects unknown schema" `Quick
            test_json_rejects_unknown_schema;
        ] );
    ]
