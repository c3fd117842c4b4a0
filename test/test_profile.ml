(* Tests for the obs analysis layer: Stats (median/MAD/percentile on
   known samples, and when two timings separate), Profile (hand-built event streams with known
   self/total times, including nested spans, wrapped rings and unclosed
   spans, plus a folded-stacks round trip), Baseline (JSON round trip and
   the regression threshold: a 3x inflated timing must flag, a
   within-noise rerun must not), and the Json parser they rest on. *)

module Stats = Qdt_obs.Stats
module Profile = Qdt_obs.Profile
module Baseline = Qdt_obs.Baseline
module Json = Qdt_obs.Json
module Trace = Qdt_obs.Trace

let feq = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_median () =
  feq "odd" 2.0 (Stats.median [| 3.0; 1.0; 2.0 |]);
  feq "even interpolates" 2.5 (Stats.median [| 4.0; 1.0; 3.0; 2.0 |]);
  feq "single" 7.0 (Stats.median [| 7.0 |]);
  feq "outlier-insensitive" 2.0 (Stats.median [| 1.0; 2.0; 1000.0 |])

let test_mad () =
  (* median 3; |x - 3| = [2;1;0;1;97]; median of that = 1 *)
  feq "known mad" 1.0 (Stats.mad [| 1.0; 2.0; 3.0; 4.0; 100.0 |]);
  feq "constant sample" 0.0 (Stats.mad [| 5.0; 5.0; 5.0 |])

let test_percentile () =
  let s = [| 10.0; 20.0; 30.0; 40.0; 50.0 |] in
  feq "p0 = min" 10.0 (Stats.percentile ~p:0.0 s);
  feq "p100 = max" 50.0 (Stats.percentile ~p:100.0 s);
  feq "p50 = median" 30.0 (Stats.percentile ~p:50.0 s);
  feq "p25 interpolates" 20.0 (Stats.percentile ~p:25.0 s);
  feq "p90 interpolates" 46.0 (Stats.percentile ~p:90.0 s);
  Alcotest.check_raises "empty raises"
    (Invalid_argument "Qdt_obs.Stats.percentile: empty sample array") (fun () ->
      ignore (Stats.percentile ~p:50.0 [||]))

let test_summary_roundtrip () =
  let s = Stats.summary [| 5.0; 1.0; 3.0 |] in
  feq "median" 3.0 s.Stats.median;
  feq "min" 1.0 s.Stats.min;
  feq "max" 5.0 s.Stats.max;
  Alcotest.(check int) "reps" 3 s.Stats.reps;
  match Json.parse (Stats.summary_to_json s) with
  | Error e -> Alcotest.failf "summary json does not parse: %s" e
  | Ok j -> (
      match Stats.summary_of_json j with
      | Error e -> Alcotest.failf "summary json does not decode: %s" e
      | Ok s' ->
          feq "median survives" s.Stats.median s'.Stats.median;
          feq "mad survives" s.Stats.mad s'.Stats.mad;
          Alcotest.(check int) "reps survive" s.Stats.reps s'.Stats.reps)

(* ------------------------------------------------------------------ *)
(* Profile                                                             *)
(* ------------------------------------------------------------------ *)

let ev name ts phase = { Trace.name; ts_ns = ts; phase; attrs = [] }
let b name ts = ev name ts Trace.Begin
let e name ts = ev name ts Trace.End

let row p name =
  match List.find_opt (fun (r : Profile.row) -> r.Profile.name = name) (Profile.rows p) with
  | Some r -> r
  | None -> Alcotest.failf "no row for span %S" name

let test_profile_nested () =
  (* root [0,100] containing child [10,40] and child [50,60]:
     child: count 2, total 40, self 40; root: total 100, self 60 *)
  let p =
    Profile.of_events
      [ b "root" 0; b "child" 10; e "child" 40; b "child" 50; e "child" 60; e "root" 100 ]
  in
  let root = row p "root" and child = row p "child" in
  Alcotest.(check int) "root count" 1 root.Profile.count;
  Alcotest.(check int) "root total" 100 root.Profile.total_ns;
  Alcotest.(check int) "root self" 60 root.Profile.self_ns;
  Alcotest.(check int) "child count" 2 child.Profile.count;
  Alcotest.(check int) "child total" 40 child.Profile.total_ns;
  Alcotest.(check int) "child self" 40 child.Profile.self_ns;
  Alcotest.(check int) "child min" 10 child.Profile.min_ns;
  Alcotest.(check int) "child max" 30 child.Profile.max_ns;
  Alcotest.(check int) "wall = root span" 100 (Profile.total_ns p);
  Alcotest.(check int) "span count" 3 (Profile.span_count p);
  Alcotest.(check int) "no orphans" 0 (Profile.orphan_ends p);
  Alcotest.(check int) "nothing unclosed" 0 (Profile.unclosed p);
  (* self times partition the wall clock *)
  let self_sum =
    List.fold_left (fun acc (r : Profile.row) -> acc + r.Profile.self_ns) 0 (Profile.rows p)
  in
  Alcotest.(check int) "selves sum to total" (Profile.total_ns p) self_sum;
  Alcotest.(check (list (pair string int)))
    "folded paths"
    [ ("root", 60); ("root;child", 40) ]
    (Profile.folded p)

let test_profile_deep_nesting () =
  (* a [0,90] > b [10,80] > c [20,30] and c [40,60] *)
  let p =
    Profile.of_events
      [
        b "a" 0; b "b" 10; b "c" 20; e "c" 30; b "c" 40; e "c" 60; e "b" 80; e "a" 90;
      ]
  in
  Alcotest.(check int) "a self" 20 (row p "a").Profile.self_ns;
  Alcotest.(check int) "b self" 40 (row p "b").Profile.self_ns;
  Alcotest.(check int) "c self" 30 (row p "c").Profile.self_ns;
  Alcotest.(check (list (pair string int)))
    "three-deep folded"
    [ ("a", 20); ("a;b", 40); ("a;b;c", 30) ]
    (Profile.folded p)

let test_profile_wrapped () =
  (* A wrapped ring starts mid-trace: the leading End's Begin was
     overwritten.  It must be counted and skipped, not crash or skew. *)
  let p = Profile.of_events [ e "lost" 5; b "a" 10; e "a" 30 ] in
  Alcotest.(check int) "one orphan end" 1 (Profile.orphan_ends p);
  Alcotest.(check int) "survivor measured" 20 (row p "a").Profile.self_ns;
  Alcotest.(check int) "total from survivors" 20 (Profile.total_ns p)

let test_profile_unclosed () =
  (* Stream ends mid-run: open frames close at the last seen timestamp. *)
  let p = Profile.of_events [ b "a" 0; b "b" 10; b "c" 30 ] in
  Alcotest.(check int) "three unclosed" 3 (Profile.unclosed p);
  Alcotest.(check int) "c closed at last ts, zero length" 0 (row p "c").Profile.total_ns;
  Alcotest.(check int) "b spans to last ts" 20 (row p "b").Profile.total_ns;
  Alcotest.(check int) "b self excludes c" 20 (row p "b").Profile.self_ns;
  Alcotest.(check int) "a spans to last ts" 30 (row p "a").Profile.total_ns;
  Alcotest.(check int) "a self excludes b" 10 (row p "a").Profile.self_ns;
  Alcotest.(check int) "total still root-based" 30 (Profile.total_ns p)

let test_profile_empty () =
  let p = Profile.of_events [] in
  Alcotest.(check int) "no spans" 0 (Profile.span_count p);
  Alcotest.(check int) "no time" 0 (Profile.total_ns p);
  Alcotest.(check (list (pair string int))) "no stacks" [] (Profile.folded p);
  Alcotest.(check bool) "render does not fail" true (String.length (Profile.render p) > 0)

(* Parse folded-stacks text back and check it reproduces the profile's
   totals: every line is "path self", selves sum to total_ns, and the
   per-name sums match the rows. *)
let test_folded_roundtrip () =
  let events =
    [
      b "run" 0;
      b "gate" 10; b "gc" 20; e "gc" 50; e "gate" 70;
      b "gate" 80; e "gate" 130;
      b "sample" 140; e "sample" 190;
      e "run" 200;
    ]
  in
  let p = Profile.of_events events in
  let parsed =
    Profile.folded_stacks p |> String.split_on_char '\n'
    |> List.filter (fun l -> String.trim l <> "")
    |> List.map (fun line ->
           match String.rindex_opt line ' ' with
           | None -> Alcotest.failf "malformed folded line %S" line
           | Some i ->
               ( String.sub line 0 i,
                 int_of_string (String.sub line (i + 1) (String.length line - i - 1)) ))
  in
  Alcotest.(check int)
    "selves sum to wall clock" (Profile.total_ns p)
    (List.fold_left (fun acc (_, s) -> acc + s) 0 parsed);
  (* per-name self from the folded view (leaf of each path) = row self *)
  let leaf path =
    match List.rev (String.split_on_char ';' path) with
    | leaf :: _ -> leaf
    | [] -> Alcotest.failf "empty path"
  in
  List.iter
    (fun (r : Profile.row) ->
      let from_folded =
        List.fold_left
          (fun acc (path, s) -> if leaf path = r.Profile.name then acc + s else acc)
          0 parsed
      in
      Alcotest.(check int)
        (Printf.sprintf "folded self of %s" r.Profile.name)
        r.Profile.self_ns from_folded)
    (List.filter (fun (r : Profile.row) -> r.Profile.self_ns > 0) (Profile.rows p))

(* The profile of a real traced run: record through the Trace ring and
   check the aggregate is balanced and the root covers the run. *)
let test_profile_of_real_trace () =
  Trace.configure ();
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.clear ())
    (fun () ->
      Trace.with_span "root" (fun () ->
          for _ = 1 to 10 do
            Trace.with_span "work" (fun () -> ignore (Sys.opaque_identity (Array.make 100 0)))
          done);
      let p = Profile.of_events (Trace.events ()) in
      Alcotest.(check int) "11 spans" 11 (Profile.span_count p);
      Alcotest.(check int) "no orphans" 0 (Profile.orphan_ends p);
      Alcotest.(check int) "none unclosed" 0 (Profile.unclosed p);
      let root = row p "root" in
      Alcotest.(check int) "root is the wall clock" (Profile.total_ns p) root.Profile.total_ns;
      Alcotest.(check int) "work count" 10 (row p "work").Profile.count)

(* ------------------------------------------------------------------ *)
(* Json parser                                                         *)
(* ------------------------------------------------------------------ *)

let test_json_parse () =
  (match Json.parse {|{"a": [1, 2.5, -3e2], "b": "x\ny", "c": true, "d": null}|} with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok j -> (
      (match Json.member "a" j with
      | Some (Json.Array [ Json.Number a; Json.Number b; Json.Number c ]) ->
          feq "int" 1.0 a;
          feq "float" 2.5 b;
          feq "exponent" (-300.0) c
      | _ -> Alcotest.fail "array decode");
      (match Option.bind (Json.member "b" j) Json.to_string with
      | Some s -> Alcotest.(check string) "escape decode" "x\ny" s
      | None -> Alcotest.fail "string decode");
      match Option.bind (Json.member "c" j) Json.to_bool with
      | Some v -> Alcotest.(check bool) "bool" true v
      | None -> Alcotest.fail "bool decode"));
  (match Json.parse "{\"a\": }" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted malformed object");
  match Json.parse "[1, 2] trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted trailing garbage"

(* ------------------------------------------------------------------ *)
(* Baseline                                                            *)
(* ------------------------------------------------------------------ *)

let summary ~median ~mad ~min ~max ~reps = { Stats.median; mad; min; max; reps }

let baseline =
  {
    Baseline.experiment = "unit";
    smoke = true;
    timings =
      [
        {
          Baseline.label = "unit/fast";
          timing = summary ~median:1000.0 ~mad:50.0 ~min:900.0 ~max:1100.0 ~reps:5;
        };
        {
          Baseline.label = "unit/steady";
          timing = summary ~median:5.0e6 ~mad:0.0 ~min:5.0e6 ~max:5.0e6 ~reps:5;
        };
      ];
  }

let current ~label ~scale =
  {
    Baseline.experiment = "unit";
    smoke = true;
    timings =
      [
        {
          Baseline.label;
          timing =
            summary ~median:(1000.0 *. scale) ~mad:40.0 ~min:(950.0 *. scale)
              ~max:(1050.0 *. scale) ~reps:5;
        };
      ];
  }

let test_baseline_roundtrip () =
  let path = Filename.temp_file "qdt_baseline" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Baseline.write ~path baseline;
      match Baseline.read ~path with
      | Error e -> Alcotest.failf "read back failed: %s" e
      | Ok t ->
          Alcotest.(check string) "experiment" "unit" t.Baseline.experiment;
          Alcotest.(check bool) "smoke" true t.Baseline.smoke;
          Alcotest.(check int) "timings" 2 (List.length t.Baseline.timings);
          let fast =
            List.find (fun (e : Baseline.entry) -> e.Baseline.label = "unit/fast") t.Baseline.timings
          in
          feq "median survives" 1000.0 fast.Baseline.timing.Stats.median;
          feq "mad survives" 50.0 fast.Baseline.timing.Stats.mad)

(* The acceptance criterion: artificially inflating a timing 3x must
   report a regression; a rerun within noise must not. *)
let test_regression_detected () =
  let cmp =
    Baseline.compare ~baseline ~current:(current ~label:"unit/fast" ~scale:3.0) ()
  in
  Alcotest.(check bool) "3x inflation flags" true cmp.Baseline.any_regressed;
  match cmp.Baseline.verdicts with
  | [ v ] ->
      Alcotest.(check bool) "verdict regressed" true v.Baseline.regressed;
      feq "threshold = max(2x median, median + 5 mad)" 2000.0 v.Baseline.threshold_ns;
      Alcotest.(check bool) "render mentions it" true
        (let s = Baseline.render cmp in
         let needle = "REGRESSED" in
         let rec contains i =
           i + String.length needle <= String.length s
           && (String.sub s i (String.length needle) = needle || contains (i + 1))
         in
         contains 0)
  | _ -> Alcotest.fail "expected one verdict"

let test_no_false_positive () =
  let cmp =
    Baseline.compare ~baseline ~current:(current ~label:"unit/fast" ~scale:1.1) ()
  in
  Alcotest.(check bool) "10% drift passes" false cmp.Baseline.any_regressed;
  (* MAD-scaled headroom: a baseline with mad = 0 still gets the ratio floor *)
  let noisy =
    Baseline.compare ~baseline
      ~current:
        {
          Baseline.experiment = "unit";
          smoke = true;
          timings =
            [
              {
                Baseline.label = "unit/steady";
                timing = summary ~median:9.0e6 ~mad:1.0e5 ~min:9.9e6 ~max:1.0e7 ~reps:3;
              };
            ];
        }
      ()
  in
  (* best rep 9.9e6 < threshold 1.0e7 would pass; here min > 2x median flags *)
  Alcotest.(check bool) "zero-mad baseline uses ratio floor" false
    (Baseline.threshold (List.nth baseline.Baseline.timings 1).Baseline.timing < 1.0e7);
  ignore noisy

let test_one_sided_labels () =
  let cmp =
    Baseline.compare ~baseline ~current:(current ~label:"unit/brand-new" ~scale:1.0) ()
  in
  Alcotest.(check bool) "new timing never gates" false cmp.Baseline.any_regressed;
  Alcotest.(check (list string)) "new label reported" [ "unit/brand-new" ]
    cmp.Baseline.only_in_current;
  Alcotest.(check (list string))
    "missing labels reported"
    [ "unit/fast"; "unit/steady" ]
    (List.sort compare cmp.Baseline.only_in_baseline)

let test_min_gating_rejects_noise () =
  (* One noisy rep inflates median past the threshold but the best rep is
     clean: must NOT flag (the property that makes the gate usable on
     shared machines). *)
  let cmp =
    Baseline.compare ~baseline
      ~current:
        {
          Baseline.experiment = "unit";
          smoke = true;
          timings =
            [
              {
                Baseline.label = "unit/fast";
                timing = summary ~median:2500.0 ~mad:800.0 ~min:1050.0 ~max:4000.0 ~reps:3;
              };
            ];
        }
      ()
  in
  Alcotest.(check bool) "clean best rep passes" false cmp.Baseline.any_regressed

(* [Stats.separated]: at least 5 samples a side, and every sample of one
   side beats every sample of the other. *)
let test_separated () =
  let fast = (List.hd baseline.Baseline.timings).Baseline.timing in
  let inflated = (List.hd (current ~label:"unit/fast" ~scale:3.0).Baseline.timings).Baseline.timing in
  Alcotest.(check bool) "3x inflation separates" true (Stats.separated fast inflated);
  Alcotest.(check bool) "either order" true (Stats.separated inflated fast);
  let low = Stats.summary [| 1.0; 2.0; 3.0; 4.0 |] and high = Stats.summary [| 10.0; 11.0; 12.0; 13.0 |] in
  Alcotest.(check bool) "disjoint but 4 samples a side" false (Stats.separated low high);
  Alcotest.(check bool) "disjoint but 4 samples on one side" false
    (Stats.separated (Stats.summary [| 1.0; 2.0; 3.0; 4.0; 5.0 |]) high);
  let a = Stats.summary [| 10.0; 11.0; 12.0; 13.0; 14.0 |] in
  let b = Stats.summary [| 13.5; 14.5; 15.0; 16.0; 17.0 |] in
  Alcotest.(check bool) "overlapping 5-sample draws" false (Stats.separated a b)

let () =
  Alcotest.run "qdt_profile"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "mad" `Quick test_mad;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "summary json round trip" `Quick test_summary_roundtrip;
          Alcotest.test_case "separated" `Quick test_separated;
        ] );
      ( "profile",
        [
          Alcotest.test_case "nested self/total" `Quick test_profile_nested;
          Alcotest.test_case "deep nesting" `Quick test_profile_deep_nesting;
          Alcotest.test_case "wrapped ring" `Quick test_profile_wrapped;
          Alcotest.test_case "unclosed spans" `Quick test_profile_unclosed;
          Alcotest.test_case "empty stream" `Quick test_profile_empty;
          Alcotest.test_case "folded round trip" `Quick test_folded_roundtrip;
          Alcotest.test_case "real traced run" `Quick test_profile_of_real_trace;
        ] );
      ("json", [ Alcotest.test_case "parse" `Quick test_json_parse ]);
      ( "baseline",
        [
          Alcotest.test_case "file round trip" `Quick test_baseline_roundtrip;
          Alcotest.test_case "3x inflation regresses" `Quick test_regression_detected;
          Alcotest.test_case "no false positive in noise" `Quick test_no_false_positive;
          Alcotest.test_case "one-sided labels" `Quick test_one_sided_labels;
          Alcotest.test_case "min-gating rejects noisy median" `Quick test_min_gating_rejects_noise;
        ] );
    ]
