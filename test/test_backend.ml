(* Tests for the backend layer: registry contents, capability queries,
   typed unsupported-operation errors, the shared admission guard, the
   Auto dispatcher's routing, the unified stats record, and agreement
   between the registered engines. *)

open Qdt_circuit
module Backend = Qdt.Backend
module Job = Qdt.Job
module Registry = Qdt.Registry
module Vec = Qdt_linalg.Vec

let get name =
  match Registry.find_session name with
  | Some m -> m
  | None -> Alcotest.failf "backend %s not registered" name

let run name c job = Backend.run_once (get name) c job
let sample_job shots = Job.Sample { seed = 0; shots }

let nn_chain n =
  let c = ref (Circuit.empty n) in
  for q = 0 to n - 1 do
    c := Circuit.ry 0.3 q !c
  done;
  for q = 0 to n - 2 do
    c := Circuit.cx q (q + 1) !c
  done;
  !c

let t_heavy = Generators.random_clifford_t ~seed:3 ~gates:100 ~t_fraction:0.3 5

(* [value stats name] — the engine-named value, failing when absent. *)
let value (stats : Backend.stats) name =
  match List.assoc_opt name stats.Backend.values with
  | Some v -> v
  | None -> Alcotest.failf "%s stats missing %s" stats.Backend.backend name

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let test_registry_contents () =
  let names = Registry.names () in
  List.iter
    (fun expected ->
      if not (List.mem expected names) then Alcotest.failf "%s missing" expected)
    [ "arrays"; "decision-diagrams"; "tensor-network"; "mps"; "stabilizer"; "auto" ];
  Alcotest.(check int) "six backends" 6 (List.length (Registry.all ()));
  Alcotest.(check bool) "unknown name" true (Registry.find_session "qubit-frobnicator" = None)

let test_capability_queries () =
  let caps name = Option.get (Registry.capabilities_of name) in
  let stab = caps "stabilizer" in
  Alcotest.(check bool) "stabilizer clifford-only" true stab.Backend.clifford_only;
  Alcotest.(check bool) "stabilizer no state" false stab.Backend.full_state;
  Alcotest.(check bool) "stabilizer no amplitude" false
    (Backend.supports stab Backend.Amplitude);
  Alcotest.(check bool) "stabilizer samples" true (Backend.supports stab Backend.Sample);
  let tn = caps "tensor-network" in
  Alcotest.(check bool) "tn no sampling" false (Backend.supports tn Backend.Sample);
  Alcotest.(check bool) "tn no measurements" false tn.Backend.supports_nonunitary;
  let arrays = caps "arrays" in
  Alcotest.(check bool) "arrays bounded" true (arrays.Backend.max_qubits <> None);
  List.iter
    (fun (module S : Backend.SESSION) ->
      Alcotest.(check bool)
        (S.name ^ " expectation-z")
        true
        (Backend.supports S.capabilities Backend.Expectation_z))
    (Registry.all ())

(* ------------------------------------------------------------------ *)
(* Typed errors instead of exceptions                                  *)
(* ------------------------------------------------------------------ *)

let expect_error name = function
  | Ok _ -> Alcotest.failf "%s: expected a typed error" name
  | Error (e : Backend.error) ->
      if e.Backend.reason = "" then Alcotest.failf "%s: empty reason" name

let test_typed_errors () =
  let bell = Generators.bell in
  expect_error "tn sample" (run "tensor-network" bell (sample_job 10));
  expect_error "stabilizer simulate" (run "stabilizer" bell Job.Full_state);
  expect_error "stabilizer amplitude" (run "stabilizer" bell (Job.Amplitude 0));
  expect_error "stabilizer non-clifford" (run "stabilizer" t_heavy (sample_job 10));
  let measured = Circuit.(empty 2 ~clbits:2 |> h 0 |> measure ~qubit:0 ~clbit:0) in
  expect_error "mps measurements" (run "mps" measured (sample_job 10));
  expect_error "arrays full state of measured circuit" (run "arrays" measured Job.Full_state);
  expect_error "arrays too wide"
    (run "arrays" (Circuit.empty 30 |> Circuit.h 0) Job.Full_state);
  (* ...but the same measured circuit is samplable where supported *)
  (match run "arrays" measured (sample_job 5) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "arrays sample measured: %s" (Backend.error_to_string e))

(* ------------------------------------------------------------------ *)
(* The shared admission guard                                          *)
(* ------------------------------------------------------------------ *)

(* Every engine declines, with a typed error, a dense state too wide to
   allocate (2^40 amplitudes are 16 TiB), job parameters that fall
   outside the circuit, and shot counts outside [1, 2^20]. *)
let test_shared_guard () =
  let wide = Generators.ghz 40 and ghz5 = Generators.ghz 5 in
  List.iter
    (fun ((module S : Backend.SESSION) as engine) ->
      let declines what c job =
        expect_error (S.name ^ " " ^ what) (Backend.run_once engine c job)
      in
      declines "40-qubit full state" wide Job.Full_state;
      declines "amplitude 32 of 5 qubits" ghz5 (Job.Amplitude 32);
      declines "amplitude -1" ghz5 (Job.Amplitude (-1));
      declines "<Z_5> of 5 qubits" ghz5 (Job.Expectation_z { seed = 0; qubit = 5 });
      declines "<Z_-1>" ghz5 (Job.Expectation_z { seed = 0; qubit = -1 });
      declines "0 shots" ghz5 (sample_job 0);
      declines "-5 shots" ghz5 (sample_job (-5));
      declines "2^20 + 1 shots" ghz5 (sample_job (Backend.max_shots + 1)))
    (Registry.all ())

(* Engines decline nothing on their own: over circuits that cross every
   capability axis (Clifford or not, measured or not, dynamic or not)
   and all four job kinds, [submit] declines exactly when the guard
   does, with the guard's error — on a live session, then on a closed
   one. *)
let test_declines_come_from_guard () =
  let circuits =
    [
      ("ghz", Generators.ghz 3);
      ("clifford+t", Generators.random_clifford_t ~seed:2 ~gates:30 ~t_fraction:0.3 3);
      ("measured ghz", Circuit.measure_all (Generators.ghz 3));
      ("teleportation", Generators.teleportation ());
    ]
  in
  let jobs =
    [
      Job.Full_state;
      Job.Amplitude 1;
      Job.Sample { seed = 0; shots = 20 };
      Job.Expectation_z { seed = 0; qubit = 0 };
    ]
  in
  List.iter
    (fun (module S : Backend.SESSION) ->
      let s = S.create () in
      let check ~closed (cname, c) job =
        let what =
          Printf.sprintf "%s %s %s%s" S.name cname (Job.describe job)
            (if closed then " (closed)" else "")
        in
        match
          (S.submit s c job, Backend.admit ~closed ~name:S.name ~caps:S.capabilities c job)
        with
        | Ok _, Ok () -> ()
        | Error e, Error g ->
            Alcotest.(check string) what (Backend.error_to_string g)
              (Backend.error_to_string e)
        | Ok _, Error g -> Alcotest.failf "%s: the guard declines (%s) but submit ran" what g.reason
        | Error e, Ok () -> Alcotest.failf "%s: the guard admits but submit declines (%s)" what e.reason
      in
      let check_all ~closed =
        List.iter (fun c -> List.iter (check ~closed c) jobs) circuits
      in
      check_all ~closed:false;
      S.close s;
      check_all ~closed:true)
    (Registry.all ())

(* ------------------------------------------------------------------ *)
(* Auto dispatcher routing                                             *)
(* ------------------------------------------------------------------ *)

let choice job c =
  let (module S : Backend.SESSION), _reason = Qdt.Auto.choose c job in
  S.name

let test_auto_routing () =
  let clifford = Generators.random_clifford ~seed:5 ~gates:80 6 in
  Alcotest.(check string) "clifford -> stabilizer" "stabilizer"
    (choice (sample_job 100) clifford);
  Alcotest.(check string) "low entanglement -> mps" "mps"
    (choice (Job.Expectation_z { seed = 0; qubit = 0 }) (nn_chain 16));
  Alcotest.(check string) "t-heavy -> dd" "decision-diagrams"
    (choice Job.Full_state t_heavy);
  Alcotest.(check string) "generic small -> arrays" "arrays"
    (choice Job.Full_state (Generators.qft 6));
  (* capability-aware fallthrough: stabilizer cannot produce the state *)
  Alcotest.(check bool) "clifford full state avoids stabilizer" true
    (choice Job.Full_state clifford <> "stabilizer")

let test_auto_results_and_note () =
  let c = Generators.ghz 5 in
  match run "auto" c (Job.Sample { seed = 1; shots = 200 }) with
  | Error e -> Alcotest.failf "auto sample: %s" (Backend.error_to_string e)
  | Ok (Job.Counts counts, stats) ->
      Alcotest.(check string) "ghz is clifford" "stabilizer" stats.Backend.backend;
      Alcotest.(check bool) "choice logged" true (stats.Backend.note <> None);
      Alcotest.(check bool) "tableau telemetry" true
        (List.mem_assoc "tableau_bytes" stats.Backend.values);
      let total = List.fold_left (fun acc (_, n) -> acc + n) 0 counts in
      Alcotest.(check int) "all shots" 200 total;
      List.iter
        (fun (k, _) ->
          if k <> 0 && k <> 31 then Alcotest.failf "ghz outcome %d" k)
        counts
  | Ok _ -> Alcotest.fail "auto sample: not a counts payload"

(* ------------------------------------------------------------------ *)
(* Unified stats                                                       *)
(* ------------------------------------------------------------------ *)

let test_dd_telemetry () =
  match run "decision-diagrams" (Generators.qft 6) Job.Full_state with
  | Error e -> Alcotest.failf "dd simulate: %s" (Backend.error_to_string e)
  | Ok (_, stats) ->
      let d = value stats in
      Alcotest.(check bool) "peak >= final" true (d "dd.peak_nodes" >= d "dd.final_nodes");
      Alcotest.(check bool) "peak > 0" true (d "dd.peak_nodes" > 0.0);
      Alcotest.(check bool) "unique table populated" true (d "dd.unique_table_size" > 0.0);
      Alcotest.(check bool) "hit rates in [0,1]" true
        (d "dd.unique_hit_rate" >= 0.0
        && d "dd.unique_hit_rate" <= 1.0
        && d "dd.compute_hit_rate" >= 0.0
        && d "dd.compute_hit_rate" <= 1.0)

let test_mps_telemetry () =
  match run "mps" (Generators.ghz 8) Job.Full_state with
  | Error e -> Alcotest.failf "mps simulate: %s" (Backend.error_to_string e)
  | Ok (_, stats) ->
      Alcotest.(check int) "ghz bond dimension" 2
        (int_of_float (value stats "mps.max_bond_dim"));
      Alcotest.(check (float 1e-12)) "no truncation" 0.0 (value stats "mps.truncation_error")

(* One record, two renderers: JSON nests "dd.x" under "dd" and, like the
   text line, prints integral values exactly. *)
let test_stats_renderers () =
  let stats =
    {
      Backend.backend = "decision-diagrams";
      wall_s = 0.25;
      note = Some "why";
      values = [ ("dd.peak_nodes", 1234567.); ("dd.unique_hit_rate", 0.5); ("tableau_bytes", 96.) ];
    }
  in
  let json =
    match Qdt_obs.Json.parse (Backend.stats_to_json stats) with
    | Ok j -> j
    | Error e -> Alcotest.failf "stats JSON does not parse: %s" e
  in
  let num path =
    match
      List.fold_left (fun j k -> Option.bind j (Qdt_obs.Json.member k)) (Some json) path
    with
    | Some (Qdt_obs.Json.Number v) -> v
    | _ -> Alcotest.failf "stats JSON lacks %s" (String.concat "." path)
  in
  Alcotest.(check (float 0.0)) "dd.peak_nodes exact" 1234567. (num [ "dd"; "peak_nodes" ]);
  Alcotest.(check (float 0.0)) "dd.unique_hit_rate" 0.5 (num [ "dd"; "unique_hit_rate" ]);
  Alcotest.(check (float 0.0)) "tableau_bytes" 96. (num [ "tableau_bytes" ]);
  Alcotest.(check (float 0.0)) "wall_s" 0.25 (num [ "wall_s" ]);
  Alcotest.(check (option string)) "backend" (Some "decision-diagrams")
    (Option.bind (Qdt_obs.Json.member "backend" json) Qdt_obs.Json.to_string);
  Alcotest.(check (option string)) "note" (Some "why")
    (Option.bind (Qdt_obs.Json.member "note" json) Qdt_obs.Json.to_string);
  let text = Backend.stats_to_string stats in
  let contains needle =
    let n = String.length needle in
    let rec at i = i + n <= String.length text && (String.sub text i n = needle || at (i + 1)) in
    at 0
  in
  List.iter
    (fun needle ->
      if not (contains needle) then Alcotest.failf "text %S lacks %S" text needle)
    [ "dd.peak_nodes=1234567"; "dd.unique_hit_rate=0.5"; "tableau_bytes=96"; "\nchoice: why" ]

(* ------------------------------------------------------------------ *)
(* Cross-backend agreement                                             *)
(* ------------------------------------------------------------------ *)

let test_backends_agree () =
  let c = Generators.w_state 6 in
  let reference =
    match run "arrays" c Job.Full_state with
    | Ok (Job.State v, _) -> v
    | _ -> Alcotest.fail "arrays: no state for w(6)"
  in
  List.iter
    (fun ((module S : Backend.SESSION) as engine) ->
      match Backend.run_once engine c Job.Full_state with
      | Ok (Job.State state, _) ->
          if not (Vec.approx_equal ~eps:1e-7 reference state) then
            Alcotest.failf "%s disagrees on w(6)" S.name
      | Ok _ -> Alcotest.failf "%s: not a state payload" S.name
      | Error _ -> () (* stabilizer: no state access *))
    (Registry.all ())

let test_seeded_determinism () =
  (* mid-circuit measurement: same seed, same expectation (the seed-drop
     bug made the stabilizer arm nondeterministic) *)
  let c =
    Circuit.(
      empty 2 ~clbits:2 |> h 0 |> measure ~qubit:0 ~clbit:0 |> cx 0 1)
  in
  let expectation () =
    match run "stabilizer" c (Job.Expectation_z { seed = 7; qubit = 1 }) with
    | Ok (Job.Expectation v, _) -> v
    | _ -> Alcotest.fail "stabilizer: no expectation"
  in
  let v1 = expectation () in
  let v2 = expectation () in
  Alcotest.(check (float 0.0)) "same seed same result" v1 v2;
  Alcotest.(check bool) "collapsed" true (Float.abs v1 = 1.0)

let () =
  Alcotest.run "qdt_backend"
    [
      ( "registry",
        [
          Alcotest.test_case "contents" `Quick test_registry_contents;
          Alcotest.test_case "capabilities" `Quick test_capability_queries;
        ] );
      ("errors", [ Alcotest.test_case "typed unsupported" `Quick test_typed_errors ]);
      ( "guard",
        [
          Alcotest.test_case "every engine" `Quick test_shared_guard;
          Alcotest.test_case "every decline comes from the guard" `Quick
            test_declines_come_from_guard;
        ] );
      ( "auto",
        [
          Alcotest.test_case "routing" `Quick test_auto_routing;
          Alcotest.test_case "results + note" `Quick test_auto_results_and_note;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "dd" `Quick test_dd_telemetry;
          Alcotest.test_case "mps" `Quick test_mps_telemetry;
          Alcotest.test_case "renderers" `Quick test_stats_renderers;
        ] );
      ( "shim",
        [
          Alcotest.test_case "backends agree" `Quick test_backends_agree;
          Alcotest.test_case "seeded determinism" `Quick test_seeded_determinism;
        ] );
    ]
