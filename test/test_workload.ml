(* Workload: generator distributions match the paper's Section 8 spec, and
   the scenario driver is deterministic and engine-agnostic — the same
   config must present the same stream to every engine, making maturity
   logs diffable. *)

open Rts_workload
module Stats = Rts_util.Stats
open Rts_core

let test_element_values_in_domain () =
  let g = Generator.create ~dim:2 ~seed:1 () in
  for _ = 1 to 5_000 do
    let e = Generator.element g in
    Alcotest.(check int) "dim" 2 (Array.length e.Types.value);
    Array.iter
      (fun x ->
        Alcotest.(check bool) "in [0, 1e5)" true (x >= 0. && x < Generator.domain))
      e.Types.value
  done

let test_weights_gaussian () =
  let g = Generator.create ~dim:1 ~seed:2 () in
  let xs = Array.init 20_000 (fun _ -> float_of_int (Generator.element g).Types.weight) in
  let s = Stats.summarize xs in
  Alcotest.(check bool) "all >= 1" true (s.min >= 1.);
  Alcotest.(check bool) "mean ~100" true (abs_float (s.mean -. 100.) < 1.);
  Alcotest.(check bool) "stddev ~15" true (abs_float (s.stddev -. 15.) < 1.)

let test_unit_weights () =
  let g = Generator.create ~dim:1 ~seed:3 ~unit_weights:true () in
  for _ = 1 to 1_000 do
    Alcotest.(check int) "w=1" 1 (Generator.element g).Types.weight
  done;
  Alcotest.(check (float 0.)) "mean weight" 1. (Generator.mean_weight g)

let test_rectangles_inside_domain () =
  List.iter
    (fun dim ->
      let g = Generator.create ~dim ~seed:4 () in
      for _ = 1 to 2_000 do
        let r = Generator.rectangle g in
        for k = 0 to dim - 1 do
          Alcotest.(check bool) "lo >= 0" true (r.Types.lo.(k) >= 0.);
          Alcotest.(check bool) "hi <= domain" true (r.Types.hi.(k) <= Generator.domain)
        done
      done)
    [ 1; 2; 3 ]

let test_rectangle_volume_10pct () =
  List.iter
    (fun dim ->
      let g = Generator.create ~dim ~seed:5 () in
      let r = Generator.rectangle g in
      let vol = ref 1. in
      for k = 0 to dim - 1 do
        vol := !vol *. (r.Types.hi.(k) -. r.Types.lo.(k))
      done;
      let frac = !vol /. (Generator.domain ** float_of_int dim) in
      Alcotest.(check bool)
        (Printf.sprintf "d=%d volume fraction ~0.1 (got %f)" dim frac)
        true
        (abs_float (frac -. 0.1) < 1e-9))
    [ 1; 2; 3 ]

let test_stab_probability_empirical () =
  (* A uniform element should stab ~10% of queries. *)
  let g = Generator.create ~dim:2 ~seed:6 () in
  Alcotest.(check (float 1e-9)) "predicted" 0.1 (Generator.expected_stab_probability g);
  let rects = List.init 300 (fun _ -> Generator.rectangle g) in
  let hits = ref 0 and trials = ref 0 in
  for _ = 1 to 2_000 do
    let e = Generator.element g in
    List.iter
      (fun r ->
        incr trials;
        if Types.rect_contains r e.Types.value then incr hits)
      rects
  done;
  let p = float_of_int !hits /. float_of_int !trials in
  Alcotest.(check bool) (Printf.sprintf "empirical ~0.1 (got %f)" p) true
    (abs_float (p -. 0.1) < 0.02)

let test_p_del_calibration () =
  (* P(survive expected maturity) must be 10%. *)
  let g = Generator.create ~dim:1 ~seed:7 () in
  let tau = 200_000 in
  let p = Generator.p_del g ~tau in
  let steps = float_of_int tau /. 10. in
  let survive = (1. -. p) ** steps in
  Alcotest.(check bool) (Printf.sprintf "survival ~0.1 (got %f)" survive) true
    (abs_float (survive -. 0.1) < 1e-6)

let test_lifetime_distribution () =
  let g = Generator.create ~dim:1 ~seed:8 () in
  let tau = 100_000 in
  (* fraction of lifetimes exceeding tau/10 should be ~10% *)
  let n = 20_000 in
  let long = ref 0 in
  for _ = 1 to n do
    if Generator.lifetime g ~tau > tau / 10 then incr long
  done;
  let frac = float_of_int !long /. float_of_int n in
  Alcotest.(check bool) (Printf.sprintf "long-lived ~0.1 (got %f)" frac) true
    (abs_float (frac -. 0.1) < 0.02)

let test_zipf_values_in_domain_and_skewed () =
  let g = Generator.create ~value_dist:(Generator.Zipf 1.0) ~dim:1 ~seed:10 () in
  let counts = Hashtbl.create 64 in
  for _ = 1 to 20_000 do
    let e = Generator.element g in
    let x = e.Types.value.(0) in
    Alcotest.(check bool) "in domain" true (x >= 0. && x < Generator.domain);
    let bucket = int_of_float (x /. Generator.domain *. 100.) in
    Hashtbl.replace counts bucket (1 + Option.value ~default:0 (Hashtbl.find_opt counts bucket))
  done;
  (* skew: the hottest percentile bucket must be far above the mean load *)
  let max_count = Hashtbl.fold (fun _ c acc -> max c acc) counts 0 in
  Alcotest.(check bool)
    (Printf.sprintf "hot bucket %dx mean" (max_count * 100 / 20_000))
    true
    (max_count > 3 * (20_000 / 100))

let test_clustered_values () =
  let g = Generator.create ~value_dist:(Generator.Clustered 3) ~dim:2 ~seed:11 () in
  for _ = 1 to 5_000 do
    let e = Generator.element g in
    Array.iter
      (fun x -> Alcotest.(check bool) "in domain" true (x >= 0. && x < Generator.domain))
      e.Types.value
  done

let test_generator_determinism () =
  let a = Generator.create ~dim:2 ~seed:9 () in
  let b = Generator.create ~dim:2 ~seed:9 () in
  for _ = 1 to 500 do
    let ea = Generator.element a and eb = Generator.element b in
    Alcotest.(check bool) "same elements" true (ea = eb)
  done

(* ---- scenario driver ---- *)

let small_cfg =
  {
    Scenario.default with
    Scenario.initial_queries = 200;
    tau = 2_000;
    max_elements = 30_000;
    chunk = 256;
  }

let test_skewed_scenario_equivalence () =
  (* Engines must agree under skew just as under uniform. *)
  let cfg =
    { small_cfg with Scenario.value_dist = Generator.Zipf 1.1; initial_queries = 150 }
  in
  let r1 = Scenario.run cfg (fun ~dim -> Dt_engine.make ~dim) in
  let r2 = Scenario.run cfg (fun ~dim -> Baseline_engine.make ~dim) in
  Alcotest.(check (list (pair int int))) "dt = baseline under zipf" r2.maturity_log
    r1.maturity_log

let test_scenario_static_completes () =
  let r = Scenario.run small_cfg (fun ~dim -> Dt_engine.make ~dim) in
  Alcotest.(check int) "all queries accounted" r.registered (r.matured + r.terminated);
  Alcotest.(check bool) "some matured" true (r.matured > 0);
  Alcotest.(check bool) "some terminated" true (r.terminated > 0);
  Alcotest.(check bool) "stopped before cap" true (r.elements < small_cfg.max_elements);
  Alcotest.(check bool) "trace nonempty" true (Array.length r.trace > 1)

let test_scenario_maturity_rate () =
  (* p_del calibration: ~10% of queries should reach maturity. *)
  let cfg = { small_cfg with Scenario.initial_queries = 2_000; tau = 5_000; max_elements = 200_000 } in
  let r = Scenario.run cfg (fun ~dim -> Dt_engine.make ~dim) in
  let frac = float_of_int r.matured /. float_of_int r.registered in
  Alcotest.(check bool) (Printf.sprintf "maturity fraction ~0.1 (got %f)" frac) true
    (frac > 0.05 && frac < 0.2)

let test_scenario_engine_agnostic () =
  (* Same config, different engines: identical maturity logs. *)
  let r1 = Scenario.run small_cfg (fun ~dim -> Dt_engine.make ~dim) in
  let r2 = Scenario.run small_cfg (fun ~dim -> Baseline_engine.make ~dim) in
  let r3 = Scenario.run small_cfg (fun ~dim:_ -> Stab1d_engine.make ()) in
  Alcotest.(check (list (pair int int))) "dt = baseline" r2.maturity_log r1.maturity_log;
  Alcotest.(check (list (pair int int))) "stab = baseline" r2.maturity_log r3.maturity_log;
  Alcotest.(check int) "same terminations" r2.terminated r1.terminated;
  Alcotest.(check int) "same registrations" r2.registered r1.registered

let test_scenario_stochastic () =
  let cfg =
    {
      small_cfg with
      Scenario.mode = Scenario.Stochastic { p_ins = 0.3; horizon = 10_000 };
      max_elements = 15_000;
    }
  in
  let r1 = Scenario.run cfg (fun ~dim -> Dt_engine.make ~dim) in
  let r2 = Scenario.run cfg (fun ~dim -> Baseline_engine.make ~dim) in
  Alcotest.(check bool) "insertions happened" true
    (r1.registered > cfg.initial_queries + 2_000);
  Alcotest.(check (list (pair int int))) "dt = baseline" r2.maturity_log r1.maturity_log

let test_scenario_fixed_load () =
  let cfg =
    { small_cfg with Scenario.mode = Scenario.Fixed_load; max_elements = 15_000 }
  in
  let r1 = Scenario.run cfg (fun ~dim -> Dt_engine.make ~dim) in
  let r2 = Scenario.run cfg (fun ~dim -> Baseline_engine.make ~dim) in
  Alcotest.(check (list (pair int int))) "dt = baseline" r2.maturity_log r1.maturity_log;
  (* fixed load: alive count constant at the end of every chunk *)
  Array.iter
    (fun (tp : Scenario.trace_point) ->
      Alcotest.(check int) "constant alive" cfg.initial_queries tp.alive)
    r1.trace;
  Alcotest.(check bool) "replacements happened" true (r1.registered > cfg.initial_queries)

let test_scenario_2d () =
  let cfg = { small_cfg with Scenario.dim = 2; max_elements = 20_000 } in
  let r1 = Scenario.run cfg (fun ~dim -> Dt_engine.make ~dim) in
  let r2 = Scenario.run cfg (fun ~dim:_ -> Stab2d_engine.make ()) in
  let r3 = Scenario.run cfg (fun ~dim -> Rtree_engine.make ~dim) in
  Alcotest.(check (list (pair int int))) "dt = seg-intv" r2.maturity_log r1.maturity_log;
  Alcotest.(check (list (pair int int))) "dt = r-tree" r3.maturity_log r1.maturity_log

let test_scenario_deterministic () =
  let r1 = Scenario.run small_cfg (fun ~dim -> Dt_engine.make ~dim) in
  let r2 = Scenario.run small_cfg (fun ~dim -> Dt_engine.make ~dim) in
  Alcotest.(check (list (pair int int))) "replay" r1.maturity_log r2.maturity_log;
  Alcotest.(check int) "same ops" r1.ops r2.ops

(* Regression: the drift column on zero-budget rows used to render the
   0/0 division as -nan%; such rows must come out as text. *)
let test_drift_cell () =
  let cell budget actual = Rts_workload.Bench_targets.drift_cell ~budget ~actual in
  Alcotest.(check string) "zero budget met" "n/a" (cell 0.0 0.0);
  Alcotest.(check string) "zero budget exceeded" "OVER (zero budget)" (cell 0.0 3.0);
  Alcotest.(check string) "over" "+10.0%" (cell 100.0 110.0);
  Alcotest.(check string) "under" "-25.0%" (cell 100.0 75.0);
  Alcotest.(check string) "met exactly" "+0.0%" (cell 100.0 100.0);
  List.iter
    (fun (b, a) ->
      let s = cell b a in
      Alcotest.(check bool)
        (Printf.sprintf "no nan for budget=%g actual=%g" b a)
        false
        (let lower = String.lowercase_ascii s in
         (* substring check without Str: any rendered nan is a bug *)
         let rec has i =
           i + 3 <= String.length lower && (String.sub lower i 3 = "nan" || has (i + 1))
         in
         has 0))
    [ (0.0, 0.0); (0.0, 5.0); (1.0, 0.0); (7.0, 7.0) ]

(* The bench gate, driven on in-memory documents. [perf_doc] is a
   minimal perf document that passes every check; each case below breaks
   one rule and expects [Bench_targets.check] to name it. *)
module Bench_targets = Rts_workload.Bench_targets
module Json = Rts_obs.Json

let perf_run ?(alloc = 0.0) engine batch counters =
  Json.Obj
    [
      ("engine", Json.Str engine);
      ("batch", Json.int batch);
      ("total_seconds", Json.Num 0.01);
      ("per_op_us", Json.Num 1.0);
      ("elements", Json.int 100);
      ( "metrics",
        Json.Obj
          (("allocated_words_per_element", Json.Num alloc)
          :: List.map (fun (k, v) -> (k, Json.int v)) counters) );
      ( "trace",
        Json.List
          (List.map
             (fun e -> Json.Obj [ ("elements", Json.int e); ("avg_us", Json.Num 1.0) ])
             [ 0; 50; 100 ]) );
    ]

let perf_doc ?(scale = 0.05) ?(seed = 42) runs =
  Json.Obj
    [
      ("figure", Json.Str "perf");
      ( "params",
        Json.Obj
          [
            ("scale", Json.Num scale);
            ("seed", Json.int seed);
            ("batches", Json.List [ Json.int 1; Json.int 64 ]);
          ] );
      ("runs", Json.List runs);
      ("dt_speedup_1024_vs_1", Json.Num 2.0);
      ("dt_counters_no_increase", Json.Bool true);
    ]

let dt_run ?alloc batch heap = perf_run ?alloc "dt" batch [ ("dt_heap_ops_total", heap) ]

let test_budgets =
  match
    Bench_targets.budgets_of_json
      (Json.of_string
         {|{ "scale": 0.05, "seed": 42, "budgets": {
              "perf/dt/1": { "dt_heap_ops_total": 100 },
              "perf/dt/64": { "dt_heap_ops_total": 100 } } }|})
  with
  | Ok b -> b
  | Error msg -> failwith msg

let gate_errors ?budgets doc = (Bench_targets.check ?budgets doc).Bench_targets.errors

let has_error sub errors =
  let n = String.length sub in
  List.exists
    (fun e ->
      let rec at i = i + n <= String.length e && (String.sub e i n = sub || at (i + 1)) in
      at 0)
    errors

let check_fails what sub errors =
  Alcotest.(check bool)
    (Printf.sprintf "%s: an error mentions %S (got [%s])" what sub (String.concat "; " errors))
    true (has_error sub errors)

let test_gate_passes () =
  let r = Bench_targets.check ~budgets:test_budgets (perf_doc [ dt_run 1 80; dt_run 64 30 ]) in
  Alcotest.(check (list string)) "no errors" [] r.Bench_targets.errors;
  Alcotest.(check int) "runs" 2 r.Bench_targets.runs;
  Alcotest.(check (list (pair string string)))
    "rows in run order, OK then LOOSE"
    [ ("perf/dt/1", "OK"); ("perf/dt/64", "LOOSE") ]
    (List.map (fun row -> (row.Bench_targets.key, Bench_targets.status row)) r.Bench_targets.rows);
  Alcotest.(check (list string)) "no budgets: no rows" []
    (List.map
       (fun row -> row.Bench_targets.key)
       (Bench_targets.check (perf_doc [ dt_run 1 80 ])).Bench_targets.rows)

let test_gate_over_budget () =
  check_fails "counter over budget" "dt_heap_ops_total = 101 exceeds budget 100"
    (gate_errors ~budgets:test_budgets (perf_doc [ dt_run 1 101 ]))

let test_gate_missing_entry () =
  check_fails "run with no entry" "no budgets entry for \"perf/dt/1024\""
    (gate_errors ~budgets:test_budgets (perf_doc [ dt_run 1024 10 ]))

(* The dim joins the key only above 1, so the 1D keys keep their names
   and a d = 2 run needs its own entry. *)
let test_budget_key_dim () =
  let with_dim d = function
    | Json.Obj fields -> Json.Obj (("dim", Json.int d) :: fields)
    | j -> j
  in
  let key run = Bench_targets.budget_key ~figure:"perf" run in
  Alcotest.(check (option string)) "no dim" (Some "perf/dt/64") (key (dt_run 64 1));
  Alcotest.(check (option string)) "dim 1" (Some "perf/dt/64") (key (with_dim 1 (dt_run 64 1)));
  Alcotest.(check (option string)) "dim 3" (Some "perf/dt/d3/64")
    (key (with_dim 3 (dt_run 64 1)));
  check_fails "a d = 2 run does not borrow the 1D entry" "no budgets entry for \"perf/dt/d2/64\""
    (gate_errors ~budgets:test_budgets (perf_doc [ with_dim 2 (dt_run 64 10) ]))

let test_gate_scale_seed () =
  check_fails "scale" "params.scale = 0.2"
    (gate_errors ~budgets:test_budgets (perf_doc ~scale:0.2 [ dt_run 1 80 ]));
  check_fails "seed" "params.seed = 7"
    (gate_errors ~budgets:test_budgets (perf_doc ~seed:7 [ dt_run 1 80 ]))

(* The nightly path: no budgets, any scale — the zero-allocation
   contract still holds, with no tolerance. *)
let test_gate_alloc_invariant () =
  check_fails "dt allocates" "allocated_words_per_element = 1"
    (gate_errors (perf_doc ~scale:0.2 [ dt_run ~alloc:1.0 64 30 ]));
  Alcotest.(check (list string)) "other engines may allocate" []
    (gate_errors (perf_doc [ perf_run ~alloc:300.0 "baseline" 1 [] ]))

let test_gate_approx_violation () =
  let run violations =
    Json.Obj
      [
        ("engine", Json.Str "crprecis");
        ("total_seconds", Json.Num 0.01);
        ("per_op_us", Json.Num 1.0);
        ("elements", Json.int 100);
        ( "metrics",
          Json.Obj
            [
              ("approx_bound_violations", Json.int violations);
              ("approx_max_width", Json.int 10);
              ("approx_max_observed_error", Json.int 3);
              ("approx_sketch_words", Json.int 64);
            ] );
        ("trace", Json.List []);
      ]
  in
  let doc violations =
    Json.Obj
      [
        ("figure", Json.Str "approx");
        ("params", Json.Obj [ ("probes", Json.int 8) ]);
        ("runs", Json.List [ run violations ]);
        ("approx_never_early", Json.Bool true);
        ("topn_matches_sort", Json.Bool true);
      ]
  in
  Alcotest.(check (list string)) "sound run passes" [] (gate_errors (doc 0));
  check_fails "bound violation" "approx_bound_violations = 1" (gate_errors (doc 1))

(* ---- pinned seed lists from RTS_<SUITE>_SEEDS ---- *)

let test_seed_env () =
  let parse v = Qcheck_env.parse_seeds ~var:"RTS_X_SEEDS" ~default:[ 1; 2 ] v in
  let ok name expected v =
    match parse v with
    | Ok got -> Alcotest.(check (list int)) name expected got
    | Error e -> Alcotest.failf "%s: unexpected error %s" name e
  in
  let fails name v =
    match parse v with
    | Ok got ->
        Alcotest.failf "%s: accepted as [%s]" name
          (String.concat ";" (List.map string_of_int got))
    | Error e ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: error names the variable (%s)" name e)
          true
          (String.starts_with ~prefix:"RTS_X_SEEDS=" e)
  in
  ok "unset -> default" [ 1; 2 ] None;
  ok "empty -> default" [ 1; 2 ] (Some "");
  ok "blank -> default" [ 1; 2 ] (Some "  ");
  ok "entries trimmed" [ 7; 19 ] (Some " 7, 19");
  ok "one seed" [ 3 ] (Some "3");
  fails "trailing comma" (Some "7,");
  fails "not a number" (Some "x");
  fails "one bad entry" (Some "3,x,5")

let () =
  Alcotest.run "workload"
    [
      ( "generator",
        [
          Alcotest.test_case "element values in domain" `Quick test_element_values_in_domain;
          Alcotest.test_case "weights gaussian" `Quick test_weights_gaussian;
          Alcotest.test_case "unit weights" `Quick test_unit_weights;
          Alcotest.test_case "rectangles inside domain" `Quick test_rectangles_inside_domain;
          Alcotest.test_case "rectangle volume 10%" `Quick test_rectangle_volume_10pct;
          Alcotest.test_case "stab probability" `Quick test_stab_probability_empirical;
          Alcotest.test_case "p_del calibration" `Quick test_p_del_calibration;
          Alcotest.test_case "lifetime distribution" `Quick test_lifetime_distribution;
          Alcotest.test_case "determinism" `Quick test_generator_determinism;
          Alcotest.test_case "zipf skew" `Quick test_zipf_values_in_domain_and_skewed;
          Alcotest.test_case "clustered values" `Quick test_clustered_values;
          Alcotest.test_case "skewed scenario equivalence" `Quick
            test_skewed_scenario_equivalence;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "static completes" `Quick test_scenario_static_completes;
          Alcotest.test_case "maturity rate ~10%" `Quick test_scenario_maturity_rate;
          Alcotest.test_case "engine agnostic" `Quick test_scenario_engine_agnostic;
          Alcotest.test_case "stochastic mode" `Quick test_scenario_stochastic;
          Alcotest.test_case "fixed load mode" `Quick test_scenario_fixed_load;
          Alcotest.test_case "2d scenario" `Quick test_scenario_2d;
          Alcotest.test_case "deterministic replay" `Quick test_scenario_deterministic;
        ] );
      ( "bench-tools",
        [
          Alcotest.test_case "drift cell rendering" `Quick test_drift_cell;
          Alcotest.test_case "document within budget passes" `Quick test_gate_passes;
          Alcotest.test_case "counter over budget fails" `Quick test_gate_over_budget;
          Alcotest.test_case "budgeted run without entry fails" `Quick test_gate_missing_entry;
          Alcotest.test_case "budget key carries a dim above 1" `Quick test_budget_key_dim;
          Alcotest.test_case "scale or seed mismatch fails" `Quick test_gate_scale_seed;
          Alcotest.test_case "dt allocation fails without budgets" `Quick
            test_gate_alloc_invariant;
          Alcotest.test_case "approx bound violation fails" `Quick test_gate_approx_violation;
        ] );
      ("seed-env", [ Alcotest.test_case "RTS_*_SEEDS parsing" `Quick test_seed_env ]);
    ]
