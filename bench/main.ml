(* Benchmark harness reproducing every figure of the paper's evaluation
   (Section 8: Figures 3-8; the paper has no result tables), plus two
   extras: batched-ingestion, sharding and approximate-tier benchmarks and
   an ablation study.

   All parameters default to 1/100 of the paper's scale with the tau/m
   ratio preserved (DESIGN.md, substitution 1), so every run keeps the
   paper's workload geometry: queries mature around tau/10 timestamps and
   10% of queries survive to maturity. Use --scale to grow everything
   proportionally.

   Usage:
     dune exec bench/main.exe                 # everything, default scale
     dune exec bench/main.exe -- fig4 --scale 2
     dune exec bench/main.exe -- perf --scale 0.05 --json
     dune exec bench/main.exe -- --help       # list targets            *)

open Rts_core
open Rts_workload
module Json = Rts_obs.Json
module Metrics = Rts_obs.Metrics

let pf = Format.printf

(* ---------------------------------------------------------------- *)
(* Engine rosters, as in the paper's Section 8 per dimensionality.  *)
(* Names resolve through Engine_registry, which owns every factory; *)
(* the approximate tier registers crprecis and heavy on install.     *)

let () = Rts_approx.Install.install ()

let roster names : (string * (dim:int -> Engine.t)) list =
  List.map (fun name -> (name, fun ~dim -> Engine_registry.make ~name ~dim)) names

let engines_1d = roster [ "dt"; "baseline"; "interval-tree" ]

let engines_2d = roster [ "dt"; "baseline"; "seg-intv"; "r-tree" ]

let engines_for dim = if dim = 1 then engines_1d else engines_2d

(* ---------------------------------------------------------------- *)
(* Output helpers                                                    *)

let hr () = pf "%s@." (String.make 78 '-')

let header title =
  hr ();
  pf "%s@." title;
  hr ()

(* Align several engines' traces on element counts and print a series
   table with ~rows rows: per-operation cost (us) per engine. *)
let print_trace_table ~rows (results : Scenario.result list) =
  match results with
  | [] -> ()
  | first :: _ ->
      pf "@[<h>%-10s %8s" "elements" "alive";
      List.iter (fun (r : Scenario.result) -> pf " %14s" r.engine_name) results;
      pf "@]@.";
      let n = Array.length first.trace in
      let rows = min rows n in
      for i = 0 to rows - 1 do
        let idx = if rows = 1 then 0 else i * (n - 1) / (rows - 1) in
        let tp = first.trace.(idx) in
        pf "@[<h>%-10d %8d" tp.Scenario.elements_done tp.Scenario.alive;
        List.iter
          (fun (r : Scenario.result) ->
            if idx < Array.length r.trace then pf " %14.3f" r.trace.(idx).Scenario.avg_us
            else pf " %14s" "-")
          results;
        pf "@]@."
      done

let print_total_row label (results : Scenario.result list) =
  pf "@[<h>%-10s" label;
  List.iter (fun (r : Scenario.result) -> pf " %14.3f" r.total_seconds) results;
  pf "@]@."

let print_total_header first_col (names : string list) =
  pf "@[<h>%-10s" first_col;
  List.iter (fun n -> pf " %14s" n) names;
  pf "@]@.";
  pf "@[<h>%-10s" "";
  List.iter (fun _ -> pf " %14s" "(seconds)") names;
  pf "@]@."

(* ---------------------------------------------------------------- *)
(* Scaled default parameters (paper scale / 100, ratios preserved)   *)

type params = {
  scale : float;
  seed : int;
  json : bool; (* also write a BENCH_<fig>.json trajectory *)
  reps : int; (* timed repetitions per configuration; the median is reported *)
  m : int; (* paper: 1M *)
  tau : int; (* paper: 20M *)
  n_dynamic : int; (* paper: 3M *)
  horizon : int; (* paper: 2M *)
}

let params_of ~scale ~seed ~json ~reps =
  let s x = max 1 (int_of_float (float_of_int x *. scale)) in
  {
    scale;
    seed;
    json;
    reps = max 1 reps;
    m = s 10_000;
    tau = s 200_000;
    n_dynamic = s 30_000;
    horizon = s 20_000;
  }

(* ---------------------------------------------------------------- *)
(* BENCH_<fig>.json: machine-readable trajectories.                  *)
(* Every run funnels through [run_one]; with --json the scenario is  *)
(* driven by [Scenario.run_traced] so each trace window carries its  *)
(* metric delta, and the accumulated runs are flushed per figure by  *)
(* [emit_json].                                                      *)

let mode_str = function
  | Scenario.Static -> "static"
  | Scenario.Stochastic _ -> "stochastic"
  | Scenario.Fixed_load -> "fixed-load"

let log2 x = log (float_of_int x) /. log 2.

(* Analytic O(h log tau) DT message budget mirrored from the test
   suite's telemetry-bound assertion (test_endpoint_tree): per query
   8 * h_max * (log2 tau + 2) signals with h_max = (2 (log2 2m + 1))^d;
   dynamic scenarios migrate each query O(log m) times, adding one more
   logarithmic factor. *)
let dt_message_budget ~dim ~m ~tau ~static =
  let m = max 2 m in
  let h_max = (2. *. (log2 (2 * m) +. 1.)) ** float_of_int dim in
  let per_query = 8. *. h_max *. (log2 (max 2 tau) +. 2.) in
  let migration = if static then 1. else log2 (2 * m) +. 2. in
  int_of_float (float_of_int m *. per_query *. migration)

let trace_point_json (tp : Scenario.trace_point) =
  Json.Obj
    [
      ("elements", Json.int tp.Scenario.elements_done);
      ("alive", Json.int tp.Scenario.alive);
      ("avg_us", Json.Num tp.Scenario.avg_us);
      ("dt_signals", Json.int (Metrics.counter_value tp.Scenario.metrics "dt_signals_total"));
    ]

let result_json ?stability (r : Scenario.result) =
  let fm = r.Scenario.final_metrics in
  let cfg = r.Scenario.config in
  let dt_fields =
    match Metrics.get fm "dt_signals_total" with
    | Some (Metrics.Counter messages) ->
        let static = cfg.Scenario.mode = Scenario.Static in
        let budget =
          dt_message_budget ~dim:cfg.Scenario.dim ~m:(max 1 r.Scenario.registered)
            ~tau:cfg.Scenario.tau ~static
        in
        [
          ("dt_messages", Json.int messages);
          ("dt_message_budget", Json.int budget);
          ("dt_budget_ok", Json.Bool (messages <= budget));
        ]
    | _ -> []
  in
  let stability_fields =
    match stability with
    | None -> []
    | Some (reps, tmin, tmax) ->
        [
          ("reps", Json.int reps);
          ("total_seconds_min", Json.Num tmin);
          ("total_seconds_max", Json.Num tmax);
        ]
  in
  Json.Obj
    ([
       ("engine", Json.Str r.Scenario.engine_name);
       ("dim", Json.int cfg.Scenario.dim);
       ("m0", Json.int cfg.Scenario.initial_queries);
       ("tau", Json.int cfg.Scenario.tau);
       ("mode", Json.Str (mode_str cfg.Scenario.mode));
       ("seed", Json.int cfg.Scenario.seed);
       ("total_seconds", Json.Num r.Scenario.total_seconds);
       ("per_op_us", Json.Num (r.Scenario.total_seconds *. 1e6 /. float_of_int (max 1 r.Scenario.ops)));
       ("elements", Json.int r.Scenario.elements);
       ("registered", Json.int r.Scenario.registered);
       ("matured", Json.int r.Scenario.matured);
       ("terminated", Json.int r.Scenario.terminated);
       ("ops", Json.int r.Scenario.ops);
       ("metrics", Metrics.to_json fm);
       ("trace", Json.List (Array.to_list (Array.map trace_point_json r.Scenario.trace)));
     ]
    @ stability_fields @ dt_fields)

(* GC environment stamp for every emitted document: reps are separated
   by [Gc.full_major] (see [measure]), so numbers are comparable only
   among runs produced under the same collector configuration — record
   it instead of assuming it. *)
let gc_params_json () =
  let c = Gc.get () in
  Json.Obj
    [
      ("minor_heap_words", Json.int c.Gc.minor_heap_size);
      ("space_overhead", Json.int c.Gc.space_overhead);
      ("full_major_between_reps", Json.Bool true);
      ("ocaml_version", Json.Str Sys.ocaml_version);
    ]

let runs_acc : Json.t list ref = ref []

(* Warmup + median-of-k: every timed configuration first does a short
   warmup run (same workload, truncated to a few chunks) to page in code
   and warm the allocator, then [p.reps] full repetitions on fresh
   engines. The median run is reported; min/max of the repetitions'
   wall-clock land in the JSON so a noisy machine is visible instead of
   silently distorting one number. Work counters are deterministic given
   the seed, so any repetition's metrics describe all of them. *)
let warmup_cfg (cfg : Scenario.config) =
  { cfg with Scenario.max_elements = min cfg.Scenario.max_elements (4 * cfg.Scenario.chunk) }

let measure ~traced p cfg factory =
  ignore (Scenario.run (warmup_cfg cfg) factory);
  let k = max 1 p.reps in
  let runs =
    List.init k (fun _ ->
        (* Full collection between warmup and every rep: each rep starts
           from the same empty-minor-heap, compacted-major state, so the
           min/max envelope reflects the code under test rather than
           garbage inherited from the previous run. The GC parameters
           this ran under are stamped into the JSON ("gc" in params). *)
        Gc.full_major ();
        (if traced then Scenario.run_traced else Scenario.run) cfg factory)
  in
  let arr = Array.of_list runs in
  Array.sort
    (fun (a : Scenario.result) b -> compare a.Scenario.total_seconds b.Scenario.total_seconds)
    arr;
  let median = arr.(Array.length arr / 2) in
  (median, (k, arr.(0).Scenario.total_seconds, arr.(Array.length arr - 1).Scenario.total_seconds))

let run_one p cfg factory =
  let r, stability = measure ~traced:p.json p cfg factory in
  if p.json then runs_acc := result_json ~stability r :: !runs_acc;
  r

let emit_json p figure =
  if p.json then begin
    let runs = List.rev !runs_acc in
    runs_acc := [];
    let doc =
      Json.Obj
        [
          ("figure", Json.Str figure);
          ( "params",
            Json.Obj
              [
                ("scale", Json.Num p.scale);
                ("seed", Json.int p.seed);
                ("m", Json.int p.m);
                ("tau", Json.int p.tau);
                ("n_dynamic", Json.int p.n_dynamic);
                ("horizon", Json.int p.horizon);
                ("gc", gc_params_json ());
              ] );
          ("runs", Json.List runs);
        ]
    in
    let file = Printf.sprintf "BENCH_%s.json" figure in
    let oc = open_out file in
    Json.to_channel ~indent:2 oc doc;
    output_char oc '\n';
    close_out oc;
    Printf.eprintf "rts-bench: wrote %s (%d runs)\n%!" file (List.length runs)
  end

let run_all p cfg dim =
  List.map
    (fun (_, factory) ->
      let r = run_one p { cfg with Scenario.dim } factory in
      pf "  %a@." Scenario.pp_result r;
      r)
    (engines_for dim)

let base_cfg p =
  {
    Scenario.default with
    Scenario.seed = p.seed;
    initial_queries = p.m;
    tau = p.tau;
    (* static scenarios run until all queries are gone; the cap is a
       safety net at ~4x the expected maturity time *)
    max_elements = 4 * (p.tau / 10);
    chunk = max 64 (p.tau / 10 / 128);
  }

(* ---------------------------------------------------------------- *)
(* Figure 3: per-operation cost as a function of time (static)       *)

let fig3 p =
  List.iter
    (fun (dim, sub) ->
      header
        (Printf.sprintf
           "Figure 3%s: per-op cost over time (%dD static, m=%d, tau=%d, weighted)" sub dim p.m
           p.tau);
      let results = run_all p (base_cfg p) dim in
      pf "@.";
      print_trace_table ~rows:20 results;
      pf "@.")
    [ (1, "a"); (2, "b") ];
  emit_json p "fig3"

(* ---------------------------------------------------------------- *)
(* Figure 4: total time as a function of m (static)                  *)

let fig4 p =
  let ms =
    List.map (fun f -> max 1 (int_of_float (float_of_int p.m *. f))) [ 0.1; 0.25; 0.5; 1.; 2. ]
  in
  List.iter
    (fun (dim, sub) ->
      header (Printf.sprintf "Figure 4%s: total time vs m (%dD static, tau=%d)" sub dim p.tau);
      print_total_header "m" (List.map fst (engines_for dim));
      List.iter
        (fun m ->
          let cfg = { (base_cfg p) with Scenario.initial_queries = m } in
          let results =
            List.map (fun (_, f) -> run_one p { cfg with Scenario.dim } f) (engines_for dim)
          in
          print_total_row (string_of_int m) results)
        ms;
      pf "@.")
    [ (1, "a"); (2, "b") ];
  emit_json p "fig4"

(* ---------------------------------------------------------------- *)
(* Figure 5: total time as a function of tau (static)                *)

let fig5 p =
  let taus =
    List.map (fun f -> max 1 (int_of_float (float_of_int p.tau *. f))) [ 0.25; 0.5; 1.; 2.; 4. ]
  in
  List.iter
    (fun (dim, sub) ->
      header (Printf.sprintf "Figure 5%s: total time vs tau (%dD static, m=%d)" sub dim p.m);
      print_total_header "tau" (List.map fst (engines_for dim));
      List.iter
        (fun tau ->
          let cfg = { (base_cfg p) with Scenario.tau; max_elements = 4 * (tau / 10) } in
          let results =
            List.map (fun (_, f) -> run_one p { cfg with Scenario.dim } f) (engines_for dim)
          in
          print_total_row (string_of_int tau) results)
        taus;
      pf "@.")
    [ (1, "a"); (2, "b") ];
  emit_json p "fig5"

(* ---------------------------------------------------------------- *)
(* Figure 6: per-op cost over time (dynamic, stochastic p_ins=0.3)   *)

let dynamic_cfg p mode =
  {
    (base_cfg p) with
    Scenario.mode;
    max_elements = p.n_dynamic;
    chunk = max 64 (p.n_dynamic / 128);
  }

let fig6 p =
  List.iter
    (fun (dim, sub) ->
      header
        (Printf.sprintf
           "Figure 6%s: per-op cost over time (%dD dynamic stochastic, p_ins=0.3, m0=%d, n=%d)"
           sub dim p.m p.n_dynamic);
      let cfg = dynamic_cfg p (Scenario.Stochastic { p_ins = 0.3; horizon = p.horizon }) in
      let results = run_all p cfg dim in
      pf "@.";
      print_trace_table ~rows:20 results;
      pf "@.")
    [ (1, "a"); (2, "b") ];
  emit_json p "fig6"

(* ---------------------------------------------------------------- *)
(* Figure 7: total time as a function of p_ins                       *)

let fig7 p =
  let ps = [ 0.1; 0.2; 0.3; 0.4; 0.5 ] in
  List.iter
    (fun (dim, sub) ->
      header
        (Printf.sprintf "Figure 7%s: total time vs p_ins (%dD dynamic stochastic, n=%d)" sub dim
           p.n_dynamic);
      print_total_header "p_ins" (List.map fst (engines_for dim));
      List.iter
        (fun p_ins ->
          let cfg = dynamic_cfg p (Scenario.Stochastic { p_ins; horizon = p.horizon }) in
          let results =
            List.map (fun (_, f) -> run_one p { cfg with Scenario.dim } f) (engines_for dim)
          in
          print_total_row (Printf.sprintf "%.1f" p_ins) results)
        ps;
      pf "@.")
    [ (1, "a"); (2, "b") ];
  emit_json p "fig7"

(* ---------------------------------------------------------------- *)
(* Figure 8: per-op cost over time (dynamic, fixed load)             *)

let fig8 p =
  List.iter
    (fun (dim, sub) ->
      header
        (Printf.sprintf "Figure 8%s: per-op cost over time (%dD dynamic fixed-load, m=%d, n=%d)"
           sub dim p.m p.n_dynamic);
      let cfg = dynamic_cfg p Scenario.Fixed_load in
      let results = run_all p cfg dim in
      pf "@.";
      print_trace_table ~rows:20 results;
      pf "@.")
    [ (1, "a"); (2, "b") ];
  emit_json p "fig8"

(* ---------------------------------------------------------------- *)
(* Extra: the "any constant d" claim — d = 3 comparison              *)

let engines_3d = roster [ "dt"; "baseline"; "r-tree" ]

let dims p =
  header
    (Printf.sprintf
       "Extra: dimensionality sweep (static, m=%d, tau=%d) — Theorem 1 holds for any constant d"
       (p.m / 2) p.tau);
  let cfg = { (base_cfg p) with Scenario.initial_queries = p.m / 2 } in
  print_total_header "d" (List.map fst engines_3d);
  List.iter
    (fun dim ->
      let results = List.map (fun (_, f) -> run_one p { cfg with Scenario.dim } f) engines_3d in
      print_total_row (string_of_int dim) results)
    [ 1; 2; 3 ];
  emit_json p "dims";
  pf "@."

(* ---------------------------------------------------------------- *)
(* Extra: counting RTS (Section 4's unweighted special case)         *)

let counting p =
  (* With unit weights the expected per-timestamp gain is 1 instead of
     100, so tau shrinks by 100x to keep maturity at the same stream
     position. *)
  let tau = max 1 (p.tau / 100) in
  header
    (Printf.sprintf "Extra: counting RTS (unit weights, 1D static, m=%d, tau=%d)" p.m tau);
  let cfg =
    { (base_cfg p) with Scenario.tau; unit_weights = true; max_elements = 4 * tau * 10 }
  in
  let results = run_all p cfg 1 in
  pf "@.";
  print_trace_table ~rows:12 results;
  emit_json p "counting";
  pf "@."

(* ---------------------------------------------------------------- *)
(* Extra: robustness to non-uniform element distributions            *)

let robust p =
  header
    (Printf.sprintf
       "Extra: element-distribution robustness (1D static, m=%d, tau=%d) — beyond the paper's \
        uniform setup"
       p.m p.tau);
  print_total_header "dist" (List.map fst engines_1d);
  List.iter
    (fun (name, dist) ->
      let cfg = { (base_cfg p) with Scenario.value_dist = dist } in
      let results = List.map (fun (_, f) -> run_one p { cfg with Scenario.dim = 1 } f) engines_1d in
      print_total_row name results)
    [
      ("uniform", Generator.Uniform);
      ("zipf-0.8", Generator.Zipf 0.8);
      ("zipf-1.2", Generator.Zipf 1.2);
      ("clust-5", Generator.Clustered 5);
    ];
  emit_json p "robust";
  pf "@."

(* ---------------------------------------------------------------- *)
(* Perf: batched ingestion vs element-at-a-time, with deterministic  *)
(* work counters. Static fig6-scale geometry (m, tau, n as fig6; no  *)
(* terminations, static registration) so every batch size sees the   *)
(* bit-identical element stream and the counters are comparable: a   *)
(* speedup that comes with MORE node updates or heap ops is not an   *)
(* optimization, and CI gates on the counters, not the clock.        *)

let perf_counter_names =
  [ "dt_node_updates_total"; "dt_heap_ops_total"; "dt_signals_total"; "scan_updates_total" ]

(* Steady-state allocation audit — the `allocated_words_per_element`
   gauge of BENCH_perf.json. Feed a warm engine (m/10 never-maturing
   queries) a pool of
   pre-generated batches, then bracket [Gc.minor_words] around a
   multi-batch pass: [Rts_obs.Alloc] calibrates out the bracket's own
   boxed floats, so an allocation-free feed path reports exactly 0 —
   which validate_bench requires of every DT run, at any scale, with
   no tolerance band. The untimed warmup pass first grows every reusable
   scratch buffer to its steady-state size: the audit asks "does the hot
   loop allocate per element?", not "do buffers grow once at startup?".
   Batch size 1 goes through [Engine.process], the path batch-1 callers
   (rts-cli without --batch, the serving daemon) actually run.

   The warm engine also yields the `engine_words_per_query` gauge: the
   heap words reachable from it per alive query, batch scratch included.
   It is an exact function of (scale, seed), so the budgets gate it; for
   DT it holds the endpoint trees' on-heap footprint to one arena's few
   blocks per tree, whatever the dimension. *)
let alloc_audit p (factory : dim:int -> Engine.t) ~dim b =
  let mm = max 1 (p.m / 10) in
  let gen = Generator.create ~dim ~seed:p.seed () in
  let engine = factory ~dim in
  for id = 0 to mm - 1 do
    engine.Engine.register (Generator.query gen ~id ~threshold:max_int)
  done;
  let pool = Array.init 64 (fun _ -> Array.init b (fun _ -> Generator.element gen)) in
  let iters = max 1 (65536 / b) in
  let i = ref 0 in
  let pass () =
    for _ = 1 to iters do
      let batch = Array.unsafe_get pool (!i land 63) in
      if b = 1 then ignore (engine.Engine.process (Array.unsafe_get batch 0) : int list)
      else ignore (engine.Engine.feed_batch batch : int list);
      incr i
    done
  in
  pass ();
  Gc.full_major ();
  let words_per_element = Rts_obs.Alloc.words_per_item ~runs:3 ~items:(iters * b) pass in
  let words_per_query =
    float_of_int (Obj.reachable_words (Obj.repr engine))
    /. float_of_int (max 1 (engine.Engine.alive ()))
  in
  (words_per_element, words_per_query)

(* The rows of [perf]: every 1D engine, then DT alone at d = 2 and 3,
   whose budget keys carry the dim (perf/dt/d2/64). *)
let perf_rows =
  let dt = List.assoc "dt" engines_1d in
  List.map (fun (name, factory) -> (name, factory, 1)) engines_1d @ [ ("dt", dt, 2); ("dt", dt, 3) ]

let perf p =
  header
    (Printf.sprintf
       "Perf: batched ingestion (batch 1/64/1024, static, 1D engines and DT at d = 2, 3, m=%d, \
        tau=%d, n=%d) — wall-clock per op + deterministic work counters"
       p.m p.tau p.n_dynamic);
  let batches = [ 1; 64; 1024 ] in
  let cfg =
    {
      Scenario.default with
      Scenario.seed = p.seed;
      dim = 1;
      initial_queries = p.m;
      tau = p.tau;
      with_terminations = false;
      mode = Scenario.Static;
      max_elements = p.n_dynamic;
      chunk = max 1024 (p.n_dynamic / 16);
    }
  in
  pf "@[<h>%-14s %3s %6s %12s %10s %14s %12s %12s@]@." "engine" "dim" "batch" "per_op_us"
    "seconds" "node_updates" "heap_ops" "alloc_w/el";
  let runs = ref [] in
  let per_op = Hashtbl.create 16 in
  let counters = Hashtbl.create 16 in
  List.iter
    (fun (name, factory, dim) ->
      List.iter
        (fun b ->
          let bcfg = { cfg with Scenario.batch = b; dim } in
          let r, stability = measure ~traced:true p bcfg factory in
          (* The allocation audit rides along as two gauges in the run's
             metrics object: validate_bench holds the first to 0, and the
             budgets cap the second. *)
          let alloc_w, words_q = alloc_audit p factory ~dim b in
          let r =
            {
              r with
              Scenario.final_metrics =
                Metrics.merge r.Scenario.final_metrics
                  (Metrics.of_assoc
                     [
                       ("allocated_words_per_element", Metrics.Gauge alloc_w);
                       ("engine_words_per_query", Metrics.Gauge words_q);
                     ]);
            }
          in
          let fm = r.Scenario.final_metrics in
          let c k = Metrics.counter_value fm k in
          let us = r.Scenario.total_seconds *. 1e6 /. float_of_int (max 1 r.Scenario.ops) in
          Hashtbl.replace per_op (name, dim, b) us;
          Hashtbl.replace counters (name, dim, b)
            (List.map (fun k -> (k, c k)) perf_counter_names);
          pf "@[<h>%-14s %3d %6d %12.3f %10.3f %14d %12d %12.1f@]@." name dim b us
            r.Scenario.total_seconds (c "dt_node_updates_total") (c "dt_heap_ops_total") alloc_w;
          let run =
            match result_json ~stability r with
            | Json.Obj fields -> Json.Obj (fields @ [ ("batch", Json.int b) ])
            | j -> j
          in
          runs := run :: !runs)
        batches)
    perf_rows;
  (* The acceptance comparison: 1D DT at batch 1024 vs batch 1. At
     d > 1 the batch does more node updates than batch 1 (the probe
     that drops or rebuilds a tree runs once per batch), so the verdict
     stays 1D. *)
  let dt1 = Hashtbl.find per_op ("dt", 1, 1) and dt1024 = Hashtbl.find per_op ("dt", 1, 1024) in
  let speedup = dt1 /. dt1024 in
  let counters_of b = Hashtbl.find counters ("dt", 1, b) in
  let counter_regression =
    List.exists2
      (fun (k1, v1) (k2, v1024) ->
        assert (k1 = k2);
        k1 <> "scan_updates_total" && v1024 > v1)
      (counters_of 1) (counters_of 1024)
  in
  pf "@.DT per-op: %.3f us at batch 1 -> %.3f us at batch 1024 (%.2fx); work counters %s.@."
    dt1 dt1024 speedup
    (if counter_regression then "REGRESSED (batch does more protocol work!)" else "no increase");
  if p.json then begin
    let doc =
      Json.Obj
        [
          ("figure", Json.Str "perf");
          ( "params",
            Json.Obj
              [
                ("scale", Json.Num p.scale);
                ("seed", Json.int p.seed);
                ("reps", Json.int p.reps);
                ("m", Json.int p.m);
                ("tau", Json.int p.tau);
                ("n", Json.int p.n_dynamic);
                ("batches", Json.List (List.map Json.int batches));
                ("gc", gc_params_json ());
              ] );
          ("runs", Json.List (List.rev !runs));
          ("dt_speedup_1024_vs_1", Json.Num speedup);
          ("dt_counters_no_increase", Json.Bool (not counter_regression));
        ]
    in
    let oc = open_out "BENCH_perf.json" in
    Json.to_channel ~indent:2 oc doc;
    output_char oc '\n';
    close_out oc;
    Printf.eprintf "rts-bench: wrote BENCH_perf.json (%d runs)\n%!" (List.length !runs)
  end;
  pf "@."

(* ---------------------------------------------------------------- *)
(* Shard: query-sharded parallel ingestion — the scaling curve        *)
(* k = 1/2/4/8 over the fig6 stochastic workload on the batched path, *)
(* with the deterministic-merge invariant enforced in-bench: every    *)
(* sharded run's maturity log must equal the unsharded reference      *)
(* verbatim, or the target aborts. Wall clock is informational (CI    *)
(* runners are often single-core — the recorded [cores] says whether  *)
(* a speedup was even physically available); the gate is the merged   *)
(* deterministic work counters, keyed "shard/<engine>/k<K>" in       *)
(* tools/budgets.json.                                                *)

module Shard = Rts_shard.Shard
module Executor = Rts_shard.Executor

(* The "cores" a sweep may honestly claim: under the seq executor every
   task runs inline on the caller — one core, whatever the hardware
   offers; under domains it is the machine's available parallelism.
   Per-run core counts (the worker domains a measurement actually used)
   come from [Shard.worker_domains]. *)
let available_cores executor =
  match executor with Executor.Seq -> 1 | Executor.Domains -> Executor.parallelism_hint ()

let shard p =
  let executor = Executor.default_kind in
  let ks = [ 1; 2; 4; 8 ] in
  let batch = 1024 in
  header
    (Printf.sprintf
       "Shard: query-sharded ingestion (k=1/2/4/8, executor=%s, cores=%d, 1D stochastic \
        p_ins=0.3, m0=%d, n=%d, batch=%d) — merged maturity log must equal the unsharded \
        run verbatim"
       (Executor.kind_to_string executor)
       (available_cores executor) p.m p.n_dynamic batch);
  let cfg =
    {
      (base_cfg p) with
      Scenario.dim = 1;
      mode = Scenario.Stochastic { p_ins = 0.3; horizon = p.horizon };
      max_elements = p.n_dynamic;
      chunk = max 1024 (p.n_dynamic / 16);
      batch;
    }
  in
  let engines = roster [ "dt"; "baseline" ] in
  pf "@[<h>%-14s %4s %12s %10s %9s %14s %12s@]@." "engine" "k" "per_op_us" "seconds"
    "speedup" "node_updates" "scan_updates";
  let runs = ref [] in
  let speedups = ref [] in
  List.iter
    (fun (name, base) ->
      (* Unsharded reference: the maturity-log ground truth every sharded
         run must reproduce bit-identically. One untimed run suffices —
         the log is deterministic given the config. *)
      let ref_log = (Scenario.run cfg base).Scenario.maturity_log in
      let per_op = Hashtbl.create 8 in
      List.iter
        (fun k ->
          let instances = ref [] in
          let factory ~dim =
            let t = Shard.create ~executor ~shards:k ~dim base in
            instances := t :: !instances;
            Shard.engine t
          in
          let r, stability = measure ~traced:true p cfg factory in
          if r.Scenario.maturity_log <> ref_log then
            failwith
              (Printf.sprintf
                 "shard bench: %s at k=%d: merged maturity log differs from the unsharded \
                  reference — the deterministic-merge invariant is broken"
                 name k);
          (* Per-shard engine counters from the most recent instance (work
             counters are deterministic given the seed, so any repetition's
             metrics describe all of them); then join the domains. *)
          let per_shard, workers =
            match !instances with
            | t :: _ -> (Array.to_list (Shard.per_shard_metrics t), Shard.worker_domains t)
            | [] -> ([], 1)
          in
          List.iter Shard.close !instances;
          let fm = r.Scenario.final_metrics in
          let c key = Metrics.counter_value fm key in
          let us = r.Scenario.total_seconds *. 1e6 /. float_of_int (max 1 r.Scenario.ops) in
          Hashtbl.replace per_op k us;
          let speedup = Hashtbl.find per_op 1 /. us in
          pf "@[<h>%-14s %4d %12.3f %10.3f %8.2fx %14d %12d@]@." name k us
            r.Scenario.total_seconds speedup (c "dt_node_updates_total")
            (c "scan_updates_total");
          let run =
            match result_json ~stability r with
            | Json.Obj fields ->
                (* Budgets are keyed "<base engine>/k<K>", independent of
                   the executor suffix the sharded engine name carries —
                   the work counters are executor-invariant. *)
                let fields =
                  List.map
                    (function
                      | "engine", _ -> ("engine", Json.Str name)
                      | f -> f)
                    fields
                in
                Json.Obj
                  (fields
                  @ [
                      ("engine_sharded", Json.Str r.Scenario.engine_name);
                      ("shards", Json.int k);
                      ("executor", Json.Str (Executor.kind_to_string executor));
                      (* the worker domains this measurement actually used —
                         NOT the machine's parallelism hint, which says
                         nothing about what executed the run *)
                      ("cores", Json.int workers);
                      ("per_shard_metrics", Json.List (List.map Metrics.to_json per_shard));
                    ])
            | j -> j
          in
          runs := run :: !runs)
        ks;
      speedups := (name, Hashtbl.find per_op 1 /. Hashtbl.find per_op 4) :: !speedups)
    engines;
  List.iter
    (fun (name, s) ->
      pf "@.%s: k=4 runs %.2fx %s than k=1 (executor=%s, %d core(s) available).@." name
        (if s >= 1. then s else 1. /. s)
        (if s >= 1. then "faster" else "slower")
        (Executor.kind_to_string executor)
        (available_cores executor))
    (List.rev !speedups);
  if p.json then begin
    let doc =
      Json.Obj
        [
          ("figure", Json.Str "shard");
          ( "params",
            Json.Obj
              [
                ("scale", Json.Num p.scale);
                ("seed", Json.int p.seed);
                ("reps", Json.int p.reps);
                ("m", Json.int p.m);
                ("tau", Json.int p.tau);
                ("n", Json.int p.n_dynamic);
                ("batch", Json.int batch);
                ("ks", Json.List (List.map Json.int ks));
                ("executor", Json.Str (Executor.kind_to_string executor));
                ("cores", Json.int (available_cores executor));
              ] );
          ("runs", Json.List (List.rev !runs));
          ( "shard_speedup_k4_vs_k1",
            Json.Obj (List.rev_map (fun (n, s) -> (n, Json.Num s)) !speedups) );
          (* The in-bench equality check above aborts on any mismatch, so
             reaching emission means every sharded log matched. *)
          ("shard_maturity_deterministic", Json.Bool true);
        ]
    in
    let oc = open_out "BENCH_shard.json" in
    Json.to_channel ~indent:2 oc doc;
    output_char oc '\n';
    close_out oc;
    Printf.eprintf "rts-bench: wrote BENCH_shard.json (%d runs)\n%!" (List.length !runs)
  end;
  pf "@."

(* ---------------------------------------------------------------- *)
(* Extra: ablation — DT slack rounds vs eager signalling, plus the   *)
(* internal telemetry behind the O(h log tau) analysis.              *)

let ablation p =
  header "Ablation: DT slack rounds vs eager per-change signalling (1D static)";
  let cfg = base_cfg p in
  let run name factory =
    let engine_ref = ref None in
    let r =
      run_one p cfg (fun ~dim ->
          let t = factory ~dim in
          engine_ref := Some t;
          Dt_engine.engine t)
    in
    let t = Option.get !engine_ref in
    let st = Dt_engine.stats t in
    pf
      "@[<h>%-10s total=%.3fs signals=%d round-ends=%d heap-ops=%d counter-updates=%d \
       rebuilds=%d@]@."
      name r.Scenario.total_seconds st.Endpoint_tree.signals st.round_ends st.heap_ops
      st.node_updates (Dt_engine.rebuild_count t);
    (r, st)
  in
  let r_dt, st_dt = run "dt" (fun ~dim -> Dt_engine.create ~dim ()) in
  let r_eager, st_eager = run "dt-eager" (fun ~dim -> Dt_engine.create ~eager:true ~dim ()) in
  pf "@.";
  pf "Slack rounds cut signals by %.1fx and total time by %.2fx.@."
    (float_of_int st_eager.Endpoint_tree.signals
    /. float_of_int (max 1 st_dt.Endpoint_tree.signals))
    (r_eager.Scenario.total_seconds /. r_dt.Scenario.total_seconds);
  pf
    "The O(h log tau) analysis predicts ~m*h*log2(tau) = %.2e signal budget; measured %d \
     (weighted workload, m=%d, tau=%d).@."
    (let log2 x = log (float_of_int x) /. log 2. in
     float_of_int p.m *. 2. *. (log2 (2 * p.m) +. 1.) *. (log2 p.tau +. 2.))
    st_dt.Endpoint_tree.signals p.m p.tau;
  emit_json p "ablation";
  pf "@."

(* ---------------------------------------------------------------- *)
(* Extra: the approximate tier — sketch footprint, certified error    *)
(* vs a brute-force exact scan, per-op latency of the never-early     *)
(* engines, and top-n search parity with the full sort. Everything    *)
(* emitted is deterministic per (scale, seed): the sketches use no    *)
(* hash families and the workload generator is a pinned PRNG, so      *)
(* tools/budgets.json gates the error/memory gauges with no           *)
(* tolerance band.                                                    *)

module Approx = Rts_approx

(* Probe the two summaries directly against a reference element log:
   certified-bound violations (must be 0), the widest certified interval
   and the largest |midpoint - exact| over [probes] ranges drawn from the
   query generator. O(probes * n) brute-force scans, run once. *)
let approx_probe_gauges p ~probes =
  let n = 4 * (p.tau / 10) in
  let gen = Generator.create ~dim:1 ~seed:p.seed () in
  let sums =
    [
      ("crprecis", Approx.Crprecis.summary (Approx.Crprecis.create ()));
      ("heavy", Approx.Heavy.summary (Approx.Heavy.create ()));
    ]
  in
  let log = Array.init n (fun _ -> Generator.element gen) in
  Array.iter
    (fun (e : Types.elem) ->
      List.iter (fun (_, s) -> s.Approx.Summary.insert e.Types.value.(0) e.Types.weight) sums)
    log;
  let ranges =
    List.init probes (fun i ->
        let q = Generator.query gen ~id:i ~threshold:1 in
        (q.Types.rect.Types.lo.(0), q.Types.rect.Types.hi.(0)))
  in
  List.map
    (fun (name, s) ->
      let violations = ref 0 and max_width = ref 0 and max_err = ref 0 in
      List.iter
        (fun (lo, hi) ->
          let exact =
            Array.fold_left
              (fun acc (e : Types.elem) ->
                let v = e.Types.value.(0) in
                if lo <= v && v < hi then acc + e.Types.weight else acc)
              0 log
          in
          let est = s.Approx.Summary.range ~lo ~hi in
          if not (est.Approx.Summary.lower <= exact && exact <= est.Approx.Summary.upper) then
            incr violations;
          max_width := max !max_width (est.Approx.Summary.upper - est.Approx.Summary.lower);
          let mid = (est.Approx.Summary.lower + est.Approx.Summary.upper) / 2 in
          max_err := max !max_err (abs (mid - exact)))
        ranges;
      ( name,
        Metrics.of_assoc
          [
            ("approx_bound_violations", Metrics.Gauge (float_of_int !violations));
            ("approx_max_width", Metrics.Gauge (float_of_int !max_width));
            ("approx_max_observed_error", Metrics.Gauge (float_of_int !max_err));
          ] ))
    sums

let approx p =
  let probes = 64 in
  header
    (Printf.sprintf
       "Approx: never-early sketch engines vs exact (1D static, m=%d, tau=%d) — sketch words, \
        certified error over %d probe ranges, per-op latency, top-n search parity"
       p.m p.tau probes);
  let cfg = { (base_cfg p) with Scenario.dim = 1 } in
  (* The exact reference: first maturity timestamp per query id. *)
  let exact = Scenario.run cfg (fun ~dim -> Engine_registry.make ~name:"baseline" ~dim) in
  let exact_ts = Hashtbl.create 1024 in
  List.iter
    (fun (ts, id) -> if not (Hashtbl.mem exact_ts id) then Hashtbl.add exact_ts id ts)
    exact.Scenario.maturity_log;
  let probe_gauges = approx_probe_gauges p ~probes in
  let engines = roster [ "crprecis"; "heavy"; "dt" ] in
  let never_early = ref true in
  let runs = ref [] in
  pf "@[<h>%-10s %12s %10s %9s %9s %14s %12s %12s@]@." "engine" "per_op_us" "seconds"
    "matured" "late" "sketch_words" "max_width" "max_err";
  List.iter
    (fun (name, factory) ->
      let r, stability = measure ~traced:true p cfg factory in
      (* Every maturity the engine reports must be one the exact run also
         reports, no earlier than the exact timestamp (late is fine — it
         is the price of certified lower bounds). *)
      let late = ref 0 in
      List.iter
        (fun (ts, id) ->
          match Hashtbl.find_opt exact_ts id with
          | Some ts' when ts' <= ts -> if ts' < ts then incr late
          | _ -> never_early := false)
        r.Scenario.maturity_log;
      let r =
        match List.assoc_opt name probe_gauges with
        | Some g -> { r with Scenario.final_metrics = Metrics.merge r.Scenario.final_metrics g }
        | None -> r
      in
      let fm = r.Scenario.final_metrics in
      let gauge k =
        match Metrics.get fm k with Some (Metrics.Gauge v) -> int_of_float v | _ -> 0
      in
      pf "@[<h>%-10s %12.3f %10.3f %9d %9d %14d %12d %12d@]@." name
        (r.Scenario.total_seconds *. 1e6 /. float_of_int (max 1 r.Scenario.ops))
        r.Scenario.total_seconds r.Scenario.matured !late (gauge "approx_sketch_words")
        (gauge "approx_max_width")
        (gauge "approx_max_observed_error");
      if p.json then runs := result_json ~stability r :: !runs)
    engines;
  (* Top-n parity: the binary threshold search against the full sort on a
     live engine mid-stream, at several n. *)
  let topn_matches =
    let e = Approx.Topn.engine ~dim:1 in
    let gen = Generator.create ~dim:1 ~seed:p.seed () in
    for id = 0 to max 10 (p.m / 10) - 1 do
      e.Engine.register (Generator.query gen ~id ~threshold:(max 2 p.tau))
    done;
    for _ = 1 to 4 * (p.tau / 10) do
      ignore (e.Engine.process (Generator.element gen) : int list)
    done;
    let sorted_prefix n =
      e.Engine.alive_snapshot ()
      |> List.map (fun ((q : Types.query), w) ->
             { Approx.Topn.id = q.Types.id; slack = q.Types.threshold - w;
               threshold = q.Types.threshold })
      |> List.sort (fun (a : Approx.Topn.entry) b ->
             if a.Approx.Topn.slack <> b.Approx.Topn.slack then
               compare a.Approx.Topn.slack b.Approx.Topn.slack
             else compare a.Approx.Topn.id b.Approx.Topn.id)
      |> List.filteri (fun k _ -> k < n)
    in
    List.for_all (fun n -> Approx.Topn.closest e ~n = sorted_prefix n) [ 0; 1; 10; 100 ]
  in
  pf "@.never-early vs exact baseline: %b; top-n search = sorted prefix: %b@." !never_early
    topn_matches;
  if not !never_early then failwith "approx bench: an engine matured a query EARLY";
  if not topn_matches then failwith "approx bench: top-n search diverged from the full sort";
  if p.json then begin
    let doc =
      Json.Obj
        [
          ("figure", Json.Str "approx");
          ( "params",
            Json.Obj
              [
                ("scale", Json.Num p.scale);
                ("seed", Json.int p.seed);
                ("reps", Json.int p.reps);
                ("m", Json.int p.m);
                ("tau", Json.int p.tau);
                ("probes", Json.int probes);
                ("gc", gc_params_json ());
              ] );
          ("runs", Json.List (List.rev !runs));
          ("approx_never_early", Json.Bool !never_early);
          ("topn_matches_sort", Json.Bool topn_matches);
        ]
    in
    let oc = open_out "BENCH_approx.json" in
    Json.to_channel ~indent:2 oc doc;
    output_char oc '\n';
    close_out oc;
    Printf.eprintf "rts-bench: wrote BENCH_approx.json (%d runs)\n%!" (List.length !runs)
  end;
  pf "@."

(* ---------------------------------------------------------------- *)
(* Command line                                                      *)

open Cmdliner

let scale_arg =
  let doc = "Multiply every workload parameter (m, tau, n) by this factor. 1.0 = paper/100." in
  Arg.(value & opt float 1.0 & info [ "scale" ] ~docv:"FACTOR" ~doc)

let seed_arg =
  let doc = "PRNG seed for the workload." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let json_arg =
  let doc =
    "Also write a machine-readable BENCH_<figure>.json next to the textual output: engine, \
     workload parameters, wall-clock time, per-op cost trajectory and final metric totals \
     (including DT message counts against the O(h log tau) budget)."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

let reps_arg =
  let doc =
    "Timed repetitions per configuration; the median run is reported and min/max land in \
     the JSON. Warmup (a truncated run) always precedes the timed repetitions."
  in
  Arg.(value & opt int 3 & info [ "reps" ] ~docv:"K" ~doc)

let with_params f scale seed json reps = f (params_of ~scale ~seed ~json ~reps)

let cmd name doc f =
  Cmd.v (Cmd.info name ~doc)
    Term.(const (with_params f) $ scale_arg $ seed_arg $ json_arg $ reps_arg)

(* The implementation behind every registry target. The target list
   itself — names, docs, which figures carry strict traces and
   budgets — lives in {!Bench_targets}, shared with validate_bench, so
   a target cannot exist here without the validator knowing it (and vice
   versa): [check_coverage] fails loudly at startup on any drift. *)
let implementations : (string * (params -> unit)) list =
  [
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("dims", dims);
    ("counting", counting);
    ("robust", robust);
    ("perf", perf);
    ("shard", shard);
    ("ablation", ablation);
    ("approx", approx);
  ]

let check_coverage () =
  let impl = List.map fst implementations in
  List.iter
    (fun name ->
      if not (List.mem name impl) then
        failwith
          (Printf.sprintf "rts-bench: registry target %S has no implementation" name))
    Bench_targets.names;
  List.iter
    (fun name ->
      if Bench_targets.find name = None then
        failwith
          (Printf.sprintf
             "rts-bench: implementation %S is not in the Bench_targets registry" name))
    impl

let all_figs p =
  List.iter (fun (t : Bench_targets.t) -> List.assoc t.name implementations p) Bench_targets.all

let default_term =
  Term.(const (with_params all_figs) $ scale_arg $ seed_arg $ json_arg $ reps_arg)

let () =
  check_coverage ();
  let info =
    Cmd.info "rts-bench"
      ~doc:
        "Regenerate the evaluation of 'Range Thresholding on Streams' (SIGMOD'16): one target \
         per paper figure, plus batched, sharded and approximate-tier benchmarks and an \
         ablation study."
  in
  let cmds =
    List.map
      (fun (t : Bench_targets.t) -> cmd t.name t.doc (List.assoc t.name implementations))
      Bench_targets.all
    @ [ cmd "all" "Everything (default)" all_figs ]
  in
  exit (Cmd.eval (Cmd.group ~default:default_term info cmds))
