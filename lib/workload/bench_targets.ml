module Json = Rts_obs.Json

type t = { name : string; doc : string; strict_trace : bool; budgeted : bool }

let t ?(strict_trace = false) ?(budgeted = false) name doc = { name; doc; strict_trace; budgeted }

let all =
  [
    t "fig3" "Per-op cost over time, static scenario (Figures 3a/3b)";
    t "fig4" "Total time vs number of queries m (Figures 4a/4b)" ~strict_trace:true;
    t "fig5" "Total time vs threshold tau (Figures 5a/5b)";
    t "fig6" "Per-op cost over time, stochastic insertions (Figure 6)" ~strict_trace:true;
    t "fig7" "Total time vs insertion probability p_ins (Figure 7)";
    t "fig8" "Per-op cost over time, fixed-load insertions (Figure 8)";
    t "dims" "Dimensionality sweep d = 1..3 (Theorem 1 extension)";
    t "counting" "Counting RTS: the unweighted special case (Section 4)";
    t "robust" "Non-uniform element distributions (Zipf, clustered)";
    t "perf" "Batched ingestion vs element-at-a-time: wall clock + work counters"
      ~strict_trace:true ~budgeted:true;
    t "shard"
      "Sharded multi-domain ingestion: scaling curve k=1/2/4/8 + deterministic merge check"
      ~strict_trace:true ~budgeted:true;
    t "ablation" "DT slack rounds vs eager signalling";
    t "approx"
      "Approximate tier: sketch memory + certified error vs exact + per-op latency \
       (crprecis/heavy), top-n search parity"
      ~budgeted:true;
  ]

let names = List.map (fun x -> x.name) all

let find name = List.find_opt (fun x -> x.name = name) all

(* A zero budget admits no relative drift: 0/0 is "met exactly",
   anything else over a zero budget is infinitely over; neither is a
   percentage, so both render as text instead of the -nan%/+inf% a naive
   division prints. *)
let drift_cell ~budget ~actual =
  if budget = 0.0 then if actual = 0.0 then "n/a" else "OVER (zero budget)"
  else Printf.sprintf "%+.1f%%" ((actual -. budget) /. budget *. 100.0)

(* ---- budgets -------------------------------------------------------- *)

let mem k j = Json.member k j

let num k j = Option.bind (mem k j) Json.get_num

let str k j = Option.bind (mem k j) Json.get_str

type budgets = { scale : float; seed : float; entries : (string * (string * float) list) list }

exception Malformed of string

let budgets_of_json doc =
  let malformed fmt = Printf.ksprintf (fun s -> raise (Malformed s)) fmt in
  let need k = match num k doc with Some v -> v | None -> malformed "missing number %S" k in
  let counter key (c, v) =
    match Json.get_num v with
    | Some b -> (c, b)
    | None -> malformed "budget %s.%s is not a number" key c
  in
  try
    let scale = need "scale" and seed = need "seed" in
    match mem "budgets" doc with
    | Some (Json.Obj entries) ->
        let entry (key, v) =
          match v with
          | Json.Obj counters -> (key, List.map (counter key) counters)
          | _ -> malformed "budgets entry %S is not an object" key
        in
        Ok { scale; seed; entries = List.map entry entries }
    | _ -> malformed "missing \"budgets\" object"
  with Malformed msg -> Error msg

let budget_key ~figure run =
  Option.map
    (fun engine ->
      let dim =
        match num "dim" run with Some d when d > 1. -> Printf.sprintf "/d%.0f" d | _ -> ""
      in
      let param =
        match (num "batch" run, num "shards" run) with
        | Some b, _ -> Printf.sprintf "/%.0f" b
        | None, Some k -> Printf.sprintf "/k%.0f" k
        | None, None -> ""
      in
      Printf.sprintf "%s/%s%s%s" figure engine dim param)
    (str "engine" run)

type row = { key : string; counter : string; budget : float; actual : float }

let status r =
  if r.actual > r.budget then "OVER" else if r.actual < 0.5 *. r.budget then "LOOSE" else "OK"

(* ---- document checks ------------------------------------------------ *)

type report = { figure : string; runs : int; errors : string list; rows : row list }

(* One document check: every rule below appends to [errs]. *)
type ctx = { mutable errs : string list; mutable rows_acc : row list }

let err cx fmt = Printf.ksprintf (fun s -> cx.errs <- s :: cx.errs) fmt

let require_num cx ~where k j =
  match num k j with
  | Some v when Float.is_finite v -> Some v
  | Some _ -> err cx "%s: %S is not finite" where k; None
  | None -> err cx "%s: missing number %S" where k; None

let check_verdict cx doc key diverged =
  match mem key doc with
  | Some (Json.Bool true) -> ()
  | Some (Json.Bool false) -> err cx "%s is false — %s" key diverged
  | _ -> err cx "document missing bool %S" key

let check_budget cx ~figure ~where entries run =
  match budget_key ~figure run with
  | None -> ()
  | Some key -> (
      match List.assoc_opt key entries with
      | None -> err cx "%s: no budgets entry for %S" where key
      | Some counters ->
          List.iter
            (fun (counter, budget) ->
              match Option.bind (mem "metrics" run) (num counter) with
              | Some actual ->
                  let r = { key; counter; budget; actual } in
                  cx.rows_acc <- r :: cx.rows_acc;
                  if status r = "OVER" then
                    err cx "%s (%s): work counter %s = %.0f exceeds budget %.0f" where key counter
                      actual budget
              | None ->
                  err cx "%s (%s): budgeted counter %s missing from run metrics" where key counter)
            counters)

let check_run cx ~figure ~strict ~budgets i run =
  let where = Printf.sprintf "runs[%d]" i in
  (match str "engine" run with
  | Some _ -> ()
  | None -> err cx "%s: missing string \"engine\"" where);
  ignore (require_num cx ~where "total_seconds" run);
  ignore (require_num cx ~where "per_op_us" run);
  ignore (require_num cx ~where "elements" run);
  (match mem "metrics" run with
  | Some (Json.Obj _) -> ()
  | _ -> err cx "%s: missing \"metrics\" object" where);
  (match mem "trace" run with
  | Some (Json.List pts) ->
      let prev = ref neg_infinity in
      List.iteri
        (fun j pt ->
          let pwhere = Printf.sprintf "%s.trace[%d]" where j in
          (match require_num cx ~where:pwhere "elements" pt with
          | Some e ->
              (* The first point may be the pre-stream registration batch
                 (elements = 0); after that the count must strictly grow. *)
              if strict && j > 0 && e <= !prev then
                err cx "%s: elements %.0f not strictly greater than previous %.0f" pwhere e !prev;
              prev := e
          | None -> ());
          ignore (require_num cx ~where:pwhere "avg_us" pt))
        pts
  | _ -> err cx "%s: missing \"trace\" array" where);
  (* Repetition stability (bench --reps): median must sit inside the
     observed envelope. *)
  (match (num "reps" run, num "total_seconds_min" run, num "total_seconds_max" run) with
  | Some reps, Some tmin, Some tmax ->
      if reps < 1.0 then err cx "%s: reps %.0f < 1" where reps;
      (match num "total_seconds" run with
      | Some t when t < tmin -. 1e-12 || t > tmax +. 1e-12 ->
          err cx "%s: total_seconds %.6f outside [min=%.6f, max=%.6f]" where t tmin tmax
      | _ -> ())
  | None, None, None -> ()
  | _ -> err cx "%s: reps/total_seconds_min/total_seconds_max must appear together" where);
  Option.iter (fun entries -> check_budget cx ~figure ~where entries run) budgets;
  (* The paper's budget: if the run reports DT messages, they must fit. *)
  match (num "dt_messages" run, num "dt_message_budget" run) with
  | Some messages, Some budget ->
      if messages > budget then
        err cx "%s (%s): dt_messages %.0f exceeds O(h log tau) budget %.0f" where
          (Option.value ~default:"?" (str "engine" run))
          messages budget;
      (match mem "dt_budget_ok" run with
      | Some (Json.Bool ok) ->
          if ok <> (messages <= budget) then
            err cx "%s: dt_budget_ok disagrees with the numbers" where
      | _ -> err cx "%s: dt_messages present but dt_budget_ok missing" where)
  | Some _, None -> err cx "%s: dt_messages without dt_message_budget" where
  | None, _ -> ()

(* perf documents: batched-ingestion shape, the batching verdict, and
   the DT hot path's zero-allocation contract. Rts_obs.Alloc calibrates
   out its own bracket overhead, so an allocation-free feed reports
   exactly 0 at every scale and on every compiler: no tolerance. *)
let check_perf_doc cx doc runs =
  (match Option.bind (mem "params" doc) (mem "batches") with
  | Some (Json.List (_ :: _)) -> ()
  | _ -> err cx "perf document missing non-empty params.batches");
  ignore (require_num cx ~where:"document" "dt_speedup_1024_vs_1" doc);
  check_verdict cx doc "dt_counters_no_increase" "batching added protocol work";
  List.iteri
    (fun i run ->
      if str "engine" run = Some "dt" then
        match Option.bind (mem "metrics" run) (num "allocated_words_per_element") with
        | Some 0.0 -> ()
        | Some w -> err cx "runs[%d]: dt allocated_words_per_element = %g (must be 0)" i w
        | None -> err cx "runs[%d]: dt run missing metrics gauge allocated_words_per_element" i)
    runs

(* Per-run shape of the sharded sweep: shard count, executor,
   per-shard metric snapshots, and an honest core count — every run
   must record the worker-domain count it actually used, and claiming 1
   core is only consistent with the seq executor (everything inline on
   the caller) or a single slot. *)
let check_sweep_run cx i run =
  let where = Printf.sprintf "runs[%d]" i in
  let shards = require_num cx ~where "shards" run in
  (match str "executor" run with
  | Some _ -> ()
  | None -> err cx "%s: shard run missing string \"executor\"" where);
  (match (require_num cx ~where "cores" run, str "executor" run, shards) with
  | Some c, Some executor, Some k ->
      if c < 1.0 then err cx "%s: cores %.0f < 1" where c;
      if c = 1.0 && executor <> "seq" && k > 1.0 then
        err cx
          "%s: cores = 1 but executor = %S with %.0f shards — a parallel executor must record \
           its true worker-domain count"
          where executor k
  | _ -> ());
  match mem "per_shard_metrics" run with
  | Some (Json.List (_ :: _)) -> ()
  | _ -> err cx "%s: shard run missing non-empty \"per_shard_metrics\"" where

(* shard documents: scaling-sweep shape and the determinism verdict. The
   speedup numbers are informational (the recorded cores say whether a
   parallel speedup was even physically available); the merge
   determinism and the per-run work-counter budgets are the gates. *)
let check_shard_doc cx doc runs =
  (match Option.bind (mem "params" doc) (mem "ks") with
  | Some (Json.List (_ :: _)) -> ()
  | _ -> err cx "shard document missing non-empty params.ks");
  (match Option.bind (mem "params" doc) (num "cores") with
  | Some c when c >= 1.0 -> ()
  | _ -> err cx "shard document missing params.cores >= 1");
  (match Option.bind (mem "params" doc) (str "executor") with
  | Some ("seq" | "domains") -> ()
  | Some e -> err cx "shard params.executor %S is neither seq nor domains" e
  | None -> err cx "shard document missing params.executor");
  (match mem "shard_speedup_k4_vs_k1" doc with
  | Some (Json.Obj ((_ :: _) as entries)) ->
      List.iter
        (fun (engine, v) ->
          match Json.get_num v with
          | Some s when Float.is_finite s && s > 0.0 -> ()
          | _ -> err cx "shard_speedup_k4_vs_k1.%s is not a positive number" engine)
        entries
  | _ -> err cx "document missing non-empty \"shard_speedup_k4_vs_k1\" object");
  check_verdict cx doc "shard_maturity_deterministic" "the merged maturity log diverged";
  List.iteri (check_sweep_run cx) runs

(* approx documents: the approximate tier's sweep. The error accounting
   is measured in-bench against a brute-force exact scan — the document
   must carry the verdicts (never-early vs the exact baseline, top-n
   parity with the full sort) as true, and every approximate run must
   report zero certified-bound violations (a certified interval that
   misses the exact count is a soundness bug, at any scale) plus the
   sketch footprint and observed-error gauges the budgets gate. *)
let check_approx_doc cx doc runs =
  (match Option.bind (mem "params" doc) (num "probes") with
  | Some p when p >= 1.0 -> ()
  | _ -> err cx "approx document missing params.probes >= 1");
  check_verdict cx doc "approx_never_early"
    "an approximate engine matured a query before the exact baseline";
  check_verdict cx doc "topn_matches_sort"
    "the binary threshold search diverged from the full sorted ranking";
  List.iteri
    (fun i run ->
      match str "engine" run with
      | Some ("crprecis" | "heavy") ->
          List.iter
            (fun g ->
              match Option.bind (mem "metrics" run) (num g) with
              | Some v when Float.is_finite v ->
                  if g = "approx_bound_violations" && v <> 0.0 then
                    err cx "runs[%d]: approx_bound_violations = %.0f (must be 0)" i v
              | _ -> err cx "runs[%d]: approx run missing metrics gauge %S" i g)
            [
              "approx_bound_violations";
              "approx_max_width";
              "approx_max_observed_error";
              "approx_sketch_words";
            ]
      | _ -> ())
    runs

let check ?budgets doc =
  let cx = { errs = []; rows_acc = [] } in
  let figure =
    match str "figure" doc with
    | Some f -> f
    | None -> err cx "missing string \"figure\""; ""
  in
  let target = find figure in
  if target = None then
    err cx
      "unknown figure %S — not in the Bench_targets registry (did you add a bench target \
       without registering it?)"
      figure;
  let strict = Option.fold ~none:false ~some:(fun t -> t.strict_trace) target in
  (match mem "params" doc with
  | Some (Json.Obj _) -> ()
  | _ -> err cx "missing \"params\" object");
  (* Counters are deterministic only per (scale, seed), so the budgets
     hold only for documents generated at the budgets' own pair. *)
  let budgets =
    match (budgets, target) with
    | Some b, Some { budgeted = true; _ } ->
        List.iter
          (fun (k, expected) ->
            match Option.bind (mem "params" doc) (num k) with
            | Some p when p = expected -> ()
            | Some p ->
                err cx "params.%s = %g but the budgets were generated at %s = %g" k p k expected
            | None -> err cx "params.%s missing (needed for budgets)" k)
          [ ("scale", b.scale); ("seed", b.seed) ];
        Some b.entries
    | _ -> None
  in
  let runs =
    match mem "runs" doc with
    | Some (Json.List []) -> err cx "\"runs\" is empty"; []
    | Some (Json.List runs) -> runs
    | _ -> err cx "missing \"runs\" array"; []
  in
  (match figure with
  | "perf" -> check_perf_doc cx doc runs
  | "shard" -> check_shard_doc cx doc runs
  | "approx" -> check_approx_doc cx doc runs
  | _ -> ());
  List.iteri (check_run cx ~figure ~strict ~budgets) runs;
  { figure; runs = List.length runs; errors = List.rev cx.errs; rows = List.rev cx.rows_acc }
