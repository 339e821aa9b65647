(* validate_bench: CI gate over the machine-readable benchmark output.

   Usage: validate_bench [--perf-budgets FILE] [--shard-budgets FILE]
            BENCH_fig4.json [...]

   For every file: parse it with Rts_obs.Json (the same dependency-free
   parser the repository ships), check the document shape the bench
   promises (figure, params, runs with engine/total_seconds/trace), and
   enforce the paper's telemetry claim: whenever a run carries a DT
   message count, it must not exceed its analytic O(h log tau) budget
   (the bench emits both, plus a precomputed [dt_budget_ok] verdict that
   must agree).

   Which figures exist, which traces must advance strictly, and how a
   figure's budget file is keyed all come from the {!Bench_targets}
   registry shared with bench/main.ml — an unknown figure is an error,
   so a bench target cannot emit output this validator silently skips.

   `perf` documents additionally carry repetition stability fields,
   micro-benchmark rows, and the batched-ingestion verdicts
   ([dt_counters_no_increase] must be true). `shard` documents carry
   the scaling-sweep shape: per-run shard counts, executor, per-shard
   metric snapshots and the worker-domain count the run actually used
   (cores = 1 is only consistent with the seq executor or a single
   slot), plus the maturity-determinism verdict that must be true (the
   bench aborts before emitting otherwise).

   With [--perf-budgets FILE] / [--shard-budgets FILE], every run of the
   corresponding document is also held to the checked-in deterministic
   work-counter budgets — keyed "engine/batch" for perf, "engine/kK" for
   the shard sweep: actual counter <= budget, same scale and seed.
   [--alloc-budgets FILE] layers a second, independently-keyed budget
   set onto the same perf runs — the allocation gate
   (allocated_words_per_element, also deterministic per scale/seed
   because Rts_obs.Alloc calibrates out its own bracket overhead) —
   so the work-counter and allocation budgets can live in separate
   checked-in files and evolve independently.
   Wall clock is deliberately NOT gated — shared CI runners make it
   noisy (and the shard sweep may run on a single core, where no
   parallel speedup is physically available) — the work counters are
   the deterministic proxy. Exit 0 iff every file passes; problems go
   to stderr. *)

module Json = Rts_obs.Json
module Bench_targets = Rts_workload.Bench_targets

let errors = ref 0

let err fmt = Printf.ksprintf (fun s -> incr errors; Printf.eprintf "validate-bench: %s\n" s) fmt

let mem k j = Json.member k j

let num k j = Option.bind (mem k j) Json.get_num

let str k j = Option.bind (mem k j) Json.get_str

let require_num ~file ~where k j =
  match num k j with
  | Some v when Float.is_finite v -> Some v
  | Some _ -> err "%s: %s: %S is not finite" file where k; None
  | None -> err "%s: %s: missing number %S" file where k; None

(* The budget key for one run, per the figure's registry keying. *)
let budget_key ~file ~where keying run =
  match (keying : Bench_targets.budget_keying) with
  | Bench_targets.No_budgets -> None
  | Bench_targets.By_batch -> (
      match (str "engine" run, num "batch" run) with
      | Some engine, Some batch -> Some (Printf.sprintf "%s/%.0f" engine batch)
      | _, None -> err "%s: %s: run missing \"batch\" (needed for budgets)" file where; None
      | None, _ -> None)
  | Bench_targets.By_shards -> (
      match (str "engine" run, num "shards" run) with
      | Some engine, Some shards -> Some (Printf.sprintf "%s/k%.0f" engine shards)
      | _, None -> err "%s: %s: run missing \"shards\" (needed for budgets)" file where; None
      | None, _ -> None)
  | Bench_targets.By_engine -> (
      match str "engine" run with
      | Some engine -> Some engine
      | None -> err "%s: %s: run missing \"engine\" (needed for budgets)" file where; None)

let check_run ~file ~figure ~strict ~keying ~budgets i run =
  let where = Printf.sprintf "runs[%d]" i in
  ignore figure;
  (match str "engine" run with
  | Some _ -> ()
  | None -> err "%s: %s: missing string \"engine\"" file where);
  ignore (require_num ~file ~where "total_seconds" run);
  ignore (require_num ~file ~where "per_op_us" run);
  ignore (require_num ~file ~where "elements" run);
  (match mem "metrics" run with
  | Some (Json.Obj _) -> ()
  | _ -> err "%s: %s: missing \"metrics\" object" file where);
  (match mem "trace" run with
  | Some (Json.List pts) ->
      let prev = ref neg_infinity in
      List.iteri
        (fun j pt ->
          let pwhere = Printf.sprintf "%s.trace[%d]" where j in
          (match require_num ~file ~where:pwhere "elements" pt with
          | Some e ->
              (* The first point may be the pre-stream registration batch
                 (elements = 0); after that the count must strictly grow. *)
              if strict && j > 0 && e <= !prev then
                err "%s: %s: elements %.0f not strictly greater than previous %.0f" file pwhere e
                  !prev;
              prev := e
          | None -> ());
          ignore (require_num ~file ~where:pwhere "avg_us" pt))
        pts
  | _ -> err "%s: %s: missing \"trace\" array" file where);
  (* Repetition stability (bench --reps): median must sit inside the
     observed envelope. *)
  (match (num "reps" run, num "total_seconds_min" run, num "total_seconds_max" run) with
  | Some reps, Some tmin, Some tmax ->
      if reps < 1.0 then err "%s: %s: reps %.0f < 1" file where reps;
      (match num "total_seconds" run with
      | Some t when t < tmin -. 1e-12 || t > tmax +. 1e-12 ->
          err "%s: %s: total_seconds %.6f outside [min=%.6f, max=%.6f]" file where t tmin tmax
      | _ -> ())
  | None, None, None -> ()
  | _ -> err "%s: %s: reps/total_seconds_min/total_seconds_max must appear together" file where);
  (* Deterministic budgets (--perf-budgets/--shard-budgets/--alloc-budgets).
     Each supplied budget set is enforced independently; a run's key must
     appear in every set that applies to its figure. *)
  List.iter
    (fun budgets ->
      match budget_key ~file ~where keying run with
      | None -> ()
      | Some key -> (
          match mem key budgets with
          | Some (Json.Obj entries) ->
              List.iter
                (fun (counter, budget) ->
                  match (Json.get_num budget, Option.bind (mem "metrics" run) (num counter)) with
                  | Some b, Some actual ->
                      if actual > b then
                        err "%s: %s (%s): work counter %s = %.0f exceeds budget %.0f" file where
                          key counter actual b
                  | Some _, None ->
                      err "%s: %s (%s): budgeted counter %s missing from run metrics" file where
                        key counter
                  | None, _ ->
                      err "%s: %s (%s): budget for %s is not a number" file where key counter)
                entries
          | Some _ -> err "%s: budgets entry %S is not an object" file key
          | None -> err "%s: %s: no budgets entry for %S" file where key))
    budgets;
  (* The paper's budget: if the run reports DT messages, they must fit. *)
  (match (num "dt_messages" run, num "dt_message_budget" run) with
  | Some messages, Some budget ->
      if messages > budget then
        err "%s: %s (%s): dt_messages %.0f exceeds O(h log tau) budget %.0f" file where
          (Option.value ~default:"?" (str "engine" run))
          messages budget;
      (match mem "dt_budget_ok" run with
      | Some (Json.Bool ok) ->
          if ok <> (messages <= budget) then
            err "%s: %s: dt_budget_ok disagrees with the numbers" file where
      | _ -> err "%s: %s: dt_messages present but dt_budget_ok missing" file where)
  | Some _, None -> err "%s: %s: dt_messages without dt_message_budget" file where
  | None, _ -> ());
  (* Networked runs (bench `net`): the useful-message count must fit the
     same analytic budget unless the fault spec degraded links, the
     never-early invariant is unconditional, and the maturity ordinals of
     the faulty run must match the zero-fault reference. *)
  match (num "net_useful_messages" run, num "net_message_bound" run) with
  | Some useful, Some bound ->
      let degraded = Option.value ~default:0.0 (num "net_degraded_sites" run) in
      if useful > bound && degraded <= 0.0 then
        err "%s: %s (%s): net_useful_messages %.0f exceeds bound %.0f with no degraded sites"
          file where
          (Option.value ~default:"?" (str "net_spec_name" run))
          useful bound;
      (match mem "net_bound_ok" run with
      | Some (Json.Bool ok) ->
          if ok <> (degraded > 0.0 || useful <= bound) then
            err "%s: %s: net_bound_ok disagrees with the numbers" file where
      | _ -> err "%s: %s: net_useful_messages present but net_bound_ok missing" file where);
      (match mem "net_never_early" run with
      | Some (Json.Bool true) -> ()
      | Some (Json.Bool false) -> err "%s: %s: net_never_early is false" file where
      | _ -> err "%s: %s: net run missing net_never_early" file where);
      (match mem "net_ordinal_match" run with
      | Some (Json.Bool true) -> ()
      | Some (Json.Bool false) -> err "%s: %s: net_ordinal_match is false" file where
      | _ -> err "%s: %s: net run missing net_ordinal_match" file where);
      ignore (require_num ~file ~where "net_messages" run);
      ignore (require_num ~file ~where "net_retransmits" run);
      (match str "net_spec" run with
      | Some _ -> ()
      | None -> err "%s: %s: net run missing string \"net_spec\"" file where)
  | Some _, None -> err "%s: %s: net_useful_messages without net_message_bound" file where
  | None, _ -> ()

(* perf documents: batched-ingestion shape and verdicts. *)
let check_perf_doc ~file doc =
  (match Option.bind (mem "params" doc) (mem "batches") with
  | Some (Json.List (_ :: _)) -> ()
  | _ -> err "%s: perf document missing non-empty params.batches" file);
  (match mem "micro" doc with
  | Some (Json.List rows) ->
      List.iteri
        (fun i row ->
          let where = Printf.sprintf "micro[%d]" i in
          (match str "name" row with
          | Some _ -> ()
          | None -> err "%s: %s: missing string \"name\"" file where);
          ignore (require_num ~file ~where "ns_per_element" row))
        rows
  | _ -> err "%s: perf document missing \"micro\" array" file);
  ignore (require_num ~file ~where:"document" "dt_speedup_1024_vs_1" doc);
  match mem "dt_counters_no_increase" doc with
  | Some (Json.Bool true) -> ()
  | Some (Json.Bool false) ->
      err "%s: dt_counters_no_increase is false — batching added protocol work" file
  | _ -> err "%s: perf document missing bool \"dt_counters_no_increase\"" file

(* Per-run shape of the sharded sweep: shard count, executor,
   per-shard metric snapshots, and an honest core count — every run
   must record the worker-domain count it actually used, and claiming 1
   core is only consistent with the seq executor (everything inline on
   the caller) or a single slot. *)
let check_sweep_run ~file i run =
  let where = Printf.sprintf "runs[%d]" i in
  let shards = require_num ~file ~where "shards" run in
  (match str "executor" run with
  | Some _ -> ()
  | None -> err "%s: %s: shard run missing string \"executor\"" file where);
  (match (require_num ~file ~where "cores" run, str "executor" run, shards) with
  | Some c, Some executor, Some k ->
      if c < 1.0 then err "%s: %s: cores %.0f < 1" file where c;
      if c = 1.0 && executor <> "seq" && k > 1.0 then
        err
          "%s: %s: cores = 1 but executor = %S with %.0f shards — a parallel executor must \
           record its true worker-domain count"
          file where executor k
  | _ -> ());
  match mem "per_shard_metrics" run with
  | Some (Json.List (_ :: _)) -> ()
  | _ -> err "%s: %s: shard run missing non-empty \"per_shard_metrics\"" file where

let check_speedup_obj ~file doc key =
  match mem key doc with
  | Some (Json.Obj ((_ :: _) as entries)) ->
      List.iter
        (fun (engine, v) ->
          match Json.get_num v with
          | Some s when Float.is_finite s && s > 0.0 -> ()
          | _ -> err "%s: %s.%s is not a positive number" file key engine)
        entries
  | _ -> err "%s: document missing non-empty %S object" file key

let check_verdict ~file doc key diverged =
  match mem key doc with
  | Some (Json.Bool true) -> ()
  | Some (Json.Bool false) -> err "%s: %s is false — %s" file key diverged
  | _ -> err "%s: document missing bool %S" file key

(* approx documents: the approximate tier's sweep. The error accounting
   is measured in-bench against a brute-force exact scan — the document
   must carry the verdicts (never-early vs the exact baseline, top-n
   parity with the full sort) as true, and every approximate run must
   report zero certified-bound violations plus the sketch footprint and
   observed-error gauges the budgets gate. *)
let check_approx_doc ~file doc =
  (match Option.bind (mem "params" doc) (num "probes") with
  | Some p when p >= 1.0 -> ()
  | _ -> err "%s: approx document missing params.probes >= 1" file);
  check_verdict ~file doc "approx_never_early"
    "an approximate engine matured a query before the exact baseline";
  check_verdict ~file doc "topn_matches_sort"
    "the binary threshold search diverged from the full sorted ranking";
  match mem "runs" doc with
  | Some (Json.List runs) ->
      List.iteri
        (fun i run ->
          let where = Printf.sprintf "runs[%d]" i in
          match str "engine" run with
          | Some ("crprecis" | "heavy") ->
              List.iter
                (fun g ->
                  match Option.bind (mem "metrics" run) (num g) with
                  | Some v when Float.is_finite v ->
                      if g = "approx_bound_violations" && v <> 0.0 then
                        err "%s: %s: approx_bound_violations = %.0f (must be 0)" file where v
                  | _ -> err "%s: %s: approx run missing metrics gauge %S" file where g)
                [
                  "approx_bound_violations";
                  "approx_max_width";
                  "approx_max_observed_error";
                  "approx_sketch_words";
                ]
          | _ -> ())
        runs
  | _ -> ()

(* shard documents: scaling-sweep shape and the determinism verdict. The
   speedup numbers are informational (the recorded cores say whether a
   parallel speedup was even physically available); the merge
   determinism and the per-run work-counter budgets are the gates. *)
let check_shard_doc ~file doc =
  (match Option.bind (mem "params" doc) (mem "ks") with
  | Some (Json.List (_ :: _)) -> ()
  | _ -> err "%s: shard document missing non-empty params.ks" file);
  (match Option.bind (mem "params" doc) (num "cores") with
  | Some c when c >= 1.0 -> ()
  | _ -> err "%s: shard document missing params.cores >= 1" file);
  (match Option.bind (mem "params" doc) (str "executor") with
  | Some ("seq" | "domains") -> ()
  | Some e -> err "%s: shard params.executor %S is neither seq nor domains" file e
  | None -> err "%s: shard document missing params.executor" file);
  check_speedup_obj ~file doc "shard_speedup_k4_vs_k1";
  check_verdict ~file doc "shard_maturity_deterministic" "the merged maturity log diverged";
  match mem "runs" doc with
  | Some (Json.List runs) -> List.iteri (check_sweep_run ~file) runs
  | _ -> ()

(* Budgets file: { "scale": s, "seed": n, "budgets": { key: { counter:
   max, ... }, ... } }. Scale and seed must match the document's params —
   counters are deterministic only per (scale, seed). *)
let load_budgets file =
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error msg -> err "%s" msg; None
  | contents -> (
      match Json.of_string contents with
      | exception Json.Parse_error msg -> err "%s: malformed JSON: %s" file msg; None
      | doc -> (
          match mem "budgets" doc with
          | Some (Json.Obj _ as b) -> Some (doc, b)
          | _ -> err "%s: budgets file missing \"budgets\" object" file; None))

let check_budget_params ~file ~budget_file budget_doc doc =
  List.iter
    (fun k ->
      match (num k budget_doc, Option.bind (mem "params" doc) (num k)) with
      | Some b, Some p when b <> p ->
          err "%s: params.%s = %g but %s budgets were generated at %s = %g — regenerate budgets"
            file k p budget_file k b
      | None, _ -> err "%s: budgets file missing number %S" budget_file k
      | _ -> ())
    [ "scale"; "seed" ]

let check_file ~perf_budgets ~shard_budgets ~alloc_budgets ~approx_budgets file =
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error msg -> err "%s" msg
  | contents -> (
      match Json.of_string contents with
      | exception Json.Parse_error msg -> err "%s: malformed JSON: %s" file msg
      | doc ->
          let figure =
            match str "figure" doc with
            | Some f -> f
            | None -> err "%s: missing string \"figure\"" file; ""
          in
          let target =
            match Bench_targets.find figure with
            | Some t ->
                if not t.Bench_targets.emits_json then
                  err "%s: figure %S is registered as not JSON-emitting" file figure;
                Some t
            | None ->
                err "%s: unknown figure %S — not in the Bench_targets registry (did you add a \
                     bench target without registering it?)"
                  file figure;
                None
          in
          let strict =
            match target with Some t -> t.Bench_targets.strict_trace | None -> false
          in
          let keying =
            match target with
            | Some t -> t.Bench_targets.budget_keying
            | None -> Bench_targets.No_budgets
          in
          (match mem "params" doc with
          | Some (Json.Obj _) -> ()
          | _ -> err "%s: missing \"params\" object" file);
          if figure = "perf" then check_perf_doc ~file doc;
          if figure = "shard" then check_shard_doc ~file doc;
          if figure = "approx" then check_approx_doc ~file doc;
          let run_budgets =
            let pick = function
              | Some (budget_file, (budget_doc, b)) ->
                  check_budget_params ~file ~budget_file budget_doc doc;
                  [ b ]
              | None -> []
            in
            match keying with
            | Bench_targets.By_batch -> pick perf_budgets @ pick alloc_budgets
            | Bench_targets.By_shards -> pick shard_budgets
            | Bench_targets.By_engine -> pick approx_budgets
            | Bench_targets.No_budgets -> []
          in
          (match mem "runs" doc with
          | Some (Json.List []) -> err "%s: \"runs\" is empty" file
          | Some (Json.List runs) ->
              List.iteri
                (fun i run ->
                  check_run ~file ~figure ~strict ~keying ~budgets:run_budgets i run)
                runs;
              Printf.printf "validate-bench: %s: %d runs ok%s\n" file (List.length runs)
                (if run_budgets <> [] then " (budgets enforced)" else "")
          | _ -> err "%s: missing \"runs\" array" file))

let () =
  let perf_budgets = ref None
  and shard_budgets = ref None
  and alloc_budgets = ref None
  and approx_budgets = ref None
  and files = ref [] in
  let load into path =
    match load_budgets path with Some b -> into := Some (path, b) | None -> ()
  in
  let rec parse = function
    | "--perf-budgets" :: path :: rest -> load perf_budgets path; parse rest
    | "--shard-budgets" :: path :: rest -> load shard_budgets path; parse rest
    | "--alloc-budgets" :: path :: rest -> load alloc_budgets path; parse rest
    | "--approx-budgets" :: path :: rest -> load approx_budgets path; parse rest
    | [ ("--perf-budgets" | "--shard-budgets" | "--alloc-budgets" | "--approx-budgets") ] ->
        prerr_endline
          "validate-bench: --perf-budgets/--shard-budgets/--alloc-budgets/--approx-budgets need \
           a FILE";
        exit 2
    | f :: rest -> files := f :: !files; parse rest
    | [] -> ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let files = List.rev !files in
  if files = [] then begin
    prerr_endline
      "usage: validate_bench [--perf-budgets FILE] [--shard-budgets FILE] [--alloc-budgets FILE] \
       [--approx-budgets FILE] BENCH_<fig>.json ...";
    exit 2
  end;
  List.iter
    (check_file ~perf_budgets:!perf_budgets ~shard_budgets:!shard_budgets
       ~alloc_budgets:!alloc_budgets ~approx_budgets:!approx_budgets)
    files;
  if !errors > 0 then begin
    Printf.eprintf "validate-bench: %d problem(s)\n" !errors;
    exit 1
  end
