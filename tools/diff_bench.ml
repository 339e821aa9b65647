(* diff_bench: bench-budget drift guard.

   Usage: diff_bench --budgets FILE BENCH.json [--budgets FILE BENCH.json ...]

   Where validate_bench answers "does this run fit the budgets?" with a
   terse pass/fail, diff_bench answers "how close is it?": for every
   budgeted work counter it prints a markdown delta table — budget,
   actual, headroom, drift — that CI appends to the job summary, so a
   counter creeping toward its ceiling is visible long before it trips
   the gate, and a budget that has drifted far above reality (LOOSE) is
   flagged for tightening when it is next regenerated.

   Each [--budgets FILE] applies to the BENCH files that follow it (until
   the next [--budgets]). The budget key per run comes from the
   Bench_targets registry: "engine/batch" for perf documents,
   "engine/kK" for shard documents.

   Status per row:
     OK    — actual <= budget (headroom remaining)
     OVER  — actual exceeds the budget: a work regression. Exit 1.
     LOOSE — actual < 50% of budget: the gate is so slack it would let a
             near-2x regression through; informational, exit 0.

   Wall clock is reported in a second, purely informational table —
   counters gate, the clock never does (shared runners are noisy and
   single-core runners cannot show parallel speedups at all). *)

module Json = Rts_obs.Json
module Bench_targets = Rts_workload.Bench_targets

let errors = ref 0

let err fmt = Printf.ksprintf (fun s -> incr errors; Printf.eprintf "diff-bench: %s\n" s) fmt

let mem k j = Json.member k j

let num k j = Option.bind (mem k j) Json.get_num

let str k j = Option.bind (mem k j) Json.get_str

type row = {
  key : string;
  counter : string;
  budget : float;
  actual : float;
}

let status r = if r.actual > r.budget then "OVER" else if r.actual < 0.5 *. r.budget then "LOOSE" else "OK"

let collect_rows ~file ~keying budgets runs =
  List.concat_map
    (fun run ->
      let key =
        match (keying : Bench_targets.budget_keying) with
        | Bench_targets.By_batch -> (
            match (str "engine" run, num "batch" run) with
            | Some e, Some b -> Some (Printf.sprintf "%s/%.0f" e b)
            | _ -> None)
        | Bench_targets.By_shards -> (
            match (str "engine" run, num "shards" run) with
            | Some e, Some k -> Some (Printf.sprintf "%s/k%.0f" e k)
            | _ -> None)
        | Bench_targets.By_engine -> str "engine" run
        | Bench_targets.No_budgets -> None
      in
      match key with
      | None -> []
      | Some key -> (
          match mem key budgets with
          | Some (Json.Obj entries) ->
              List.filter_map
                (fun (counter, budget) ->
                  match (Json.get_num budget, Option.bind (mem "metrics" run) (num counter)) with
                  | Some budget, Some actual -> Some { key; counter; budget; actual }
                  | Some _, None ->
                      err "%s: budgeted counter %s missing from %s run metrics" file counter key;
                      None
                  | None, _ ->
                      err "%s: budget for %s/%s is not a number" file key counter;
                      None)
                entries
          | Some _ -> err "%s: budgets entry %S is not an object" file key; []
          | None -> err "%s: no budgets entry for %S" file key; []))
    runs

let wall_clock_rows runs =
  List.filter_map
    (fun run ->
      match (str "engine" run, num "per_op_us" run, num "total_seconds" run) with
      | Some engine, Some us, Some s ->
          let qualifier =
            match (num "batch" run, num "shards" run) with
            | Some b, _ -> Printf.sprintf "/%.0f" b
            | None, Some k -> Printf.sprintf "/k%.0f" k
            | None, None -> ""
          in
          Some (engine ^ qualifier, us, s)
      | _ -> None)
    runs

let print_tables ~file ~figure rows clock =
  Printf.printf "### %s (`%s`): work-counter drift\n\n" figure file;
  if rows = [] then Printf.printf "_no budgeted counters_\n\n"
  else begin
    Printf.printf "| key | counter | budget | actual | headroom | drift | status |\n";
    Printf.printf "|---|---|---:|---:|---:|---:|---|\n";
    List.iter
      (fun r ->
        (* Bench_targets.drift_cell renders zero-budget rows (e.g.
           approx bound violations) as text —
           a naive division prints -nan%/+inf% for them. *)
        Printf.printf "| %s | %s | %.0f | %.0f | %.0f | %s | %s |\n" r.key r.counter r.budget
          r.actual (r.budget -. r.actual)
          (Bench_targets.drift_cell ~budget:r.budget ~actual:r.actual)
          (status r))
      rows;
    Printf.printf "\n"
  end;
  if clock <> [] then begin
    Printf.printf "Wall clock (informational — never gated):\n\n";
    Printf.printf "| run | per_op_us | seconds |\n|---|---:|---:|\n";
    List.iter (fun (k, us, s) -> Printf.printf "| %s | %.3f | %.3f |\n" k us s) clock;
    Printf.printf "\n"
  end

let check_params ~file ~budget_file budget_doc doc =
  List.iter
    (fun k ->
      match (num k budget_doc, Option.bind (mem "params" doc) (num k)) with
      | Some b, Some p when b <> p ->
          err "%s: params.%s = %g but %s budgets were generated at %s = %g — regenerate budgets"
            file k p budget_file k b
      | None, _ -> err "%s: budgets file missing number %S" budget_file k
      | _ -> ())
    [ "scale"; "seed" ]

let over = ref 0

let diff_file ~budget_file (budget_doc, budgets) file =
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error msg -> err "%s" msg
  | contents -> (
      match Json.of_string contents with
      | exception Json.Parse_error msg -> err "%s: malformed JSON: %s" file msg
      | doc -> (
          let figure = Option.value ~default:"?" (str "figure" doc) in
          let keying =
            match Bench_targets.find figure with
            | Some t -> t.Bench_targets.budget_keying
            | None ->
                err "%s: unknown figure %S — not in the Bench_targets registry" file figure;
                Bench_targets.No_budgets
          in
          if keying = Bench_targets.No_budgets then
            err "%s: figure %S carries no budget keying — nothing to diff" file figure;
          check_params ~file ~budget_file budget_doc doc;
          match mem "runs" doc with
          | Some (Json.List runs) ->
              let rows = collect_rows ~file ~keying budgets runs in
              List.iter (fun r -> if status r = "OVER" then incr over) rows;
              print_tables ~file ~figure rows (wall_clock_rows runs)
          | _ -> err "%s: missing \"runs\" array" file))

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

let () =
  let budgets = ref None and seen_any = ref false in
  let rec parse = function
    | "--budgets" :: path :: rest ->
        budgets := Option.map (fun b -> (path, b)) (load_budgets path);
        parse rest
    | [ "--budgets" ] -> prerr_endline "diff-bench: --budgets needs a FILE"; exit 2
    | file :: rest ->
        (match !budgets with
        | Some (budget_file, b) ->
            seen_any := true;
            diff_file ~budget_file b file
        | None ->
            err "%s given before any --budgets FILE" file);
        parse rest
    | [] -> ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if not !seen_any && !errors = 0 then begin
    prerr_endline "usage: diff_bench --budgets FILE BENCH.json [--budgets FILE BENCH.json ...]";
    exit 2
  end;
  if !over > 0 then begin
    Printf.eprintf "diff-bench: %d counter(s) OVER budget\n" !over;
    exit 1
  end;
  if !errors > 0 then begin
    Printf.eprintf "diff-bench: %d problem(s)\n" !errors;
    exit 1
  end
