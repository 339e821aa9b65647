(* validate_bench: the bench gate over the machine-readable benchmark
   output.

   Usage: validate_bench [--budgets FILE] BENCH_<figure>.json [...]

   Every document goes through Rts_workload.Bench_targets.check: the
   shape its figure promises, the paper's O(h log tau) DT message
   budget, the determinism and never-early
   verdicts, and the two zero contracts (no allocation on the DT feed
   path of a perf run, no certified-bound violation in an approx run).
   These hold at any scale, so the nightly run at a wider scale passes
   no budgets.

   With [--budgets FILE] (tools/budgets.json), every run of a budgeted
   figure (perf, shard, approx) is also held to its deterministic
   work-counter ceilings, and a markdown drift table per document goes
   to stdout — budget, actual, headroom, drift, OK/LOOSE/OVER — so a
   counter creeping toward its ceiling shows long before it trips the
   gate. Wall clock is listed beside it and never gated: shared runners
   are noisy. Exit 0 iff every file passes; problems go to stderr. *)

module Json = Rts_obs.Json
module Bench_targets = Rts_workload.Bench_targets

let errors = ref 0

let err fmt = Printf.ksprintf (fun s -> incr errors; Printf.eprintf "validate-bench: %s\n" s) fmt

let read_json file =
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error msg -> err "%s" msg; None
  | contents -> (
      match Json.of_string contents with
      | exception Json.Parse_error msg -> err "%s: malformed JSON: %s" file msg; None
      | doc -> Some doc)

let print_drift ~file (r : Bench_targets.report) runs =
  Printf.printf "### %s (`%s`): work-counter drift\n\n" r.figure file;
  Printf.printf "| key | counter | budget | actual | headroom | drift | status |\n";
  Printf.printf "|---|---|---:|---:|---:|---:|---|\n";
  List.iter
    (fun (row : Bench_targets.row) ->
      Printf.printf "| %s | %s | %.0f | %.0f | %.0f | %s | %s |\n" row.key row.counter row.budget
        row.actual (row.budget -. row.actual)
        (Bench_targets.drift_cell ~budget:row.budget ~actual:row.actual)
        (Bench_targets.status row))
    r.rows;
  Printf.printf "\nWall clock (informational — never gated):\n\n";
  Printf.printf "| run | per_op_us | seconds |\n|---|---:|---:|\n";
  List.iter
    (fun run ->
      let num k = Option.bind (Json.member k run) Json.get_num in
      let key = Bench_targets.budget_key ~figure:r.figure run in
      match (key, num "per_op_us", num "total_seconds") with
      | Some key, Some us, Some s -> Printf.printf "| %s | %.3f | %.3f |\n" key us s
      | _ -> ())
    runs;
  Printf.printf "\n"

let check_file ~budgets file =
  Option.iter
    (fun doc ->
      let r = Bench_targets.check ?budgets doc in
      List.iter (fun e -> err "%s: %s" file e) r.errors;
      let budgeted = budgets <> None && r.rows <> [] in
      if r.errors = [] then
        Printf.printf "validate-bench: %s: %d runs ok%s\n" file r.runs
          (if budgeted then " (budgets enforced)" else "");
      if budgeted then
        match Json.member "runs" doc with
        | Some (Json.List runs) -> print_drift ~file r runs
        | _ -> ())
    (read_json file)

let () =
  let usage () =
    prerr_endline "usage: validate_bench [--budgets FILE] BENCH_<figure>.json ...";
    exit 2
  in
  let budgets, files =
    match List.tl (Array.to_list Sys.argv) with
    | "--budgets" :: path :: files -> (
        match Option.map Bench_targets.budgets_of_json (read_json path) with
        | Some (Ok b) -> (Some b, files)
        | Some (Error msg) -> err "%s: %s" path msg; (None, files)
        | None -> (None, files))
    | files -> (None, files)
  in
  if files = [] || List.exists (String.starts_with ~prefix:"--") files then usage ();
  if !errors = 0 then List.iter (check_file ~budgets) files;
  if !errors > 0 then begin
    Printf.eprintf "validate-bench: %d problem(s)\n" !errors;
    exit 1
  end
