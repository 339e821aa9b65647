(* perfbench: one run of one workload.

     perfbench --workload cli_mem|cli_wal|serve_churn --seed N
               --seconds S --trace 0|1 --work DIR

   Generates the workload's inputs from the seed, checks the outputs,
   measures for about S seconds and prints one JSON line last: the
   end-to-end metrics with --trace 0, the per-layer metrics with
   --trace 1. Exits 1 if a correctness check failed. *)

let usage = "perfbench --workload W --seed N --seconds S --trace 0|1 --work DIR"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let work = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " cli_mem | cli_wal | serve_churn");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measuring time");
      ("--trace", Arg.Set_int trace, " 1 = per-layer metrics from traced passes");
      ("--work", Arg.Set_string work, " scratch directory (created, left in place)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !work = "" then (prerr_endline usage; exit 2);
  Common.(rm_rf !work);
  Unix.mkdir !work 0o755;
  let opts =
    {
      Common.seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      work = !work;
    }
  in
  let result =
    match !workload with
    | "cli_mem" -> Cli.run ~opts ~wal:false
    | "cli_wal" -> Cli.run ~opts ~wal:true
    | "serve_churn" -> Serve.run ~opts
    | w -> (prerr_endline ("unknown workload " ^ w); exit 2)
  in
  let result = { result with Common.correct = !Common.gate_failures = [] } in
  if result.Common.correct then Common.print_result ~trace:opts.Common.trace result
  else begin
    Common.print_result ~trace:opts.Common.trace { result with Common.e2e = []; layer = [] };
    exit 1
  end
