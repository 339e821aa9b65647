(* rts-cli: command-line front end for the RTS library.

   Subcommands compose into a small streaming pipeline:

     rts-cli generate --dim 1 --count 100000        # synthetic stream to stdout
     rts-cli run --queries alerts.csv               # stream on stdin, alerts out
     rts-cli run --queries alerts.csv --wal state/  # same, crash-recoverable
     rts-cli recover state/                         # inspect/restore after a crash
     rts-cli demo --mode fixed-load --engine dt     # run a paper scenario

   File formats (CSV, '#' comments allowed):
     queries  : id,threshold,lo1,hi1[,lo2,hi2,...]
     elements : v1[,v2,...],weight                                        *)

open Rts_core
open Rts_workload
open Rts_resilience
open Cmdliner

(* ---------------- shared helpers ---------------- *)

let fail fmt = Printf.ksprintf (fun s -> raise (Failure s)) fmt

(* Operational errors become one-line stderr messages with distinct exit
   codes instead of OCaml backtraces; scripts can branch on the code. *)
let exit_failure = 1
let exit_parse_error = 2
let exit_replay_error = 3
let exit_not_found = 4
let exit_invalid = 5
let exit_corrupt = 6
let exit_io = 7

let protect f =
  let err code fmt = Printf.ksprintf (fun s -> Printf.eprintf "rts-cli: %s\n%!" s; code) fmt in
  try f () with
  | Csv_io.Parse_error msg -> err exit_parse_error "parse error: %s" msg
  | Replay.Engine_error { op_index; line_no; exn } ->
      err exit_replay_error "replay failed at op %d (line %d): %s" op_index line_no
        (Printexc.to_string exn)
  | Not_found -> err exit_not_found "not found: no alive query with that id"
  | Invalid_argument msg -> err exit_invalid "invalid argument: %s" msg
  | Checkpoint.Corrupt msg -> err exit_corrupt "corrupt durable state: %s" msg
  | Recovery.Gap _ as e -> err exit_corrupt "corrupt durable state: %s" (Printexc.to_string e)
  | Wal.Unsupported_format msg -> err exit_corrupt "corrupt durable state: %s" msg
  | Sys_error msg -> err exit_io "%s" msg
  | Unix.Unix_error (e, fn, arg) -> err exit_io "%s: %s (%s)" fn (Unix.error_message e) arg
  | Failure msg -> err exit_failure "%s" msg

(* Engine selection resolves through the registry so the approximate tier
   (and any future engine library) plugs in without touching this file;
   the install call both links rts_approx and fixes registration order. *)
let () = Rts_approx.Install.install ()

let engine_conv =
  let parse s =
    if Engine_registry.mem s then Ok s
    else
      Error
        (`Msg
          (Printf.sprintf "unknown engine %S (known: %s)" s
             (String.concat ", " (Engine_registry.names ()))))
  in
  let print ppf s = Format.pp_print_string ppf s in
  Arg.conv (parse, print)

(* The heavy engine carries its own query class (hot ranges); keep a
   handle to the concrete tracker when this process builds one so --hot
   can reach past the uniform Engine.t interface. *)
let heavy_handle : Rts_approx.Heavy_engine.t option ref = ref None

let make_engine name ~dim =
  if name = "heavy" && dim = 1 then begin
    let h = Rts_approx.Heavy_engine.create () in
    heavy_handle := Some h;
    Rts_approx.Heavy_engine.engine h
  end
  else Engine_registry.make ~name ~dim

let engine_arg =
  let doc =
    "Engine: "
    ^ String.concat "; "
        (List.map
           (fun e ->
             Printf.sprintf "%s (%s)" e.Engine_registry.name e.Engine_registry.doc)
           (Engine_registry.entries ()))
    ^ "."
  in
  Arg.(value & opt engine_conv "dt" & info [ "engine" ] ~docv:"ENGINE" ~doc)

(* ---- approximate-tier reporting (--top / --hot) ---- *)

let top_arg =
  let doc =
    "After the run, print the $(docv) queries closest to maturity (smallest remaining \
     mass), found by binary threshold search over the slack values instead of sorting \
     all alive queries. Works with every engine. 0 disables."
  in
  Arg.(value & opt int 0 & info [ "top" ] ~docv:"N" ~doc)

let hot_arg =
  let doc =
    "After the run, print the maximal dyadic ranges whose certified mass upper bound \
     reaches $(docv) (the heavy tracker's BPTree-style descent). Requires --engine \
     heavy, unsharded."
  in
  Arg.(value & opt (some int) None & info [ "hot" ] ~docv:"MASS" ~doc)

let print_top engine top =
  if top > 0 then begin
    let entries = Rts_approx.Topn.closest engine ~n:top in
    Printf.eprintf "rts-cli: top %d nearest-maturity queries:\n%!" (List.length entries);
    List.iteri
      (fun i e ->
        Printf.eprintf "  #%d q%d: needs %d more of tau %d\n%!" (i + 1)
          e.Rts_approx.Topn.id e.Rts_approx.Topn.slack e.Rts_approx.Topn.threshold)
      entries
  end

let print_hot hot =
  match (hot, !heavy_handle) with
  | None, _ -> ()
  | Some _, None -> fail "--hot requires --engine heavy (1D, unsharded)"
  | Some threshold, Some h ->
      let rs = Rts_approx.Heavy_engine.hot h ~threshold in
      Printf.eprintf "rts-cli: %d hot ranges (certified upper bound >= %d):\n%!"
        (List.length rs) threshold;
      List.iter
        (fun r ->
          let lo, hi = r.Rts_approx.Heavy.range in
          Printf.eprintf "  [%g, %g) level %d: mass in [%d, %d]\n%!" lo hi
            r.Rts_approx.Heavy.level r.Rts_approx.Heavy.lower r.Rts_approx.Heavy.upper)
        rs

let dim_arg =
  let doc = "Dimensionality of the data space." in
  Arg.(value & opt int 1 & info [ "dim" ] ~docv:"D" ~doc)

let seed_arg =
  let doc = "PRNG seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let stats_arg =
  let doc =
    "After the run, print the engine's metric totals (counters, gauges) to stderr in \
     Prometheus text exposition format."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

(* ---- sharded ingestion (--shards / --executor) ---- *)

let executor_conv =
  let parse s =
    match Rts_shard.Executor.kind_of_string s with Ok k -> Ok k | Error m -> Error (`Msg m)
  in
  let print ppf k = Format.pp_print_string ppf (Rts_shard.Executor.kind_to_string k) in
  Arg.conv (parse, print)

let shards_arg =
  let doc =
    "Partition the queries across $(docv) shards (rendezvous hashing on query id), each \
     running a full engine over the whole element stream. Matured ids, snapshots and the \
     alert stream are bit-identical to the unsharded run regardless of shard count or \
     executor."
  in
  Arg.(value & opt int 1 & info [ "shards" ] ~docv:"K" ~doc)

let executor_arg =
  let doc =
    "Where shard tasks run: 'seq' (inline, always available; the reference semantics) or \
     'domains' (one OCaml 5 domain per shard; parallel, same output). Implies sharding \
     even with --shards 1. Default: seq."
  in
  Arg.(value & opt (some executor_conv) None & info [ "executor" ] ~docv:"EXEC" ~doc)

(* [sharded_factory kind ~shards ~executor] is [(make, close)]: the engine
   factory for this invocation — the plain engine when sharding is off,
   else [Shard.factory] over it — plus a closer that joins any executor
   domains. Close only after the last engine call (metrics included). *)
let sharded_factory engine_kind ~shards ~executor =
  if shards < 1 then fail "--shards must be >= 1";
  let base ~dim = make_engine engine_kind ~dim in
  if shards = 1 && executor = None then (base, fun () -> ())
  else Rts_shard.Shard.factory ?executor ~shards base

(* With --stats, dump the engine's uniform metric snapshot on stderr so it
   never mixes with the alert/CSV stream on stdout. *)
let print_stats stats snapshot =
  if stats then
    Printf.eprintf "%s%!" (Rts_obs.Metrics.to_prometheus ~prefix:"rts_" snapshot)

(* ---------------- run ---------------- *)

let run_cmd engine_kind dim closed queries_file quiet stats wal_dir checkpoint_every fsync_every
    batch shards executor top hot =
  protect @@ fun () ->
  if batch < 1 then fail "--batch must be >= 1";
  if hot <> None && (shards > 1 || executor <> None) then
    fail "--hot requires an unsharded run (the tracker lives in one engine)";
  (* Sharding sits innermost: Durable logs ops against the sharded engine
     (recovery replays the WAL into a fresh sharded engine via the same
     factory). *)
  let make, close_shards = sharded_factory engine_kind ~shards ~executor in
  (* With --wal, the run is crash-recoverable: recover whatever durable
     state the directory already holds (fresh directory = fresh engine),
     then wrap the engine so every op is WAL-logged and periodically
     checkpointed. *)
  let engine, handle, resuming =
    match wal_dir with
    | None -> (make ~dim, None, false)
    | Some path ->
        let dir = Io.fs_dir path in
        let engine, report = Recovery.recover ~dim ~make ~dir () in
        if report.Recovery.ops_total > 0 then
          Format.eprintf "rts-cli: recovered durable state from %s@.%a@." path Recovery.pp_report
            report;
        let config = { Durable.checkpoint_every; fsync_every } in
        let wrapped, h = Durable.wrap ~config ~report ~dir engine in
        (wrapped, Some h, report.Recovery.ops_total > 0)
  in
  (if resuming then
     (if queries_file <> None then
        Printf.eprintf "rts-cli: resuming; query file ignored (queries live in the WAL)\n%!")
   else
     match queries_file with
     | None -> fail "missing --queries (required unless resuming from --wal state)"
     | Some qf ->
         let ic = open_in qf in
         let queries =
           Fun.protect
             ~finally:(fun () -> close_in ic)
             (fun () -> Csv_io.read_queries ~dim ~closed ic)
         in
         engine.Engine.register_batch queries);
  Printf.eprintf "rts-cli: engine=%s dim=%d queries=%d; reading elements from stdin\n%!"
    engine.Engine.name dim
    (engine.Engine.alive ());
  let alerts, elements =
    if batch <= 1 then
      Csv_io.fold_elements ~dim
        (fun ~elt ~line_no (alerts, _) ->
          let matured = engine.Engine.process elt in
          List.iter
            (fun id -> if not quiet then Printf.printf "ALERT\t%d\t%d\n%!" line_no id)
            matured;
          (alerts + List.length matured, line_no))
        (0, 0) stdin
    else begin
      (* Batched ingestion: buffer [batch] elements, then one
         [feed_batch] call. Alerts are attributed to the line number of
         the last element of their batch — the batch is the unit of
         arrival, so that is the earliest point the alert exists. *)
      let buf = ref [] in
      let blen = ref 0 in
      let alerts = ref 0 in
      let flush line_no =
        if !blen > 0 then begin
          let arr = Array.of_list (List.rev !buf) in
          buf := [];
          blen := 0;
          let matured = engine.Engine.feed_batch arr in
          List.iter
            (fun id -> if not quiet then Printf.printf "ALERT\t%d\t%d\n%!" line_no id)
            matured;
          alerts := !alerts + List.length matured
        end
      in
      let last_line =
        Csv_io.fold_elements ~dim
          (fun ~elt ~line_no _ ->
            buf := elt :: !buf;
            incr blen;
            if !blen >= batch then flush line_no;
            line_no)
          0 stdin
      in
      flush last_line;
      (!alerts, last_line)
    end
  in
  Option.iter Durable.close handle;
  Printf.eprintf "rts-cli: %d elements, %d alerts, %d queries still live\n%!" elements alerts
    (engine.Engine.alive ());
  print_top engine top;
  print_hot hot;
  print_stats stats (engine.Engine.metrics ());
  close_shards ();
  0

(* ---------------- recover ---------------- *)

let recover_cmd engine_kind dim wal_dir stats =
  protect @@ fun () ->
  if not (Sys.file_exists wal_dir) then fail "no such directory: %s" wal_dir;
  let dir = Io.fs_dir wal_dir in
  let make ~dim = make_engine engine_kind ~dim in
  let engine, report = Recovery.recover ~dim ~make ~dir () in
  Format.printf "%a@." Recovery.pp_report report;
  Printf.printf "alive queries after recovery: %d\n%!" (engine.Engine.alive ());
  print_stats stats
    (Rts_obs.Metrics.merge (engine.Engine.metrics ()) (Recovery.metrics report));
  0

(* ---------------- generate ---------------- *)

let generate_cmd dim seed count unit_weights =
  protect @@ fun () ->
  let gen = Generator.create ~dim ~seed ~unit_weights () in
  for _ = 1 to count do
    print_endline (Csv_io.element_to_line (Generator.element gen))
  done;
  0

let genqueries_cmd dim seed count tau =
  protect @@ fun () ->
  let gen = Generator.create ~dim ~seed () in
  for id = 0 to count - 1 do
    print_endline (Csv_io.query_to_line (Generator.query gen ~id ~threshold:tau))
  done;
  0

(* ---------------- record / replay ---------------- *)

let replay_cmd engine_kind dim quiet stats =
  protect @@ fun () ->
  let engine = make_engine engine_kind ~dim in
  let outcome = Replay.replay ~dim engine stdin in
  if not quiet then
    List.iter
      (fun (ordinal, id) -> Printf.printf "ALERT\t%d\t%d\n" ordinal id)
      outcome.Replay.maturities;
  Printf.eprintf "rts-cli: replayed %d elements, %d registrations, %d terminations, %d alerts\n%!"
    outcome.Replay.elements outcome.Replay.registered outcome.Replay.terminated
    (List.length outcome.Replay.maturities);
  print_stats stats (engine.Engine.metrics ());
  0

(* ---------------- demo ---------------- *)

let mode_conv =
  let parse = function
    | "static" -> Ok `Static
    | "stochastic" -> Ok `Stochastic
    | "fixed-load" -> Ok `Fixed_load
    | s -> Error (`Msg (Printf.sprintf "unknown mode %S" s))
  in
  let print ppf m =
    Format.pp_print_string ppf
      (match m with `Static -> "static" | `Stochastic -> "stochastic" | `Fixed_load -> "fixed-load")
  in
  Arg.conv (parse, print)

let scenario_mode mode n p_ins =
  match mode with
  | `Static -> Scenario.Static
  | `Stochastic -> Scenario.Stochastic { p_ins; horizon = 2 * n / 3 }
  | `Fixed_load -> Scenario.Fixed_load

let record_cmd dim seed m tau n mode p_ins =
  protect @@ fun () ->
  (* Run a paper scenario against the baseline engine, recording the exact
     op stream to stdout for later replay against any engine. *)
  let cfg =
    {
      Scenario.default with
      Scenario.dim;
      seed;
      initial_queries = m;
      tau;
      mode = scenario_mode mode n p_ins;
      max_elements = n;
      chunk = max 64 (n / 64);
    }
  in
  let r =
    Scenario.run cfg (fun ~dim -> Replay.record_to_channel stdout (Baseline_engine.make ~dim))
  in
  Printf.eprintf "rts-cli: recorded %d elements, %d registrations, %d terminations\n%!"
    r.Scenario.elements r.Scenario.registered r.Scenario.terminated;
  0

let demo_cmd engine_kind dim seed m tau n mode p_ins stats shards executor top hot =
  protect @@ fun () ->
  let mode = scenario_mode mode n p_ins in
  if hot <> None && (shards > 1 || executor <> None) then
    fail "--hot requires an unsharded run (the tracker lives in one engine)";
  let cfg =
    {
      Scenario.default with
      Scenario.dim;
      seed;
      initial_queries = m;
      tau;
      mode;
      max_elements = n;
      chunk = max 64 (n / 64);
    }
  in
  let make, close_shards = sharded_factory engine_kind ~shards ~executor in
  (* Scenario owns the engine; keep a handle for post-run --top/--hot. *)
  let built = ref None in
  let make ~dim =
    let e = make ~dim in
    built := Some e;
    e
  in
  let r = Scenario.run cfg make in
  Option.iter (fun e -> print_top e top) !built;
  print_hot hot;
  close_shards ();
  Format.printf "%a@." Scenario.pp_result r;
  Format.printf "trace (elements, alive, us/op):@.";
  Array.iteri
    (fun i tp ->
      if i mod (max 1 (Array.length r.trace / 16)) = 0 then
        Format.printf "  %8d %8d %10.3f@." tp.Scenario.elements_done tp.Scenario.alive
          tp.Scenario.avg_us)
    r.Scenario.trace;
  print_stats stats r.Scenario.final_metrics;
  0

(* ---------------- wiring ---------------- *)

let run_term =
  let queries_file =
    Arg.(
      value
      & opt (some file) None
      & info [ "queries" ] ~docv:"FILE"
          ~doc:"Query CSV file (required unless resuming from --wal state).")
  in
  let closed =
    Arg.(value & flag & info [ "closed" ] ~doc:"Treat query upper bounds as inclusive.")
  in
  let quiet = Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress per-alert output.") in
  let wal =
    Arg.(
      value
      & opt (some string) None
      & info [ "wal" ] ~docv:"DIR"
          ~doc:
            "Durability directory: append every op to a checksummed write-ahead log and \
             checkpoint periodically. If $(docv) already holds state from a crashed run, \
             recover it and resume.")
  in
  let checkpoint_every =
    Arg.(
      value & opt int Durable.default.Durable.checkpoint_every
      & info [ "checkpoint-every" ] ~docv:"N" ~doc:"Minimum ops between checkpoints (with --wal); a checkpoint also waits \
                for WAL bytes reaching half the previous checkpoint's size.")
  in
  let fsync_every =
    Arg.(
      value & opt int Durable.default.Durable.fsync_every
      & info [ "fsync-every" ] ~docv:"N"
          ~doc:"WAL records per fsync (with --wal); >1 trades a wider crash window for \
                throughput.")
  in
  let batch =
    Arg.(
      value & opt int 1
      & info [ "batch" ] ~docv:"N"
          ~doc:
            "Ingest stdin elements in batches of $(docv) through the engine's batched \
             path (default 1 = element at a time). Same alerts; alerts are attributed \
             to the last line of their batch.")
  in
  Term.(
    const run_cmd $ engine_arg $ dim_arg $ closed $ queries_file $ quiet $ stats_arg $ wal
    $ checkpoint_every $ fsync_every $ batch $ shards_arg $ executor_arg $ top_arg $ hot_arg)

let recover_term =
  let wal_dir =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc:"Durability directory.")
  in
  Term.(const recover_cmd $ engine_arg $ dim_arg $ wal_dir $ stats_arg)

let generate_term =
  let count =
    Arg.(value & opt int 100_000 & info [ "count" ] ~docv:"N" ~doc:"Number of elements.")
  in
  let unit_weights = Arg.(value & flag & info [ "unit-weights" ] ~doc:"All weights 1.") in
  Term.(const generate_cmd $ dim_arg $ seed_arg $ count $ unit_weights)

let genqueries_term =
  let count =
    Arg.(value & opt int 1_000 & info [ "count" ] ~docv:"M" ~doc:"Number of queries.")
  in
  let tau = Arg.(value & opt int 200_000 & info [ "tau" ] ~docv:"TAU" ~doc:"Threshold.") in
  Term.(const genqueries_cmd $ dim_arg $ seed_arg $ count $ tau)

let replay_term =
  let quiet = Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress per-alert output.") in
  Term.(const replay_cmd $ engine_arg $ dim_arg $ quiet $ stats_arg)

let demo_term =
  let m = Arg.(value & opt int 10_000 & info [ "m" ] ~docv:"M" ~doc:"Initial queries.") in
  let tau = Arg.(value & opt int 200_000 & info [ "tau" ] ~docv:"TAU" ~doc:"Threshold.") in
  let n = Arg.(value & opt int 30_000 & info [ "n" ] ~docv:"N" ~doc:"Stream length cap.") in
  let mode =
    Arg.(value & opt mode_conv `Static & info [ "mode" ] ~docv:"MODE" ~doc:"static | stochastic | fixed-load.")
  in
  let p_ins =
    Arg.(value & opt float 0.3 & info [ "p-ins" ] ~docv:"P" ~doc:"Stochastic insertion probability.")
  in
  Term.(
    const demo_cmd $ engine_arg $ dim_arg $ seed_arg $ m $ tau $ n $ mode $ p_ins $ stats_arg
    $ shards_arg $ executor_arg $ top_arg $ hot_arg)

let record_term =
  let m = Arg.(value & opt int 1_000 & info [ "m" ] ~docv:"M" ~doc:"Initial queries.") in
  let tau = Arg.(value & opt int 20_000 & info [ "tau" ] ~docv:"TAU" ~doc:"Threshold.") in
  let n = Arg.(value & opt int 10_000 & info [ "n" ] ~docv:"N" ~doc:"Stream length cap.") in
  let mode =
    Arg.(value & opt mode_conv `Static & info [ "mode" ] ~docv:"MODE" ~doc:"static | stochastic | fixed-load.")
  in
  let p_ins =
    Arg.(value & opt float 0.3 & info [ "p-ins" ] ~docv:"P" ~doc:"Stochastic insertion probability.")
  in
  Term.(const record_cmd $ dim_arg $ seed_arg $ m $ tau $ n $ mode $ p_ins)

let () =
  let info =
    Cmd.info "rts-cli" ~doc:"Range thresholding on streams: run triggers over CSV streams."
  in
  let cmds =
    [
      Cmd.v (Cmd.info "run" ~doc:"Register queries from a file; stream elements from stdin.") run_term;
      Cmd.v
        (Cmd.info "recover"
           ~doc:
             "Restore an engine from a --wal directory (newest valid checkpoint + WAL suffix) \
              and print the recovery report.")
        recover_term;
      Cmd.v (Cmd.info "generate" ~doc:"Emit a synthetic element stream (paper Section 8).") generate_term;
      Cmd.v (Cmd.info "genqueries" ~doc:"Emit a synthetic query file (paper Section 8).") genqueries_term;
      Cmd.v (Cmd.info "demo" ~doc:"Run a paper scenario end to end and print its trace.") demo_term;
      Cmd.v (Cmd.info "record" ~doc:"Record a scenario's exact op stream (R/T/E lines) to stdout.") record_term;
      Cmd.v (Cmd.info "replay" ~doc:"Replay a recorded op stream from stdin against an engine.") replay_term;
    ]
  in
  exit (Cmd.eval' (Cmd.group info cmds))
