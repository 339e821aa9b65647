(* rts-serve: supervised multi-tenant serving daemon over the RTS
   engines, plus its combined-fault soak driver.

     rts-serve soak                      # replicated serving, primary kill
     rts-serve soak --scenario wedge     # wedged primary, fenced zombie
     rts-serve soak --replicas 0 --segment-records 0 --scenario clean
                                         # one server, crash+net faults
     rts-serve session --wal state/      # one-tenant frame loop on stdin

   The session speaks the wire protocol one frame per line:

     op,main,R,1,500,10,90          # register query 1
     op,main,E,42,100               # feed one element
     batch,main,E,42,100;E,17,100   # feed a batch
     sub,main                       # subscribe to maturity pushes
     stats                          # metric snapshot
     shutdown                       # drain, sync, exit                  *)

open Rts_core
open Cmdliner
module Frame = Rts_serve.Frame
module Server = Rts_serve.Server
module Client = Rts_serve.Client
module Hub = Rts_serve.Hub
module Cluster = Rts_replica.Cluster
module Rsoak = Rts_replica.Rsoak
module Io = Rts_resilience.Io

let fail fmt = Printf.ksprintf (fun s -> raise (Failure s)) fmt

let protect f =
  let err code fmt =
    Printf.ksprintf
      (fun s ->
        Printf.eprintf "rts-serve: %s\n%!" s;
        code)
      fmt
  in
  try f () with
  | Failure msg -> err 1 "%s" msg
  | Invalid_argument msg -> err 5 "invalid argument: %s" msg
  | Sys_error msg -> err 7 "%s" msg

let engine_conv =
  let parse = function
    | "dt" -> Ok `Dt
    | "dt-eager" -> Ok `Dt_eager
    | "baseline" -> Ok `Baseline
    | "interval-tree" -> Ok `Interval_tree
    | "seg-intv" -> Ok `Seg_intv
    | "r-tree" -> Ok `Rtree
    | s -> Error (`Msg (Printf.sprintf "unknown engine %S" s))
  in
  let print ppf e =
    Format.pp_print_string ppf
      (match e with
      | `Dt -> "dt"
      | `Dt_eager -> "dt-eager"
      | `Baseline -> "baseline"
      | `Interval_tree -> "interval-tree"
      | `Seg_intv -> "seg-intv"
      | `Rtree -> "r-tree")
  in
  Arg.conv (parse, print)

let make_engine kind ~dim =
  match kind with
  | `Dt -> Dt_engine.make ~dim
  | `Dt_eager -> Dt_engine.make_eager ~dim
  | `Baseline -> Baseline_engine.make ~dim
  | `Interval_tree ->
      if dim <> 1 then fail "interval-tree engine is 1D only";
      Stab1d_engine.make ()
  | `Seg_intv ->
      if dim <> 2 then fail "seg-intv engine is 2D only";
      Stab2d_engine.make ()
  | `Rtree -> Rtree_engine.make ~dim

let engine_arg =
  let doc = "Engine behind every tenant: dt, dt-eager, baseline, interval-tree, seg-intv, r-tree." in
  Arg.(value & opt engine_conv `Dt & info [ "engine" ] ~docv:"ENGINE" ~doc)

let dim_arg =
  let doc = "Dimensionality of the data space." in
  Arg.(value & opt int 2 & info [ "dim" ] ~docv:"D" ~doc)

let seed_arg =
  let doc = "Master PRNG seed; the whole soak replays from it." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let net_fault_conv =
  let parse s =
    match Rts_net.Net_fault.parse s with Ok sp -> Ok sp | Error m -> Error (`Msg m)
  in
  let print ppf sp = Format.pp_print_string ppf (Rts_net.Net_fault.to_string sp) in
  Arg.conv (parse, print)

let reliable_config ~rto ~rto_max ~jitter =
  if rto < 1 || rto_max < rto then fail "--net-rto/--net-rto-max must satisfy 1 <= rto <= rto-max";
  if jitter < 0. then fail "--net-rto-jitter must be >= 0";
  { Rts_net.Reliable.rto; rto_max; jitter }

let net_rto_arg =
  let doc = "Initial retransmission timeout of the reliability layer (virtual ticks)." in
  Arg.(
    value
    & opt int Rts_net.Reliable.default.Rts_net.Reliable.rto
    & info [ "net-rto" ] ~docv:"TICKS" ~doc)

let net_rto_max_arg =
  let doc = "Retransmission backoff cap." in
  Arg.(
    value
    & opt int Rts_net.Reliable.default.Rts_net.Reliable.rto_max
    & info [ "net-rto-max" ] ~docv:"TICKS" ~doc)

let net_rto_jitter_arg =
  let doc =
    "Deterministic retransmission-backoff jitter: each retry delay d is drawn from [d, \
     d*(1+$(docv))] using the seeded PRNG so links do not retry in lockstep after a \
     partition heals. 0 disables jitter."
  in
  Arg.(value & opt float 0.0 & info [ "net-rto-jitter" ] ~docv:"FRAC" ~doc)

(* ---------------- soak ---------------- *)

let soak_cmd engine_kind dim seed tenants queries elements batch threshold churn
    faulty_incarnations crash_every wedges net_faults net_rto net_rto_max net_rto_jitter replicas
    scenario kill_at wedge_at wedge_duration segment_records queue_capacity drain_per_tick
    fsync_every checkpoint_every hb_every hb_timeout quiet =
  protect @@ fun () ->
  let scenario =
    match scenario with
    | "clean" -> Rsoak.Clean
    | "kill" -> Rsoak.Kill kill_at
    | "wedge" -> Rsoak.Wedge { at = wedge_at; duration = wedge_duration }
    | s -> fail "unknown --scenario %S (clean | kill | wedge)" s
  in
  if replicas < 0 then fail "--replicas must be >= 0";
  let cfg =
    {
      Rsoak.tenants;
      queries;
      elements;
      batch;
      threshold;
      churn;
      dim;
      seed;
      faulty_incarnations;
      crash_every;
      wedges;
      scenario;
      cluster =
        {
          Rsoak.default.Rsoak.cluster with
          Cluster.serving = replicas + 1;
          net = net_faults;
          hb_every;
          hb_timeout;
          reliable =
            reliable_config ~rto:net_rto ~rto_max:net_rto_max ~jitter:net_rto_jitter;
          server =
            {
              Server.default with
              Server.dim;
              queue_capacity;
              drain_per_tick;
              segment_records;
              durable =
                { Rts_resilience.Durable.fsync_every; checkpoint_every };
            };
        };
    }
  in
  let progress = if quiet then fun _ -> () else fun s -> Printf.eprintf "rts-serve: %s\n%!" s in
  let report = Rsoak.run ~progress ~make:(fun ~dim -> make_engine engine_kind ~dim) cfg in
  Format.printf "%a@." Rsoak.pp report;
  if report.Rsoak.ok then 0 else 1

let soak_term =
  let tenants = Arg.(value & opt int 2 & info [ "tenants" ] ~docv:"N" ~doc:"Tenant count.") in
  let queries =
    Arg.(value & opt int 30 & info [ "queries" ] ~docv:"M" ~doc:"Initial registrations per tenant.")
  in
  let elements =
    Arg.(value & opt int 850 & info [ "elements" ] ~docv:"N" ~doc:"Stream elements per tenant.")
  in
  let batch =
    Arg.(value & opt int 8 & info [ "batch" ] ~docv:"B" ~doc:"Elements per batch frame.")
  in
  let threshold =
    Arg.(value & opt int 2500 & info [ "threshold" ] ~docv:"TAU" ~doc:"Max maturity threshold.")
  in
  let churn =
    Arg.(
      value & opt float 0.12
      & info [ "churn" ] ~docv:"P" ~doc:"Per-chunk terminate+register probability.")
  in
  let faulty =
    Arg.(
      value & opt int 2
      & info [ "faulty-incarnations" ] ~docv:"K"
          ~doc:"Fault-wrapped storage lives per (node, tenant) (0 = clean disks).")
  in
  let crash_every =
    Arg.(
      value & opt int 180
      & info [ "crash-every" ] ~docv:"N" ~doc:"Mean WAL appends between drawn crash points.")
  in
  let wedges =
    Arg.(
      value & opt int Rsoak.default.Rsoak.wedges
      & info [ "wedges" ] ~docv:"N"
          ~doc:"Tenant wedge injections on the current primary during the run.")
  in
  let net_faults =
    Arg.(
      value
      & opt net_fault_conv Rsoak.default.Rsoak.cluster.Cluster.net
      & info [ "net-faults" ] ~docv:"SPEC"
          ~doc:"Network fault spec on every link (e.g. 'drop=0.08,dup=0.04,reorder=0.15').")
  in
  let replicas =
    Arg.(
      value & opt int 2
      & info [ "replicas" ] ~docv:"N"
          ~doc:"Replica count; the cluster serves on N+1 nodes (node 0 is the initial primary).")
  in
  let scenario =
    Arg.(
      value & opt string "kill"
      & info [ "scenario" ] ~docv:"KIND"
          ~doc:
            "Fault scripted against the initial primary: clean (none), kill (fail-stop at \
             --kill-at), wedge (stall over [--wedge-at, --wedge-at + --wedge-duration], then \
             wake the zombie into the fenced view).")
  in
  let kill_at =
    Arg.(value & opt int 120 & info [ "kill-at" ] ~docv:"TICK" ~doc:"Kill tick (scenario=kill).")
  in
  let wedge_at =
    Arg.(value & opt int 120 & info [ "wedge-at" ] ~docv:"TICK" ~doc:"Wedge tick (scenario=wedge).")
  in
  let wedge_duration =
    Arg.(
      value & opt int 300
      & info [ "wedge-duration" ] ~docv:"TICKS" ~doc:"Wedge length (scenario=wedge).")
  in
  let segment_records =
    Arg.(
      value & opt int 48
      & info [ "segment-records" ] ~docv:"N"
          ~doc:"WAL segment rotation threshold; 0 disables rotation (and pruning).")
  in
  let queue_capacity =
    Arg.(
      value & opt int 16
      & info [ "queue-capacity" ] ~docv:"N" ~doc:"Per-tenant ingest ring capacity.")
  in
  let drain =
    Arg.(
      value & opt int 6
      & info [ "drain-per-tick" ] ~docv:"N" ~doc:"Ops applied per drain tick (pacing).")
  in
  let fsync_every =
    Arg.(value & opt int 5 & info [ "fsync-every" ] ~docv:"N" ~doc:"WAL fsync batching.")
  in
  let checkpoint_every =
    Arg.(value & opt int 67 & info [ "checkpoint-every" ] ~docv:"N" ~doc:"Minimum ops between checkpoints.")
  in
  let hb_every =
    Arg.(
      value
      & opt int Cluster.default.Cluster.hb_every
      & info [ "hb-every" ] ~docv:"TICKS" ~doc:"Primary heartbeat cadence.")
  in
  let hb_timeout =
    Arg.(
      value
      & opt int Cluster.default.Cluster.hb_timeout
      & info [ "hb-timeout" ] ~docv:"TICKS"
          ~doc:"Controller: heartbeat silence before starting a failover election.")
  in
  let quiet = Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress progress lines.") in
  Term.(
    const soak_cmd $ engine_arg $ dim_arg $ seed_arg $ tenants $ queries $ elements $ batch
    $ threshold $ churn $ faulty $ crash_every $ wedges $ net_faults $ net_rto_arg $ net_rto_max_arg
    $ net_rto_jitter_arg $ replicas $ scenario $ kill_at $ wedge_at
    $ wedge_duration $ segment_records $ queue_capacity $ drain $ fsync_every $ checkpoint_every
    $ hb_every $ hb_timeout $ quiet)

let soak_doc =
  "Combined-fault soak: multi-tenant churn with storage faults on every node, network faults, \
   optional tenant wedges and, with replicas, a scripted primary kill or wedge and fenced \
   failover; the promoted node's (archive ++ chain) oracle must equal its maturity log and the \
   subscriber's merged push stream bit for bit. --replicas 0 --segment-records 0 --scenario \
   clean is the single-server soak."

(* ---------------- session ---------------- *)

let session_cmd engine_kind dim wal_dir role net_rto net_rto_max net_rto_jitter =
  protect @@ fun () ->
  let role =
    match role with
    | "primary" -> Server.Primary
    | "replica" -> Server.Replica
    | s -> fail "unknown --role %S (primary | replica)" s
  in
  let reliable = reliable_config ~rto:net_rto ~rto_max:net_rto_max ~jitter:net_rto_jitter in
  let provider ~tenant ~incarnation:_ =
    match wal_dir with
    | Some root -> Io.fs_dir (Filename.concat root tenant)
    | None -> Io.mem_dir ()
  in
  (* In-memory dirs cannot survive restarts, so each incarnation of a
     memory-backed tenant starts empty — fine for a live session, which
     has no fault injection. With --wal, recovery is real: kill the
     session and re-run it to resume every tenant from disk. *)
  let hub =
    Hub.create
      ~server_config:{ Server.default with Server.dim }
      ~reliable ~clients:1
      ~make:(fun ~dim -> make_engine engine_kind ~dim)
      ~provider ()
  in
  Server.set_role (Hub.server hub) role;
  let client = Hub.client hub 0 in
  let print_replies () =
    List.iter
      (fun f -> Printf.printf "%s\n%!" (Frame.server_to_string f))
      (Client.take_transcript client)
  in
  Printf.eprintf
    "rts-serve: session ready (engine=%s dim=%d%s); one frame per line, 'shutdown' to exit\n%!"
    (match engine_kind with `Dt -> "dt" | _ -> "custom")
    dim
    (match wal_dir with Some d -> ", wal=" ^ d | None -> ", in-memory");
  (try
     while not (Client.got_bye client) do
       let line = input_line stdin in
       if String.trim line <> "" then begin
         match Frame.client_of_string ~dim line with
         | Error msg -> Printf.printf "rejected,%S\n%!" msg
         | Ok frame ->
             Client.enqueue client frame;
             Hub.run hub;
             print_replies ()
       end
     done
   with End_of_file ->
     if not (Server.is_shutdown (Hub.server hub)) then begin
       Server.shutdown (Hub.server hub);
       Hub.run hub;
       print_replies ()
     end);
  0

let session_term =
  let wal =
    Arg.(
      value
      & opt (some string) None
      & info [ "wal" ] ~docv:"DIR"
          ~doc:
            "Root directory for per-tenant durable state (subdirectory per tenant). \
             Re-running with the same root resumes every tenant from its WAL.")
  in
  let role =
    Arg.(
      value & opt string "primary"
      & info [ "role" ] ~docv:"ROLE"
          ~doc:
            "Serving role: primary accepts client traffic; replica answers data frames with \
             retry-after (clients retarget on the next view change) and only applies ops \
             shipped by a primary, as in the failover harness.")
  in
  Term.(
    const session_cmd $ engine_arg $ dim_arg $ wal $ role $ net_rto_arg $ net_rto_max_arg
    $ net_rto_jitter_arg)

let session_doc = "Interactive single-process serving session: wire-protocol frames on stdin, \
                   replies and maturity pushes on stdout."

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info_main =
    Cmd.info "rts-serve" ~version:"%%VERSION%%"
      ~doc:"Supervised multi-tenant range-thresholding daemon and its fault soak harness"
  in
  exit
    (Cmd.eval'
       (Cmd.group ~default info_main
          [
            Cmd.v (Cmd.info "soak" ~doc:soak_doc) soak_term;
            Cmd.v (Cmd.info "session" ~doc:session_doc) session_term;
          ]))
