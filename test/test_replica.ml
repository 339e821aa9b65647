(* Replicated serving: rep-protocol codec round-trips, and the
   replica-topology soak — primary kill and wedge-zombie scenarios on
   top of per-node storage faults and a lossy network, verified
   bit-identically against the archived-chain oracle (never-early,
   exactly-once maturities across fenced failover; WAL disk bounded by
   segment pruning). Pinned seeds, widened via RTS_REPLICA_SEEDS. *)

open Rts_core
open Rts_workload
module Rep = Rts_replica.Rep
module Cluster = Rts_replica.Cluster
module Rsoak = Rts_replica.Rsoak
module Frame = Rts_serve.Frame
module Server = Rts_serve.Server

let make ~dim = Dt_engine.make ~dim

(* ------------------------------------------------------------------ *)
(* Rep codec                                                           *)
(* ------------------------------------------------------------------ *)

let rep = Alcotest.testable Rep.pp ( = )

let roundtrip ~dim f =
  match Rep.of_string ~dim (Rep.to_string f) with
  | Ok g -> Alcotest.check rep (Rep.to_string f) f g
  | Error e -> Alcotest.failf "rep %S did not parse: %s" (Rep.to_string f) e

let test_rep_roundtrip () =
  let gen = Generator.create ~dim:2 ~seed:11 () in
  List.iter (roundtrip ~dim:2)
    [
      Rep.Append
        {
          epoch = 3;
          tenant = "t0";
          index = 41;
          op = Replay.Register (Generator.query gen ~id:7 ~threshold:120);
        };
      Rep.Append { epoch = 1; tenant = "a_B-9."; index = 1; op = Replay.Terminate 5 };
      Rep.Append { epoch = 2; tenant = "t1"; index = 9; op = Replay.Element (Generator.element gen) };
      Rep.Ack { epoch = 2; tenant = "t0"; durable = 40 };
      Rep.Heartbeat { epoch = 1; floors = [] };
      Rep.Heartbeat { epoch = 4; floors = [ ("a", 12); ("b", 0) ] };
      Rep.Probe { epoch = 9 };
      Rep.Position { epoch = 9; total = 812 };
      Rep.View { epoch = 9; primary = 2; members = [ 2 ] };
      Rep.View { epoch = 3; primary = 0; members = [ 0; 1; 2 ] };
    ]

let test_rep_malformed () =
  List.iter
    (fun line ->
      match Rep.of_string ~dim:2 line with
      | Ok f -> Alcotest.failf "%S parsed as %s" line (Rep.to_string f)
      | Error _ -> ())
    [
      "rapp";
      "rapp,1";
      "rapp,1,t0";
      "rapp,1,t0,notanint,e,1,2";
      "rapp,1,bad tenant!,3,t,5";
      "rack,1,t0";
      "rack,x,t0,4";
      "rhb,1,t0-12";
      "rhb,1,t0:x";
      "rprobe,1,extra";
      "rpos,1";
      "rview,2";
      "rview,2,1";
      "rview,2,1,2;3";
      "rview,2,1,x";
      "nonsense,1,2";
    ]

let test_rep_dispatch () =
  (* rep verbs and serve verbs must stay disjoint so one link carries
     both *)
  List.iter
    (fun l -> Alcotest.(check bool) l true (Rep.is_rep l))
    [ "rapp,1,t,1,x"; "rack,1,t,2"; "rhb,1"; "rprobe,1"; "rpos,1,2"; "rview,1,0" ];
  List.iter
    (fun l -> Alcotest.(check bool) l false (Rep.is_rep l))
    [ "op,t0,e,1,2"; "batch,t0,1,e"; "sub,t0"; "sub,t0,44"; "stats"; "bye"; "" ]

(* ------------------------------------------------------------------ *)
(* Replica-topology soaks                                              *)
(* ------------------------------------------------------------------ *)

let small seed scenario =
  {
    Rsoak.default with
    Rsoak.tenants = 2;
    queries = 14;
    elements = 420;
    batch = 6;
    threshold = 700;
    seed;
    faulty_incarnations = 2;
    crash_every = 90;
    scenario;
    cluster =
      {
        Rsoak.default.Rsoak.cluster with
        Cluster.server =
          {
            Rsoak.default.Rsoak.cluster.Cluster.server with
            Server.durable =
              {
                Rts_resilience.Durable.fsync_every = 5;
                (* 10× this must clear even a kill run's volume: a
                   fail-stop loses the accepted-but-unapplied queue tail
                   (at-least-once admission), so leave real headroom
                   against the ~450 scripted ops per tenant *)
                checkpoint_every = 29;
              };
          };
      };
  }

let check_report name report =
  if not report.Rsoak.ok then Alcotest.failf "%s failed:@\n%a" name Rsoak.pp report;
  (* volume is fault-luck-dependent in general, but these seeds are
     pinned: demand the 10× checkpoint-interval soak actually happened *)
  if not report.Rsoak.volume_ok then
    Alcotest.failf "%s fell short of 10x checkpoint-interval volume:@\n%a" name Rsoak.pp report

let test_clean () =
  let report = Rsoak.run ~make (small 5 Rsoak.Clean) in
  check_report "clean" report;
  Alcotest.(check int) "no failover" 0 report.Rsoak.failovers;
  Alcotest.(check int) "primary stays 0" 0 report.Rsoak.promoted;
  Alcotest.(check bool) "pruning ran" true report.Rsoak.pruned_somewhere

let test_kill_failover () =
  let report = Rsoak.run ~make (small 7 (Rsoak.Kill 110)) in
  check_report "kill" report;
  Alcotest.(check bool) "failed over" true (report.Rsoak.failovers >= 1);
  Alcotest.(check bool) "promoted a replica" true (report.Rsoak.promoted <> 0)

let test_wedge_zombie () =
  let report = Rsoak.run ~make (small 9 (Rsoak.Wedge { at = 100; duration = 260 })) in
  check_report "wedge" report;
  Alcotest.(check bool) "failed over" true (report.Rsoak.failovers >= 1);
  Alcotest.(check bool) "zombie frames fenced" true (report.Rsoak.fenced > 0)

(* with one serving node no failover can happen: a kill or wedge
   scenario is refused before the clock runs, not after it spins *)
let test_no_replica_scenario_refused () =
  let one = { Rsoak.default.Rsoak.cluster with Cluster.serving = 1 } in
  List.iter
    (fun scenario ->
      match Rsoak.run ~make { (small 3 scenario) with Rsoak.cluster = one } with
      | exception Invalid_argument _ -> ()
      | report -> Alcotest.failf "ran without a replica:@\n%a" Rsoak.pp report)
    [ Rsoak.Kill 110; Rsoak.Wedge { at = 100; duration = 260 } ]

(* arbitrary seeds, the full scenario matrix *)
let prop_rsoak =
  QCheck.Test.make
    ~count:(Qcheck_env.count 4)
    ~name:"replica soak: archived chain == log == sub across failover"
    QCheck.(pair (int_range 1 10_000) (int_range 0 2))
    (fun (seed, pick) ->
      let scenario =
        match pick with
        | 0 -> Rsoak.Clean
        | 1 -> Rsoak.Kill (80 + (seed mod 90))
        | _ -> Rsoak.Wedge { at = 80 + (seed mod 70); duration = 200 + (seed mod 100) }
      in
      let report = Rsoak.run ~make (small seed scenario) in
      if not report.Rsoak.ok then
        QCheck.Test.fail_reportf "seed %d:@\n%a" seed Rsoak.pp report;
      true)

(* the pinned seeds (RTS_REPLICA_SEEDS widens them) — default config:
   3 serving nodes, kill AND wedge legs, full 10× checkpoint-interval
   volume *)
let replica_seeds = Qcheck_env.seeds "RTS_REPLICA_SEEDS" ~default:[ 2; 11; 23 ]

let test_pinned_seeds () =
  List.iter
    (fun seed ->
      let kill =
        Rsoak.run ~make { Rsoak.default with Rsoak.seed; scenario = Rsoak.Kill 120 }
      in
      check_report (Printf.sprintf "pinned seed %d (kill)" seed) kill;
      let wedge =
        Rsoak.run ~make
          { Rsoak.default with Rsoak.seed; scenario = Rsoak.Wedge { at = 120; duration = 300 } }
      in
      check_report (Printf.sprintf "pinned seed %d (wedge)" seed) wedge;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d wedge fenced zombie frames" seed)
        true (wedge.Rsoak.fenced > 0))
    replica_seeds

let () =
  Alcotest.run "replica"
    [
      ( "rep codec",
        [
          Alcotest.test_case "round-trips" `Quick test_rep_roundtrip;
          Alcotest.test_case "malformed rejected" `Quick test_rep_malformed;
          Alcotest.test_case "verb dispatch" `Quick test_rep_dispatch;
        ] );
      ( "soak",
        [
          Alcotest.test_case "clean replication" `Quick test_clean;
          Alcotest.test_case "kill failover" `Quick test_kill_failover;
          Alcotest.test_case "wedge zombie fenced" `Quick test_wedge_zombie;
          Alcotest.test_case "no replica: kill/wedge refused" `Quick
            test_no_replica_scenario_refused;
          QCheck_alcotest.to_alcotest prop_rsoak;
          Alcotest.test_case "pinned CI seeds" `Slow test_pinned_seeds;
        ] );
    ]
