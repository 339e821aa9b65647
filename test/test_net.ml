(* Networked distributed tracking: the headline robustness property of
   the transport layer. For every fault schedule that eventually delivers
   (drop < 1, partitions transient), the networked protocol must mature
   on exactly the same increment ordinal as the zero-fault run, must
   never be early (estimate <= truth throughout), and its useful message
   traffic must stay within the O(h log tau) bound. Degraded links trade
   the bound for per-update traffic but keep never-early detection.

   The seed sweeps run on pinned seeds; RTS_NET_SEEDS (comma-separated)
   replaces them. *)

module Dt = Rts_dt.Distributed_tracking
module Nt = Rts_dt.Net_tracking
module Envelope = Rts_net.Envelope
module Net_fault = Rts_net.Net_fault
module Vclock = Rts_net.Vclock
module Reliable = Rts_net.Reliable
module Net_shadow = Rts_netcheck.Net_shadow
module Engine = Rts_core.Engine
module Prng = Rts_util.Prng
module Metrics = Rts_obs.Metrics

let seeds = Qcheck_env.seeds "RTS_NET_SEEDS" ~default:[ 7; 19; 101 ]

let nt_config ?(faults = Net_fault.none) ?(seed = 1) ?(reliable = Reliable.default) () =
  { Nt.default with Nt.faults; seed; reliable }

(* Drive classic and networked instances in lockstep over the same
   schedule; check the maturity ordinal and the never-early invariant at
   every step, and that both end on the same total (also when the
   schedule stops short of tau). Returns (classic, networked, ordinal). *)
let lockstep ~h ~tau ~config schedule =
  let classic = Dt.create ~h ~tau in
  let net = Nt.create ~config ~h ~tau () in
  let ordinal = ref None in
  List.iteri
    (fun i (site, by) ->
      if !ordinal = None then begin
        let m_classic = Dt.increment classic ~site ~by in
        let m_net = Nt.increment net ~site ~by in
        Alcotest.(check bool)
          (Printf.sprintf "estimate <= total at step %d" (i + 1))
          true
          (Nt.estimate net <= Nt.total net);
        Alcotest.(check bool)
          (Printf.sprintf "same maturity verdict at step %d (classic=%b net=%b)" (i + 1)
             m_classic m_net)
          true (m_classic = m_net);
        if m_classic then ordinal := Some (i + 1)
      end)
    schedule;
  Alcotest.(check int) "classic total = networked total" (Dt.total classic) (Nt.total net);
  (classic, net, !ordinal)

let random_schedule ~rng ~h ~n ~max_by =
  List.init n (fun _ -> (Prng.int rng h, 1 + Prng.int rng max_by))

(* ---- zero-fault parity: the lossless network reproduces the classic
   run exactly — ordinal, message count, and accounting identity. ---- *)

let test_zero_fault_parity () =
  List.iter
    (fun (h, tau, seed) ->
      let rng = Prng.create ~seed in
      let schedule = random_schedule ~rng ~h ~n:(tau + 10) ~max_by:3 in
      let classic, net, ordinal =
        lockstep ~h ~tau ~config:(nt_config ()) schedule
      in
      Alcotest.(check bool) "matured" true (ordinal <> None);
      (* Lossless: every unique send is delivered, nothing is stale, and
         the wire traffic equals the classic run's message count. *)
      Alcotest.(check int)
        (Printf.sprintf "deliveries = sends (h=%d tau=%d)" h tau)
        (Nt.messages net) (Nt.deliveries net);
      Alcotest.(check int) "no stale traffic" 0 (Nt.stale net);
      Alcotest.(check int)
        (Printf.sprintf "useful messages = classic messages (h=%d tau=%d)" h tau)
        (Dt.messages classic) (Nt.useful_messages net);
      Alcotest.(check int) "same rounds" (Dt.rounds classic) (Nt.rounds net);
      Alcotest.(check int) "no retransmits" 0 (Nt.retransmits net))
    [ (1, 37, 1); (3, 200, 2); (4, 997, 3); (8, 5_000, 4); (16, 20_000, 5) ]

(* ---- headline property: fault schedules that eventually deliver give
   the exact zero-fault maturity ordinal. ---- *)

let fault_spec_gen =
  QCheck.Gen.(
    let* drop = float_bound_inclusive 0.5 in
    let* dup = float_bound_inclusive 0.3 in
    let* reorder = float_bound_inclusive 0.5 in
    let* dmin = int_range 1 3 in
    let* dspan = int_range 0 4 in
    let* spread = int_range 1 16 in
    return
      {
        Net_fault.none with
        Net_fault.drop;
        duplicate = dup;
        reorder;
        delay_min = dmin;
        delay_max = dmin + dspan;
        reorder_spread = spread;
      })

let prop_fault_equivalence =
  QCheck.Test.make ~count:(Qcheck_env.count 60)
    ~name:"faulty run = zero-fault run (maturity ordinal, useful messages, bound)"
    QCheck.(
      pair
        (make ~print:(fun s -> Net_fault.to_string s) fault_spec_gen)
        (triple (int_range 1 8) (int_range 1 2_000) small_int))
    (fun (faults, (h, tau, seed)) ->
      let rng = Prng.create ~seed in
      let schedule = random_schedule ~rng ~h ~n:(tau + 10) ~max_by:5 in
      let classic = Dt.create ~h ~tau in
      let net =
        Nt.create
          ~config:
            (nt_config ~faults ~seed:(seed + 1)
               (* huge budget: we are testing equivalence, not degradation *)
               ~reliable:{ Reliable.default with degrade_after = max_int / 2 }
               ())
          ~h ~tau ()
      in
      let ok = ref true in
      let mature = ref false in
      List.iter
        (fun (site, by) ->
          if not !mature then begin
            let a = Dt.increment classic ~site ~by in
            let b = Nt.increment net ~site ~by in
            if a <> b then ok := false;
            if Nt.estimate net > Nt.total net then ok := false;
            if a then mature := true
          end)
        schedule;
      !ok && !mature
      && Nt.degraded_sites net = 0
      && Nt.useful_messages net = Dt.messages classic
      && Nt.useful_messages net <= Dt.message_bound ~h ~tau
      && Nt.deliveries net = Nt.messages net)

(* ---- pinned-seed exhaustive sweep: drop the first transmissions of
   every envelope kind and re-check equivalence. Retransmission must
   absorb each loss. ---- *)

let test_kind_drop_sweep () =
  List.iter
    (fun seed ->
      List.iter
        (fun kind ->
          List.iter
            (fun n ->
              let h = 5 and tau = 600 in
              let faults = { Net_fault.none with Net_fault.kind_drop = [ (kind, n) ] } in
              let rng = Prng.create ~seed in
              let schedule = random_schedule ~rng ~h ~n:(tau + 10) ~max_by:4 in
              let _, net, ordinal =
                lockstep ~h ~tau
                  ~config:
                    (nt_config ~faults ~seed
                       ~reliable:{ Reliable.default with degrade_after = max_int / 2 }
                       ())
                  schedule
              in
              Alcotest.(check bool)
                (Printf.sprintf "matured (kind=%s n=%d seed=%d)" kind n seed)
                true (ordinal <> None);
              (* The dropped transmissions were retransmitted. Acks are
                 raw (a lost ack just causes a duplicate), and collect
                 requests only exist after degradation — that kind's drop
                 coverage lives in the degradation test. *)
              if List.mem kind [ "slack"; "signal"; "round_end"; "report" ] then
                Alcotest.(check bool)
                  (Printf.sprintf "retransmits >= 1 (kind=%s n=%d)" kind n)
                  true
                  (Nt.retransmits net >= 1))
            [ 1; 3 ])
        Envelope.kinds)
    seeds

(* ---- degradation: a link over its loss budget switches to direct
   forwarding; correctness (never-early + eventual detection) holds and
   the accounting shows the degraded site. ---- *)

let test_degradation () =
  List.iter
    (fun seed ->
      let h = 4 and tau = 2_000 in
      let faults =
        {
          Net_fault.none with
          Net_fault.flaky = [ (0, 0.9) ];
          delay_max = 3;
          (* Also drop the first post-degradation collect requests: the
             exhaustive kind sweep's coverage for the "collect" kind. *)
          kind_drop = [ ("collect", 2) ];
        }
      in
      let net =
        Nt.create
          ~config:(nt_config ~faults ~seed ~reliable:{ Reliable.default with degrade_after = 8 } ())
          ~h ~tau ()
      in
      let truth = ref 0 in
      let rng = Prng.create ~seed in
      let matured_at = ref None in
      let i = ref 0 in
      while !matured_at = None && !i < 3 * tau do
        incr i;
        let site = Prng.int rng h in
        let by = 1 + Prng.int rng 3 in
        truth := !truth + by;
        let m = Nt.increment net ~site ~by in
        (* Never early: no maturity before the true crossing. *)
        if m && !truth < tau then Alcotest.fail "matured before threshold";
        Alcotest.(check bool) "estimate <= total" true (Nt.estimate net <= Nt.total net);
        if m then matured_at := Some !i
      done;
      Alcotest.(check bool) (Printf.sprintf "matured (seed=%d)" seed) true (!matured_at <> None);
      Alcotest.(check bool) "site 0 degraded" true (Nt.is_degraded net 0);
      Alcotest.(check bool) "degraded count positive" true (Nt.degraded_sites net > 0);
      let snap = Nt.metrics net in
      Alcotest.(check bool) "net_degraded_sites metric > 0" true
        (match Metrics.get snap "net_degraded_sites" with
        | Some (Metrics.Gauge g) -> g > 0.
        | _ -> false))
    seeds

(* ---- partitions: a transient partition heals and the run still
   matches the zero-fault ordinal. ---- *)

let test_partition_heals () =
  List.iter
    (fun seed ->
      let h = 4 and tau = 800 in
      let faults =
        {
          Net_fault.none with
          Net_fault.partitions = [ (1, 5, 400); (2, 200, 700) ];
          delay_max = 2;
        }
      in
      let rng = Prng.create ~seed in
      let schedule = random_schedule ~rng ~h ~n:(tau + 10) ~max_by:3 in
      let _, _, ordinal =
        lockstep ~h ~tau
          ~config:
            (nt_config ~faults ~seed
               ~reliable:{ Reliable.default with degrade_after = max_int / 2 }
               ())
          schedule
      in
      Alcotest.(check bool) (Printf.sprintf "matured (seed=%d)" seed) true (ordinal <> None))
    seeds

(* ---- fault-spec parser ---- *)

let test_fault_parse () =
  (match Net_fault.parse "drop=0.2,dup=0.1,reorder=0.3,delay=1-4,spread=12,flaky=0:0.5,partition=2@10-500,kdrop=signal:2" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok sp ->
      Alcotest.(check (float 1e-9)) "drop" 0.2 sp.Net_fault.drop;
      Alcotest.(check (float 1e-9)) "dup" 0.1 sp.Net_fault.duplicate;
      Alcotest.(check int) "delay_min" 1 sp.Net_fault.delay_min;
      Alcotest.(check int) "delay_max" 4 sp.Net_fault.delay_max;
      Alcotest.(check int) "spread" 12 sp.Net_fault.reorder_spread;
      Alcotest.(check bool) "flaky" true (sp.Net_fault.flaky = [ (0, 0.5) ]);
      Alcotest.(check bool) "partition" true (sp.Net_fault.partitions = [ (2, 10, 500) ]);
      Alcotest.(check bool) "kdrop" true (sp.Net_fault.kind_drop = [ ("signal", 2) ]);
      (* Round-trip through the canonical rendering. *)
      (match Net_fault.parse (Net_fault.to_string sp) with
      | Ok sp' -> Alcotest.(check bool) "round-trip" true (sp = sp')
      | Error e -> Alcotest.failf "round-trip failed: %s" e));
  (match Net_fault.parse "" with
  | Ok sp -> Alcotest.(check bool) "empty = none" true (sp = Net_fault.none)
  | Error e -> Alcotest.failf "empty: %s" e);
  List.iter
    (fun bad ->
      match Net_fault.parse bad with
      | Ok _ -> Alcotest.failf "accepted invalid spec %S" bad
      | Error _ -> ())
    [
      "drop=1.0" (* loss must stay < 1 *);
      "drop=-0.1";
      "delay=0-4" (* latency >= 1 *);
      "delay=4-1";
      "partition=2" (* partitions must heal *);
      "flaky=0:1.5";
      "kdrop=bogus:1" (* unknown envelope kind *);
      "nonsense=1";
    ]

(* ---- deterministic replay: same spec + seed => identical trajectory;
   different seed => (almost surely) different fault pattern, same
   ordinal. Every run is held step by step against the classic protocol
   under the default (degrading) reliability config, including runs cut
   short of tau. ---- *)

let test_deterministic_replay () =
  let h = 4 and tau = 500 in
  let run ~faults ~n seed =
    let rng = Prng.create ~seed:99 in
    let schedule = random_schedule ~rng ~h ~n ~max_by:3 in
    let _, net, ordinal = lockstep ~h ~tau ~config:(nt_config ~faults ~seed ()) schedule in
    (ordinal, Nt.messages net, Nt.deliveries net, Nt.retransmits net, Nt.stale net)
  in
  let ord_of (o, _, _, _, _) = o in
  List.iter
    (fun faults ->
      let spec = Net_fault.to_string faults in
      let a = run ~faults ~n:(tau + 10) 5 and b = run ~faults ~n:(tau + 10) 5 in
      let c = run ~faults ~n:(tau + 10) 6 in
      Alcotest.(check bool) (spec ^ ": same seed, identical trajectory") true (a = b);
      Alcotest.(check bool) (spec ^ ": different seed, same ordinal") true (ord_of a = ord_of c);
      (* At most 3 per step over tau / 4 steps: no maturity, equal totals. *)
      Alcotest.(check bool) (spec ^ ": no maturity short of tau") true
        (ord_of (run ~faults ~n:(tau / 4) 7) = None))
    [
      { Net_fault.none with Net_fault.drop = 0.3; duplicate = 0.2; reorder = 0.3; delay_max = 4 };
      { Net_fault.none with Net_fault.drop = 0.25; duplicate = 0.15; reorder = 0.3; delay_max = 4 };
    ]

(* ---- three engines under one faulty shadow: identical maturity logs,
   all bit-identical to the zero-fault run. ---- *)

let test_three_engine_shadow () =
  let module Types = Rts_core.Types in
  let module Generator = Rts_workload.Generator in
  let dim = 1 in
  let engines : (string * (unit -> Engine.t)) list =
    [
      ("dt", fun () -> Rts_core.Dt_engine.make ~dim);
      ("baseline", fun () -> Rts_core.Baseline_engine.make ~dim);
      ("interval-tree", fun () -> Rts_core.Stab1d_engine.make ());
    ]
  in
  let specs =
    [
      Net_fault.none;
      { Net_fault.none with Net_fault.drop = 0.25; duplicate = 0.15; reorder = 0.3; delay_max = 4 };
    ]
  in
  let run spec (name, make) =
    let gen = Generator.create ~dim ~seed:77 () in
    let shadow =
      Net_shadow.create
        ~config:{ Net_shadow.default with Net_shadow.faults = spec; seed = 13; sites = 3 }
        ~dim ()
    in
    let engine = Net_shadow.wrap shadow (make ()) in
    let queries = List.init 30 (fun id -> Generator.query gen ~id ~threshold:400) in
    engine.Engine.register_batch queries;
    let log = ref [] in
    for i = 1 to 1_200 do
      let matured = engine.Engine.process (Generator.element gen) in
      List.iter (fun id -> log := (i, id) :: !log) matured
    done;
    Alcotest.(check int) (name ^ ": no mismatches") 0 (Net_shadow.mismatches shadow);
    Alcotest.(check bool) (name ^ ": never early") true (Net_shadow.never_early_ok shadow);
    List.rev !log
  in
  (* All engines, all specs: one identical maturity log. *)
  let reference = run (List.hd specs) (List.hd engines) in
  Alcotest.(check bool) "reference log nonempty" true (reference <> []);
  List.iter
    (fun spec ->
      List.iter
        (fun engine ->
          let log = run spec engine in
          Alcotest.(check bool)
            (Printf.sprintf "%s log = zero-fault dt log" (fst engine))
            true (log = reference))
        engines)
    specs

(* ---- accounting identity + metrics surface ---- *)

let test_metrics_surface () =
  let faults = { Net_fault.none with Net_fault.drop = 0.2; duplicate = 0.1; delay_max = 3 } in
  let net = Nt.create ~config:(nt_config ~faults ~seed:3 ()) ~h:4 ~tau:300 () in
  let i = ref 0 in
  while not (Nt.is_mature net) do
    incr i;
    ignore (Nt.increment net ~site:(!i mod 4) ~by:1)
  done;
  let snap = Nt.metrics net in
  let counter name =
    match Metrics.get snap name with
    | Some (Metrics.Counter c) -> c
    | _ -> Alcotest.failf "missing counter %s" name
  in
  (* At quiescence every unique protocol send was delivered exactly once. *)
  Alcotest.(check int) "sends = machine deliveries" (counter "net_protocol_sends_total")
    (counter "net_machine_deliveries_total");
  Alcotest.(check int) "useful = deliveries - stale"
    (counter "net_machine_deliveries_total" - counter "net_stale_total")
    (counter "net_useful_messages_total");
  List.iter
    (fun name -> ignore (counter name))
    [ "net_sent_total"; "net_dropped_total"; "net_retransmits_total"; "net_acks_sent_total" ];
  Alcotest.(check bool) "mature gauge" true
    (match Metrics.get snap "net_mature" with Some (Metrics.Gauge 1.0) -> true | _ -> false)

(* ---- reliable fabric directly: backoff jitter + epoch stamping ---- *)

(* Drive N sends over a lossy link and record (tick, round) for every
   delivery. Everything is seeded, so a (seed, jitter) pair names one
   exact retransmission schedule. *)
let reliable_run ~jitter ~seed ~n =
  let clock = Vclock.create () in
  let rng = Prng.create ~seed in
  let spec = { Net_fault.none with Net_fault.drop = 0.35 } in
  let log = ref [] in
  let deliver env =
    match env.Envelope.payload with
    | Envelope.Signal { round } -> log := (Vclock.now clock, round) :: !log
    | _ -> ()
  in
  let t =
    Reliable.create
      ~config:{ Reliable.default with Reliable.rto = 6; jitter }
      ~clock ~rng ~spec ~deliver
      ~on_degrade:(fun _ -> ())
      ()
  in
  for i = 1 to n do
    Reliable.send t ~src:(Envelope.Site 0) ~dst:Envelope.Coordinator
      (Envelope.Signal { round = i })
  done;
  Vclock.run_until_idle clock;
  (List.rev !log, Reliable.retransmits t)

let test_reliable_jitter_deterministic () =
  (* same seed, same jitter: bit-identical delivery schedule — jitter
     draws come from a seeded PRNG, not wall-clock noise *)
  List.iter
    (fun jitter ->
      let a = reliable_run ~jitter ~seed:42 ~n:40 in
      let b = reliable_run ~jitter ~seed:42 ~n:40 in
      Alcotest.(check bool)
        (Printf.sprintf "jitter=%.1f replays identically" jitter)
        true (a = b))
    [ 0.0; 0.3; 1.0 ];
  let base, base_rx = reliable_run ~jitter:0.0 ~seed:42 ~n:40 in
  let jit, jit_rx = reliable_run ~jitter:0.5 ~seed:42 ~n:40 in
  (* loss is real on this link, so backoff (and thus jitter) is exercised *)
  Alcotest.(check bool) "retransmissions happened" true (base_rx > 0 && jit_rx > 0);
  (* jitter may stretch timeouts but never breaks exactly-once in-order
     delivery: the payload sequence is the same either way *)
  Alcotest.(check (list int)) "delivery order unaffected by jitter"
    (List.map snd base) (List.map snd jit);
  (* the jitter PRNG is a private copy: enabling jitter must not perturb
     the fault injector's draws, so the first transmission of the first
     message meets the same fate (delivered or dropped) in both runs *)
  Alcotest.(check bool) "first delivery tick shared or later under jitter" true
    (match (base, jit) with
    | (t0, _) :: _, (t1, _) :: _ -> t1 >= t0
    | _ -> false)

let test_reliable_epoch_stamped () =
  let clock = Vclock.create () in
  let rng = Prng.create ~seed:5 in
  let epochs = ref [] in
  let t =
    Reliable.create ~config:Reliable.default ~clock ~rng ~spec:Net_fault.none
      ~deliver:(fun env -> epochs := env.Envelope.epoch :: !epochs)
      ~on_degrade:(fun _ -> ())
      ()
  in
  Reliable.send t ~src:(Envelope.Site 0) ~dst:Envelope.Coordinator
    (Envelope.Signal { round = 1 });
  Reliable.send ~epoch:7 t ~src:(Envelope.Site 0) ~dst:Envelope.Coordinator
    (Envelope.Signal { round = 2 });
  Vclock.run_until_idle clock;
  Alcotest.(check (list int)) "default epoch 0, explicit stamped" [ 0; 7 ]
    (List.rev !epochs)

(* ---- vclock sanity ---- *)

let test_vclock () =
  let clock = Vclock.create () in
  let log = ref [] in
  let _ = Vclock.schedule clock ~delay:5 (fun () -> log := 5 :: !log) in
  let t2 = Vclock.schedule clock ~delay:2 (fun () -> log := 2 :: !log) in
  let _ = Vclock.schedule clock ~delay:9 (fun () -> log := 9 :: !log) in
  let _ = Vclock.schedule clock ~delay:2 (fun () -> log := 20 :: !log) in
  Vclock.cancel clock t2;
  Vclock.run_until_idle clock;
  Alcotest.(check (list int)) "order, cancellation honoured" [ 9; 5; 20 ] !log;
  Alcotest.(check int) "idle" 0 (Vclock.pending clock)

let () =
  Alcotest.run "net"
    [
      ( "unit",
        [
          Alcotest.test_case "vclock" `Quick test_vclock;
          Alcotest.test_case "fault spec parse" `Quick test_fault_parse;
          Alcotest.test_case "zero-fault parity" `Quick test_zero_fault_parity;
          Alcotest.test_case "kind-drop sweep" `Quick test_kind_drop_sweep;
          Alcotest.test_case "degradation" `Quick test_degradation;
          Alcotest.test_case "partition heals" `Quick test_partition_heals;
          Alcotest.test_case "deterministic replay" `Quick test_deterministic_replay;
          Alcotest.test_case "three engines, one shadow" `Quick test_three_engine_shadow;
          Alcotest.test_case "metrics surface" `Quick test_metrics_surface;
          Alcotest.test_case "reliable jitter deterministic" `Quick
            test_reliable_jitter_deterministic;
          Alcotest.test_case "reliable epoch stamped" `Quick test_reliable_epoch_stamped;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest prop_fault_equivalence ]);
    ]
