(* The simulated transport that serving and replication run on
   ({!Rts_serve.Hub}, {!Rts_replica.Cluster}): the virtual clock, the
   fault-spec language, and Reliable's guarantee. For every fault spec
   that eventually delivers (drop < 1, partitions transient), every
   [App] message sent on a link is delivered to the application exactly
   once and in send order, nothing stays unacked at quiescence, and a
   (spec, seed) pair replays one exact delivery trace.

   Every run below drives a star of sites around the coordinator with
   traffic in both directions on every link. The seed sweeps run on
   pinned seeds; RTS_NET_SEEDS (comma-separated) replaces them. *)

module Envelope = Rts_net.Envelope
module Net_fault = Rts_net.Net_fault
module Vclock = Rts_net.Vclock
module Reliable = Rts_net.Reliable
module Prng = Rts_util.Prng
module Metrics = Rts_obs.Metrics

let seeds = Qcheck_env.seeds "RTS_NET_SEEDS" ~default:[ 7; 19; 101 ]

let counter snap name =
  match Metrics.get snap name with
  | Some (Metrics.Counter c) -> c
  | _ -> Alcotest.failf "missing counter %s" name

(* Both directed links of every site. *)
let links ~sites =
  List.concat_map
    (fun i -> [ (Envelope.Site i, Envelope.Coordinator); (Envelope.Coordinator, Envelope.Site i) ])
    (List.init sites Fun.id)

let link_name (src, dst) = Printf.sprintf "%d>%d" (Envelope.node_id src) (Envelope.node_id dst)

let body link i = Printf.sprintf "%s#%d" (link_name link) i

type run = {
  trace : (int * string) list; (* (tick, body) of every delivery, in delivery order *)
  unacked : int;
  metrics : Metrics.snapshot;
}

(* Send message [i] (1..n) on every link at tick [i * spacing], run the
   clock to quiescence, and record what the application saw. *)
let drive ?(config = Reliable.default) ?(spacing = 3) ~spec ~seed ~sites ~n () =
  let clock = Vclock.create () in
  let trace = ref [] in
  let deliver (env : Envelope.t) =
    match env.payload with
    | Envelope.App { body = b } ->
        let expected = link_name (env.src, env.dst) ^ "#" in
        if not (String.starts_with ~prefix:expected b) then
          Alcotest.failf "%s delivered on link %s" b expected;
        trace := (Vclock.now clock, b) :: !trace
    | Envelope.Ack _ -> Alcotest.fail "an ack reached the application"
  in
  let t = Reliable.create ~config ~clock ~rng:(Prng.create ~seed) ~spec ~deliver () in
  let all = links ~sites in
  for i = 1 to n do
    ignore
      (Vclock.schedule clock ~delay:(i * spacing) (fun () ->
           List.iter
             (fun ((src, dst) as l) -> Reliable.send t ~src ~dst (Envelope.App { body = body l i }))
             all))
  done;
  Vclock.run_until_idle clock;
  { trace = List.rev !trace; unacked = Reliable.unacked t; metrics = Reliable.metrics t }

(* Each link delivered exactly its sent sequence, once and in order. *)
let exact ~sites ~n r =
  List.for_all
    (fun l ->
      let prefix = link_name l ^ "#" in
      List.filter_map
        (fun (_, b) -> if String.starts_with ~prefix b then Some b else None)
        r.trace
      = List.init n (fun i -> body l (i + 1)))
    (links ~sites)

let check_exact ctx ~sites ~n r =
  Alcotest.(check bool) (ctx ^ ": every link delivers its sequence once, in order") true
    (exact ~sites ~n r);
  Alcotest.(check int) (ctx ^ ": nothing unacked at quiescence") 0 r.unacked

(* ---- the headline property: random drop/dup/reorder/delay specs with
   transient partitions deliver every link's sequence exactly once, in
   order, and settle every ack. ---- *)

let fault_spec_gen =
  QCheck.Gen.(
    let* drop = float_bound_inclusive 0.5 in
    let* dup = float_bound_inclusive 0.3 in
    let* reorder = float_bound_inclusive 0.5 in
    let* dmin = int_range 1 3 in
    let* dspan = int_range 0 4 in
    let* spread = int_range 1 16 in
    let* partitions =
      list_size (int_range 0 3)
        (let* site = int_range 0 3 in
         let* from = int_range 0 150 in
         let* len = int_range 0 200 in
         return (site, from, from + len))
    in
    return
      {
        Net_fault.none with
        Net_fault.drop;
        duplicate = dup;
        reorder;
        delay_min = dmin;
        delay_max = dmin + dspan;
        reorder_spread = spread;
        partitions;
      })

let prop_exactly_once =
  QCheck.Test.make ~count:(Qcheck_env.count 60)
    ~name:"faulty links deliver every sent sequence once, in order, all acked"
    QCheck.(
      pair
        (make ~print:Net_fault.to_string fault_spec_gen)
        (triple (int_range 1 4) (int_range 1 30) small_int))
    (fun (spec, (sites, n, seed)) ->
      (match Net_fault.validate spec with
      | Ok _ -> ()
      | Error e -> QCheck.Test.fail_reportf "generated an invalid spec: %s" e);
      let r = drive ~spec ~seed ~sites ~n () in
      exact ~sites ~n r && r.unacked = 0)

(* ---- lossless: the fabric Hub runs on. Latency 1, FIFO, nothing
   retransmitted or suppressed, every App answered by one ack. ---- *)

let test_lossless () =
  let sites = 3 and n = 20 and spacing = 3 in
  let r = drive ~spec:Net_fault.none ~seed:1 ~spacing ~sites ~n () in
  check_exact "lossless" ~sites ~n r;
  let sends = 2 * sites * n in
  List.iter
    (fun (tick, b) ->
      let i = int_of_string (List.nth (String.split_on_char '#' b) 1) in
      if tick <> (i * spacing) + 1 then Alcotest.failf "%s delivered at tick %d" b tick)
    r.trace;
  let c = counter r.metrics in
  Alcotest.(check int) "protocol sends" sends (c "net_protocol_sends_total");
  Alcotest.(check int) "one ack per send" sends (c "net_acks_sent_total");
  Alcotest.(check int) "physical sends = sends + acks" (2 * sends) (c "net_sent_total");
  List.iter
    (fun name -> Alcotest.(check int) name 0 (c name))
    [
      "net_retransmits_total";
      "net_dropped_total";
      "net_duplicated_total";
      "net_dup_suppressed_total";
      "net_held_out_of_order_total";
    ]

(* ---- kind-drop sweep: dropping the first transmissions of each
   envelope kind costs retransmissions, never a message. A dropped app
   is retransmitted; a dropped ack makes the sender retransmit, and the
   receiver suppresses the duplicate and acks it again. ---- *)

let test_kind_drop_sweep () =
  List.iter
    (fun seed ->
      List.iter
        (fun kind ->
          List.iter
            (fun k ->
              let ctx = Printf.sprintf "kdrop=%s:%d seed=%d" kind k seed in
              let spec = { Net_fault.none with Net_fault.kind_drop = [ (kind, k) ] } in
              let sites = 3 and n = 12 in
              let r = drive ~spec ~seed ~sites ~n () in
              check_exact ctx ~sites ~n r;
              let c = counter r.metrics in
              Alcotest.(check int) (ctx ^ ": dropped") k (c "net_dropped_total");
              Alcotest.(check bool) (ctx ^ ": every drop retransmitted") true
                (c "net_retransmits_total" >= k);
              if kind = "ack" then begin
                Alcotest.(check bool) (ctx ^ ": duplicates suppressed") true
                  (c "net_dup_suppressed_total" >= k);
                Alcotest.(check bool) (ctx ^ ": re-acked") true
                  (c "net_acks_sent_total" >= c "net_protocol_sends_total" + k)
              end)
            [ 1; 3 ])
        Envelope.kinds)
    seeds

(* ---- partitions: a transient partition black-holes its site's links
   for the window, then heals, and retransmission delivers everything
   sent into it. ---- *)

let test_partition_heals () =
  List.iter
    (fun seed ->
      let partitions = [ (1, 5, 400); (2, 200, 700) ] and delay_max = 2 in
      let spec = { Net_fault.none with Net_fault.partitions; delay_max } in
      let sites = 4 and n = 150 and spacing = 5 in
      let r = drive ~spec ~seed ~spacing ~sites ~n () in
      let ctx = Printf.sprintf "seed=%d" seed in
      check_exact ctx ~sites ~n r;
      List.iter
        (fun (site, from, until) ->
          let on_site b =
            List.exists
              (fun l -> String.starts_with ~prefix:(link_name l ^ "#") b)
              [ (Envelope.Site site, Envelope.Coordinator); (Envelope.Coordinator, Envelope.Site site) ]
          in
          (* In flight at [from] may still land until [from + delay_max]. *)
          List.iter
            (fun (tick, b) ->
              if on_site b && tick > from + delay_max && tick <= until then
                Alcotest.failf "%s: %s delivered at %d inside site %d's partition" ctx b tick site)
            r.trace;
          Alcotest.(check bool)
            (Printf.sprintf "%s: site %d traffic resumes after the heal" ctx site)
            true
            (List.exists (fun (tick, b) -> on_site b && tick > until) r.trace))
        partitions;
      Alcotest.(check bool) (ctx ^ ": partitions cost retransmissions") true
        (counter r.metrics "net_retransmits_total" > 0))
    seeds

(* ---- fault-spec parser ---- *)

let test_fault_parse () =
  (match Net_fault.parse "drop=0.2,dup=0.1,reorder=0.3,delay=1-4,spread=12,flaky=0:0.5,partition=2@10-500,kdrop=app:2" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok sp ->
      Alcotest.(check (float 1e-9)) "drop" 0.2 sp.Net_fault.drop;
      Alcotest.(check (float 1e-9)) "dup" 0.1 sp.Net_fault.duplicate;
      Alcotest.(check int) "delay_min" 1 sp.Net_fault.delay_min;
      Alcotest.(check int) "delay_max" 4 sp.Net_fault.delay_max;
      Alcotest.(check int) "spread" 12 sp.Net_fault.reorder_spread;
      Alcotest.(check bool) "flaky" true (sp.Net_fault.flaky = [ (0, 0.5) ]);
      Alcotest.(check bool) "partition" true (sp.Net_fault.partitions = [ (2, 10, 500) ]);
      Alcotest.(check bool) "kdrop" true (sp.Net_fault.kind_drop = [ ("app", 2) ]);
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

(* ---- envelope kinds: the names kdrop accepts are exactly the two
   payload constructors ---- *)

let test_envelope_kinds () =
  Alcotest.(check (list string)) "kind of each payload" [ "app"; "ack" ]
    [ Envelope.kind (Envelope.App { body = "" }); Envelope.kind (Envelope.Ack { ack = 1 }) ];
  Alcotest.(check (list string)) "kinds" [ "app"; "ack" ] Envelope.kinds;
  List.iter
    (fun k ->
      match Net_fault.parse ("kdrop=" ^ k ^ ":1") with
      | Ok sp -> Alcotest.(check bool) (k ^ " parsed") true (sp.Net_fault.kind_drop = [ (k, 1) ])
      | Error e -> Alcotest.failf "kdrop=%s:1 refused: %s" k e)
    Envelope.kinds;
  List.iter
    (fun k ->
      match Net_fault.parse ("kdrop=" ^ k ^ ":1") with
      | Ok _ -> Alcotest.failf "kdrop=%s:1 accepted" k
      | Error _ -> ())
    [ "slack"; "signal"; "round_end"; "collect"; "report" ]

(* ---- deterministic replay: same spec + seed => identical delivery
   trace and counters; a different seed draws a different trace with
   the same per-link sequences. ---- *)

let test_deterministic_replay () =
  let sites = 4 and n = 40 in
  List.iter
    (fun spec ->
      let name = Net_fault.to_string spec in
      let a = drive ~spec ~seed:5 ~sites ~n () and b = drive ~spec ~seed:5 ~sites ~n () in
      let c = drive ~spec ~seed:6 ~sites ~n () in
      Alcotest.(check (list (pair int string))) (name ^ ": same seed, identical trace") a.trace
        b.trace;
      Alcotest.(check bool) (name ^ ": same seed, identical counters") true
        (a.metrics = b.metrics);
      check_exact (name ^ " seed 6") ~sites ~n c;
      Alcotest.(check bool) (name ^ ": different seed, different trace") true
        (a.trace <> c.trace))
    [
      { Net_fault.none with Net_fault.drop = 0.3; duplicate = 0.2; reorder = 0.3; delay_max = 4 };
      {
        Net_fault.none with
        Net_fault.drop = 0.25;
        duplicate = 0.15;
        reorder = 0.3;
        delay_max = 4;
        partitions = [ (0, 20, 90) ];
        flaky = [ (3, 0.3) ];
      };
    ]

(* ---- accounting at quiescence: every unique send was delivered once,
   and every physical transmission is accounted for. ---- *)

let test_metrics_surface () =
  let spec =
    { Net_fault.none with Net_fault.drop = 0.2; duplicate = 0.1; reorder = 0.2; delay_max = 3 }
  in
  List.iter
    (fun seed ->
      let sites = 4 and n = 30 in
      let r = drive ~spec ~seed ~sites ~n () in
      let ctx = Printf.sprintf "seed=%d" seed in
      check_exact ctx ~sites ~n r;
      let c = counter r.metrics in
      let sends = c "net_protocol_sends_total" in
      Alcotest.(check int) (ctx ^ ": sends = application sends") (2 * sites * n) sends;
      (* Every App arrival is acked; the ones not suppressed as
         duplicates are the deliveries. *)
      Alcotest.(check int) (ctx ^ ": sends = deliveries") sends
        (c "net_acks_sent_total" - c "net_dup_suppressed_total");
      Alcotest.(check int) (ctx ^ ": deliveries the application saw") sends
        (List.length r.trace);
      Alcotest.(check int) (ctx ^ ": transmissions = sends + retransmits + acks")
        (sends + c "net_retransmits_total" + c "net_acks_sent_total")
        (c "net_sent_total");
      Alcotest.(check int) (ctx ^ ": transmissions = dropped + delivered - duplicated")
        (c "net_sent_total")
        (c "net_dropped_total" + c "net_delivered_total" - c "net_duplicated_total");
      Alcotest.(check bool) (ctx ^ ": faults happened") true
        (c "net_dropped_total" > 0 && c "net_duplicated_total" > 0
        && c "net_held_out_of_order_total" > 0))
    seeds

(* ---- backoff jitter + epoch stamping ---- *)

(* Drive N sends over a lossy link and record (tick, index) for every
   delivery. Everything is seeded, so a (seed, jitter) pair names one
   exact retransmission schedule. *)
let reliable_run ~jitter ~seed ~n =
  let clock = Vclock.create () in
  let rng = Prng.create ~seed in
  let spec = { Net_fault.none with Net_fault.drop = 0.35 } in
  let log = ref [] in
  let deliver env =
    match env.Envelope.payload with
    | Envelope.App { body } -> log := (Vclock.now clock, int_of_string body) :: !log
    | Envelope.Ack _ -> ()
  in
  let t =
    Reliable.create
      ~config:{ Reliable.default with Reliable.rto = 6; jitter }
      ~clock ~rng ~spec ~deliver ()
  in
  for i = 1 to n do
    Reliable.send t ~src:(Envelope.Site 0) ~dst:Envelope.Coordinator
      (Envelope.App { body = string_of_int i })
  done;
  Vclock.run_until_idle clock;
  (List.rev !log, counter (Reliable.metrics t) "net_retransmits_total")

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
      ()
  in
  Reliable.send t ~src:(Envelope.Site 0) ~dst:Envelope.Coordinator
    (Envelope.App { body = "1" });
  Reliable.send ~epoch:7 t ~src:(Envelope.Site 0) ~dst:Envelope.Coordinator
    (Envelope.App { body = "2" });
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
          Alcotest.test_case "envelope kinds" `Quick test_envelope_kinds;
          Alcotest.test_case "lossless fabric" `Quick test_lossless;
          Alcotest.test_case "kind-drop sweep" `Quick test_kind_drop_sweep;
          Alcotest.test_case "partition heals" `Quick test_partition_heals;
          Alcotest.test_case "deterministic replay" `Quick test_deterministic_replay;
          Alcotest.test_case "metrics surface" `Quick test_metrics_surface;
          Alcotest.test_case "reliable jitter deterministic" `Quick
            test_reliable_jitter_deterministic;
          Alcotest.test_case "reliable epoch stamped" `Quick test_reliable_epoch_stamped;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest prop_exactly_once ]);
    ]
