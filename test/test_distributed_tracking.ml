(* Distributed_tracking: exactness of maturity detection (unweighted:
   maturity exactly at the tau-th increment; weighted: at the first
   crossing), the O(h log tau) message bound, and round-count behaviour —
   under adversarial increment schedules (round-robin, single hot site,
   huge weights, alternating). *)

module Dt = Distributed_tracking
module Prng = Rts_util.Prng

(* Drive an instance with a schedule of (site, weight) increments; return
   the 1-based index of the increment at which it matured (or None). *)
let drive t schedule =
  let matured_at = ref None in
  List.iteri
    (fun i (site, by) ->
      if !matured_at = None then
        if Dt.increment t ~site ~by then matured_at := Some (i + 1))
    schedule;
  !matured_at

let test_unweighted_exact_maturity () =
  (* Unweighted: total = number of increments, so maturity must land
     exactly on the tau-th increment whatever the site pattern. *)
  List.iter
    (fun (h, tau, pattern_seed) ->
      let t = Dt.create ~h ~tau in
      let rng = Prng.create ~seed:pattern_seed in
      let schedule = List.init (tau + 10) (fun _ -> (Prng.int rng h, 1)) in
      match drive t schedule with
      | Some at ->
          Alcotest.(check int) (Printf.sprintf "h=%d tau=%d" h tau) tau at;
          Alcotest.(check bool) "flag set" true (Dt.is_mature t)
      | None -> Alcotest.fail "never matured")
    [ (1, 1, 1); (1, 100, 2); (3, 7, 3); (4, 1000, 4); (16, 257, 5); (7, 6, 6); (5, 30, 7) ]

let test_round_robin_exact () =
  let h = 8 and tau = 500 in
  let t = Dt.create ~h ~tau in
  let schedule = List.init (tau + 5) (fun i -> (i mod h, 1)) in
  Alcotest.(check (option int)) "exact at tau" (Some tau) (drive t schedule)

let test_single_hot_site () =
  (* All increments at one site: the slack inspection happens at a single
     participant; maturity must still be exact. *)
  let h = 8 and tau = 500 in
  let t = Dt.create ~h ~tau in
  let schedule = List.init (tau + 5) (fun _ -> (0, 1)) in
  Alcotest.(check (option int)) "exact at tau" (Some tau) (drive t schedule)

let test_weighted_first_crossing () =
  (* Weighted: maturity at the first increment where the running total
     reaches tau. Check against a scalar accumulator. *)
  List.iter
    (fun seed ->
      let rng = Prng.create ~seed in
      let h = 1 + Prng.int rng 10 in
      let tau = 1 + Prng.int rng 10_000 in
      let t = Dt.create ~h ~tau in
      let total = ref 0 in
      let expected = ref None in
      let schedule =
        List.init 5_000 (fun i ->
            let by = 1 + Prng.int rng 50 in
            if !expected = None then begin
              total := !total + by;
              if !total >= tau then expected := Some (i + 1)
            end;
            (Prng.int rng h, by))
      in
      Alcotest.(check (option int))
        (Printf.sprintf "seed=%d h=%d tau=%d" seed h tau)
        !expected (drive t schedule))
    [ 11; 12; 13; 14; 15; 16; 17; 18; 19; 20 ]

let test_huge_single_weight () =
  (* One increment vastly exceeding tau must mature immediately. *)
  let t = Dt.create ~h:8 ~tau:1_000_000 in
  Alcotest.(check bool) "immediate" true (Dt.increment t ~site:3 ~by:5_000_000);
  Alcotest.(check bool) "flag" true (Dt.is_mature t)

let test_weighted_work_is_not_tau () =
  (* Section 7's point: CPU work must scale with the number of increments,
     not with tau. With tau = 50M reached in ~1000 increments, the naive
     unit-increment reduction would do 5*10^7 steps; the real protocol must
     finish fast. We bound it indirectly via a wall-clock sanity check. *)
  let tau = 50_000_000 in
  let t = Dt.create ~h:16 ~tau in
  let t0 = Unix.gettimeofday () in
  let i = ref 0 in
  while not (Dt.is_mature t) do
    ignore (Dt.increment t ~site:(!i mod 16) ~by:50_000);
    incr i
  done;
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "finished in ~1000 increments" true (!i <= tau / 50_000 + 1);
  Alcotest.(check bool) "fast (not O(tau))" true (dt < 1.

  )

let test_message_bound () =
  List.iter
    (fun seed ->
      let rng = Prng.create ~seed in
      let h = 1 + Prng.int rng 32 in
      let tau = 1 + Prng.int rng 1_000_000 in
      let t = Dt.create ~h ~tau in
      let bound = Dt.message_bound ~h ~tau in
      while not (Dt.is_mature t) do
        ignore (Dt.increment t ~site:(Prng.int rng h) ~by:(1 + Prng.int rng 20))
      done;
      Alcotest.(check bool)
        (Printf.sprintf "messages %d <= bound %d (h=%d tau=%d)" (Dt.messages t) bound h tau)
        true
        (Dt.messages t <= bound))
    [ 31; 32; 33; 34; 35; 36; 37; 38 ]

let test_messages_beat_naive () =
  (* The whole point: for tau >> h, messages << tau (naive cost). *)
  let h = 8 and tau = 1_000_000 in
  let t = Dt.create ~h ~tau in
  let i = ref 0 in
  while not (Dt.is_mature t) do
    ignore (Dt.increment t ~site:(!i mod h) ~by:1);
    incr i
  done;
  Alcotest.(check bool)
    (Printf.sprintf "messages %d << tau %d" (Dt.messages t) tau)
    true
    (Dt.messages t * 100 < tau)

let test_rounds_logarithmic () =
  let h = 4 and tau = 1_000_000 in
  let t = Dt.create ~h ~tau in
  let i = ref 0 in
  while not (Dt.is_mature t) do
    ignore (Dt.increment t ~site:(!i mod h) ~by:1);
    incr i
  done;
  (* Each round shrinks tau by >= 1/3: rounds <= log_{3/2}(tau) ~ 35. *)
  Alcotest.(check bool)
    (Printf.sprintf "rounds %d logarithmic" (Dt.rounds t))
    true
    (Dt.rounds t <= 40)

let test_small_tau_direct () =
  (* tau <= 6h starts in direct mode: zero rounds, exact detection. *)
  let h = 10 and tau = 42 in
  let t = Dt.create ~h ~tau in
  let schedule = List.init 60 (fun i -> (i mod h, 1)) in
  Alcotest.(check (option int)) "exact" (Some tau) (drive t schedule);
  Alcotest.(check int) "no rounds" 0 (Dt.rounds t)

(* Raise [f], expect [Invalid_argument msg], return [msg]. *)
let capture_invalid name f =
  match f () with
  | exception Invalid_argument msg -> msg
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

let contains_sub msg sub =
  let n = String.length msg and m = String.length sub in
  let rec go i = i + m <= n && (String.sub msg i m = sub || go (i + 1)) in
  m = 0 || go 0

let check_mentions name msg subs =
  List.iter
    (fun sub ->
      Alcotest.(check bool)
        (Printf.sprintf "%s mentions %S in %S" name sub msg)
        true (contains_sub msg sub))
    subs

let test_invalid_args () =
  Alcotest.check_raises "h=0" (Invalid_argument "Distributed_tracking.create: h < 1") (fun () ->
      ignore (Dt.create ~h:0 ~tau:5));
  Alcotest.check_raises "tau=0" (Invalid_argument "Distributed_tracking.create: tau < 1")
    (fun () -> ignore (Dt.create ~h:3 ~tau:0));
  (* The increment diagnostics must name the offending site/argument and
     carry the full instance state (h, tau, totals, round, mode). *)
  let t = Dt.create ~h:3 ~tau:5 in
  let msg =
    capture_invalid "bad site" (fun () -> ignore (Dt.increment t ~site:3 ~by:1))
  in
  check_mentions "bad site" msg
    [ "bad site 3"; "valid sites are 0..2"; "h=3"; "tau=5"; "total=0"; "mode=" ];
  let msg =
    capture_invalid "negative site" (fun () -> ignore (Dt.increment t ~site:(-1) ~by:1))
  in
  check_mentions "negative site" msg [ "bad site -1"; "valid sites are 0..2" ];
  let msg =
    capture_invalid "bad weight" (fun () -> ignore (Dt.increment t ~site:0 ~by:0))
  in
  check_mentions "bad weight" msg [ "by <= 0"; "by=0"; "site=0"; "h=3" ];
  let msg =
    capture_invalid "negative weight" (fun () -> ignore (Dt.increment t ~site:2 ~by:(-7)))
  in
  check_mentions "negative weight" msg [ "by=-7"; "site=2" ];
  ignore (Dt.increment t ~site:0 ~by:3);
  ignore (Dt.increment t ~site:1 ~by:2);
  let msg =
    capture_invalid "dead instance" (fun () -> ignore (Dt.increment t ~site:0 ~by:1))
  in
  check_mentions "dead instance" msg
    [ "already mature"; "site=0"; "by=1"; "total=5"; "tau=5" ];
  (* State reported in the message reflects the live instance, not the
     creation-time snapshot: drive an instance mid-way and check total. *)
  let t2 = Dt.create ~h:4 ~tau:1_000 in
  for _ = 1 to 10 do
    ignore (Dt.increment t2 ~site:1 ~by:7)
  done;
  let msg =
    capture_invalid "live state" (fun () -> ignore (Dt.increment t2 ~site:9 ~by:1))
  in
  check_mentions "live state" msg [ "bad site 9"; "total=70"; "tau=1000" ]

(* Satellite: adversarial-scheduler message-bound property. The two
   scheduler extremes — all weight on one site vs perfect round-robin —
   plus random mixtures, all must respect [message_bound], and [rounds]
   must be monotone non-decreasing along any single execution. *)
let prop_message_bound_adversarial =
  QCheck.Test.make ~count:200 ~name:"message bound under adversarial schedulers"
    QCheck.(
      quad (int_range 0 2) (int_range 1 24) (int_range 1 200_000) small_int)
    (fun (mode, h, tau, seed) ->
      let rng = Prng.create ~seed in
      let t = Dt.create ~h ~tau in
      let bound = Dt.message_bound ~h ~tau in
      let i = ref 0 in
      let prev_rounds = ref (Dt.rounds t) in
      let ok = ref true in
      while not (Dt.is_mature t) do
        let site =
          match mode with
          | 0 -> 0 (* single hot site *)
          | 1 -> !i mod h (* strict round-robin *)
          | _ -> Prng.int rng h
        in
        let by = if mode = 2 then 1 + Prng.int rng 40 else 1 in
        ignore (Dt.increment t ~site ~by);
        incr i;
        let r = Dt.rounds t in
        if r < !prev_rounds then ok := false;
        prev_rounds := r;
        if Dt.messages t > bound then ok := false
      done;
      !ok && Dt.messages t <= bound)

let prop_exactness =
  QCheck.Test.make ~count:300 ~name:"maturity = first crossing (random schedules)"
    QCheck.(triple small_int (int_range 1 20) (int_range 1 5000))
    (fun (seed, h, tau) ->
      let rng = Prng.create ~seed in
      let t = Dt.create ~h ~tau in
      let total = ref 0 in
      let ok = ref true in
      while not (Dt.is_mature t) do
        let by = 1 + Prng.int rng 30 in
        let site = Prng.int rng h in
        let crossed_now = !total < tau && !total + by >= tau in
        total := !total + by;
        let reported = Dt.increment t ~site ~by in
        if reported <> crossed_now then ok := false
      done;
      !ok && Dt.total t = !total && Dt.messages t <= Dt.message_bound ~h ~tau)

let () =
  Alcotest.run "distributed_tracking"
    [
      ( "unit",
        [
          Alcotest.test_case "unweighted exact maturity" `Quick test_unweighted_exact_maturity;
          Alcotest.test_case "round-robin exact" `Quick test_round_robin_exact;
          Alcotest.test_case "single hot site" `Quick test_single_hot_site;
          Alcotest.test_case "weighted first crossing" `Quick test_weighted_first_crossing;
          Alcotest.test_case "huge single weight" `Quick test_huge_single_weight;
          Alcotest.test_case "weighted work not O(tau)" `Quick test_weighted_work_is_not_tau;
          Alcotest.test_case "message bound" `Quick test_message_bound;
          Alcotest.test_case "messages beat naive" `Quick test_messages_beat_naive;
          Alcotest.test_case "rounds logarithmic" `Quick test_rounds_logarithmic;
          Alcotest.test_case "small tau direct mode" `Quick test_small_tau_direct;
          Alcotest.test_case "invalid arguments" `Quick test_invalid_args;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_exactness;
          QCheck_alcotest.to_alcotest prop_message_bound_adversarial;
        ] );
    ]
