(* Dt_engine: logarithmic-method invariants (P1-P3), global rebuilding,
   threshold carry-over across migrations, progress accounting, and the
   register/terminate API contract. Cross-engine equivalence lives in
   test_engines.ml; here we test the engine's own structure. *)

open Rts_core
module Prng = Rts_util.Prng

let q ~id ~threshold (lo, hi) = { Types.id; rect = Types.interval lo hi; threshold }

let elem1 x w = { Types.value = [| x |]; weight = w }

let test_register_terminate_contract () =
  let t = Dt_engine.create ~dim:1 () in
  Dt_engine.register t (q ~id:1 ~threshold:5 (0., 10.));
  Alcotest.(check bool) "alive" true (Dt_engine.is_alive t 1);
  Alcotest.check_raises "duplicate id" (Invalid_argument "Dt_engine.register: id already alive")
    (fun () -> Dt_engine.register t (q ~id:1 ~threshold:5 (0., 10.)));
  Dt_engine.terminate t 1;
  Alcotest.(check bool) "terminated" false (Dt_engine.is_alive t 1);
  Alcotest.check_raises "terminate missing" Not_found (fun () -> Dt_engine.terminate t 1);
  (* an id may be reused once dead *)
  Dt_engine.register t (q ~id:1 ~threshold:5 (0., 10.));
  Alcotest.(check bool) "reused" true (Dt_engine.is_alive t 1)

(* A batch that repeats an id is refused before any tree moves: the
   queries already registered keep their trees and their progress. *)
let test_register_batch_repeated_id () =
  let t = Dt_engine.create ~dim:1 () in
  Dt_engine.register t (q ~id:1 ~threshold:5 (0., 10.));
  ignore (Dt_engine.process t (elem1 5. 2) : int list);
  Alcotest.check_raises "repeated id" (Invalid_argument "Dt_engine.register_batch: duplicate id")
    (fun () ->
      Dt_engine.register_batch t [ q ~id:2 ~threshold:5 (0., 10.); q ~id:2 ~threshold:5 (0., 10.) ]);
  Alcotest.(check int) "trees kept" 1 (Dt_engine.tree_count t);
  Alcotest.(check int) "progress kept" 2 (Dt_engine.progress t 1);
  Alcotest.(check bool) "nothing registered" false (Dt_engine.is_alive t 2)

let test_maturity_removes () =
  let t = Dt_engine.create ~dim:1 () in
  Dt_engine.register t (q ~id:1 ~threshold:2 (0., 10.));
  Alcotest.(check (list int)) "first element" [] (Dt_engine.process t (elem1 5. 1));
  Alcotest.(check (list int)) "matures" [ 1 ] (Dt_engine.process t (elem1 5. 1));
  Alcotest.(check bool) "gone" false (Dt_engine.is_alive t 1);
  Alcotest.(check (list int)) "no double report" [] (Dt_engine.process t (elem1 5. 1))

let test_threshold_carry_across_migration () =
  (* Register q1, stream some weight into it, then register more queries to
     force the logarithmic method to migrate q1 into a new tree. Its
     remaining threshold must carry over exactly. *)
  let t = Dt_engine.create ~dim:1 () in
  Dt_engine.register t (q ~id:0 ~threshold:10 (0., 10.));
  for _ = 1 to 6 do
    ignore (Dt_engine.process t (elem1 5. 1))
  done;
  Alcotest.(check int) "W=6" 6 (Dt_engine.progress t 0);
  (* force migrations *)
  for id = 1 to 20 do
    Dt_engine.register t (q ~id ~threshold:1000 (50., 60.))
  done;
  Alcotest.(check int) "W preserved" 6 (Dt_engine.progress t 0);
  for _ = 1 to 3 do
    ignore (Dt_engine.process t (elem1 5. 1))
  done;
  Alcotest.(check int) "W=9" 9 (Dt_engine.progress t 0);
  Alcotest.(check (list int)) "matures at exactly 10" [ 0 ] (Dt_engine.process t (elem1 5. 1))

let test_p1_tree_count_logarithmic () =
  let t = Dt_engine.create ~dim:1 () in
  let rng = Prng.create ~seed:21 in
  let m = 3000 in
  for id = 0 to m - 1 do
    let a = Prng.float rng 100. in
    Dt_engine.register t (q ~id ~threshold:1_000_000 (a, a +. 5.));
    if id mod 100 = 0 then begin
      let g = Dt_engine.tree_count t in
      let bound = int_of_float (log (float_of_int (id + 2)) /. log 2.) + 2 in
      Alcotest.(check bool)
        (Printf.sprintf "g=%d <= log2(m)+2=%d at m=%d" g bound (id + 1))
        true (g <= bound)
    end
  done

(* The construction tallies, on a scripted history. One-at-a-time
   registrations follow the binary counter of the logarithmic method:
   the k-th registration builds a tree over 2^(trailing zeros of k)
   queries, so eight of them build 1+2+1+4+1+2+1+8 = 20 queries in 8
   installs. None of those is a global rebuild; the terminate that
   leaves the 8-query tree with half its queries is. *)
let test_construction_tallies () =
  let t = Dt_engine.create ~dim:1 () in
  let counter name = Rts_obs.Metrics.counter_value (Dt_engine.metrics t) name in
  let check what (installs, queries, globals) =
    Alcotest.(check (list int))
      (what ^ ": rebuilds, built queries, global rebuilds")
      [ installs; queries; globals ]
      (List.map counter [ "rebuilds_total"; "built_queries_total"; "global_rebuilds_total" ])
  in
  for id = 0 to 7 do
    Dt_engine.register t (q ~id ~threshold:max_int (float_of_int id, float_of_int id +. 2.))
  done;
  Alcotest.(check int) "one tree" 1 (Dt_engine.tree_count t);
  check "eight registrations" (8, 20, 0);
  for id = 0 to 2 do
    Dt_engine.terminate t id
  done;
  check "three terminations" (8, 20, 0);
  Dt_engine.terminate t 3;
  check "the halving termination" (9, 24, 1)

let test_space_shrinks_after_mass_termination () =
  (* Terminating most queries must trigger rebuilds: alive_count tracks
     and the engine keeps functioning with the remainder. *)
  let t = Dt_engine.create ~dim:1 () in
  for id = 0 to 999 do
    Dt_engine.register t (q ~id ~threshold:5 (0., 10.))
  done;
  let rebuilds_before = Dt_engine.rebuild_count t in
  for id = 0 to 899 do
    Dt_engine.terminate t id
  done;
  Alcotest.(check int) "alive" 100 (Dt_engine.alive_count t);
  Alcotest.(check bool) "rebuilds happened" true (Dt_engine.rebuild_count t > rebuilds_before);
  (* the survivors still mature exactly *)
  let matured = ref [] in
  for _ = 1 to 5 do
    matured := Dt_engine.process t (elem1 5. 1) @ !matured
  done;
  Alcotest.(check int) "all survivors matured" 100 (List.length !matured)

let test_progress_errors () =
  let t = Dt_engine.create ~dim:1 () in
  Alcotest.check_raises "unknown" Not_found (fun () -> ignore (Dt_engine.progress t 1));
  Dt_engine.register t (q ~id:1 ~threshold:2 (0., 10.));
  ignore (Dt_engine.process t (elem1 5. 1));
  Alcotest.(check int) "W=1" 1 (Dt_engine.progress t 1);
  ignore (Dt_engine.process t (elem1 5. 5));
  Alcotest.check_raises "matured" Not_found (fun () -> ignore (Dt_engine.progress t 1))

let test_interleaved_register_process () =
  (* Queries registered mid-stream must only count subsequent elements. *)
  let t = Dt_engine.create ~dim:1 () in
  Dt_engine.register t (q ~id:1 ~threshold:3 (0., 10.));
  ignore (Dt_engine.process t (elem1 5. 1));
  ignore (Dt_engine.process t (elem1 5. 1));
  Dt_engine.register t (q ~id:2 ~threshold:3 (0., 10.));
  Alcotest.(check int) "late query starts at 0" 0 (Dt_engine.progress t 2);
  Alcotest.(check (list int)) "q1 matures alone" [ 1 ] (Dt_engine.process t (elem1 5. 1));
  ignore (Dt_engine.process t (elem1 5. 1));
  Alcotest.(check (list int)) "q2 matures 3 elements after its registration" [ 2 ]
    (Dt_engine.process t (elem1 5. 1))

let test_simultaneous_maturities () =
  let t = Dt_engine.create ~dim:1 () in
  for id = 0 to 9 do
    Dt_engine.register t (q ~id ~threshold:7 (0., 10.))
  done;
  Alcotest.(check (list int)) "all at once, sorted"
    (List.init 10 (fun i -> i))
    (Dt_engine.process t (elem1 5. 7))

let test_static_vs_paper_scenario () =
  (* Static batch + terminations: rebuild machinery exercises the paper's
     Scenario 1; survivors' maturity must stay exact (checked against a
     scalar model since all rects coincide). *)
  let t = Dt_engine.create_static ~dim:1 (List.init 50 (fun id -> q ~id ~threshold:100 (0., 10.))) in
  let rng = Prng.create ~seed:22 in
  let total = ref 0 in
  let alive = ref (List.init 50 (fun i -> i)) in
  let matured_total = ref 0 in
  while !alive <> [] && !total < 100_000 do
    (* occasionally terminate one *)
    if Prng.bernoulli rng 0.05 && List.length !alive > 1 then begin
      let victim = List.nth !alive (Prng.int rng (List.length !alive)) in
      Dt_engine.terminate t victim;
      alive := List.filter (fun i -> i <> victim) !alive
    end;
    let w = 1 + Prng.int rng 5 in
    let inside = Prng.bernoulli rng 0.5 in
    let x = if inside then 5. else 20. in
    let before = !total in
    if inside then total := !total + w;
    let matured = Dt_engine.process t (elem1 x w) in
    if inside && before < 100 && !total >= 100 then
      Alcotest.(check int) "everyone alive matures together" (List.length !alive)
        (List.length matured)
    else Alcotest.(check (list int)) "no stray maturities" [] matured;
    matured_total := !matured_total + List.length matured;
    alive := List.filter (fun i -> not (List.mem i matured)) !alive
  done;
  Alcotest.(check bool) "loop ended by maturity" true (!alive = [])

let test_space_tracks_alive () =
  (* The paper's space claim: O~(m_alive) at all times. Build 4000 queries,
     kill 90%, and require the footprint to shrink by a comparable factor
     (global rebuilding + the logarithmic method's P2/P3). *)
  let t = Dt_engine.create ~dim:1 () in
  let rng = Prng.create ~seed:31 in
  for id = 0 to 3999 do
    let a = Prng.float rng 1000. in
    Dt_engine.register t (q ~id ~threshold:1_000_000 (a, a +. 10.))
  done;
  let full = Dt_engine.space t in
  Alcotest.(check bool) "entries at least m" true (full.live_entries >= 4000);
  for id = 0 to 3599 do
    Dt_engine.terminate t id
  done;
  let shrunk = Dt_engine.space t in
  Alcotest.(check bool)
    (Printf.sprintf "live entries shrink with m_alive (%d -> %d)" full.live_entries
       shrunk.live_entries)
    true
    (shrunk.live_entries * 4 < full.live_entries);
  Alcotest.(check bool)
    (Printf.sprintf "dead slack bounded (%d dead vs %d live)" shrunk.dead_entries
       shrunk.live_entries)
    true
    (shrunk.dead_entries <= 4 * (shrunk.live_entries + 16));
  Alcotest.(check bool)
    (Printf.sprintf "nodes shrink too (%d -> %d)" full.tree_nodes shrunk.tree_nodes)
    true
    (shrunk.tree_nodes * 2 < full.tree_nodes)

let test_space_entries_linear_in_m () =
  (* live_entries = sum of h_q = O(m log m): check the per-query average is
     logarithmic, not linear, in m. *)
  let per_query m =
    let t = Dt_engine.create ~dim:1 () in
    let rng = Prng.create ~seed:37 in
    Dt_engine.register_batch t
      (List.init m (fun id ->
           let a = Prng.float rng 1000. in
           q ~id ~threshold:1_000_000 (a, a +. 100.)));
    float_of_int (Dt_engine.space t).live_entries /. float_of_int m
  in
  let small = per_query 500 and large = per_query 4000 in
  (* growing m by 8x may only grow h_q by ~log 8 = 3 levels *)
  Alcotest.(check bool)
    (Printf.sprintf "avg h_q grows sublinearly (%.1f -> %.1f)" small large)
    true
    (large < small +. 8.)

let test_snapshot_restore_engine_level () =
  (* Dt_engine.alive_snapshot / restore: continuation equivalence at the
     engine level (the facade-level test lives in test_rts.ml). *)
  let rng = Prng.create ~seed:41 in
  let t = Dt_engine.create ~dim:1 () in
  for id = 0 to 149 do
    let a = float_of_int (Prng.int rng 30) in
    Dt_engine.register t (q ~id ~threshold:(40 + Prng.int rng 100) (a, a +. 5.))
  done;
  for _ = 1 to 400 do
    ignore (Dt_engine.process t (elem1 (float_of_int (Prng.int rng 40)) (1 + Prng.int rng 3)))
  done;
  let snap = Dt_engine.alive_snapshot t in
  List.iter
    (fun ((qq : Types.query), w) ->
      Alcotest.(check int) "snapshot W = progress" (Dt_engine.progress t qq.id) w)
    snap;
  let t' = Dt_engine.restore ~dim:1 snap in
  Alcotest.(check int) "alive preserved" (Dt_engine.alive_count t) (Dt_engine.alive_count t');
  for step = 1 to 2000 do
    let e = elem1 (float_of_int (Prng.int rng 40)) (1 + Prng.int rng 3) in
    Alcotest.(check (list int))
      (Printf.sprintf "step %d" step)
      (Dt_engine.process t e) (Dt_engine.process t' e)
  done

let test_restore_validation () =
  Alcotest.check_raises "consumed too large"
    (Invalid_argument "Dt_engine.restore: consumed out of range") (fun () ->
      ignore (Dt_engine.restore ~dim:1 [ (q ~id:1 ~threshold:5 (0., 1.), 5) ]));
  Alcotest.check_raises "negative consumed"
    (Invalid_argument "Dt_engine.restore: consumed out of range") (fun () ->
      ignore (Dt_engine.restore ~dim:1 [ (q ~id:1 ~threshold:5 (0., 1.), -1) ]));
  Alcotest.check_raises "duplicate ids" (Invalid_argument "Dt_engine.restore: duplicate id")
    (fun () ->
      ignore
        (Dt_engine.restore ~dim:1
           [ (q ~id:1 ~threshold:5 (0., 1.), 0); (q ~id:1 ~threshold:5 (2., 3.), 0) ]))

let test_restore_edge_cases () =
  (* Empty snapshot: a valid, empty engine that still works afterwards. *)
  let t = Dt_engine.restore ~dim:1 [] in
  Alcotest.(check int) "empty restore: nothing alive" 0 (Dt_engine.alive_count t);
  Alcotest.(check (list int)) "empty restore: process is a no-op" [] (Dt_engine.process t (elem1 0.5 3));
  Dt_engine.register t (q ~id:7 ~threshold:2 (0., 1.));
  Alcotest.(check int) "empty restore: can still register" 1 (Dt_engine.alive_count t);
  (* consumed = threshold - 1: the query is one unit of weight from
     maturity, so the very next matching unit-weight element fires it. *)
  let t = Dt_engine.restore ~dim:1 [ (q ~id:3 ~threshold:10 (0., 1.), 9) ] in
  Alcotest.(check (list int)) "miss does not fire" [] (Dt_engine.process t (elem1 5. 1));
  Alcotest.(check (list int)) "one more unit matures" [ 3 ] (Dt_engine.process t (elem1 0.5 1));
  Alcotest.(check int) "gone after maturity" 0 (Dt_engine.alive_count t);
  (* consumed = 0 is legal (a fresh query), threshold - 1 is the max. *)
  let t = Dt_engine.restore ~dim:1 [ (q ~id:1 ~threshold:1 (0., 1.), 0) ] in
  Alcotest.(check (list int)) "threshold 1, consumed 0" [ 1 ] (Dt_engine.process t (elem1 0.5 1))

let prop_dynamic_churn =
  (* Random register/terminate/process churn; internal invariants must hold
     and alive bookkeeping must match a driver-side model. *)
  QCheck.Test.make ~count:50 ~name:"dynamic churn keeps bookkeeping consistent"
    QCheck.(pair small_int (int_range 50 400))
    (fun (seed, steps) ->
      let rng = Prng.create ~seed in
      let t = Dt_engine.create ~dim:1 () in
      let alive = ref [] in
      let next = ref 0 in
      let ok = ref true in
      for _ = 1 to steps do
        if Prng.bernoulli rng 0.3 then begin
          let a = float_of_int (Prng.int rng 20) in
          Dt_engine.register t
            (q ~id:!next ~threshold:(1 + Prng.int rng 50) (a, a +. 1. +. float_of_int (Prng.int rng 10)));
          alive := !next :: !alive;
          incr next
        end;
        if !alive <> [] && Prng.bernoulli rng 0.1 then begin
          let v = List.nth !alive (Prng.int rng (List.length !alive)) in
          Dt_engine.terminate t v;
          alive := List.filter (fun i -> i <> v) !alive
        end;
        let matured =
          Dt_engine.process t (elem1 (float_of_int (Prng.int rng 25)) (1 + Prng.int rng 6))
        in
        alive := List.filter (fun i -> not (List.mem i matured)) !alive;
        if Dt_engine.alive_count t <> List.length !alive then ok := false;
        List.iter (fun i -> if not (Dt_engine.is_alive t i) then ok := false) !alive
      done;
      !ok)

(* A refused element or batch changes nothing: [process] and
   [process_batch] validate before they count, with zero live trees as
   with several, so elements_total and every query's progress stay put. *)
let test_refused_feed_changes_nothing () =
  let good = { Types.value = [| 1.; 1. |]; weight = 1 } in
  let bad =
    [
      ("NaN coordinate", { Types.value = [| nan; 1. |]; weight = 1 });
      ("wrong dimension", { Types.value = [| 1. |]; weight = 1 });
      ("weight 0", { Types.value = [| 1.; 1. |]; weight = 0 });
    ]
  in
  List.iter
    (fun m ->
      let t = Dt_engine.create ~dim:2 () in
      for id = 0 to m - 1 do
        Dt_engine.register t
          { Types.id; rect = Types.rect_make [| (0., 10.); (0., 10.) |]; threshold = 100 }
      done;
      if m > 0 then
        Alcotest.(check bool) "several live trees" true (Dt_engine.tree_count t > 1);
      ignore (Dt_engine.process t good : int list);
      let state () =
        ( Engine.Metrics.counter_value (Dt_engine.metrics t) "elements_total",
          List.init m (Dt_engine.progress t) )
      in
      let before = state () in
      List.iter
        (fun (name, e) ->
          let refused label f =
            match f () with
            | (_ : int list) -> Alcotest.failf "%d queries, %s: %s accepted it" m name label
            | exception Invalid_argument _ ->
                Alcotest.(check (pair int (list int)))
                  (Printf.sprintf "%d queries, %s: %s changed nothing" m name label)
                  before (state ())
          in
          refused "process" (fun () -> Dt_engine.process t e);
          refused "process_batch" (fun () -> Dt_engine.process_batch t [| good; e; good |]))
        bad)
    [ 0; 7 ]

let prop_restore_continuation =
  (* The checkpointing contract the durability layer builds on: cut a
     random churn run at a random point, restore [alive_snapshot] into a
     fresh engine (lazy or eager), and the continuation is bit-identical
     element by element. *)
  QCheck.Test.make ~count:60 ~name:"restore (alive_snapshot t) continues bit-identically"
    QCheck.(triple small_int (int_range 20 300) bool)
    (fun (seed, steps, eager) ->
      let rng = Prng.create ~seed in
      let t = Dt_engine.create ~dim:1 () in
      let next = ref 0 in
      let step () =
        if Prng.bernoulli rng 0.3 || !next = 0 then begin
          let a = float_of_int (Prng.int rng 20) in
          Dt_engine.register t
            (q ~id:!next ~threshold:(1 + Prng.int rng 50)
               (a, a +. 1. +. float_of_int (Prng.int rng 10)));
          incr next
        end;
        ignore (Dt_engine.process t (elem1 (float_of_int (Prng.int rng 25)) (1 + Prng.int rng 6)))
      in
      let cut = Prng.int rng steps in
      for _ = 1 to cut do step () done;
      let t' = Dt_engine.restore ~eager ~dim:1 (Dt_engine.alive_snapshot t) in
      let ok = ref (Dt_engine.alive_count t = Dt_engine.alive_count t') in
      for _ = cut + 1 to steps do
        let e = elem1 (float_of_int (Prng.int rng 25)) (1 + Prng.int rng 6) in
        if Dt_engine.process t e <> Dt_engine.process t' e then ok := false
      done;
      !ok)

let () =
  Alcotest.run "dt_engine"
    [
      ( "unit",
        [
          Alcotest.test_case "register/terminate contract" `Quick test_register_terminate_contract;
          Alcotest.test_case "register_batch repeated id" `Quick test_register_batch_repeated_id;
          Alcotest.test_case "maturity removes" `Quick test_maturity_removes;
          Alcotest.test_case "threshold carries across migration" `Quick
            test_threshold_carry_across_migration;
          Alcotest.test_case "P1: tree count logarithmic" `Quick test_p1_tree_count_logarithmic;
          Alcotest.test_case "construction tallies" `Quick test_construction_tallies;
          Alcotest.test_case "mass termination rebuilds" `Quick
            test_space_shrinks_after_mass_termination;
          Alcotest.test_case "progress errors" `Quick test_progress_errors;
          Alcotest.test_case "interleaved register/process" `Quick
            test_interleaved_register_process;
          Alcotest.test_case "simultaneous maturities sorted" `Quick test_simultaneous_maturities;
          Alcotest.test_case "static scenario with churn" `Quick test_static_vs_paper_scenario;
          Alcotest.test_case "space tracks m_alive" `Quick test_space_tracks_alive;
          Alcotest.test_case "space per query logarithmic" `Quick test_space_entries_linear_in_m;
          Alcotest.test_case "engine snapshot/restore" `Quick test_snapshot_restore_engine_level;
          Alcotest.test_case "restore validation" `Quick test_restore_validation;
          Alcotest.test_case "restore edge cases" `Quick test_restore_edge_cases;
          Alcotest.test_case "refused feed changes nothing" `Quick
            test_refused_feed_changes_nothing;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_dynamic_churn;
          QCheck_alcotest.to_alcotest prop_restore_continuation;
        ] );
    ]
