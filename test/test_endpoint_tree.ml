(* Endpoint_tree: canonical-set structure (fanout bounds), exact counter
   semantics, DT telemetry bounds (the in-tree analogue of the
   O(h log tau) message bound), removal, weight accounting, per-element
   maturity of many queries sharing node counters against a scalar model,
   and the batch feed (sort_kw, feed_sorted) — the building block
   underneath Dt_engine. *)

open Rts_core
module Prng = Rts_util.Prng

let q ~id ~threshold bounds = { Types.id; rect = Types.rect_make bounds; threshold }

let elem1 x w = { Types.value = [| x |]; weight = w }

let build1 ?(on_mature = fun _ -> ()) batch = Endpoint_tree.build ~dim:1 ~on_mature batch

let test_empty_tree () =
  let t = build1 [] in
  Alcotest.(check int) "alive" 0 (Endpoint_tree.alive_count t);
  Endpoint_tree.process t (elem1 5. 1);
  Alcotest.(check int) "still empty" 0 (Endpoint_tree.alive_count t)

let test_single_query_basic () =
  let matured = ref [] in
  let t =
    build1 ~on_mature:(fun id -> matured := id :: !matured)
      [ (q ~id:7 ~threshold:3 [| (10., 20.) |], 3) ]
  in
  Alcotest.(check int) "W=0" 0 (Endpoint_tree.current_weight t 7);
  Endpoint_tree.process t (elem1 15. 1);
  Alcotest.(check int) "W=1" 1 (Endpoint_tree.current_weight t 7);
  Endpoint_tree.process t (elem1 9.9 1);
  (* below range *)
  Endpoint_tree.process t (elem1 20. 1);
  (* right endpoint excluded *)
  Alcotest.(check int) "W still 1" 1 (Endpoint_tree.current_weight t 7);
  Endpoint_tree.process t (elem1 10. 1);
  (* left endpoint included *)
  Alcotest.(check int) "W=2" 2 (Endpoint_tree.current_weight t 7);
  Alcotest.(check (list int)) "not yet" [] !matured;
  Endpoint_tree.process t (elem1 19.999 1);
  Alcotest.(check (list int)) "matured" [ 7 ] !matured;
  Alcotest.(check int) "alive" 0 (Endpoint_tree.alive_count t);
  Alcotest.(check bool) "no longer alive" false (Endpoint_tree.is_alive t 7)

let test_maturity_exact_with_weights () =
  (* Crossing, not landing: threshold 10, weights 4+4+4 -> maturity on the
     third element. *)
  let matured = ref [] in
  let t =
    build1 ~on_mature:(fun id -> matured := id :: !matured)
      [ (q ~id:1 ~threshold:10 [| (0., 1.) |], 10) ]
  in
  Endpoint_tree.process t (elem1 0.5 4);
  Endpoint_tree.process t (elem1 0.5 4);
  Alcotest.(check (list int)) "8 < 10" [] !matured;
  Endpoint_tree.process t (elem1 0.5 4);
  Alcotest.(check (list int)) "12 >= 10" [ 1 ] !matured

let test_shared_endpoints () =
  (* Queries sharing endpoints exercise canonical-set sharing (Q(u)). *)
  let matured = ref [] in
  let batch =
    [
      (q ~id:1 ~threshold:2 [| (0., 10.) |], 2);
      (q ~id:2 ~threshold:2 [| (0., 10.) |], 2);
      (q ~id:3 ~threshold:2 [| (5., 10.) |], 2);
      (q ~id:4 ~threshold:2 [| (0., 5.) |], 2);
    ]
  in
  let t = build1 ~on_mature:(fun id -> matured := id :: !matured) batch in
  Endpoint_tree.process t (elem1 7. 1);
  Endpoint_tree.process t (elem1 2. 1);
  (* ids 1 and 2 have seen 2; ids 3 and 4 have seen 1 each *)
  Alcotest.(check (list int)) "1,2 matured" [ 1; 2 ] (List.sort compare !matured);
  Alcotest.(check int) "W(3)" 1 (Endpoint_tree.current_weight t 3);
  Alcotest.(check int) "W(4)" 1 (Endpoint_tree.current_weight t 4)

let test_remove () =
  let t = build1 [ (q ~id:1 ~threshold:5 [| (0., 10.) |], 5); (q ~id:2 ~threshold:5 [| (0., 10.) |], 5) ] in
  Endpoint_tree.remove t 1;
  Alcotest.(check int) "alive" 1 (Endpoint_tree.alive_count t);
  Alcotest.check_raises "double remove" Not_found (fun () -> Endpoint_tree.remove t 1);
  Alcotest.check_raises "weight of removed" Not_found (fun () ->
      ignore (Endpoint_tree.current_weight t 1));
  (* removed query must not mature *)
  let matured = ref [] in
  let t2 =
    build1 ~on_mature:(fun id -> matured := id :: !matured)
      [ (q ~id:1 ~threshold:1 [| (0., 10.) |], 1); (q ~id:2 ~threshold:2 [| (0., 10.) |], 2) ]
  in
  Endpoint_tree.remove t2 1;
  Endpoint_tree.process t2 (elem1 5. 1);
  Endpoint_tree.process t2 (elem1 5. 1);
  Alcotest.(check (list int)) "only 2" [ 2 ] !matured

let test_remaining () =
  let t = build1 [ (q ~id:1 ~threshold:10 [| (0., 10.) |], 10) ] in
  Endpoint_tree.process t (elem1 5. 3);
  Alcotest.(check int) "remaining" 7 (Endpoint_tree.remaining t 1);
  Alcotest.(check int) "weight" 3 (Endpoint_tree.current_weight t 1)

let test_alive_queries_snapshot () =
  let t =
    build1
      [ (q ~id:1 ~threshold:10 [| (0., 10.) |], 10); (q ~id:2 ~threshold:20 [| (5., 15.) |], 20) ]
  in
  Endpoint_tree.process t (elem1 7. 4);
  let snap = List.sort compare (Endpoint_tree.alive_queries t) in
  match snap with
  | [ (q1, r1); (q2, r2) ] ->
      Alcotest.(check int) "q1 id" 1 q1.Types.id;
      Alcotest.(check int) "q1 remaining" 6 r1;
      Alcotest.(check int) "q2 id" 2 q2.Types.id;
      Alcotest.(check int) "q2 remaining" 16 r2
  | _ -> Alcotest.fail "expected two alive queries"

let test_migration_semantics () =
  (* Rebuilding a tree from alive_queries must preserve exact maturity:
     the remaining thresholds "carry" the accumulated weight. *)
  let matured = ref [] in
  let t1 = build1 [ (q ~id:1 ~threshold:10 [| (0., 10.) |], 10) ] in
  Endpoint_tree.process t1 (elem1 5. 6);
  let batch = Endpoint_tree.alive_queries t1 in
  let t2 = Endpoint_tree.build ~dim:1 ~on_mature:(fun id -> matured := id :: !matured) batch in
  Endpoint_tree.process t2 (elem1 5. 3);
  Alcotest.(check (list int)) "6+3 < 10" [] !matured;
  Endpoint_tree.process t2 (elem1 5. 1);
  Alcotest.(check (list int)) "6+3+1 >= 10" [ 1 ] !matured

let test_fanout_bound_1d () =
  (* h_q <= 2 levels' worth: for a tree on <= 2m endpoints, the canonical
     set has at most 2 ceil(log2(2m)) nodes. *)
  let rng = Prng.create ~seed:9 in
  let m = 256 in
  let batch =
    List.init m (fun id ->
        let a = Prng.float rng 1000. in
        let b = a +. 1. +. Prng.float rng 500. in
        (q ~id ~threshold:1000 [| (a, b) |], 1000))
  in
  let t = build1 batch in
  let log2m = int_of_float (ceil (log (float_of_int (2 * m)) /. log 2.)) in
  List.iter
    (fun ((qq : Types.query), _) ->
      let h = Endpoint_tree.fanout t qq.id in
      Alcotest.(check bool)
        (Printf.sprintf "h_q=%d <= 2*(log2m+1)=%d" h (2 * (log2m + 1)))
        true
        (h >= 1 && h <= 2 * (log2m + 1)))
    batch

let test_fanout_bound_2d () =
  let rng = Prng.create ~seed:10 in
  let m = 128 in
  let batch =
    List.init m (fun id ->
        let mk () =
          let a = Prng.float rng 1000. in
          (a, a +. 1. +. Prng.float rng 500.)
        in
        ({ Types.id; rect = Types.rect_make [| mk (); mk () |]; threshold = 1000 }, 1000))
  in
  let t = Endpoint_tree.build ~dim:2 ~on_mature:(fun _ -> ()) batch in
  let log2m = ceil (log (float_of_int (2 * m)) /. log 2.) +. 1. in
  let bound = int_of_float (4. *. log2m *. log2m) in
  List.iter
    (fun ((qq : Types.query), _) ->
      let h = Endpoint_tree.fanout t qq.id in
      Alcotest.(check bool)
        (Printf.sprintf "h_q=%d <= O(log^2 m)=%d" h bound)
        true (h >= 1 && h <= bound))
    batch

let test_counters_exact_vs_naive () =
  (* Random stream: W from the tree must equal a naive per-query count. *)
  let rng = Prng.create ~seed:11 in
  let m = 60 in
  let batch =
    List.init m (fun id ->
        let a = float_of_int (Prng.int rng 50) in
        let b = a +. 1. +. float_of_int (Prng.int rng 30) in
        (q ~id ~threshold:1_000_000 [| (a, b) |], 1_000_000))
  in
  let t = build1 batch in
  let naive = Array.make m 0 in
  for _ = 1 to 2000 do
    let x = float_of_int (Prng.int rng 90) in
    let w = 1 + Prng.int rng 9 in
    Endpoint_tree.process t (elem1 x w);
    List.iter
      (fun ((qq : Types.query), _) ->
        if Types.rect_contains qq.rect [| x |] then naive.(qq.id) <- naive.(qq.id) + w)
      batch
  done;
  List.iter
    (fun ((qq : Types.query), _) ->
      Alcotest.(check int)
        (Printf.sprintf "W(q%d)" qq.id)
        naive.(qq.id)
        (Endpoint_tree.current_weight t qq.id))
    batch

let test_telemetry_bounds () =
  (* Signals and round-ends are the in-tree image of the DT message bound:
     per query O(h log tau) signals overall. We check a generous concrete
     constant on a workload that matures everything. *)
  let rng = Prng.create ~seed:12 in
  let m = 100 and tau = 5_000 in
  let matured = ref 0 in
  let batch =
    List.init m (fun id ->
        let a = float_of_int (Prng.int rng 40) in
        let b = a +. 5. +. float_of_int (Prng.int rng 20) in
        (q ~id ~threshold:tau [| (a, b) |], tau))
  in
  let t = Endpoint_tree.build ~dim:1 ~on_mature:(fun _ -> incr matured) batch in
  let i = ref 0 in
  while Endpoint_tree.alive_count t > 0 && !i < 2_000_000 do
    let x = float_of_int (Prng.int rng 70) in
    Endpoint_tree.process t (elem1 x (1 + Prng.int rng 9));
    incr i
  done;
  Alcotest.(check int) "all matured" m !matured;
  let st = Endpoint_tree.stats t in
  let log2 x = log (float_of_int x) /. log 2. in
  let h_max = 2. *. (log2 (2 * m) +. 1.) in
  let per_query = 8. *. h_max *. (log2 tau +. 2.) in
  let bound = int_of_float (float_of_int m *. per_query) in
  Alcotest.(check bool)
    (Printf.sprintf "signals %d <= O(m h log tau) = %d" st.signals bound)
    true (st.signals <= bound);
  Alcotest.(check bool)
    (Printf.sprintf "round ends %d <= O(m log tau) = %d" st.round_ends
       (int_of_float (float_of_int m *. (log2 tau +. 2.) *. 2.)))
    true
    (st.round_ends <= int_of_float (float_of_int m *. (log2 tau +. 2.) *. 2.))

let test_one_sided_query () =
  let matured = ref [] in
  let t =
    Endpoint_tree.build ~dim:1
      ~on_mature:(fun id -> matured := id :: !matured)
      [ ({ Types.id = 1; rect = Types.rect_make [| (100., infinity) |]; threshold = 2 }, 2) ]
  in
  Endpoint_tree.process t (elem1 1e12 1);
  Endpoint_tree.process t (elem1 99. 1);
  Alcotest.(check (list int)) "not yet" [] !matured;
  Endpoint_tree.process t (elem1 100. 1);
  Alcotest.(check (list int)) "matured via +inf side" [ 1 ] !matured

let test_build_validation () =
  Alcotest.check_raises "remaining < 1"
    (Invalid_argument "Endpoint_tree.build: remaining < 1") (fun () ->
      ignore (build1 [ (q ~id:1 ~threshold:5 [| (0., 1.) |], 0) ]));
  Alcotest.check_raises "remaining > threshold"
    (Invalid_argument "Endpoint_tree.build: remaining exceeds threshold") (fun () ->
      ignore (build1 [ (q ~id:1 ~threshold:5 [| (0., 1.) |], 6) ]));
  Alcotest.check_raises "duplicate id"
    (Invalid_argument "Endpoint_tree.build: duplicate query id") (fun () ->
      ignore
        (build1
           [ (q ~id:1 ~threshold:5 [| (0., 1.) |], 5); (q ~id:1 ~threshold:5 [| (2., 3.) |], 5) ]))

let test_space_counts () =
  let batch =
    [
      (q ~id:1 ~threshold:10 [| (0., 10.) |], 10);
      (q ~id:2 ~threshold:10 [| (5., 15.) |], 10);
      (q ~id:3 ~threshold:10 [| (0., 15.) |], 10);
    ]
  in
  let t = build1 batch in
  let s = Endpoint_tree.space t in
  let fanouts = List.map (fun ((qq : Types.query), _) -> Endpoint_tree.fanout t qq.id) batch in
  Alcotest.(check int) "live entries = sum of fanouts" (List.fold_left ( + ) 0 fanouts)
    s.live_entries;
  Alcotest.(check bool) "has nodes" true (s.tree_nodes > 0);
  Endpoint_tree.remove t 1;
  let s' = Endpoint_tree.space t in
  Alcotest.(check int) "entries drop by h_1"
    (s.live_entries - List.nth fanouts 0)
    s'.live_entries

let prop_weight_exact =
  QCheck.Test.make ~count:100 ~name:"tree weight = naive count (random)"
    QCheck.(triple small_int (int_range 1 3) (int_range 1 40))
    (fun (seed, dim, m) ->
      let rng = Prng.create ~seed in
      let batch =
        List.init m (fun id ->
            let bounds =
              Array.init dim (fun _ ->
                  let a = float_of_int (Prng.int rng 12) in
                  (a, a +. 1. +. float_of_int (Prng.int rng 6)))
            in
            ({ Types.id; rect = Types.rect_make bounds; threshold = max_int / 2 }, max_int / 2))
      in
      let t = Endpoint_tree.build ~dim ~on_mature:(fun _ -> ()) batch in
      let naive = Array.make m 0 in
      for _ = 1 to 300 do
        let v = Array.init dim (fun _ -> float_of_int (Prng.int rng 20)) in
        let w = 1 + Prng.int rng 5 in
        Endpoint_tree.process t { Types.value = v; weight = w };
        List.iter
          (fun ((qq : Types.query), _) ->
            if Types.rect_contains qq.rect v then naive.(qq.id) <- naive.(qq.id) + w)
          batch
      done;
      List.for_all
        (fun ((qq : Types.query), _) -> Endpoint_tree.current_weight t qq.id = naive.(qq.id))
        batch)

(* Many queries over shared node counters and slack heaps (the Section 4
   composition): maturity attributed to the exact element that crosses
   each threshold, against a per-query scalar model. *)

let random_batch rng ~dim ~m ~domain ~max_tau =
  List.init m (fun id ->
      let bounds =
        Array.init dim (fun _ ->
            let a = float_of_int (Prng.int rng domain) in
            (a, a +. 1. +. float_of_int (Prng.int rng (max 1 (domain / 2)))))
      in
      let threshold = 1 + Prng.int rng max_tau in
      ({ Types.id; rect = Types.rect_make bounds; threshold }, threshold))

let random_elem rng ~dim ~domain ~max_w =
  {
    Types.value = Array.init dim (fun _ -> float_of_int (Prng.int rng domain) +. 0.5);
    weight = 1 + Prng.int rng max_w;
  }

(* Feeds [elems] one by one and returns false at the first element whose
   matured set differs from the model's, or when a survivor's weight
   differs at the end. *)
let matches_model ?(eager = false) ~dim batch elems =
  let fired = ref [] in
  let t = Endpoint_tree.build ~eager ~dim ~on_mature:(fun id -> fired := id :: !fired) batch in
  let acc = Hashtbl.create 64 in
  List.iter (fun ((qq : Types.query), _) -> Hashtbl.replace acc qq.id (qq, 0)) batch;
  let ok = ref true in
  List.iter
    (fun (e : Types.elem) ->
      fired := [];
      Endpoint_tree.process t e;
      let expected = ref [] in
      Hashtbl.filter_map_inplace
        (fun id ((qq : Types.query), w) ->
          let w = if Types.rect_contains qq.rect e.value then w + e.weight else w in
          if w >= qq.threshold then begin
            expected := id :: !expected;
            None
          end
          else Some (qq, w))
        acc;
      if List.sort compare !fired <> List.sort compare !expected then ok := false)
    elems;
  Hashtbl.iter (fun id (_, w) -> if Endpoint_tree.current_weight t id <> w then ok := false) acc;
  !ok && Endpoint_tree.alive_count t = Hashtbl.length acc

let test_many_queries_vs_model () =
  let rng = Prng.create ~seed:5 in
  let batch = random_batch rng ~dim:1 ~m:200 ~domain:16 ~max_tau:500 in
  let elems = List.init 3000 (fun _ -> random_elem rng ~dim:1 ~domain:16 ~max_w:10) in
  Alcotest.(check bool) "200 queries: every maturity on its crossing element" true
    (matches_model ~dim:1 batch elems)

let test_quiet_elements_are_cheap () =
  (* Large thresholds, unit weights: the slack heaps stay quiet, so
     signals stay far below one per query per element. *)
  let batch =
    List.init 50 (fun id -> (q ~id ~threshold:1_000_000 [| (float_of_int id, 100.) |], 1_000_000))
  in
  let t = build1 batch in
  let rng = Prng.create ~seed:6 in
  for _ = 1 to 10_000 do
    Endpoint_tree.process t (elem1 (Prng.float rng 100.) 1)
  done;
  let st = Endpoint_tree.stats t in
  Alcotest.(check bool)
    (Printf.sprintf "signals %d << 50 x 10000 naive" st.signals)
    true (st.signals < 2_000)

let test_remove_mid_round () =
  (* Remove a query after it has consumed several DT rounds; the shared
     node counters keep serving the others exactly. *)
  let matured = ref [] in
  let t =
    build1 ~on_mature:(fun id -> matured := id :: !matured)
      [
        (q ~id:1 ~threshold:100_000 [| (0., 4.) |], 100_000);
        (q ~id:2 ~threshold:500 [| (0., 2.) |], 500);
        (q ~id:3 ~threshold:5_050 [| (0., 1.) |], 5_050);
      ]
  in
  for i = 0 to 199 do
    Endpoint_tree.process t (elem1 (float_of_int (i mod 4) +. 0.5) 100)
  done;
  Alcotest.(check (list int)) "2 matured long ago" [ 2 ] !matured;
  Alcotest.(check int) "W(1)" 20_000 (Endpoint_tree.current_weight t 1);
  Alcotest.(check int) "W(3)" 5_000 (Endpoint_tree.current_weight t 3);
  Endpoint_tree.remove t 1;
  Endpoint_tree.process t (elem1 0.5 49);
  Alcotest.(check (list int)) "3 not yet at 5049" [ 2 ] !matured;
  Endpoint_tree.process t (elem1 0.5 1);
  Alcotest.(check (list int)) "only 3 fires, at 5050" [ 3; 2 ] !matured;
  Alcotest.(check int) "none alive" 0 (Endpoint_tree.alive_count t)

let test_huge_weight_overshoot () =
  List.iter
    (fun dim ->
      let matured = ref [] in
      let rng = Prng.create ~seed:dim in
      let batch =
        (q ~id:0 ~threshold:1_000_000 (Array.make dim (0., 100.)), 1_000_000)
        :: List.tl (random_batch rng ~dim ~m:30 ~domain:100 ~max_tau:1_000_000)
      in
      let t =
        Endpoint_tree.build ~dim ~on_mature:(fun id -> matured := id :: !matured) batch
      in
      Endpoint_tree.process t { Types.value = Array.make dim 99.5; weight = 50_000_000 };
      Alcotest.(check bool)
        (Printf.sprintf "dim %d: one element matures query 0" dim)
        true (List.mem 0 !matured);
      Alcotest.(check bool) (Printf.sprintf "dim %d: no id fires twice" dim) true
        (List.length (List.sort_uniq compare !matured) = List.length !matured))
    [ 1; 2 ]

let test_signal_budget_2d () =
  (* The 2D image of [telemetry bounds]: sum over queries of
     O(h_q log tau) signals, with h_q the query's actual fanout. *)
  let rng = Prng.create ~seed:7 in
  let m = 60 and tau = 2_000 in
  let batch =
    List.init m (fun id ->
        let side () =
          let a = float_of_int (Prng.int rng 12) in
          (a, a +. 3. +. float_of_int (Prng.int rng 6))
        in
        ({ Types.id; rect = Types.rect_make [| side (); side () |]; threshold = tau }, tau))
  in
  let t = Endpoint_tree.build ~dim:2 ~on_mature:(fun _ -> ()) batch in
  let log2 x = log (float_of_int x) /. log 2. in
  let budget =
    List.fold_left
      (fun s ((qq : Types.query), _) ->
        s + int_of_float (8. *. float_of_int (Endpoint_tree.fanout t qq.id) *. (log2 tau +. 2.)))
      0 batch
  in
  let i = ref 0 in
  while Endpoint_tree.alive_count t > 0 && !i < 1_000_000 do
    Endpoint_tree.process t (random_elem rng ~dim:2 ~domain:20 ~max_w:9);
    incr i
  done;
  Alcotest.(check int) "all matured" 0 (Endpoint_tree.alive_count t);
  let st = Endpoint_tree.stats t in
  Alcotest.(check bool)
    (Printf.sprintf "signals %d <= sum h_q O(log tau) = %d" st.signals budget)
    true (st.signals <= budget)

let test_eager_matches_lazy () =
  (* The ablation switch drops the slack rounds but keeps maturity exact:
     same crossing elements, and at least as many signals. *)
  List.iter
    (fun dim ->
      let rng = Prng.create ~seed:(40 + dim) in
      let batch = random_batch rng ~dim ~m:40 ~domain:10 ~max_tau:300 in
      let elems = List.init 1500 (fun _ -> random_elem rng ~dim ~domain:10 ~max_w:6) in
      Alcotest.(check bool) (Printf.sprintf "dim %d: lazy exact" dim) true
        (matches_model ~dim batch elems);
      Alcotest.(check bool) (Printf.sprintf "dim %d: eager exact" dim) true
        (matches_model ~eager:true ~dim batch elems);
      let signals eager =
        let t = Endpoint_tree.build ~eager ~dim ~on_mature:(fun _ -> ()) batch in
        List.iter (Endpoint_tree.process t) elems;
        (Endpoint_tree.stats t).signals
      in
      let lazy_s = signals false and eager_s = signals true in
      Alcotest.(check bool)
        (Printf.sprintf "dim %d: eager signals %d >= lazy %d" dim eager_s lazy_s)
        true (eager_s >= lazy_s))
    [ 1; 2 ]

(* Two trees over one batch: [a] fed by [process], [b] by a batched
   entry point. After the batch they must agree on the matured set and
   on every survivor's weight. *)
let check_same_state name (a, fired_a) (b, fired_b) batch =
  Alcotest.(check (list int)) (name ^ ": matured set")
    (List.sort compare !fired_a) (List.sort compare !fired_b);
  List.iter
    (fun ((qq : Types.query), _) ->
      if Endpoint_tree.is_alive a qq.id then
        Alcotest.(check int)
          (Printf.sprintf "%s: W(q%d)" name qq.id)
          (Endpoint_tree.current_weight a qq.id)
          (Endpoint_tree.current_weight b qq.id))
    batch

(* The one batch entry point at every dimension: [sort_kw] co-sorts the
   first coordinates with an identity permutation, and [feed_sorted] in
   that order leaves the tree in the state per-element [process] reaches. *)
let test_feed_sorted () =
  List.iter
    (fun dim ->
      let rng = Prng.create ~seed:(8 + dim) in
      let batch = random_batch rng ~dim ~m:50 ~domain:30 ~max_tau:400 in
      let fresh () =
        let fired = ref [] in
        (Endpoint_tree.build ~dim ~on_mature:(fun id -> fired := id :: !fired) batch, fired)
      in
      let ((a, _) as ta) = fresh () and ((b, _) as tb) = fresh () in
      let n = 700 in
      let elems = Array.init n (fun _ -> random_elem rng ~dim ~domain:30 ~max_w:5) in
      let keys = Array.map (fun (e : Types.elem) -> e.value.(0)) elems in
      let idx = Array.init n Fun.id in
      Endpoint_tree.sort_kw keys idx n;
      let name = Printf.sprintf "dim %d" dim in
      Alcotest.(check bool) (name ^ ": keys ascending") true
        (Array.for_all Fun.id (Array.init (n - 1) (fun i -> keys.(i) <= keys.(i + 1))));
      Alcotest.(check (list int)) (name ^ ": idx a permutation") (List.init n Fun.id)
        (List.sort compare (Array.to_list idx));
      Alcotest.(check bool) (name ^ ": keys follow idx") true
        (Array.for_all2 (fun k i -> k = elems.(i).Types.value.(0)) keys idx);
      let wts = Array.map (fun i -> elems.(i).Types.weight) idx in
      Array.iter (Endpoint_tree.process a) elems;
      Endpoint_tree.feed_sorted b elems keys idx wts n;
      check_same_state name ta tb batch;
      Alcotest.(check int) (name ^ ": elements counted") n (Endpoint_tree.stats b).elements)
    [ 1; 2; 3 ]

let test_process_validation () =
  Alcotest.check_raises "dim < 1" (Invalid_argument "Endpoint_tree.build: dim < 1") (fun () ->
      ignore (Endpoint_tree.build ~dim:0 ~on_mature:(fun _ -> ()) []));
  let t = build1 [ (q ~id:1 ~threshold:5 [| (0., 10.) |], 5) ] in
  Alcotest.check_raises "process: bad dimensionality"
    (Invalid_argument "Endpoint_tree.process: bad dimensionality") (fun () ->
      Endpoint_tree.process t { Types.value = [| 1.; 2. |]; weight = 1 });
  Alcotest.check_raises "process: weight < 1"
    (Invalid_argument "Endpoint_tree.process: weight < 1") (fun () ->
      Endpoint_tree.process t (elem1 1. 0));
  Alcotest.(check int) "refused elements count nothing" 0 (Endpoint_tree.current_weight t 1)

let prop_maturity_exact =
  QCheck.Test.make ~count:100 ~name:"tree maturity = scalar model (random)"
    QCheck.(quad small_int (int_range 1 3) (int_range 1 40) (int_range 1 400))
    (fun (seed, dim, m, max_tau) ->
      let rng = Prng.create ~seed in
      let batch = random_batch rng ~dim ~m ~domain:12 ~max_tau in
      let elems = List.init 300 (fun _ -> random_elem rng ~dim ~domain:16 ~max_w:8) in
      matches_model ~eager:(Prng.bernoulli rng 0.2) ~dim batch elems)

let () =
  Alcotest.run "endpoint_tree"
    [
      ( "unit",
        [
          Alcotest.test_case "empty tree" `Quick test_empty_tree;
          Alcotest.test_case "single query basics" `Quick test_single_query_basic;
          Alcotest.test_case "maturity exact with weights" `Quick test_maturity_exact_with_weights;
          Alcotest.test_case "shared endpoints" `Quick test_shared_endpoints;
          Alcotest.test_case "remove" `Quick test_remove;
          Alcotest.test_case "remaining" `Quick test_remaining;
          Alcotest.test_case "alive_queries snapshot" `Quick test_alive_queries_snapshot;
          Alcotest.test_case "migration semantics" `Quick test_migration_semantics;
          Alcotest.test_case "fanout bound 1d" `Quick test_fanout_bound_1d;
          Alcotest.test_case "fanout bound 2d" `Quick test_fanout_bound_2d;
          Alcotest.test_case "counters exact vs naive" `Quick test_counters_exact_vs_naive;
          Alcotest.test_case "telemetry bounds" `Quick test_telemetry_bounds;
          Alcotest.test_case "one-sided query" `Quick test_one_sided_query;
          Alcotest.test_case "build validation" `Quick test_build_validation;
          Alcotest.test_case "space counts" `Quick test_space_counts;
          Alcotest.test_case "process validation" `Quick test_process_validation;
        ] );
      ( "shared counters",
        [
          Alcotest.test_case "200 queries vs model" `Quick test_many_queries_vs_model;
          Alcotest.test_case "quiet elements are cheap" `Quick test_quiet_elements_are_cheap;
          Alcotest.test_case "remove mid-round" `Quick test_remove_mid_round;
          Alcotest.test_case "huge weight overshoot" `Quick test_huge_weight_overshoot;
          Alcotest.test_case "signal budget 2d" `Quick test_signal_budget_2d;
          Alcotest.test_case "eager matches lazy" `Quick test_eager_matches_lazy;
        ] );
      ( "batched feeds",
        [ Alcotest.test_case "feed_sorted equals process" `Quick test_feed_sorted ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_weight_exact;
          QCheck_alcotest.to_alcotest prop_maturity_exact;
        ] );
    ]
