(* Cross-engine equivalence: every engine must report exactly the same
   maturities at exactly the same stream positions as the brute-force
   baseline, under adversarial little workloads — tight integer-ish domains
   (to force shared endpoints and boundary hits), mixed weights, random
   registrations and terminations. This is the central correctness property
   of the repository: the paper's algorithm is *exact*, not approximate. *)

open Rts_core
module Prng = Rts_util.Prng

let mk_rect rng ~dim ~domain =
  Array.init dim (fun _ ->
      let a = float_of_int (Prng.int rng domain) in
      let b = float_of_int (Prng.int rng domain) in
      let lo = min a b and hi = max a b in
      (lo, hi +. 1.))
  |> Types.rect_make

let mk_elem rng ~dim ~domain ~max_weight =
  {
    Types.value = Array.init dim (fun _ -> float_of_int (Prng.int rng domain));
    weight = 1 + Prng.int rng max_weight;
  }

(* Apply one identical op sequence to all engines and diff their outputs. *)
let simulate ~seed ~dim ~steps ~domain ~max_weight ~max_tau ~p_reg ~p_term factories =
  let engines = List.map (fun f -> f ~dim) factories in
  let rng = Prng.create ~seed in
  let next_id = ref 0 in
  let alive = ref [] in
  let total_matured = ref 0 in
  for step = 1 to steps do
    if Prng.bernoulli rng p_reg || !alive = [] then begin
      let q =
        {
          Types.id = !next_id;
          rect = mk_rect rng ~dim ~domain;
          threshold = 1 + Prng.int rng max_tau;
        }
      in
      incr next_id;
      alive := q.id :: !alive;
      List.iter (fun (e : Engine.t) -> e.register q) engines
    end;
    if !alive <> [] && Prng.bernoulli rng p_term then begin
      let victim = List.nth !alive (Prng.int rng (List.length !alive)) in
      alive := List.filter (fun id -> id <> victim) !alive;
      List.iter (fun (e : Engine.t) -> e.terminate victim) engines
    end;
    let e = mk_elem rng ~dim ~domain ~max_weight in
    let outputs = List.map (fun (eng : Engine.t) -> (eng.name, eng.process e)) engines in
    (match outputs with
    | [] -> ()
    | (ref_name, ref_out) :: rest ->
        List.iter
          (fun (name, out) ->
            Alcotest.(check (list int))
              (Printf.sprintf "step %d: %s vs %s" step name ref_name)
              ref_out out)
          rest;
        total_matured := !total_matured + List.length ref_out;
        alive := List.filter (fun id -> not (List.mem id ref_out)) !alive);
    let alive_counts = List.map (fun (eng : Engine.t) -> eng.alive ()) engines in
    List.iter
      (fun c -> Alcotest.(check int) (Printf.sprintf "step %d: alive count" step)
          (List.length !alive) c)
      alive_counts
  done;
  !total_matured

let baseline ~dim = Baseline_engine.make ~dim

let dt ~dim = Dt_engine.make ~dim

let stab1d ~dim =
  assert (dim = 1);
  Stab1d_engine.make ()

let stab2d ~dim =
  assert (dim = 2);
  Stab2d_engine.make ()

let rtree ~dim = Rtree_engine.make ~dim

let check_matured_nonzero n =
  Alcotest.(check bool) "some queries matured (workload not vacuous)" true (n > 50)

let test_1d_all () =
  let n =
    simulate ~seed:101 ~dim:1 ~steps:4000 ~domain:25 ~max_weight:5 ~max_tau:60 ~p_reg:0.15
      ~p_term:0.03
      [ baseline; dt; stab1d; rtree ]
  in
  check_matured_nonzero n

let test_2d_all () =
  let n =
    simulate ~seed:202 ~dim:2 ~steps:3000 ~domain:12 ~max_weight:5 ~max_tau:50 ~p_reg:0.2
      ~p_term:0.03
      [ baseline; dt; stab2d; rtree ]
  in
  check_matured_nonzero n

let test_3d_dt () =
  let n =
    simulate ~seed:303 ~dim:3 ~steps:2000 ~domain:8 ~max_weight:4 ~max_tau:40 ~p_reg:0.25
      ~p_term:0.02
      [ baseline; dt; rtree ]
  in
  check_matured_nonzero n

let test_1d_unit_weights () =
  let n =
    simulate ~seed:404 ~dim:1 ~steps:4000 ~domain:20 ~max_weight:1 ~max_tau:40 ~p_reg:0.15
      ~p_term:0.03
      [ baseline; dt; stab1d ]
  in
  check_matured_nonzero n

let test_1d_heavy_weights () =
  (* Weights far above thresholds: exercises the weighted-DT endgame where
     one element overshoots several rounds at once. *)
  let n =
    simulate ~seed:505 ~dim:1 ~steps:2000 ~domain:15 ~max_weight:500 ~max_tau:800 ~p_reg:0.2
      ~p_term:0.02
      [ baseline; dt; stab1d ]
  in
  check_matured_nonzero n

let test_1d_no_terminations () =
  let n =
    simulate ~seed:606 ~dim:1 ~steps:3000 ~domain:25 ~max_weight:5 ~max_tau:50 ~p_reg:0.15
      ~p_term:0.
      [ baseline; dt; stab1d; rtree ]
  in
  check_matured_nonzero n

let test_static_batch () =
  (* create_static must behave exactly like sequential registration. *)
  let rng = Prng.create ~seed:707 in
  let dim = 1 and domain = 30 in
  let queries =
    List.init 200 (fun id ->
        { Types.id; rect = mk_rect rng ~dim ~domain; threshold = 1 + Prng.int rng 80 })
  in
  let static = Dt_engine.create_static ~dim queries in
  let dynamic = Dt_engine.create ~dim () in
  List.iter (Dt_engine.register dynamic) queries;
  let oracle = Baseline_engine.create ~dim () in
  List.iter (Baseline_engine.register oracle) queries;
  for step = 1 to 3000 do
    let e = mk_elem rng ~dim ~domain ~max_weight:4 in
    let a = Dt_engine.process static e in
    let b = Dt_engine.process dynamic e in
    let c = Baseline_engine.process oracle e in
    Alcotest.(check (list int)) (Printf.sprintf "step %d static=oracle" step) c a;
    Alcotest.(check (list int)) (Printf.sprintf "step %d dynamic=oracle" step) c b
  done

let test_progress_agrees () =
  let rng = Prng.create ~seed:808 in
  let dim = 2 and domain = 10 in
  let dt = Dt_engine.create ~dim () in
  let oracle = Baseline_engine.create ~dim () in
  let queries =
    List.init 100 (fun id ->
        { Types.id; rect = mk_rect rng ~dim ~domain; threshold = 10_000 })
  in
  List.iter
    (fun q ->
      Dt_engine.register dt q;
      Baseline_engine.register oracle q)
    queries;
  for _ = 1 to 2000 do
    let e = mk_elem rng ~dim ~domain ~max_weight:5 in
    ignore (Dt_engine.process dt e);
    ignore (Baseline_engine.process oracle e)
  done;
  List.iter
    (fun (q : Types.query) ->
      Alcotest.(check int)
        (Printf.sprintf "W(q%d)" q.id)
        (Baseline_engine.progress oracle q.id)
        (Dt_engine.progress dt q.id))
    queries

let test_identical_queries_mass () =
  (* 500 identical queries: maximal canonical-set sharing, simultaneous
     maturity of a whole cohort. *)
  let dim = 1 in
  let engines = [ baseline ~dim; dt ~dim; stab1d ~dim; rtree ~dim ] in
  List.iter
    (fun (e : Engine.t) ->
      e.register_batch
        (List.init 500 (fun id ->
             { Types.id; rect = Types.interval 10. 20.; threshold = 50 })))
    engines;
  let rng = Prng.create ~seed:901 in
  let rec run step =
    if step > 500 then Alcotest.fail "never matured"
    else begin
      let e = mk_elem rng ~dim ~domain:30 ~max_weight:5 in
      let outs = List.map (fun (eng : Engine.t) -> eng.process e) engines in
      match outs with
      | first :: rest ->
          List.iter (fun o -> Alcotest.(check (list int)) "agree" first o) rest;
          if first <> [] then begin
            Alcotest.(check int) "whole cohort together" 500 (List.length first);
            List.iter
              (fun (eng : Engine.t) -> Alcotest.(check int) "drained" 0 (eng.alive ()))
              engines
          end
          else run (step + 1)
      | [] -> ()
    end
  in
  run 1

let test_threshold_one () =
  (* Threshold 1 fires on the first covered element — the DT endgame from
     the very start. *)
  let dim = 1 in
  let engines = [ baseline ~dim; dt ~dim; stab1d ~dim ] in
  List.iter
    (fun (e : Engine.t) ->
      e.register { Types.id = 0; rect = Types.interval 0. 5.; threshold = 1 })
    engines;
  List.iter
    (fun (e : Engine.t) ->
      Alcotest.(check (list int)) "misses" [] (e.process { Types.value = [| 9. |]; weight = 100 }))
    engines;
  List.iter
    (fun (e : Engine.t) ->
      Alcotest.(check (list int)) "fires" [ 0 ] (e.process { Types.value = [| 3. |]; weight = 1 }))
    engines

let test_one_sided_ranges_dt_vs_baseline () =
  (* Infinite bounds (one-sided ranges) across dt and baseline; the
     stabbing structures are finite-geometry and excluded by design. *)
  let dim = 2 in
  let engines = [ baseline ~dim; dt ~dim ] in
  let rects =
    [
      Types.rect_make [| (neg_infinity, 5.); (0., 10.) |];
      Types.rect_make [| (2., infinity); (neg_infinity, infinity) |];
      Types.rect_make [| (neg_infinity, infinity); (3., 4.) |];
    ]
  in
  List.iter
    (fun (e : Engine.t) ->
      List.iteri (fun id rect -> e.register { Types.id = id; rect; threshold = 20 }) rects)
    engines;
  let rng = Prng.create ~seed:902 in
  for step = 1 to 400 do
    let e = mk_elem rng ~dim ~domain:12 ~max_weight:3 in
    let outs = List.map (fun (eng : Engine.t) -> eng.process e) engines in
    match outs with
    | [ a; b ] -> Alcotest.(check (list int)) (Printf.sprintf "step %d" step) a b
    | _ -> assert false
  done

let test_elements_on_shared_grid () =
  (* Every element value is exactly a query endpoint: the half-open
     semantics must agree across engines at every boundary. *)
  let dim = 1 in
  let engines = [ baseline ~dim; dt ~dim; stab1d ~dim; rtree ~dim ] in
  List.iter
    (fun (e : Engine.t) ->
      e.register_batch
        (List.init 20 (fun id ->
             let lo = float_of_int id in
             { Types.id; rect = Types.interval lo (lo +. 3.); threshold = 8 })))
    engines;
  let rng = Prng.create ~seed:903 in
  for step = 1 to 600 do
    let e = { Types.value = [| float_of_int (Prng.int rng 24) |]; weight = 1 + Prng.int rng 2 } in
    let outs = List.map (fun (eng : Engine.t) -> eng.process e) engines in
    match outs with
    | first :: rest ->
        List.iter
          (fun o -> Alcotest.(check (list int)) (Printf.sprintf "step %d" step) first o)
          rest
    | [] -> ()
  done

let test_negative_coordinates () =
  let dim = 2 in
  let engines = [ baseline ~dim; dt ~dim; stab2d ~dim; rtree ~dim ] in
  let rng = Prng.create ~seed:904 in
  let queries =
    List.init 60 (fun id ->
        let mk () =
          let a = float_of_int (Prng.int rng 20 - 10) in
          (a, a +. 1. +. float_of_int (Prng.int rng 8))
        in
        { Types.id; rect = Types.rect_make [| mk (); mk () |]; threshold = 30 })
  in
  List.iter (fun (e : Engine.t) -> e.register_batch queries) engines;
  for step = 1 to 800 do
    let e =
      {
        Types.value = Array.init dim (fun _ -> float_of_int (Prng.int rng 28 - 14));
        weight = 1 + Prng.int rng 4;
      }
    in
    let outs = List.map (fun (eng : Engine.t) -> eng.process e) engines in
    match outs with
    | first :: rest ->
        List.iter
          (fun o -> Alcotest.(check (list int)) (Printf.sprintf "step %d" step) first o)
          rest
    | [] -> ()
  done

(* qcheck: random parameters for the whole simulation. *)
let prop_equivalence =
  QCheck.Test.make ~count:(Qcheck_env.count 25) ~name:"random workloads: dt = baseline"
    QCheck.(
      quad (int_bound 10_000) (int_range 1 3) (int_range 2 20) (int_range 1 200))
    (fun (seed, dim, domain, max_tau) ->
      let n =
        simulate ~seed ~dim ~steps:600 ~domain ~max_weight:8 ~max_tau ~p_reg:0.2 ~p_term:0.05
          [ baseline; dt ]
      in
      ignore n;
      true)

(* A refused [register_batch] registers nothing, on every engine: the
   core roster and the approximate tier. The batch is fresh valid
   queries with one fault at a random position — an id already alive,
   an id repeated in the batch, threshold 0 or a wrong-dimension
   rectangle. *)
let prop_refused_batch_is_atomic =
  let factories =
    List.map
      (fun (en : Engine_registry.entry) ->
        (en.name, (match en.dims with Engine_registry.Only d -> Some d | Any -> None), en.make))
      (Engine_registry.entries ())
    @ [
        ("crprecis", Some 1, fun ~dim:_ -> Rts_approx.Crprecis_engine.make ());
        ("heavy", Some 1, fun ~dim:_ -> Rts_approx.Heavy_engine.make ());
        ("topn", None, fun ~dim -> Rts_approx.Topn.engine ~dim);
      ]
  in
  QCheck.Test.make ~count:(Qcheck_env.count 40) ~name:"refused register_batch changes nothing"
    (QCheck.make
       ~print:QCheck.Print.(triple int int int)
       QCheck.Gen.(triple (int_bound 10_000) (int_range 1 3) (int_bound 3)))
    (fun (seed, any_dim, fault) ->
      List.iter
        (fun (name, fixed, make) ->
          let dim = Option.value fixed ~default:any_dim in
          let rng = Prng.create ~seed in
          let e : Engine.t = make ~dim in
          let query id = { Types.id; rect = mk_rect rng ~dim ~domain:10; threshold = 1 + Prng.int rng 50 } in
          let alive = 1 + Prng.int rng 6 in
          e.register_batch (List.init alive query);
          for _ = 1 to Prng.int rng 20 do
            ignore (e.process (mk_elem rng ~dim ~domain:10 ~max_weight:3))
          done;
          let before = e.alive_snapshot () in
          let fresh = List.init (1 + Prng.int rng 5) (fun i -> query (100 + i)) in
          let bad =
            match (fault, before) with
            | 0, _ :: _ -> query (fst (List.nth before (Prng.int rng (List.length before)))).Types.id
            | (0 | 1), _ -> query (100 + Prng.int rng (List.length fresh))
            | 2, _ -> { (query 99) with Types.threshold = 0 }
            | _ -> { (query 99) with Types.rect = mk_rect rng ~dim:(dim + 1) ~domain:10 }
          in
          let at = Prng.int rng (List.length fresh + 1) in
          let batch = List.filteri (fun i _ -> i < at) fresh @ (bad :: List.filteri (fun i _ -> i >= at) fresh) in
          (match e.register_batch batch with
          | exception Invalid_argument _ -> ()
          | () -> QCheck.Test.fail_reportf "%s: batch with fault %d accepted" name fault);
          if e.alive_snapshot () <> before then
            QCheck.Test.fail_reportf "%s (dim %d, fault %d): refused batch changed the engine" name
              dim fault;
          e.register_batch fresh;
          if e.alive () <> List.length before + List.length fresh then
            QCheck.Test.fail_reportf "%s: the valid batch after a refusal did not land" name)
        factories;
      true)

(* The registry is how the CLI and the bench rosters name engines: the
   core roster in order, each buildable at a dimensionality it supports,
   and the user-facing refusals. *)
let test_registry () =
  let core = [ "dt"; "dt-eager"; "baseline"; "interval-tree"; "seg-intv"; "r-tree" ] in
  Alcotest.(check (list string)) "core roster in registration order" core
    (Engine_registry.names ());
  List.iter2
    (fun name dim ->
      let e = Engine_registry.make ~name ~dim in
      Alcotest.(check int) (Printf.sprintf "%s at dim %d starts empty" name dim) 0
        (e.Engine.alive ()))
    core [ 3; 2; 1; 1; 2; 3 ];
  Alcotest.check_raises "fixed-dimension guard" (Failure "seg-intv engine is 2D only")
    (fun () -> ignore (Engine_registry.make ~name:"seg-intv" ~dim:1));
  Alcotest.check_raises "unknown name lists the roster"
    (Failure ("unknown engine \"nope\" (known: " ^ String.concat ", " core ^ ")"))
    (fun () -> ignore (Engine_registry.make ~name:"nope" ~dim:1));
  Alcotest.check_raises "duplicate name refused"
    (Invalid_argument "Engine_registry.register: duplicate engine \"dt\"") (fun () ->
      Engine_registry.register ~name:"dt" ~doc:"" (fun ~dim -> Baseline_engine.make ~dim))

let () =
  Alcotest.run "engines"
    [
      ( "equivalence",
        [
          Alcotest.test_case "1d: baseline = dt = interval-tree = r-tree" `Quick test_1d_all;
          Alcotest.test_case "2d: baseline = dt = seg-intv = r-tree" `Quick test_2d_all;
          Alcotest.test_case "3d: baseline = dt = r-tree" `Quick test_3d_dt;
          Alcotest.test_case "1d counting (unit weights)" `Quick test_1d_unit_weights;
          Alcotest.test_case "1d heavy weights (DT overshoot)" `Quick test_1d_heavy_weights;
          Alcotest.test_case "1d without terminations" `Quick test_1d_no_terminations;
          Alcotest.test_case "static batch = dynamic = oracle" `Quick test_static_batch;
          Alcotest.test_case "progress agrees with oracle" `Quick test_progress_agrees;
          Alcotest.test_case "500 identical queries" `Quick test_identical_queries_mass;
          Alcotest.test_case "threshold 1" `Quick test_threshold_one;
          Alcotest.test_case "one-sided ranges" `Quick test_one_sided_ranges_dt_vs_baseline;
          Alcotest.test_case "elements on shared grid" `Quick test_elements_on_shared_grid;
          Alcotest.test_case "negative coordinates" `Quick test_negative_coordinates;
        ] );
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_equivalence;
          QCheck_alcotest.to_alcotest prop_refused_batch_is_atomic;
        ] );
      ("registry", [ Alcotest.test_case "names, dims and refusals" `Quick test_registry ]);
    ]
