(* The approximate tier's correctness contract is different from the
   exact engines' (test_engines.ml diffs maturity streams verbatim):
   an approximate engine promises *certified interval* answers and
   *never-early* maturity. So the properties here are:

   - containment: every sketch range answer [lower, upper] contains the
     exact count, across random op sequences and random cut points —
     equivalently, the answer is within its stated epsilon
     ((upper - lower) / 2 around the midpoint) of the exact answer;
   - never-early: any maturity an approximate engine reports is already
     a true maturity under an exact reference computed by brute force,
     and the certified W interval of every alive query contains the
     exact accumulated weight;
   - top-n exactness: the binary threshold search returns exactly the n
     nearest-maturity queries the fully sorted exact ranking puts first.

   The pinned-seed Scenario sweep (widened via RTS_APPROX_SEEDS)
   re-checks never-early against the
   baseline engine on paper-style workloads, and that the approximate
   tier is not vacuous there (it does mature queries). *)

open Rts_core
open Rts_approx
module Prng = Rts_util.Prng

(* The registry learns about the approximate engines only on install. *)
let () = Install.install ()

let domain_hi = 1e5

(* ---- reference bookkeeping (brute force) --------------------------- *)

let count_in log ~lo ~hi =
  List.fold_left (fun acc (v, w) -> if lo <= v && v < hi then acc + w else acc) 0 log

(* Random float in [lo, hi) from the deterministic test PRNG. *)
let frange rng lo hi = lo +. ((hi -. lo) *. Prng.float rng 1.0)

(* Values mostly in-domain, sometimes outside (the sketches must route
   out-of-domain mass to their exact side counters, not into cells). *)
let rand_value rng =
  match Prng.int rng 20 with
  | 0 -> frange rng (-2e4) 0.
  | 1 -> frange rng domain_hi 1.4e5
  | _ -> frange rng 0. domain_hi

(* Ranges from a few buckets wide to half the domain, sometimes hanging
   off either edge of the sketch domain. *)
let rand_range rng =
  let width =
    match Prng.int rng 4 with
    | 0 -> frange rng 10. 500.
    | 1 -> frange rng 500. 5000.
    | _ -> frange rng 5000. 50000.
  in
  let lo = frange rng (-0.1 *. domain_hi) (1.05 *. domain_hi -. width) in
  (lo, lo +. width)

let summaries () =
  [
    ("crprecis", Crprecis.summary (Crprecis.create ()));
    ("heavy", Heavy.summary (Heavy.create ()));
  ]

(* ---- containment: exact within [lower, upper] at random cuts ------- *)

let containment_episode ~seed ~steps =
  let rng = Prng.create ~seed in
  let sums = summaries () in
  let log = ref [] in
  let probes = Array.init 12 (fun _ -> rand_range rng) in
  for step = 1 to steps do
    let v = rand_value rng and w = 1 + Prng.int rng 40 in
    List.iter (fun (_, s) -> s.Summary.insert v w) sums;
    log := (v, w) :: !log;
    (* Random cut points: roughly every 50 steps, audit every probe and
       a couple of fresh ranges on every summary. *)
    if Prng.int rng 50 = 0 || step = steps then
      Array.iter
        (fun (lo, hi) ->
          let exact = count_in !log ~lo ~hi in
          List.iter
            (fun (name, s) ->
              let est = s.Summary.range ~lo ~hi in
              if not (est.Summary.lower <= exact && exact <= est.Summary.upper) then
                Alcotest.failf
                  "%s: step %d range [%g, %g): exact %d outside [%d, %d]" name step lo
                  hi exact est.Summary.lower est.Summary.upper;
              (* The "stated epsilon" formulation: |midpoint - exact|
                 bounded by the half-width the summary itself reports. *)
              let mid = (est.Summary.lower + est.Summary.upper) / 2 in
              let eps = (est.Summary.upper - est.Summary.lower + 1) / 2 in
              if abs (mid - exact) > eps then
                Alcotest.failf "%s: step %d: answer %d +/- %d misses exact %d" name step
                  mid eps exact)
            sums)
        (Array.append probes [| rand_range rng; rand_range rng |])
  done

let prop_containment =
  QCheck.Test.make ~count:(Qcheck_env.count 30)
    ~name:"sketch answers contain the exact count (within stated epsilon)"
    QCheck.(pair (int_bound 100_000) (int_range 200 1200))
    (fun (seed, steps) ->
      containment_episode ~seed ~steps;
      true)

(* ---- never-early engines vs a brute-force reference ---------------- *)

type ref_query = { rect_lo : float; rect_hi : float; tau : int; mutable w : int }

let engine_episode ~seed ~steps (make_engine : unit -> Engine.t * (int -> int * int)) =
  let rng = Prng.create ~seed in
  let engine, bounds = make_engine () in
  let reference : (int, ref_query) Hashtbl.t = Hashtbl.create 64 in
  let next_id = ref 0 in
  let alive_ids () = Hashtbl.fold (fun id _ acc -> id :: acc) reference [] in
  for step = 1 to steps do
    (* Register with probability ~1/6; thresholds low enough that the
       certified lower bound (wide ranges, exact coarse levels) crosses
       them within the episode, keeping the property non-vacuous. *)
    if Prng.int rng 6 = 0 || Hashtbl.length reference = 0 then begin
      let lo, hi = rand_range rng in
      let id = !next_id in
      incr next_id;
      let tau = 50 + Prng.int rng 4000 in
      engine.Engine.register { Types.id; rect = Types.interval lo hi; threshold = tau };
      Hashtbl.replace reference id { rect_lo = lo; rect_hi = hi; tau; w = 0 }
    end;
    if Prng.int rng 40 = 0 && Hashtbl.length reference > 0 then begin
      let ids = alive_ids () in
      let victim = List.nth ids (Prng.int rng (List.length ids)) in
      engine.Engine.terminate victim;
      Hashtbl.remove reference victim
    end;
    let v = rand_value rng and w = 1 + Prng.int rng 40 in
    let matured = engine.Engine.process { Types.value = [| v |]; weight = w } in
    Hashtbl.iter
      (fun _ q -> if q.rect_lo <= v && v < q.rect_hi then q.w <- q.w + w)
      reference;
    (* Never-early: every reported maturity is a true maturity. *)
    List.iter
      (fun id ->
        match Hashtbl.find_opt reference id with
        | None -> Alcotest.failf "step %d: matured unknown/terminated id %d" step id
        | Some q ->
            if q.w < q.tau then
              Alcotest.failf "step %d: q%d matured EARLY: exact W %d < tau %d" step id
                q.w q.tau;
            Hashtbl.remove reference id)
      matured;
    (* Cut points: certified W interval must contain the exact W, and
       the snapshot's reported weight must never exceed it. *)
    if Prng.int rng 60 = 0 || step = steps then begin
      Hashtbl.iter
        (fun id q ->
          let l, u = bounds id in
          if not (l <= q.w && q.w <= u) then
            Alcotest.failf "step %d: q%d exact W %d outside certified [%d, %d]" step id
              q.w l u)
        reference;
      List.iter
        (fun ((q : Types.query), w) ->
          let r = Hashtbl.find reference q.Types.id in
          if w > r.w then
            Alcotest.failf "step %d: snapshot overstates q%d: %d > exact %d" step
              q.Types.id w r.w)
        (engine.Engine.alive_snapshot ())
    end
  done;
  (* The engine's own accounting agrees with the reference's alive set. *)
  Alcotest.(check int) "alive count" (Hashtbl.length reference) (engine.Engine.alive ())

let crprecis_factory () =
  let t = Crprecis_engine.create () in
  (Crprecis_engine.engine t, Crprecis_engine.bounds t)

let heavy_factory () =
  let t = Heavy_engine.create () in
  (Heavy_engine.engine t, Heavy_engine.bounds t)

let prop_never_early_crprecis =
  QCheck.Test.make ~count:(Qcheck_env.count 25)
    ~name:"crprecis engine: never early, certified bounds contain exact W"
    QCheck.(pair (int_bound 100_000) (int_range 400 2500))
    (fun (seed, steps) ->
      engine_episode ~seed ~steps crprecis_factory;
      true)

let prop_never_early_heavy =
  QCheck.Test.make ~count:(Qcheck_env.count 25)
    ~name:"heavy engine: never early, certified bounds contain exact W"
    QCheck.(pair (int_bound 100_000) (int_range 400 2500))
    (fun (seed, steps) ->
      engine_episode ~seed ~steps heavy_factory;
      true)

(* ---- top-n threshold search = sorted prefix ------------------------ *)

let prop_topn =
  QCheck.Test.make ~count:(Qcheck_env.count 200)
    ~name:"top-n threshold search = first n of the full sorted ranking"
    QCheck.(
      pair (int_bound 100_000) (pair (int_range 0 400) (int_bound 30)))
    (fun (seed, (m, n)) ->
      let rng = Prng.create ~seed in
      (* Synthetic snapshot with deliberately heavy slack ties. *)
      let snap =
        List.init m (fun id ->
            let tau = 10 + Prng.int rng 50 in
            let w = Prng.int rng tau in
            ({ Types.id; rect = Types.interval 0. 1.; threshold = tau }, w))
      in
      let got = Topn.closest_of_snapshot snap ~n in
      let full =
        List.map
          (fun ((q : Types.query), w) ->
            { Topn.id = q.Types.id; slack = q.Types.threshold - w; threshold = q.Types.threshold })
          snap
        |> List.sort (fun (a : Topn.entry) b ->
               if a.Topn.slack <> b.Topn.slack then compare a.Topn.slack b.Topn.slack
               else compare a.Topn.id b.Topn.id)
      in
      let expect = List.filteri (fun k _ -> k < n) full in
      if got <> expect then
        QCheck.Test.fail_reportf "topn mismatch: m=%d n=%d: got %d entries" m n
          (List.length got);
      true)

let test_topn_live_engine () =
  (* Against a live DT engine: the snapshot weights come from the DT
     slack machinery; the search must agree with sorting them. *)
  let rng = Prng.create ~seed:4242 in
  let e = Engine_registry.make ~name:"topn" ~dim:1 in
  List.iteri
    (fun id (lo, hi) ->
      e.Engine.register { Types.id; rect = Types.interval lo hi; threshold = 500 + Prng.int rng 3000 })
    (List.init 150 (fun _ -> rand_range rng));
  for _ = 1 to 2000 do
    ignore (e.Engine.process { Types.value = [| frange rng 0. domain_hi |]; weight = 1 + Prng.int rng 9 })
  done;
  let n = 10 in
  let got = Topn.closest e ~n in
  let expect =
    e.Engine.alive_snapshot ()
    |> List.map (fun ((q : Types.query), w) ->
           { Topn.id = q.Types.id; slack = q.Types.threshold - w; threshold = q.Types.threshold })
    |> List.sort (fun (a : Topn.entry) b ->
           if a.Topn.slack <> b.Topn.slack then compare a.Topn.slack b.Topn.slack
           else compare a.Topn.id b.Topn.id)
    |> List.filteri (fun k _ -> k < n)
  in
  Alcotest.(check int) "10 entries" n (List.length got);
  if got <> expect then Alcotest.fail "topn over live DT engine mismatches sorted prefix"

(* ---- heavy tracker's own query class ------------------------------- *)

let test_hot_ranges () =
  let hv = Heavy.create () in
  let rng = Prng.create ~seed:99 in
  (* Uniform background plus two deliberate hot spots. *)
  for _ = 1 to 5000 do
    Heavy.insert hv (frange rng 0. domain_hi) 1
  done;
  for _ = 1 to 3000 do
    Heavy.insert hv (frange rng 20000. 20600.) 5;
    Heavy.insert hv (frange rng 71000. 71500.) 7
  done;
  let hits = Heavy.hot hv ~threshold:8000 in
  let covers x =
    List.exists (fun r -> let lo, hi = r.Heavy.range in lo <= x && x < hi) hits
  in
  Alcotest.(check bool) "hot spot 1 found" true (covers 20300.);
  Alcotest.(check bool) "hot spot 2 found" true (covers 71250.);
  List.iter
    (fun r -> Alcotest.(check bool) "bounds ordered" true (r.Heavy.lower <= r.Heavy.upper))
    hits;
  (* Determinism: the same insert sequence reproduces the answer. *)
  let hv2 = Heavy.create () in
  let rng2 = Prng.create ~seed:99 in
  for _ = 1 to 5000 do
    Heavy.insert hv2 (frange rng2 0. domain_hi) 1
  done;
  for _ = 1 to 3000 do
    Heavy.insert hv2 (frange rng2 20000. 20600.) 5;
    Heavy.insert hv2 (frange rng2 71000. 71500.) 7
  done;
  if Heavy.hot hv2 ~threshold:8000 <> hits then Alcotest.fail "hot ranges not deterministic";
  (* top: descending by tracked weight, bounded count. *)
  let top = Heavy.top hv ~n:5 in
  Alcotest.(check bool) "top returns <= n" true (List.length top <= 5);
  let rec desc = function
    | a :: (b :: _ as rest) -> a.Heavy.lower >= b.Heavy.lower && desc rest
    | _ -> true
  in
  Alcotest.(check bool) "top is weight-descending" true (desc top)

(* ---- dyadic plumbing ----------------------------------------------- *)

let test_dyadic_cover () =
  let dy = Dyadic.create () in
  let rng = Prng.create ~seed:7 in
  for _ = 1 to 500 do
    let lo, hi = rand_range rng in
    let cov = Dyadic.cover dy ~lo ~hi in
    (* Inner cells must nest inside the queried interval... *)
    List.iter
      (fun c ->
        let clo, chi = Dyadic.cell_range dy c in
        if not (lo <= clo && chi <= hi) then
          Alcotest.failf "inner cell [%g, %g) escapes [%g, %g)" clo chi lo hi)
      cov.Dyadic.inner;
    (* ... and the outer decomposition covers every inner cell. *)
    let covered x =
      List.exists
        (fun c ->
          let clo, chi = Dyadic.cell_range dy c in
          clo <= x && x < chi)
        cov.Dyadic.outer
    in
    List.iter
      (fun c ->
        let clo, _ = Dyadic.cell_range dy c in
        if not (covered clo) then Alcotest.failf "outer misses inner cell at %g" clo)
      cov.Dyadic.inner
  done

let test_engine_edges () =
  let t = Crprecis_engine.create () in
  let e = Crprecis_engine.engine t in
  e.Engine.register { Types.id = 1; rect = Types.interval 0. 5000.; threshold = 10 };
  Alcotest.check_raises "duplicate id"
    (Invalid_argument "crprecis: duplicate alive query id 1") (fun () ->
      e.Engine.register { Types.id = 1; rect = Types.interval 0. 1.; threshold = 5 });
  Alcotest.check_raises "terminate unknown" Not_found (fun () -> e.Engine.terminate 99);
  e.Engine.terminate 1;
  Alcotest.(check int) "empty" 0 (e.Engine.alive ());
  (* 1D only, enforced through the registry. *)
  (match Engine_registry.make ~name:"crprecis" ~dim:2 with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "crprecis at dim 2 should fail");
  (* collisions: coarse levels are exact, fine levels collide in <= 1
     table with the default primes. *)
  let sk = Crprecis_engine.sketch (Crprecis_engine.create ()) in
  Alcotest.(check int) "root level exact" 0 (Crprecis.collisions_at sk 0);
  Alcotest.(check int) "finest level c=1" 1
    (Crprecis.collisions_at sk (Dyadic.depth (Crprecis.dyadic sk)))

(* ---- pinned-seed paper scenarios ------------------------------------ *)

let approx_seeds = Qcheck_env.seeds "RTS_APPROX_SEEDS" ~default:[ 7; 21; 63 ]

let scenario_cfg seed =
  {
    Rts_workload.Scenario.default with
    Rts_workload.Scenario.dim = 1;
    seed;
    initial_queries = 400;
    tau = 4000;
    max_elements = 30_000;
    chunk = 512;
  }

(* An approximate engine's maturity log must be a *late subset* of the
   exact engine's on the identical workload: every id it matures, the
   exact engine matured at the same timestamp or earlier. And the tier
   must not be vacuous: the certified lower bounds do cross tau on
   paper-style workloads. *)
let scenario_never_early ~factory ~name seed =
  let cfg = scenario_cfg seed in
  let exact =
    Rts_workload.Scenario.run cfg (fun ~dim -> Baseline_engine.make ~dim)
  in
  let approx = Rts_workload.Scenario.run cfg factory in
  let exact_ts = Hashtbl.create 512 in
  List.iter
    (fun (ts, id) -> if not (Hashtbl.mem exact_ts id) then Hashtbl.add exact_ts id ts)
    exact.Rts_workload.Scenario.maturity_log;
  List.iter
    (fun (ts, id) ->
      match Hashtbl.find_opt exact_ts id with
      | None ->
          Alcotest.failf "seed %d %s: q%d matured but never matured exactly" seed name id
      | Some ts' ->
          if ts' > ts then
            Alcotest.failf "seed %d %s: q%d matured EARLY (approx ts %d < exact ts %d)"
              seed name id ts ts')
    approx.Rts_workload.Scenario.maturity_log;
  if approx.Rts_workload.Scenario.matured = 0 then
    Alcotest.failf "seed %d %s: vacuous (no approximate maturities)" seed name

let test_scenario_sweep () =
  List.iter
    (fun seed ->
      scenario_never_early ~name:"crprecis"
        ~factory:(fun ~dim:_ -> Crprecis_engine.make ())
        seed;
      scenario_never_early ~name:"heavy" ~factory:(fun ~dim:_ -> Heavy_engine.make ()) seed)
    approx_seeds

let () =
  Alcotest.run "approx"
    [
      ("dyadic", [ Alcotest.test_case "inner/outer cover" `Quick test_dyadic_cover ]);
      ( "property",
        [
          QCheck_alcotest.to_alcotest prop_containment;
          QCheck_alcotest.to_alcotest prop_never_early_crprecis;
          QCheck_alcotest.to_alcotest prop_never_early_heavy;
          QCheck_alcotest.to_alcotest prop_topn;
        ] );
      ( "topn",
        [ Alcotest.test_case "live DT engine sorted prefix" `Quick test_topn_live_engine ] );
      ( "heavy",
        [ Alcotest.test_case "hot/top ranges" `Quick test_hot_ranges ] );
      ("edges", [ Alcotest.test_case "engine edge cases" `Quick test_engine_edges ]);
      ( "scenario",
        [ Alcotest.test_case "pinned-seed never-early sweep" `Slow test_scenario_sweep ] );
    ]
