(* Sharded ingestion equivalence: a sharded engine (queries placed by
   rendezvous hash, every shard ingesting the whole stream) must be
   observably indistinguishable from the unsharded engine it partitions:
   matured id lists at every step, alive counts, per-query accumulated
   weights, and (through the Scenario driver) the maturity log verbatim,
   timestamps included — for every engine, shard count, executor and
   batch size.

   Layers:
   - unit tests for the rendezvous placement (range, determinism, rough
     balance, the k -> k+1 monotonicity that makes growing a deployment
     cheap) and the executor contract (slot-ordered results,
     lowest-slot exception, exception-safe teardown) on BOTH backends
     where available;
   - a qcheck property driving random episodes (random shard counts,
     batch cut points, mid-stream registrations and terminations) over
     every engine, comparing the sharded engine step by step against the
     unsharded reference;
   - pinned-seed Scenario regressions (RTS_SHARD_SEEDS widens the seed
     list) asserting maturity-log equality for
     k in {1,2,4} x executors x batch in {1,64};
   - wrapper composition: Durable.wrap around a sharded engine recovers
     into an equivalent sharded engine. *)

open Rts_core
open Rts_workload
open Rts_resilience
module Prng = Rts_util.Prng
module Metrics = Rts_obs.Metrics
module Shard = Rts_shard.Shard
module Executor = Rts_shard.Executor
module Rendezvous = Rts_shard.Rendezvous

let executors = Executor.Seq :: (if Executor.domains_available then [ Executor.Domains ] else [])

let exec_str = Executor.kind_to_string

(* ---- rendezvous placement ----------------------------------------- *)

let test_rendezvous_range () =
  List.iter
    (fun shards ->
      for id = 0 to 2_000 do
        let s = Rendezvous.owner ~shards id in
        if s < 0 || s >= shards then
          Alcotest.failf "owner ~shards:%d %d = %d out of range" shards id s;
        Alcotest.(check int)
          (Printf.sprintf "owner is deterministic (k=%d id=%d)" shards id)
          s
          (Rendezvous.owner ~shards id)
      done)
    [ 1; 2; 3; 4; 7; 8 ];
  for id = 0 to 100 do
    Alcotest.(check int) "single shard owns everything" 0 (Rendezvous.owner ~shards:1 id)
  done;
  Alcotest.check_raises "shards=0 rejected" (Invalid_argument "Rendezvous.owner: shards < 1")
    (fun () -> ignore (Rendezvous.owner ~shards:0 5))

let test_rendezvous_balance () =
  let n = 10_000 and shards = 8 in
  let counts = Array.make shards 0 in
  for id = 0 to n - 1 do
    let s = Rendezvous.owner ~shards id in
    counts.(s) <- counts.(s) + 1
  done;
  let expected = n / shards in
  Array.iteri
    (fun s c ->
      if c < expected / 2 || c > expected * 2 then
        Alcotest.failf "shard %d owns %d of %d ids (expected ~%d): hash is badly skewed" s c n
          expected)
    counts

(* HRW monotonicity: adding shard k+1 only ever moves ids TO the new
   shard — an id whose argmax was s <= k keeps it unless the new shard's
   score beats it. *)
let test_rendezvous_monotone () =
  for shards = 1 to 7 do
    for id = 0 to 3_000 do
      let before = Rendezvous.owner ~shards id in
      let after = Rendezvous.owner ~shards:(shards + 1) id in
      if after <> before && after <> shards then
        Alcotest.failf "k=%d -> k=%d moved id %d from shard %d to OLD shard %d" shards
          (shards + 1) id before after
    done
  done

(* owner is the argmax of the exposed score (unsigned order, lowest
   shard on a tie), for every id including negative and extreme ones. *)
let test_rendezvous_argmax () =
  let argmax ~shards id =
    let best = ref 0 in
    for s = 1 to shards - 1 do
      if Int64.unsigned_compare (Rendezvous.score ~shard:s id) (Rendezvous.score ~shard:!best id) > 0
      then best := s
    done;
    !best
  in
  let ids = [ min_int; min_int + 1; -1_000_000; -1; max_int; max_int - 1 ] @ List.init 500 Fun.id in
  for shards = 1 to 9 do
    List.iter
      (fun id ->
        Alcotest.(check int)
          (Printf.sprintf "owner ~shards:%d %d = argmax score" shards id)
          (argmax ~shards id) (Rendezvous.owner ~shards id))
      ids
  done

(* ---- executor contract -------------------------------------------- *)

let test_executor_basics () =
  List.iter
    (fun kind ->
      let t = Executor.create ~kind ~shards:4 () in
      Alcotest.(check int) "shards" 4 (Executor.shards t);
      let r = Executor.run_all t (fun i -> (10 * i) + 1) in
      Alcotest.(check (array int)) (exec_str kind ^ ": slot-ordered results") [| 1; 11; 21; 31 |] r;
      Alcotest.(check int) (exec_str kind ^ ": run_on") 42 (Executor.run_on t 2 (fun () -> 42));
      (* lowest failing slot wins, deterministically *)
      (try
         ignore
           (Executor.run_all t (fun i -> if i >= 1 then raise (Failure (string_of_int i)) else i));
         Alcotest.fail "expected exception from run_all"
       with Failure s ->
         Alcotest.(check string) (exec_str kind ^ ": lowest-slot exception") "1" s);
      (* the pool survives a task exception *)
      Alcotest.(check (array int))
        (exec_str kind ^ ": usable after exception")
        [| 0; 1; 2; 3 |]
        (Executor.run_all t (fun i -> i));
      Executor.close t;
      Executor.close t (* idempotent *);
      Alcotest.check_raises (exec_str kind ^ ": run after close") (Invalid_argument "Executor: closed")
        (fun () -> ignore (Executor.run_all t (fun i -> i))))
    executors;
  if not Executor.domains_available then
    try
      ignore (Executor.create ~kind:Executor.Domains ~shards:2 ());
      Alcotest.fail "domains executor should be unavailable"
    with Invalid_argument _ -> ()

let test_executor_strings () =
  List.iter
    (fun kind ->
      Alcotest.(check bool) "kind_of_string inverts kind_to_string" true
        (Executor.kind_of_string (exec_str kind) = Ok kind))
    [ Executor.Seq; Executor.Domains ];
  Alcotest.(check bool) "par = domains" true
    (Executor.kind_of_string "par" = Ok Executor.Domains);
  Alcotest.(check bool) "unknown rejected" true
    (match Executor.kind_of_string "gpu" with Error _ -> true | Ok _ -> false)

(* kind_of_string is the one parser behind every --executor flag
   (rts-cli and rts-serve alike), so its spellings and its error text
   are the whole user-facing contract. *)
let test_executor_spellings () =
  List.iter
    (fun (s, kind) ->
      Alcotest.(check bool) (Printf.sprintf "%S accepted" s) true
        (Executor.kind_of_string s = Ok kind))
    [
      ("seq", Executor.Seq);
      ("sequential", Executor.Seq);
      ("domains", Executor.Domains);
      ("par", Executor.Domains);
    ];
  List.iter
    (fun s ->
      match Executor.kind_of_string s with
      | Ok _ -> Alcotest.failf "%S must be rejected" s
      | Error msg ->
          Alcotest.(check string) (Printf.sprintf "error text for %S" s)
            (Printf.sprintf "unknown executor %S (expected seq or domains)" s)
            msg)
    [ ""; "gpu"; "Seq"; "DOMAINS"; " seq" ];
  Alcotest.(check bool) "default kind is domains iff available" Executor.domains_available
    (Executor.default_kind = Executor.Domains)

let test_executor_create () =
  List.iter
    (fun shards ->
      Alcotest.check_raises (Printf.sprintf "shards=%d rejected" shards)
        (Invalid_argument "Executor.create: shards < 1") (fun () ->
          ignore (Executor.create ~shards ())))
    [ 0; -2 ];
  let t = Executor.create ~shards:3 () in
  Alcotest.(check string) "default kind is seq" "seq" (exec_str (Executor.kind t));
  Executor.close t;
  List.iter
    (fun kind ->
      List.iter
        (fun shards ->
          let t = Executor.create ~kind ~shards () in
          Fun.protect ~finally:(fun () -> Executor.close t) @@ fun () ->
          let ctx = Printf.sprintf "%s k=%d" (exec_str kind) shards in
          Alcotest.(check string) (ctx ^ ": kind") (exec_str kind) (exec_str (Executor.kind t));
          Alcotest.(check int) (ctx ^ ": shards") shards (Executor.shards t);
          Alcotest.(check int) (ctx ^ ": worker count")
            (match kind with Executor.Domains -> shards | Executor.Seq -> 1)
            (Executor.worker_count t);
          Alcotest.(check (array int)) (ctx ^ ": one result per slot")
            (Array.init shards (fun i -> i * i))
            (Executor.run_all t (fun i -> i * i)))
        [ 1; 2; 5 ])
    executors

let test_executor_run_on () =
  List.iter
    (fun kind ->
      let ctx = exec_str kind in
      let t = Executor.create ~kind ~shards:3 () in
      for i = 0 to 2 do
        Alcotest.(check int) (Printf.sprintf "%s: run_on %d" ctx i) (100 + i)
          (Executor.run_on t i (fun () -> 100 + i))
      done;
      List.iter
        (fun i ->
          Alcotest.check_raises (Printf.sprintf "%s: slot %d out of range" ctx i)
            (Invalid_argument "Executor.run_on: shard out of range") (fun () ->
              Executor.run_on t i (fun () -> ())))
        [ -1; 3 ];
      Alcotest.check_raises (ctx ^ ": task exception propagates") (Failure "on-slot-1") (fun () ->
          Executor.run_on t 1 (fun () -> failwith "on-slot-1"));
      Alcotest.(check string) (ctx ^ ": slot usable after exception") "ok"
        (Executor.run_on t 1 (fun () -> "ok"));
      Executor.close t;
      Alcotest.check_raises (ctx ^ ": run_on after close") (Invalid_argument "Executor: closed")
        (fun () -> Executor.run_on t 0 (fun () -> ())))
    executors

(* Every fan-out runs each slot's task exactly once: a lost or doubled
   task under the domains backend's ring/latch handoff shows up as a
   per-slot count off by one. Each task writes only its own cell. *)
let test_executor_each_slot_once () =
  List.iter
    (fun kind ->
      let shards = 4 and rounds = 300 in
      let t = Executor.create ~kind ~shards () in
      Fun.protect ~finally:(fun () -> Executor.close t) @@ fun () ->
      let calls = Array.make shards 0 in
      for r = 1 to rounds do
        let got = Executor.run_all t (fun i -> calls.(i) <- calls.(i) + 1; calls.(i)) in
        Alcotest.(check (array int))
          (Printf.sprintf "%s: round %d sees its own count" (exec_str kind) r)
          (Array.make shards r) got
      done;
      Alcotest.(check (array int)) (exec_str kind ^ ": each slot ran once per round")
        (Array.make shards rounds) calls)
    executors

(* Teardown as a leak detector: OCaml caps live domains low (~128), so
   if a raising task ever left close unable to Quit+join every worker,
   200 create/raise/close cycles with 4 slots each would exhaust the
   runtime's domain slots and Executor.create would start failing long
   before the loop ends. *)
let test_executor_teardown_leak () =
  List.iter
    (fun kind ->
      for _ = 1 to 200 do
        let t = Executor.create ~kind ~shards:4 () in
        (try
           ignore (Executor.run_all t (fun i -> if i land 1 = 0 then failwith "boom" else i));
           Alcotest.fail "expected run_all to re-raise"
         with Failure _ -> ());
        Executor.close t
      done)
    executors

(* Shard.create must close its executor when the engine factory raises
   partway through construction — the pre-fix behaviour parked 4 worker
   domains forever per failed create, so the same 200-cycle loop doubles
   as the regression test. *)
let test_shard_create_no_leak () =
  List.iter
    (fun kind ->
      for _ = 1 to 200 do
        let calls = ref 0 in
        try
          ignore
            (Shard.create ~executor:kind ~shards:4 ~dim:1 (fun ~dim ->
                 incr calls;
                 if !calls = 3 then failwith "factory refuses"
                 else Baseline_engine.make ~dim));
          Alcotest.fail "factory exception should propagate"
        with Failure _ -> ()
      done)
    executors

(* ---- engine roster + generators (test_feed_batch idiom) ----------- *)

let engines_for dim =
  List.concat
    [
      [
        ("baseline", fun () -> Baseline_engine.make ~dim);
        ("dt", fun () -> Dt_engine.make ~dim);
        ("dt-eager", fun () -> Dt_engine.make_eager ~dim);
      ];
      (if dim <= 3 then [ ("r-tree", fun () -> Rtree_engine.make ~dim) ] else []);
      (if dim = 1 then [ ("interval-tree", fun () -> Stab1d_engine.make ()) ] else []);
      (if dim = 2 then [ ("seg-intv", fun () -> Stab2d_engine.make ()) ] else []);
    ]

let gen_query rng ~dim ~domain ~max_tau ~id =
  let bounds =
    Array.init dim (fun _ ->
        let a = float_of_int (Prng.int rng domain) in
        (a, a +. 1. +. float_of_int (Prng.int rng domain)))
  in
  { Types.id; rect = Types.rect_make bounds; threshold = 1 + Prng.int rng max_tau }

let gen_elem rng ~dim ~domain ~max_weight =
  {
    Types.value = Array.init dim (fun _ -> float_of_int (Prng.int rng (domain + 4)));
    weight = 1 + Prng.int rng max_weight;
  }

let gen_cuts rng n =
  let segs = ref [] and used = ref 0 in
  while !used < n do
    let len = min (n - !used) (Prng.int rng 14) in
    segs := len :: !segs;
    used := !used + len
  done;
  List.rev !segs

let snapshot_str snap =
  String.concat ";" (List.map (fun ((q : Types.query), w) -> Printf.sprintf "%d:%d" q.id w) snap)

let ids_str l = String.concat ";" (List.map string_of_int l)

(* Empty dispatch is a total no-op — no deadlock (a zero-task barrier),
   no matured ids, no state change — for every unsharded engine and for
   the sharded engine on both executors. *)
let test_empty_batch () =
  List.iter
    (fun (name, make) ->
      let e = (make () : Engine.t) in
      Alcotest.(check (list int)) (name ^ ": feed_batch [||] = []") [] (e.feed_batch [||]))
    (engines_for 1);
  List.iter
    (fun kind ->
      let sh = Shard.create ~executor:kind ~shards:3 ~dim:1 (fun ~dim -> Dt_engine.make ~dim) in
      Fun.protect ~finally:(fun () -> Shard.close sh) @@ fun () ->
      let e = Shard.engine sh in
      let ctx = exec_str kind in
      let rng = Prng.create ~seed:3 in
      let queries = List.init 10 (fun id -> gen_query rng ~dim:1 ~domain:8 ~max_tau:1_000 ~id) in
      e.Engine.register_batch queries;
      Alcotest.(check (list int)) (ctx ^ ": empty batch matures nothing") []
        (e.Engine.feed_batch [||]);
      Alcotest.(check int) (ctx ^ ": alive unchanged") 10 (e.Engine.alive ());
      e.Engine.register_batch [];
      Alcotest.(check int) (ctx ^ ": empty register batch is a no-op") 10 (e.Engine.alive ()))
    executors

(* ---- one randomized episode: sharded vs unsharded step by step ---- *)

type episode_cfg = {
  seed : int;
  dim : int;
  shards : int;
  kind : Executor.kind;
  m : int;
  domain : int;
  max_weight : int;
  max_tau : int;
  n_elements : int;
  p_term : float;
  p_reg : float; (* per-boundary probability of a mid-stream registration *)
}

let episode cfg =
  let rng = Prng.create ~seed:cfg.seed in
  let queries =
    Array.init cfg.m (fun id ->
        gen_query rng ~dim:cfg.dim ~domain:cfg.domain ~max_tau:cfg.max_tau ~id)
  in
  let elems =
    Array.init cfg.n_elements (fun _ ->
        gen_elem rng ~dim:cfg.dim ~domain:cfg.domain ~max_weight:cfg.max_weight)
  in
  let cuts = gen_cuts rng cfg.n_elements in
  (* Pre-draw per-boundary decisions so every engine sees the identical
     op stream: maybe terminate one alive query, maybe register a fresh
     one, and whether to drive this window per-element or batched. *)
  let draws =
    List.map
      (fun _ ->
        ( (if Prng.bernoulli rng cfg.p_term then Some (Prng.int rng 1_000_000) else None),
          (if Prng.bernoulli rng cfg.p_reg then
             Some (gen_query rng ~dim:cfg.dim ~domain:cfg.domain ~max_tau:cfg.max_tau ~id:0)
           else None),
          Prng.bernoulli rng 0.5 ))
      cuts
  in
  List.iter
    (fun (name, make) ->
      let ctx = Printf.sprintf "seed %d %s k=%d %s" cfg.seed name cfg.shards (exec_str cfg.kind) in
      let plain = (make () : Engine.t) in
      let sh = Shard.create ~executor:cfg.kind ~shards:cfg.shards ~dim:cfg.dim (fun ~dim:_ -> make ()) in
      let e = Shard.engine sh in
      Fun.protect ~finally:(fun () -> Shard.close sh) @@ fun () ->
      plain.register_batch (Array.to_list queries);
      e.Engine.register_batch (Array.to_list queries);
      let alive = ref (Array.to_list (Array.map (fun (q : Types.query) -> q.id) queries)) in
      let next_id = ref cfg.m in
      let off = ref 0 in
      List.iteri
        (fun bi (len, (term_draw, reg_draw, batched)) ->
          (match term_draw with
          | Some k when !alive <> [] ->
              let v = List.nth !alive (k mod List.length !alive) in
              alive := List.filter (fun i -> i <> v) !alive;
              plain.terminate v;
              e.Engine.terminate v
          | _ -> ());
          (match reg_draw with
          | Some q ->
              let q = { q with Types.id = !next_id } in
              incr next_id;
              alive := q.Types.id :: !alive;
              plain.register q;
              e.Engine.register q
          | None -> ());
          let seg = Array.sub elems !off len in
          off := !off + len;
          let matured_p, matured_s =
            if batched then (plain.feed_batch seg, e.Engine.feed_batch seg)
            else begin
              (* per-element outputs are compared as they arrive *)
              let acc = ref [] in
              Array.iter
                (fun el ->
                  let mp = plain.process el in
                  let ms = e.Engine.process el in
                  if mp <> ms then
                    Alcotest.failf "%s batch %d: process matured plain=[%s] sharded=[%s]" ctx bi
                      (ids_str mp) (ids_str ms);
                  acc := List.rev_append mp !acc)
                seg;
              let m = Engine.sort_matured !acc in
              (m, m)
            end
          in
          if matured_p <> matured_s then
            Alcotest.failf "%s batch %d: matured plain=[%s] sharded=[%s]" ctx bi
              (ids_str matured_p) (ids_str matured_s);
          alive := List.filter (fun i -> not (List.mem i matured_p)) !alive;
          if plain.alive () <> e.Engine.alive () then
            Alcotest.failf "%s batch %d: alive plain=%d sharded=%d" ctx bi (plain.alive ())
              (e.Engine.alive ());
          let sp = plain.alive_snapshot () and ss = e.Engine.alive_snapshot () in
          if snapshot_str sp <> snapshot_str ss then
            Alcotest.failf "%s batch %d: snapshot plain=[%s] sharded=[%s]" ctx bi
              (snapshot_str sp) (snapshot_str ss))
        (List.combine cuts draws);
      (* Merged lifecycle counters must agree with the unsharded engine
         (each query registers/matures/terminates on exactly one shard);
         elements_total is excluded by design — it is k * n, since every
         shard scans the whole stream; the shard layer's own counter
         holds the stream total. *)
      let pm = plain.metrics () and sm = e.Engine.metrics () in
      List.iter
        (fun c ->
          if Metrics.counter_value pm c <> Metrics.counter_value sm c then
            Alcotest.failf "%s: counter %s plain=%d sharded=%d" ctx c
              (Metrics.counter_value pm c) (Metrics.counter_value sm c))
        [ "registered_total"; "matured_total"; "terminated_total" ];
      if Metrics.counter_value sm "shard_elements_total" <> cfg.n_elements then
        Alcotest.failf "%s: shard_elements_total=%d, stream had %d" ctx
          (Metrics.counter_value sm "shard_elements_total")
          cfg.n_elements)
    (engines_for cfg.dim)

let cfg_gen =
  QCheck.Gen.(
    let* seed = int_range 1 1_000_000 in
    let* dim = int_range 1 2 in
    let* shards = int_range 1 5 in
    let* kind =
      if Executor.domains_available then
        map (fun b -> if b then Executor.Domains else Executor.Seq) bool
      else return Executor.Seq
    in
    let* m = int_range 1 50 in
    let* domain = int_range 2 24 in
    let* max_weight = int_range 1 50 in
    let* max_tau = int_range 1 500 in
    let* n_elements = int_range 0 250 in
    let* p_term = float_bound_inclusive 0.15 in
    let* p_reg = float_bound_inclusive 0.2 in
    return { seed; dim; shards; kind; m; domain; max_weight; max_tau; n_elements; p_term; p_reg })

let prop_shard_equivalence =
  QCheck.Test.make ~count:(Qcheck_env.count 40)
    ~name:"sharded engine = unsharded engine (matured, weights, counters)"
    (QCheck.make
       ~print:(fun c ->
         Printf.sprintf "seed=%d dim=%d k=%d exec=%s m=%d domain=%d maxw=%d maxtau=%d n=%d"
           c.seed c.dim c.shards (exec_str c.kind) c.m c.domain c.max_weight c.max_tau
           c.n_elements)
       cfg_gen)
    (fun cfg ->
      episode cfg;
      true)

(* ---- pinned-seed Scenario regressions ------------------------------ *)

(* the pinned seeds (RTS_SHARD_SEEDS widens them) *)
let shard_seeds = Qcheck_env.seeds "RTS_SHARD_SEEDS" ~default:[ 5; 17; 91 ]

let factories_for dim =
  match dim with
  | 1 ->
      [
        ("baseline", fun ~dim -> Baseline_engine.make ~dim);
        ("dt", fun ~dim -> Dt_engine.make ~dim);
        ("interval-tree", fun ~dim:_ -> Stab1d_engine.make ());
      ]
  | _ ->
      [
        ("baseline", fun ~dim -> Baseline_engine.make ~dim);
        ("dt", fun ~dim -> Dt_engine.make ~dim);
        ("seg-intv", fun ~dim:_ -> Stab2d_engine.make ());
        ("r-tree", fun ~dim -> Rtree_engine.make ~dim);
      ]

(* The sharded maturity log — timestamps included — must equal the
   unsharded one verbatim: same ids on the same elements, attributed at
   the same batch barriers, for every k, executor and batch size. *)
let scenario_equivalence ~dim ~seed ~batch ?(ks = [ 1; 2; 4 ]) () =
  let cfg =
    {
      Scenario.default with
      Scenario.dim;
      seed;
      initial_queries = 250;
      tau = 2_500;
      mode = Scenario.Stochastic { p_ins = 0.3; horizon = 1_600 };
      max_elements = 2_400;
      chunk = 256;
      batch;
    }
  in
  List.iter
    (fun (name, base) ->
      let reference = Scenario.run cfg base in
      List.iter
        (fun shards ->
          List.iter
            (fun kind ->
              let make, close_all = Shard.factory ~executor:kind ~shards base in
              let r = Fun.protect ~finally:close_all (fun () -> Scenario.run cfg make) in
              let ctx =
                Printf.sprintf "%s d=%d seed=%d batch=%d k=%d %s" name dim seed batch shards
                  (exec_str kind)
              in
              Alcotest.(check (list (pair int int)))
                (ctx ^ ": maturity log verbatim")
                reference.Scenario.maturity_log r.Scenario.maturity_log;
              Alcotest.(check int) (ctx ^ ": element count") reference.Scenario.elements
                r.Scenario.elements)
            executors)
        ks)
    (factories_for dim)

let test_scenario_pinned () =
  List.iter
    (fun seed ->
      scenario_equivalence ~dim:1 ~seed ~batch:1 ();
      scenario_equivalence ~dim:1 ~seed ~batch:64 ())
    shard_seeds;
  match shard_seeds with
  | seed :: _ ->
      (* k=8 spot check — the top of the shard bench sweep — plus one 2D
         rotation (cheaper than the full cross product) *)
      scenario_equivalence ~dim:1 ~seed ~batch:64 ~ks:[ 8 ] ();
      scenario_equivalence ~dim:2 ~seed ~batch:64 ()
  | [] -> ()

(* ---- wrapper composition ------------------------------------------ *)

(* Durable.wrap around Shard.engine: log ops, recover the WAL into a
   FRESH sharded engine (Shard.factory as ~make), and the recovered
   engine must continue the stream exactly like an unsharded engine that
   saw everything. *)
let durable_composition ?executor () =
  let dim = 1 in
  let rng = Prng.create ~seed:77 in
  let queries = List.init 40 (fun id -> gen_query rng ~dim ~domain:10 ~max_tau:400 ~id) in
  let part1 = Array.init 150 (fun _ -> gen_elem rng ~dim ~domain:10 ~max_weight:3) in
  let part2 = Array.init 150 (fun _ -> gen_elem rng ~dim ~domain:10 ~max_weight:3) in
  let make, close_all = Shard.factory ?executor ~shards:3 (fun ~dim -> Dt_engine.make ~dim) in
  Fun.protect ~finally:close_all @@ fun () ->
  let dir = Io.mem_dir () in
  let wrapped, h = Durable.wrap ~dir (make ~dim) in
  let plain = (Dt_engine.make ~dim : Engine.t) in
  wrapped.register_batch queries;
  plain.register_batch queries;
  Alcotest.(check (list int))
    "sharded+durable matures like unsharded (part 1)" (plain.feed_batch part1)
    (wrapped.feed_batch part1);
  Durable.close h;
  (* recover into a fresh sharded engine and continue the stream *)
  let recovered, _report = Recovery.recover ~dim ~make ~dir () in
  Alcotest.(check int) "recovered alive count" (plain.alive ()) (recovered.Engine.alive ());
  Alcotest.(check (list int))
    "recovered sharded engine continues bit-identically (part 2)" (plain.feed_batch part2)
    (recovered.Engine.feed_batch part2);
  Alcotest.(check int) "alive after part 2" (plain.alive ()) (recovered.Engine.alive ())

let test_durable_composition () = durable_composition ()

(* the same round trip with the WAL recovered into engines driven by the
   build's default executor (worker domains where available) *)
let test_durable_composition_default_executor () =
  durable_composition ~executor:Executor.default_kind ()

(* ---- register_batch is atomic across shards ----------------------- *)

(* With id 1 alive, batches that one shard would refuse, each spread
   over fresh ids 2..21 that land on every one of 4 shards: id 1 again
   (alive on its owner), a repeated id, an invalid query. *)
let refused_batches () =
  let rng = Prng.create ~seed:41 in
  let q id = gen_query rng ~dim:1 ~domain:8 ~max_tau:500 ~id in
  let fresh = List.init 20 (fun i -> q (i + 2)) in
  (* out of reach of the elements fed before the refusal *)
  let q1 = { (q 1) with Types.threshold = 1_000_000 } in
  ( q1,
    fresh,
    [
      ("id alive", fresh @ [ { q1 with Types.threshold = 7 } ]);
      ("repeated id", fresh @ [ q 5 ]);
      ("invalid query", fresh @ [ { (q 30) with Types.threshold = 0 } ]);
    ] )

let check_refused ctx (e : Engine.t) batches =
  let before = snapshot_str (e.alive_snapshot ()) in
  List.iter
    (fun (what, batch) ->
      (match e.register_batch batch with
      | () -> Alcotest.failf "%s: %s batch accepted" ctx what
      | exception Invalid_argument _ -> ());
      Alcotest.(check string)
        (Printf.sprintf "%s: refused %s batch leaves alive_snapshot unchanged" ctx what)
        before
        (snapshot_str (e.alive_snapshot ())))
    batches

let test_register_batch_atomic () =
  let q1, fresh, batches = refused_batches () in
  List.iter
    (fun kind ->
      List.iter
        (fun (name, base) ->
          let sh = Shard.create ~executor:kind ~shards:4 ~dim:1 base in
          Fun.protect ~finally:(fun () -> Shard.close sh) @@ fun () ->
          let e = Shard.engine sh in
          let ctx = Printf.sprintf "%s k=4 %s" name (exec_str kind) in
          Alcotest.(check bool) (ctx ^ ": the fresh ids reach every shard") true
            (List.for_all
               (fun s -> List.exists (fun (q : Types.query) -> Shard.owner sh q.id = s) fresh)
               [ 0; 1; 2; 3 ]);
          e.Engine.register q1;
          check_refused ctx e batches;
          Alcotest.(check int) (ctx ^ ": nothing counted") 1
            (Metrics.counter_value (e.Engine.metrics ()) "shard_registered_total");
          e.Engine.register_batch fresh;
          Alcotest.(check int) (ctx ^ ": a valid batch still registers") 21 (e.Engine.alive ()))
        [
          ("baseline", fun ~dim -> Baseline_engine.make ~dim);
          ("dt", fun ~dim -> Dt_engine.make ~dim);
        ])
    executors

(* Under Durable a refused batch is neither applied nor logged, so
   recovery rebuilds exactly the pre-refusal alive set. *)
let test_register_batch_atomic_durable () =
  let dim = 1 in
  let q1, fresh, batches = refused_batches () in
  let rng = Prng.create ~seed:43 in
  let elems = Array.init 60 (fun _ -> gen_elem rng ~dim ~domain:8 ~max_weight:3) in
  let make, close_all = Shard.factory ~shards:4 (fun ~dim -> Dt_engine.make ~dim) in
  Fun.protect ~finally:close_all @@ fun () ->
  let dir = Io.mem_dir () in
  let wrapped, h = Durable.wrap ~dir (make ~dim) in
  wrapped.Engine.register q1;
  ignore (wrapped.Engine.feed_batch elems);
  let before = snapshot_str (wrapped.Engine.alive_snapshot ()) in
  check_refused "durable k=4" wrapped batches;
  Durable.close h;
  let recovered, _report = Recovery.recover ~dim ~make ~dir () in
  Alcotest.(check string) "recovery rebuilds the pre-refusal alive set" before
    (snapshot_str (recovered.Engine.alive_snapshot ()));
  recovered.Engine.register_batch fresh;
  Alcotest.(check int) "a valid batch registers after recovery"
    (List.length fresh + wrapped.Engine.alive ())
    (recovered.Engine.alive ())

(* ---- shard metrics + lifecycle ------------------------------------ *)

let test_shard_surface () =
  let rng = Prng.create ~seed:9 in
  let queries = List.init 30 (fun id -> gen_query rng ~dim:1 ~domain:8 ~max_tau:10_000 ~id) in
  let elems = Array.init 100 (fun _ -> gen_elem rng ~dim:1 ~domain:8 ~max_weight:2) in
  List.iter
    (fun kind ->
      let sh = Shard.create ~executor:kind ~shards:3 ~dim:1 (fun ~dim -> Dt_engine.make ~dim) in
      let e = Shard.engine sh in
      let expected_name =
        "dt+k3" ^ (match kind with Executor.Domains -> "/domains" | Executor.Seq -> "")
      in
      Alcotest.(check string) "engine name" expected_name e.Engine.name;
      Alcotest.(check int) "worker domain count"
        (match kind with Executor.Domains -> 3 | Executor.Seq -> 1)
        (Shard.worker_domains sh);
      e.Engine.register_batch queries;
      ignore (e.Engine.feed_batch elems);
      ignore (e.Engine.process elems.(0));
      (* placement accessors agree with the hash and with each other *)
      List.iter
        (fun (q : Types.query) ->
          Alcotest.(check int) "owner = rendezvous" (Rendezvous.owner ~shards:3 q.id)
            (Shard.owner sh q.id))
        queries;
      let per = Shard.queries_per_shard sh in
      Alcotest.(check int) "per-shard alive sums to total" (e.Engine.alive ())
        (Array.fold_left ( + ) 0 per);
      Alcotest.(check int) "per_shard_metrics arity" 3
        (Array.length (Shard.per_shard_metrics sh));
      let m = e.Engine.metrics () in
      let c name = Metrics.counter_value m name in
      Alcotest.(check int) "stream elements counted once" 101 (c "shard_elements_total");
      Alcotest.(check int) "one stream batch" 1 (c "shard_batches_total");
      Alcotest.(check int) "registered through the layer" 30 (c "shard_registered_total");
      (match Metrics.get m "shard_count" with
      | Some (Metrics.Gauge g) -> Alcotest.(check (float 0.0)) "shard_count gauge" 3.0 g
      | _ -> Alcotest.fail "shard_count gauge missing");
      (match Metrics.get m "alive" with
      | Some (Metrics.Gauge g) ->
          Alcotest.(check (float 0.0))
            "alive gauge is the true total"
            (float_of_int (e.Engine.alive ()))
            g
      | _ -> Alcotest.fail "alive gauge missing");
      (* every shard really scans the whole stream: merged inner
         elements_total reads k * n by design *)
      Alcotest.(check int) "merged inner elements_total = k*n" (3 * 101) (c "elements_total");
      Shard.close sh;
      Shard.close sh (* idempotent *);
      Alcotest.check_raises "ops raise after close" (Invalid_argument "Shard: engine is closed")
        (fun () -> ignore (e.Engine.alive ())))
    executors

let test_create_validation () =
  Alcotest.check_raises "shards < 1" (Invalid_argument "Shard.create: shards < 1") (fun () ->
      ignore (Shard.create ~shards:0 ~dim:1 (fun ~dim -> Baseline_engine.make ~dim)));
  Alcotest.check_raises "dim < 1" (Invalid_argument "Shard.create: dim < 1") (fun () ->
      ignore (Shard.create ~shards:2 ~dim:0 (fun ~dim -> Baseline_engine.make ~dim)))

let test_engine_names () =
  List.iter
    (fun kind ->
      List.iter
        (fun shards ->
          List.iter
            (fun (inner, make) ->
              let sh = Shard.create ~executor:kind ~shards ~dim:2 (fun ~dim:_ -> make ()) in
              Fun.protect ~finally:(fun () -> Shard.close sh) @@ fun () ->
              let e = Shard.engine sh in
              let suffix = match kind with Executor.Domains -> "/domains" | Executor.Seq -> "" in
              Alcotest.(check string) "name = <inner>+k<shards>[/domains]"
                (Printf.sprintf "%s+k%d%s" (make ()).Engine.name shards suffix)
                e.Engine.name;
              let ctx = Printf.sprintf "%s k=%d %s" inner shards (exec_str kind) in
              Alcotest.(check int) (ctx ^ ": dim passes through") 2 e.Engine.dim;
              Alcotest.(check int) (ctx ^ ": shards") shards (Shard.shards sh);
              Alcotest.(check string) (ctx ^ ": executor kind") (exec_str kind)
                (exec_str (Shard.executor_kind sh)))
            (engines_for 2))
        [ 1; 2; 4 ])
    executors

(* After close, every engine closure and every shard accessor that
   touches the per-shard engines raises — none may reach a joined
   worker. *)
let test_ops_after_close () =
  let q = { Types.id = 1; rect = Types.rect_make [| (0., 5.) |]; threshold = 3 } in
  let el = { Types.value = [| 1. |]; weight = 1 } in
  List.iter
    (fun kind ->
      let sh = Shard.create ~executor:kind ~shards:2 ~dim:1 (fun ~dim -> Dt_engine.make ~dim) in
      let e = Shard.engine sh in
      e.Engine.register q;
      Shard.close sh;
      let closed = Invalid_argument "Shard: engine is closed" in
      List.iter
        (fun (op, f) ->
          Alcotest.check_raises (Printf.sprintf "%s: %s after close" (exec_str kind) op) closed f)
        [
          ("register", fun () -> e.Engine.register { q with id = 2 });
          ("register_batch", fun () -> e.Engine.register_batch [ { q with id = 3 } ]);
          ("terminate", fun () -> e.Engine.terminate 1);
          ("process", fun () -> ignore (e.Engine.process el));
          ("feed_batch", fun () -> ignore (e.Engine.feed_batch [| el |]));
          ("alive", fun () -> ignore (e.Engine.alive ()));
          ("alive_snapshot", fun () -> ignore (e.Engine.alive_snapshot ()));
          ("metrics", fun () -> ignore (e.Engine.metrics ()));
          ("queries_per_shard", fun () -> ignore (Shard.queries_per_shard sh));
          ("per_shard_metrics", fun () -> ignore (Shard.per_shard_metrics sh));
        ])
    executors

(* queries_per_shard counts exactly the alive ids each shard owns,
   through registrations (single and batched), terminations and
   maturities. *)
let test_queries_per_shard () =
  let rng = Prng.create ~seed:21 in
  let shards = 4 in
  List.iter
    (fun kind ->
      let sh = Shard.create ~executor:kind ~shards ~dim:1 (fun ~dim -> Dt_engine.make ~dim) in
      Fun.protect ~finally:(fun () -> Shard.close sh) @@ fun () ->
      let e = Shard.engine sh in
      let expect step =
        let want = Array.make shards 0 in
        List.iter
          (fun ((q : Types.query), _) ->
            let s = Rendezvous.owner ~shards q.id in
            want.(s) <- want.(s) + 1)
          (e.Engine.alive_snapshot ());
        Alcotest.(check (array int))
          (Printf.sprintf "%s: per-shard alive after %s" (exec_str kind) step)
          want (Shard.queries_per_shard sh)
      in
      e.Engine.register_batch
        (List.init 40 (fun id -> gen_query rng ~dim:1 ~domain:8 ~max_tau:60 ~id));
      expect "register_batch";
      for id = 40 to 49 do
        e.Engine.register (gen_query rng ~dim:1 ~domain:8 ~max_tau:60 ~id)
      done;
      expect "register";
      List.iter e.Engine.terminate [ 0; 5; 17; 42 ];
      expect "terminate";
      let matured =
        e.Engine.feed_batch (Array.init 80 (fun _ -> gen_elem rng ~dim:1 ~domain:8 ~max_weight:3))
      in
      Alcotest.(check bool) (exec_str kind ^ ": some queries matured") true (matured <> []);
      expect "maturity";
      Alcotest.(check int) (exec_str kind ^ ": per-shard sum = alive") (e.Engine.alive ())
        (Array.fold_left ( + ) 0 (Shard.queries_per_shard sh)))
    executors

(* The layer's own counters: one dispatch per routed operation (an empty
   batch dispatches nothing but still counts as a batch), and the
   balance gauges read the extremes of queries_per_shard. *)
let test_layer_counters () =
  let rng = Prng.create ~seed:4 in
  List.iter
    (fun kind ->
      let sh = Shard.create ~executor:kind ~shards:3 ~dim:1 (fun ~dim -> Dt_engine.make ~dim) in
      Fun.protect ~finally:(fun () -> Shard.close sh) @@ fun () ->
      let e = Shard.engine sh in
      let elem () = gen_elem rng ~dim:1 ~domain:8 ~max_weight:2 in
      e.Engine.register_batch
        (List.init 20 (fun id -> gen_query rng ~dim:1 ~domain:8 ~max_tau:10_000 ~id));
      e.Engine.register_batch [];
      e.Engine.register (gen_query rng ~dim:1 ~domain:8 ~max_tau:10_000 ~id:20);
      e.Engine.terminate 3;
      e.Engine.terminate 7;
      ignore (e.Engine.process (elem ()));
      ignore (e.Engine.feed_batch (Array.init 5 (fun _ -> elem ())));
      ignore (e.Engine.feed_batch [||]);
      let m = e.Engine.metrics () in
      let c name = Metrics.counter_value m name in
      let g name =
        match Metrics.get m name with
        | Some (Metrics.Gauge v) -> int_of_float v
        | _ -> Alcotest.failf "gauge %s missing" name
      in
      let ctx s = exec_str kind ^ ": " ^ s in
      Alcotest.(check int) (ctx "registered") 21 (c "shard_registered_total");
      Alcotest.(check int) (ctx "terminated") 2 (c "shard_terminated_total");
      Alcotest.(check int) (ctx "elements") 6 (c "shard_elements_total");
      Alcotest.(check int) (ctx "batches, empty one included") 2 (c "shard_batches_total");
      (* register_batch, register, 2 x terminate, process, one non-empty
         feed_batch *)
      Alcotest.(check int) (ctx "dispatches") 6 (c "shard_dispatches_total");
      let per = Shard.queries_per_shard sh in
      Alcotest.(check int) (ctx "min gauge") (Array.fold_left min max_int per)
        (g "shard_queries_min");
      Alcotest.(check int) (ctx "max gauge") (Array.fold_left max 0 per) (g "shard_queries_max");
      Alcotest.(check int) (ctx "executor domains gauge")
        (match kind with Executor.Domains -> 3 | Executor.Seq -> 1)
        (g "shard_executor_domains"))
    executors

(* Shard.factory: every instance is an independent sharded engine on the
   requested executor, and the closer shuts all of them (idempotently);
   instances made after a close_all are fresh and closed by the next. *)
let test_factory () =
  let q id = { Types.id; rect = Types.rect_make [| (0., 5.) |]; threshold = 100 } in
  List.iter
    (fun kind ->
      let make, close_all = Shard.factory ~executor:kind ~shards:2 (fun ~dim -> Dt_engine.make ~dim) in
      let es = List.init 3 (fun _ -> make ~dim:1) in
      List.iteri (fun i e -> e.Engine.register_batch (List.init (i + 1) q)) es;
      Alcotest.(check (list int)) (exec_str kind ^ ": instances keep their own queries") [ 1; 2; 3 ]
        (List.map (fun e -> e.Engine.alive ()) es);
      List.iter
        (fun e ->
          Alcotest.(check string) (exec_str kind ^ ": executor reaches every instance")
            ("dt+k2" ^ match kind with Executor.Domains -> "/domains" | Executor.Seq -> "")
            e.Engine.name)
        es;
      close_all ();
      close_all ();
      List.iter
        (fun e ->
          Alcotest.check_raises (exec_str kind ^ ": closed by close_all")
            (Invalid_argument "Shard: engine is closed") (fun () -> ignore (e.Engine.alive ())))
        es;
      let late = make ~dim:1 in
      Alcotest.(check int) (exec_str kind ^ ": a later instance starts empty") 0 (late.Engine.alive ());
      close_all ();
      Alcotest.check_raises (exec_str kind ^ ": the later instance is closed too")
        (Invalid_argument "Shard: engine is closed") (fun () -> ignore (late.Engine.alive ())))
    executors

let () =
  Alcotest.run "shard"
    [
      ( "rendezvous",
        [
          Alcotest.test_case "owner range + determinism" `Quick test_rendezvous_range;
          Alcotest.test_case "balance" `Quick test_rendezvous_balance;
          Alcotest.test_case "k -> k+1 moves ids only to the new shard" `Quick
            test_rendezvous_monotone;
          Alcotest.test_case "owner = argmax score, extreme ids included" `Quick
            test_rendezvous_argmax;
        ] );
      ( "executor",
        [
          Alcotest.test_case "slot order, exceptions, close" `Quick test_executor_basics;
          Alcotest.test_case "kind strings" `Quick test_executor_strings;
          Alcotest.test_case "every accepted spelling, one error text" `Quick
            test_executor_spellings;
          Alcotest.test_case "create validation, kind, worker count" `Quick test_executor_create;
          Alcotest.test_case "run_on bounds, exceptions, close" `Quick test_executor_run_on;
          Alcotest.test_case "each slot runs once per fan-out" `Quick test_executor_each_slot_once;
          Alcotest.test_case "teardown after raising tasks leaks no domains" `Slow
            test_executor_teardown_leak;
          Alcotest.test_case "Shard.create closes the pool when a factory raises" `Slow
            test_shard_create_no_leak;
        ] );
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest prop_shard_equivalence;
          Alcotest.test_case "empty batches are no-ops everywhere" `Quick test_empty_batch;
          Alcotest.test_case
            "pinned seeds: maturity log verbatim (k x executor x batch)" `Slow
            test_scenario_pinned;
        ] );
      ( "composition",
        [
          Alcotest.test_case "durable wrap + recovery into sharded engine" `Quick
            test_durable_composition;
          Alcotest.test_case "durable wrap + recovery on the default executor" `Quick
            test_durable_composition_default_executor;
          Alcotest.test_case "refused register_batch leaves every shard unchanged" `Quick
            test_register_batch_atomic;
          Alcotest.test_case "refused register_batch under durable + recovery" `Quick
            test_register_batch_atomic_durable;
        ] );
      ( "surface",
        [
          Alcotest.test_case "metrics, names, placement, close" `Quick test_shard_surface;
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "names and accessors across k and executors" `Quick test_engine_names;
          Alcotest.test_case "every operation raises after close" `Quick test_ops_after_close;
          Alcotest.test_case "queries_per_shard follows the alive set" `Quick
            test_queries_per_shard;
          Alcotest.test_case "layer counters and balance gauges" `Quick test_layer_counters;
          Alcotest.test_case "factory instances and close_all" `Quick test_factory;
        ] );
    ]
