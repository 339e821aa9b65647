(* Differential equivalence: the Bigarray Endpoint_tree vs the frozen
   boxed reference build (endpoint_tree_ref.ml).

   The Bigarray rewrite claims to be operation-for-operation equivalent
   to the boxed implementation it replaced: same maturity log (order
   included, because heap layouts and iteration orders were preserved
   exactly), same per-query weights, same work counters. This property
   drives both builds through identical random op sequences — single
   elements, batches fed in chunks cut at random points, removals — over
   random 1D/2D/3D query sets, and checks the observable state after
   every operation. A second property does the same at depth: hundreds
   to 1,500 queries on a small integer grid, with unbounded sides and
   signed zeros.

   The suite also pins the headline allocation claim as a regression
   test: feeding the DT engine, one element at a time or in 1024-element
   batches, allocates zero minor-heap words per element at dims 1-3
   (native code only — bytecode boxes local floats by design). This is
   the invariant validate_bench requires of every perf run; keeping a
   copy in the test suite means a regression fails `dune runtest`
   directly, without running the bench. Construction has a count gate
   too: minor words per canonical edge of one large 1D and one 2D
   build. *)

open Rts_core
module ET = Endpoint_tree
module Ref = Endpoint_tree_ref
module Prng = Rts_util.Prng
module Alloc = Rts_obs.Alloc

(* ---- random episode ---- *)

let gen_batch rng ~dim ~m ~domain =
  List.init m (fun id ->
      let bounds =
        Array.init dim (fun _ ->
            let a = float_of_int (Prng.int rng domain) in
            (a, a +. 1. +. float_of_int (Prng.int rng domain)))
      in
      let remaining = 1 + Prng.int rng 60 in
      ({ Types.id; rect = Types.rect_make bounds; threshold = remaining }, remaining))

let gen_elem rng ~dim ~domain =
  {
    Types.value = Array.init dim (fun _ -> float_of_int (Prng.int rng (domain + 4)));
    weight = 1 + Prng.int rng 20;
  }

let check_sync ~seed ~step a b log_a log_b =
  if !log_a <> !log_b then
    Alcotest.failf "seed %d step %d: maturity logs diverged: bigarray=[%s] ref=[%s]" seed step
      (String.concat ";" (List.map string_of_int (List.rev !log_a)))
      (String.concat ";" (List.map string_of_int (List.rev !log_b)));
  if ET.alive_count a <> Ref.alive_count b then
    Alcotest.failf "seed %d step %d: alive %d vs %d" seed step (ET.alive_count a)
      (Ref.alive_count b)

let check_final ~seed ~m a b =
  for id = 0 to m - 1 do
    let alive_a = ET.is_alive a id and alive_b = Ref.is_alive b id in
    if alive_a <> alive_b then
      Alcotest.failf "seed %d: query %d alive %b vs %b" seed id alive_a alive_b;
    if alive_a then begin
      if ET.current_weight a id <> Ref.current_weight b id then
        Alcotest.failf "seed %d: query %d weight %d vs %d" seed id (ET.current_weight a id)
          (Ref.current_weight b id);
      if ET.remaining a id <> Ref.remaining b id then
        Alcotest.failf "seed %d: query %d remaining %d vs %d" seed id (ET.remaining a id)
          (Ref.remaining b id);
      if ET.fanout a id <> Ref.fanout b id then
        Alcotest.failf "seed %d: query %d fanout %d vs %d" seed id (ET.fanout a id)
          (Ref.fanout b id)
    end
  done;
  (* alive_queries must agree as rebuild batches: same queries, same
     residual thresholds, same order (both fold the same Hashtbl layout
     and sort identically) *)
  let snap_a = List.map (fun (q, r) -> (q.Types.id, r)) (ET.alive_queries a) in
  let snap_b = List.map (fun (q, r) -> (q.Types.id, r)) (Ref.alive_queries b) in
  Alcotest.(check (list (pair int int))) (Printf.sprintf "seed %d: alive_queries" seed)
    (List.sort compare snap_b) (List.sort compare snap_a);
  (* exact work-counter equivalence: the rewrite may not add or remove
     protocol work, it only relocates the bytes *)
  let sa = ET.stats a and sb = Ref.stats b in
  let pairs =
    [
      ("elements", sa.ET.elements, sb.Ref.elements);
      ("node_updates", sa.ET.node_updates, sb.Ref.node_updates);
      ("signals", sa.ET.signals, sb.Ref.signals);
      ("round_ends", sa.ET.round_ends, sb.Ref.round_ends);
      ("heap_ops", sa.ET.heap_ops, sb.Ref.heap_ops);
    ]
  in
  List.iter
    (fun (name, va, vb) ->
      if va <> vb then Alcotest.failf "seed %d: stats.%s %d vs %d" seed name va vb)
    pairs;
  let spa = ET.space a and spb = Ref.space b in
  if spa.ET.tree_nodes <> spb.Ref.tree_nodes then
    Alcotest.failf "seed %d: tree_nodes %d vs %d" seed spa.ET.tree_nodes spb.Ref.tree_nodes;
  if spa.ET.live_entries <> spb.Ref.live_entries then
    Alcotest.failf "seed %d: live_entries %d vs %d" seed spa.ET.live_entries spb.Ref.live_entries

(* Build both trees over [batch] (queries [0, m)) and drive them through
   [steps] random ops drawn from [rng], elements from [gen_elem]. *)
let drive ~seed rng ~dim ~m ~eager ~steps ~gen_elem batch =
  let log_a = ref [] and log_b = ref [] in
  let a = ET.build ~eager ~dim ~on_mature:(fun id -> log_a := id :: !log_a) batch in
  let b = Ref.build ~eager ~dim ~on_mature:(fun id -> log_b := id :: !log_b) batch in
  for step = 1 to steps do
    (match Prng.int rng 10 with
    | 0 | 1 | 2 | 3 ->
        (* single element through the per-element entry point *)
        let e = gen_elem rng in
        ET.process a e;
        Ref.process b e
    | 4 | 5 | 6 | 7 | 8 ->
        (* one batch sorted once as Dt_engine sorts it, cut at random
           points into consecutive chunks, each fed in one [feed_sorted]
           call; the reference cursor visits the same order and flushes
           at the same cuts — both builds must coarsen identically *)
        let n = 1 + Prng.int rng 200 in
        let elems = Array.init n (fun _ -> gen_elem rng) in
        let keys = Array.map (fun (e : Types.elem) -> e.value.(0)) elems in
        let idx = Array.init n Fun.id in
        ET.sort_kw keys idx n;
        let wts = Array.map (fun i -> elems.(i).Types.weight) idx in
        let cb = Ref.cursor b in
        let start = ref 0 in
        for i = 0 to n - 1 do
          Ref.process_sorted cb elems.(idx.(i));
          if i = n - 1 || Prng.bernoulli rng 0.1 then begin
            let len = i + 1 - !start in
            let chunk a = Array.sub a !start len in
            ET.feed_sorted a elems (chunk keys) (chunk idx) (chunk wts) len;
            Ref.flush cb;
            start := i + 1
          end
        done
    | _ ->
        if m > 0 then begin
          let id = Prng.int rng m in
          let alive_a = ET.is_alive a id and alive_b = Ref.is_alive b id in
          if alive_a <> alive_b then
            Alcotest.failf "seed %d step %d: query %d alive %b vs %b" seed step id alive_a
              alive_b;
          if alive_a then begin
            ET.remove a id;
            Ref.remove b id
          end
        end);
    check_sync ~seed ~step a b log_a log_b
  done;
  check_final ~seed ~m a b

let episode seed =
  let rng = Prng.create ~seed in
  let dim = 1 + Prng.int rng 3 in
  let domain = 4 + Prng.int rng 40 in
  let m = Prng.int rng 40 in
  let eager = Prng.bernoulli rng 0.15 in
  let batch = gen_batch rng ~dim ~m ~domain in
  let steps = 30 + Prng.int rng 60 in
  drive ~seed rng ~dim ~m ~eager ~steps ~gen_elem:(gen_elem ~dim ~domain) batch

(* ---- deep episode ---- *)

(* Large trees on a small integer grid: up to 1,500 queries share a few
   dozen endpoints, so leaves, canonical sets and secondary trees are
   shared heavily. Some sides are unbounded below (neg_infinity) or above
   (infinity, which creates no endpoint), and zero appears as both -0.
   and 0., which compare equal and must land on one key. *)
let grid_coord rng ~lo ~hi =
  let v = lo + Prng.int rng (hi - lo) in
  if v = 0 && Prng.bernoulli rng 0.5 then -0. else float_of_int v

let gen_deep_batch rng ~dim ~m ~grid =
  List.init m (fun id ->
      let bounds =
        Array.init dim (fun _ ->
            let a = grid_coord rng ~lo:0 ~hi:grid in
            let lo = if Prng.bernoulli rng 0.1 then neg_infinity else a in
            let hi =
              if Prng.bernoulli rng 0.1 then infinity
              else Float.abs a +. 1. +. float_of_int (Prng.int rng grid)
            in
            (lo, hi))
      in
      (* log-uniform in [1, 8192]: some mature early, some outlive the run *)
      let remaining = 1 + Prng.int rng (1 lsl (4 + Prng.int rng 10)) in
      ({ Types.id; rect = Types.rect_make bounds; threshold = remaining }, remaining))

let gen_deep_elem ~dim ~grid rng =
  {
    Types.value = Array.init dim (fun _ -> grid_coord rng ~lo:(-2) ~hi:(grid + 2));
    weight = 1 + Prng.int rng 20;
  }

(* One episode per dimension: m in [750, 1500] at d = 1 and in
   [150, 300] at d = 2 and 3. *)
let deep_episode seed =
  let rng = Prng.create ~seed in
  List.iter
    (fun dim ->
      let grid = 4 + Prng.int rng 28 in
      let half = if dim = 1 then 750 else 150 in
      let m = half + Prng.int rng (half + 1) in
      let eager = Prng.bernoulli rng 0.15 in
      let batch = gen_deep_batch rng ~dim ~m ~grid in
      drive ~seed rng ~dim ~m ~eager ~steps:40 ~gen_elem:(gen_deep_elem ~dim ~grid) batch)
    [ 1; 2; 3 ]

let prop_equiv =
  QCheck.Test.make ~count:(Qcheck_env.count 60)
    ~name:"bigarray Endpoint_tree == boxed reference (ops, logs, counters)"
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      episode seed;
      true)

let prop_equiv_deep =
  QCheck.Test.make ~count:(Qcheck_env.count 4)
    ~name:"bigarray Endpoint_tree == boxed reference at depth (m <= 1500, shared endpoints)"
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      deep_episode seed;
      true)

(* ---- pinned allocation regression ---- *)

(* validate_bench requires allocated_words_per_element = 0 for the DT
   engine on every perf run; this is the in-suite copy for both feeds at
   dims 1-3. The queries are registered one at a time, so several trees
   are live, and none can mature (a maturity returns a list). Each feed
   is measured with a bare [for] loop: an [Array.iter] closure would
   count too. Native only: bytecode has no float unboxing, so the
   zero-allocation property is not claimed there. *)
let test_dt_alloc_free dim () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> ()
  | Sys.Native ->
      let rng = Prng.create ~seed:(7 + dim) in
      let e = Dt_engine.create ~dim () in
      for id = 0 to 199 do
        let bounds =
          Array.init dim (fun _ ->
              let a = float_of_int (Prng.int rng 1000) in
              (a, a +. 1. +. float_of_int (Prng.int rng 1000)))
        in
        Dt_engine.register e { Types.id; rect = Types.rect_make bounds; threshold = max_int }
      done;
      Alcotest.(check bool) "several live trees" true (Dt_engine.tree_count e > 1);
      let n = 1024 in
      let batch =
        Array.init n (fun _ ->
            {
              Types.value = Array.init dim (fun _ -> float_of_int (Prng.int rng 1100));
              weight = 1 + Prng.int rng 5;
            })
      in
      let eng = Dt_engine.engine e in
      let feed_batch () = ignore (eng.Engine.feed_batch batch : int list) in
      let process () =
        for i = 0 to n - 1 do
          ignore (eng.Engine.process (Array.unsafe_get batch i) : int list)
        done
      in
      (* warm up: grows the engine's scratch buffers to the batch size
         and settles any lazy structure, then measure steady state *)
      feed_batch ();
      process ();
      Gc.full_major ();
      List.iter
        (fun (name, feed) ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "allocated words per element, DT %s, dim %d" name dim)
            0.0
            (Alloc.words_per_item ~runs:5 ~items:n feed))
        [ ("feed_batch 1024", feed_batch); ("process", process) ]

(* Construction allocates a few words per query and almost nothing per
   canonical edge: per query its state record and table entry, per tree
   a fixed set of Bigarray headers (every level's nodes share one
   arena), nothing per level or per node visited. A 2D or 3D tree has
   many more edges per query than a 1D one, so its words per edge are
   far lower. Pinned inputs: the paper's generator at seed 1. The bounds
   are the measured 1.66 (1D), 0.41 (2D) and 0.29 (3D) words per edge
   plus about 30%, for the other compiler leg. Per-level node arrays
   allocated 2.16 (2D) and 7.59 (3D); the list-and-closure build before
   them allocated 14.7 (1D) and 22.1 (2D). Native only, like the feed
   gates above. *)
let test_build_words_per_edge (dim, m, bound) () =
  match Sys.backend_type with
  | Sys.Bytecode | Sys.Other _ -> ()
  | Sys.Native ->
      let gen = Rts_workload.Generator.create ~dim ~seed:1 () in
      let batch =
        List.init m (fun id ->
            let q = Rts_workload.Generator.query gen ~id ~threshold:1_000_000 in
            (q, q.Types.threshold))
      in
      let tree = ref None in
      let words =
        Alloc.words (fun () -> tree := Some (ET.build ~dim ~on_mature:ignore batch))
      in
      let t = Option.get !tree in
      let edges =
        List.fold_left (fun acc ((q : Types.query), _) -> acc + ET.fanout t q.id) 0 batch
      in
      let per_edge = words /. float_of_int edges in
      if per_edge > bound then
        Alcotest.failf
          "dim %d, m %d: build allocated %.2f words per canonical edge (%d edges), bound %.1f" dim m
          per_edge edges bound

(* A built tree's heap footprint per query does not grow with the
   dimension: the levels' nodes live off-heap in one arena per tree, so
   what stays on the heap is per query (its state, table entry and query
   record) plus a fixed set of Bigarray headers. With a record and four
   Bigarrays per level, 2D and 3D trees held 118 and 725-896 words per
   query against 29 in 1D. Both legs: it counts reachable words, not
   allocations. *)
let test_tree_words_per_query dim () =
  let m = 1024 in
  let per_query dim =
    let gen = Rts_workload.Generator.create ~dim ~seed:1 () in
    let batch =
      List.init m (fun id ->
          let q = Rts_workload.Generator.query gen ~id ~threshold:1_000_000 in
          (q, q.Types.threshold))
    in
    let t = ET.build ~dim ~on_mature:ignore batch in
    float_of_int (Obj.reachable_words (Obj.repr t)) /. float_of_int m
  in
  let base = per_query 1 and words = per_query dim in
  if words > 1.5 *. base then
    Alcotest.failf "dim %d, m %d: a built tree holds %.1f heap words per query, 1D holds %.1f"
      dim m words base

let () =
  Alcotest.run "endpoint_tree_equiv"
    [
      ( "equivalence",
        List.map QCheck_alcotest.to_alcotest [ prop_equiv; prop_equiv_deep ] );
      ( "allocation",
        List.map
          (fun dim ->
            Alcotest.test_case
              (Printf.sprintf "dt feed_batch and process allocate 0 words/element, dim %d" dim)
              `Quick (test_dt_alloc_free dim))
          [ 1; 2; 3 ]
        @ List.map
            (fun ((dim, m, bound) as case) ->
              Alcotest.test_case
                (Printf.sprintf "build allocates <= %g words/canonical edge, dim %d, m %d" bound
                   dim m)
                `Quick (test_build_words_per_edge case))
            [ (1, 10_000, 2.2); (2, 2048, 0.53); (3, 1024, 0.37) ]
        @ List.map
            (fun dim ->
              Alcotest.test_case
                (Printf.sprintf "a built tree holds <= 1.5x the 1D heap words per query, dim %d"
                   dim)
                `Quick (test_tree_words_per_query dim))
            [ 2; 3 ] );
    ]
