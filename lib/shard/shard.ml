open Rts_core
module Metrics = Rts_obs.Metrics

(* Query partitioning: the *queries* are split by rendezvous hash on id,
   and every shard engine ingests the full element stream, restricted to
   the queries it owns.

   The merge is exact because maturity of a query depends only on that
   query's own accumulated weight, a query lives on exactly one shard,
   and that shard sees every element (it sees the whole stream).
   Per-shard matured lists are therefore mutually disjoint and an
   ascending merge reproduces the unsharded output verbatim.

   Ownership discipline: a shard's engine state is touched only by
   closures dispatched onto that shard's executor slot. Under the
   domains executor the slot is a dedicated Domain, so each engine's
   mutable state is single-domain-confined; the executor's ring/latch
   synchronization provides the happens-before edges that make results
   visible at the barrier. Under the Seq executor everything runs
   inline and the same code is the reference semantics. *)

type t = {
  dim : int;
  nshards : int;
  exec : Executor.t;
  engines : Engine.t array;
  base_name : string;
  (* Shard-layer tallies: stream-level quantities counted exactly once
     (each per-shard engine counts the whole stream). *)
  reg : Metrics.t;
  c_registered : Metrics.counter;
  c_terminated : Metrics.counter;
  c_elements : Metrics.counter;
  c_batches : Metrics.counter;
  c_dispatches : Metrics.counter;
  mutable closed : bool;
}

let create ?(executor = Executor.Seq) ~shards ~dim make =
  if shards < 1 then invalid_arg "Shard.create: shards < 1";
  if dim < 1 then invalid_arg "Shard.create: dim < 1";
  let exec = Executor.create ~kind:executor ~shards () in
  (* Build each engine on its own slot — sequentially ([run_on] waits),
     so the factory is never invoked concurrently, but on the domain
     that will drive the engine, so domain-local allocation (minor
     heaps, lazily-grown tables) is born where it is used. If the
     factory raises partway, close the executor first: an exception
     here must not leak parked worker domains. *)
  let engines =
    try Array.init shards (fun i -> Executor.run_on exec i (fun () -> make ~dim))
    with e ->
      let bt = Printexc.get_raw_backtrace () in
      Executor.close exec;
      Printexc.raise_with_backtrace e bt
  in
  let reg = Metrics.create () in
  {
    dim;
    nshards = shards;
    exec;
    engines;
    base_name = engines.(0).Engine.name;
    reg;
    c_registered = Metrics.counter reg "shard_registered_total";
    c_terminated = Metrics.counter reg "shard_terminated_total";
    c_elements = Metrics.counter reg "shard_elements_total";
    c_batches = Metrics.counter reg "shard_batches_total";
    c_dispatches = Metrics.counter reg "shard_dispatches_total";
    closed = false;
  }

let shards t = t.nshards

let executor_kind t = Executor.kind t.exec

let worker_domains t = Executor.worker_count t.exec

let owner t id = Rendezvous.owner ~shards:t.nshards id

let check t = if t.closed then invalid_arg "Shard: engine is closed"

(* ---- control operations: routed to the owning shard ---- *)

let register t q =
  check t;
  let s = owner t q.Types.id in
  Executor.run_on t.exec s (fun () -> t.engines.(s).Engine.register q);
  Metrics.incr t.c_registered;
  Metrics.incr t.c_dispatches

let register_batch t qs =
  check t;
  match qs with
  | [] -> ()
  | _ ->
      (* Validate the whole batch before any shard registers, with the
         checks of [Engine.batch_of_register] (each query valid, no id
         repeated, none alive on its owner shard), so a refused batch
         leaves every shard as it was. Partition into per-shard buckets
         preserving list order: each shard ingests its sub-batch with
         the relative order the caller gave, so engines that exploit the
         batch (the DT endpoint-tree build) see a faithful slice. *)
      let ids = Hashtbl.create 16 in
      let buckets = Array.make t.nshards [] in
      List.iter
        (fun (q : Types.query) ->
          Types.validate_query ~dim:t.dim q;
          if Hashtbl.mem ids q.id then invalid_arg "register_batch: duplicate id";
          Hashtbl.replace ids q.id ();
          let s = owner t q.id in
          buckets.(s) <- q :: buckets.(s))
        qs;
      let buckets = Array.map List.rev buckets in
      (* An id is only ever alive on its owner shard, so each shard with
         a bucket checks its own alive set against the batch's ids. *)
      let clash =
        Executor.run_all t.exec (fun i ->
            buckets.(i) <> []
            && List.exists
                 (fun ((q : Types.query), _) -> Hashtbl.mem ids q.id)
                 (t.engines.(i).Engine.alive_snapshot ()))
      in
      if Array.exists Fun.id clash then invalid_arg "register_batch: id already alive";
      ignore
        (Executor.run_all t.exec (fun i ->
             match buckets.(i) with
             | [] -> ()
             | b -> t.engines.(i).Engine.register_batch b));
      Metrics.add t.c_registered (List.length qs);
      Metrics.incr t.c_dispatches

let terminate t id =
  check t;
  let s = owner t id in
  Executor.run_on t.exec s (fun () -> t.engines.(s).Engine.terminate id);
  Metrics.incr t.c_terminated;
  Metrics.incr t.c_dispatches

(* ---- stream operations ----

   Per-shard matured lists are each ascending and mutually disjoint
   (a query lives on exactly one shard), so a sorted merge in slot
   order is the unsharded engine's output verbatim. *)

let merge_matured parts =
  Array.fold_left (fun acc l -> List.merge compare acc l) [] parts

let process t e =
  check t;
  let parts = Executor.run_all t.exec (fun i -> t.engines.(i).Engine.process e) in
  Metrics.incr t.c_elements;
  Metrics.incr t.c_dispatches;
  merge_matured parts

let feed_batch t arr =
  check t;
  Metrics.incr t.c_batches;
  let n = Array.length arr in
  if n = 0 then []
  else begin
    let parts = Executor.run_all t.exec (fun i -> t.engines.(i).Engine.feed_batch arr) in
    Metrics.add t.c_elements n;
    Metrics.incr t.c_dispatches;
    merge_matured parts
  end

(* ---- observation: also routed through the executor, preserving the
   single-domain confinement of each engine's state ---- *)

let alive t =
  check t;
  Array.fold_left ( + ) 0 (Executor.run_all t.exec (fun i -> t.engines.(i).Engine.alive ()))

let alive_snapshot t =
  check t;
  let parts =
    Executor.run_all t.exec (fun i -> t.engines.(i).Engine.alive_snapshot ())
  in
  Engine.sort_snapshot (List.concat (Array.to_list parts))

let queries_per_shard t =
  check t;
  Executor.run_all t.exec (fun i -> t.engines.(i).Engine.alive ())

let per_shard_metrics t =
  check t;
  Executor.run_all t.exec (fun i -> t.engines.(i).Engine.metrics ())

let metrics t =
  check t;
  let per_shard = per_shard_metrics t in
  let counts = queries_per_shard t in
  let total = Array.fold_left ( + ) 0 counts in
  let qmin = Array.fold_left min max_int counts in
  let qmax = Array.fold_left max 0 counts in
  (* [merge] lets the *second* operand win gauges, so the layer gauges —
     in particular the true [alive] total, which would otherwise read as
     the last shard's local gauge — go last. *)
  let layer =
    Metrics.of_assoc
      [
        ("alive", Metrics.Gauge (float_of_int total));
        ("shard_count", Metrics.Gauge (float_of_int t.nshards));
        ("shard_queries_min", Metrics.Gauge (float_of_int qmin));
        ("shard_queries_max", Metrics.Gauge (float_of_int qmax));
        ("shard_executor_domains", Metrics.Gauge (float_of_int (worker_domains t)));
      ]
  in
  Metrics.merge_all (Array.to_list per_shard @ [ Metrics.snapshot t.reg; layer ])

let name t =
  Printf.sprintf "%s+k%d%s" t.base_name t.nshards
    (match executor_kind t with Executor.Domains -> "/domains" | Executor.Seq -> "")

let engine t =
  {
    Engine.name = name t;
    dim = t.dim;
    register = register t;
    register_batch = register_batch t;
    terminate = terminate t;
    process = process t;
    feed_batch = feed_batch t;
    alive = (fun () -> alive t);
    alive_snapshot = (fun () -> alive_snapshot t);
    metrics = (fun () -> metrics t);
  }

let close t =
  if not t.closed then begin
    t.closed <- true;
    Executor.close t.exec
  end

let factory ?executor ~shards make =
  let instances = ref [] in
  let make' ~dim =
    let t = create ?executor ~shards ~dim make in
    instances := t :: !instances;
    engine t
  in
  let close_all () =
    List.iter close !instances;
    instances := []
  in
  (make', close_all)
