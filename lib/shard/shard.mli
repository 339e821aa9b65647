(** Sharded multi-domain ingestion with a deterministic merge.

    Splits one logical engine across [k] shards — each running a full
    engine of its own (any of the five, via the usual
    [dim:int -> Engine.t] factory) — by partitioning the {e queries}:
    {!Rendezvous} hashing on id places each query on one shard, and
    every shard ingests the {e entire} element stream, restricted to
    the queries it owns. Ingestion is replicated, so wall clock does not
    scale with [k]; in exchange there is no routing state at all.

    The merge is exact: a query's maturity depends only on its own
    accumulated weight, each query lives on exactly one shard, and that
    shard receives every element. A disjoint partition therefore
    matures exactly the same (element, query) pairs as the unsharded
    engine.

    {b Determinism invariant.} Every operation joins at a barrier and
    normalizes outputs in shard-independent order before returning:
    matured ids are merged ascending (per-shard lists are sorted and
    mutually disjoint), snapshots are re-sorted by id, metrics are
    folded in shard-index order. The result is bit-identical across
    shard counts, executors ([Seq] vs [Domains]) and domain schedules —
    the property the pinned-seed sweep of [test/test_shard.ml] checks
    for every engine. Maturity {e timestamps} are attributed by the
    driver at batch barriers (sorted [(timestamp, query_id)]), so the
    sharded maturity log equals the unsharded one verbatim.

    What is {e not} preserved: the DT engine's interleaving-sensitive
    work counters, and merged per-engine counters such as
    [elements_total], which sum to [k * n] (each shard really does scan
    the whole stream). The shard layer's own [shard_*] metrics count
    stream-level quantities exactly once.

    [register_batch] is atomic across shards: the whole batch is
    checked (each query valid, no id repeated, none alive on its owner
    shard) before any shard registers, so a refused batch leaves every
    shard as it was.

    [Durable.wrap] around [Shard.engine] gives a crash-recoverable
    sharded run (recovery replays the WAL into a fresh sharded engine
    via {!factory}). *)

open Rts_core

type t

val create :
  ?executor:Executor.kind ->
  shards:int ->
  dim:int ->
  (dim:int -> Engine.t) ->
  t
(** [create ~executor ~shards ~dim make] builds [shards] engines, each
    constructed on its own executor slot (so domain-local allocation is
    born on the domain that will drive it). Default executor: [Seq].
    Raises [Invalid_argument] on [shards < 1], [dim < 1] or an
    unavailable executor kind — and never leaks worker domains when the
    engine factory itself raises. *)

val engine : t -> Engine.t
(** Package as a uniform {!Engine.t} named ["<inner>+k<shards>"], with
    ["/domains"] appended under the domains executor. All closures raise
    [Invalid_argument] after {!close}. *)

val shards : t -> int

val executor_kind : t -> Executor.kind

val worker_domains : t -> int
(** Worker domains actually executing shard tasks:
    {!Executor.worker_count} of the underlying executor — [shards]
    under [Domains], [1] under [Seq]. The honest "cores" figure for
    bench reporting. *)

val owner : t -> int -> int
(** The shard a query id lives on: its {!Rendezvous.owner}. *)

val queries_per_shard : t -> int array
(** Alive-query count per shard — the balance rendezvous hashing is
    supposed to deliver (~[m/k] each). *)

val per_shard_metrics : t -> Rts_obs.Metrics.snapshot array
(** Each shard engine's own metric snapshot, in shard order — the
    per-shard work counters the bench records. *)

val metrics : t -> Rts_obs.Metrics.snapshot
(** Shard-layer counters ([shard_count], [shard_registered_total],
    [shard_terminated_total], [shard_elements_total] (stream elements,
    counted once), [shard_batches_total], [shard_dispatches_total],
    [shard_queries_min]/[shard_queries_max] balance gauges,
    [shard_executor_domains], which is {!worker_domains}) merged over the per-shard engine
    snapshots; the [alive] gauge is the true total. *)

val close : t -> unit
(** Shut the executor down (joining its domains). Idempotent. *)

val factory :
  ?executor:Executor.kind ->
  shards:int ->
  (dim:int -> Engine.t) ->
  (dim:int -> Engine.t) * (unit -> unit)
(** [factory ~executor ~shards make] is [(make', close_all)]:
    a factory producing sharded engines over [make] — a drop-in for
    [Scenario.run] factories and [Recovery.recover ~make] — plus a
    closer that shuts down every instance [make'] created so far. *)
