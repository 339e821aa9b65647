(** The [rts-serve] daemon core: multi-tenant serving over shared
    engines, with admission control, backpressure and supervision.

    One server multiplexes isolated keyspaces — {e tenants} — over
    engines built by a shared factory (optionally sharded through
    {!Rts_shard.Shard.factory}). Each tenant is independently durable:
    its ops flow through {!Rts_resilience.Durable} into its own
    {!Rts_resilience.Io.dir}, obtained from the [provider] callback per
    (tenant, incarnation) — the seam where the soak harness interposes
    {!Rts_resilience.Fault.wrap} plans.

    {b Robustness model} (DESIGN.md, "Serving & supervision"):

    - {e Admission control} — a frame can be refused with a typed
      {!Frame.Overloaded} reply: tenant table full; per-tenant alive
      query quota; WAL lag (ops accepted but not yet durable) over the
      limit; storage reported out of space.
    - {e Backpressure} — admitted ops enter a bounded per-tenant
      {!Rts_shard.Spsc_ring} and are applied by a paced drain task on
      the virtual clock; when the ring is full the client gets
      {!Frame.Retry_after} and resubmits later. A batch is admitted
      all-or-nothing.
    - {e Supervision} — a storage fault ({!Rts_resilience.Fault.Crash},
      {!Rts_resilience.Io.No_space}) or an injected wedge marks the
      tenant unhealthy; the watchdog restarts it: a fresh incarnation
      dir, {!Rts_resilience.Recovery.recover}, re-apply of the
      applied-but-not-durable suffix (tracked in order), then the
      pending queue — with maturity notifications suppressed up to the
      already-notified op ordinal, so subscribers see every maturity
      {e exactly once, never early}, across any number of restarts.

    Ordinal discipline: op ordinals are assigned at {e apply} time and
    therefore equal WAL record order; element ordinals count applied
    elements — the same coordinates as
    {!Rts_workload.Replay.outcome.maturities}, which is what makes the
    soak oracle (replay the surviving WAL on a fresh engine) directly
    comparable to the server's own log and to what subscribers saw. *)

open Rts_core
open Rts_resilience
module Vclock = Rts_net.Vclock

type config = {
  dim : int;
  max_tenants : int;  (** Tenant table size — {!Frame.Tenants} beyond. *)
  query_quota : int;
      (** Max alive + queued registrations per tenant ({!Frame.Quota}). *)
  wal_lag_limit : int;
      (** Max ops accepted but not yet durable per tenant
          ({!Frame.Wal_lag}). *)
  queue_capacity : int;  (** Per-tenant ingest ring (rounded up to 2^k). *)
  drain_per_tick : int;  (** Ops applied per drain step (pacing). *)
  retry_after : int;  (** Ticks suggested by {!Frame.Retry_after}. *)
  watchdog_interval : int;  (** Ticks between supervision scans. *)
  wedge_timeout : int;
      (** No-progress ticks after which a wedged tenant is restarted. *)
  max_restarts : int;
      (** Per-tenant restart ceiling — beyond it the supervisor raises
          [Failure] (crash loop, a harness bug rather than a fault). *)
  shards : int;  (** Shards per tenant engine ([1] = unsharded). *)
  executor : Rts_shard.Executor.kind option;
      (** Shard executor ([None] = the shard layer's default). *)
  durable : Durable.config;  (** WAL batching / checkpoint cadence. *)
  prune_wal : bool;
      (** Every checkpoint seals the tenant's active WAL file as a cold
          segment. With [prune_wal] (default [false]) it also removes the
          segments below both the checkpoint and the replica ack floor,
          bounding per-tenant disk; without it the whole WAL chain stays
          on disk. *)
}

val default : config

type t

(** {2 Roles and replication}

    A server is [Primary] (accepts client data frames, ships committed
    ops to replicas via the installed {!replication} hooks) or [Replica]
    (rejects client data frames with ["not primary"]; ops arrive only
    through {!replica_submit}, shipped by the primary over the
    exactly-once transport). Both roles run the full supervision and
    durability machinery, so a replica self-heals its own storage
    crashes from in-process queues just like a standalone server.

    Fencing: {!set_epoch} records the cluster epoch; new tenant lives
    stamp it into their WAL headers ({!Rts_resilience.Wal.Fenced}
    protects a directory from a superseded incarnation reopening it).

    Never-early pushes: with replication installed, a maturity is pushed
    to subscribers only once [ack_floor] — the highest op every replica
    acknowledged durable — covers its op; until then it parks in a
    per-tenant queue that {!flush_pushes} releases as acks advance. The
    tenant's maturity {e log} records it immediately either way (the log
    is what this node attributed; the push stream is what clients saw). *)

type role = Primary | Replica

type replication = {
  on_applied : tenant:string -> index:int -> op:Rts_workload.Replay.op -> unit;
      (** Fires once per committed op, in ordinal order ([index] is the
          op ordinal). Re-applies after a local storage crash fire again
          with the same index and a bit-identical op — ship-side
          dedup by index is safe. *)
  ack_floor : tenant:string -> int;
      (** Highest op ordinal every replica has acknowledged durable
          ([max_int] if the deployment has no replicas). *)
  lag : tenant:string -> int;
      (** Replication backlog folded into the {!Frame.Wal_lag} admission
          gate (quorum-lag shedding). *)
}

val create :
  ?config:config ->
  clock:Vclock.t ->
  make:(dim:int -> Engine.t) ->
  provider:(tenant:string -> incarnation:int -> Io.dir) ->
  send:(dst:int -> Frame.server -> unit) ->
  unit ->
  t
(** [send ~dst frame] transmits a reply or push toward client site
    [dst]; [provider] yields the storage dir for each tenant life
    (incarnation 0 = first). Raises [Invalid_argument] on a nonsensical
    config. *)

val handle : t -> src:int -> Frame.client -> unit
(** Process one client frame; every frame gets exactly one reply via
    [send] (plus any asynchronous {!Frame.Matured} pushes). Never
    raises on malformed-but-typed input — errors become
    {!Frame.Rejected} replies. *)

(* ---- introspection (test and soak surface) ---- *)

val tenant_names : t -> string list
(** In first-contact order. *)

val accepted_ops : t -> string -> int
(** Ops admitted into the tenant's queue (registration admission +
    ring room both passed). 0 for unknown tenants, here and below. *)

val applied_ops : t -> string -> int
val rejected_ops : t -> string -> int

val queue_depth : t -> string -> int
(** Accepted but not yet applied (ring + re-apply backlog). *)

val restarts : t -> string -> int
val incarnation : t -> string -> int

val maturity_log : t -> string -> (int * int) list
(** [(element ordinal, query id)], ascending — the server's own record
    of every maturity it attributed, across restarts. *)

val crashes : t -> int

val healthy : t -> bool
(** Every tenant serving, nothing queued, nothing wedged, no maturity
    push parked behind the replication ack floor. *)

val is_shutdown : t -> bool

val metrics : t -> Rts_obs.Metrics.snapshot
(** The [serve_*] counters: accepted/applied/rejected/matured ops,
    retries, per-reason overload counts, crashes, restarts, wedges,
    tenant gauge. *)

(* ---- replication surface ---- *)

val role : t -> role

val set_role : t -> role -> unit
(** Switching to [Primary] (promotion) also flushes any parked pushes
    whose floor now permits them. *)

val epoch : t -> int

val set_epoch : t -> int -> unit
(** Raise the fencing epoch stamped into subsequently started tenant
    lives. Raises [Invalid_argument] if [e] is below the current epoch
    (epochs are monotone). *)

val set_replication : t -> replication option -> unit

val replica_submit : t -> string -> Rts_workload.Replay.op list -> bool
(** Enqueue ops shipped by the primary, bypassing admission (the
    primary's own gate already counted replication lag; the transport
    is exactly-once FIFO, so refusal would diverge the replica). [false]
    only if the tenant table is full. *)

val flush_pushes : t -> string -> unit
(** Re-read the ack floor and release any parked maturity pushes it now
    covers. The replication layer calls this when an ack advances. *)

val durable_position : t -> string -> int
(** The tenant's locally durable op ordinal — its WAL writer's
    fsynced-through ordinal ({!Rts_resilience.Durable.synced}), as the
    last life reported it while none runs — what a replica reports in
    its acks. 0 for unknown tenants. *)

(* ---- control ---- *)

val inject_wedge : t -> string -> unit
(** Test hook: freeze the tenant's drain (a stuck worker that holds its
    state but makes no progress). The watchdog detects the stall after
    [wedge_timeout] ticks without progress and restarts the tenant.
    Raises [Invalid_argument] for an unknown tenant. *)

val sync_all : t -> unit
(** Force every serving tenant's WAL durable now (storage faults during
    the sync crash that tenant, to be supervised as usual). *)

val checkpoint_all : t -> unit
(** Force a checkpoint — and, with [prune_wal], a segment prune — on
    every serving tenant regardless of the op-count cadence. The in-run
    cadence prunes with whatever replica ack floor it sees at checkpoint
    time; call this at quiescence (the floor has caught up by then) so
    segments pinned by a lagging replica are released before shutdown.
    Storage faults crash the tenant, to be supervised as usual. *)

val shutdown : t -> unit
(** Drain every queue to empty — restarting crashed tenants inline as
    needed — then sync, close and release every tenant's storage and
    executor. Idempotent. Further frames are {!Frame.Rejected}. *)
