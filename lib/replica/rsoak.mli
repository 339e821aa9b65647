(** Combined-fault soak: churn a multi-tenant {!Cluster} under
    simultaneous storage faults, network faults and a scripted primary
    fault, then prove the run lost nothing.

    The harness:

    - drives, per tenant, [queries] registrations, [elements] stream
      elements (mostly as {!Rts_serve.Frame.Batch} frames of [batch]),
      and churn (terminate + fresh register) through a dedicated client;
      client 0 subscribes to every tenant and rides out any failover via
      watermark re-subscribe;
    - interposes {!Rts_resilience.Fault.wrap} on the first
      [faulty_incarnations] lives of each (node, tenant) store, with
      PRNG-drawn crash points, torn tails, bit flips,
      crash-at-checkpoint, silent short writes (always armed one append
      before a crash, so the scanner-amputated record is resubmitted on
      recovery) and sticky {!Rts_resilience.Io.No_space};
    - optionally wedges tenants on the current primary mid-run
      ({!Rts_serve.Server.inject_wedge}) so the watchdog's stall
      detection restarts them too;
    - runs the whole deployment over a lossy, reordering network;
    - plays one {!scenario} against the initial primary.

    With [cluster.serving = 1] (zero replicas), no pruning and the
    [Clean] scenario, this is the single-server soak: one {!Rts_serve.Server}
    on its unpruned, unreplicated path.

    The oracle is built from the promoted node's own storage: cold WAL
    segments are archived at the moment pruning deletes them (an
    {!Rts_resilience.Io.dir} wrapper on the base dir), and
    [archive ++ surviving chain] replayed through a fresh engine must
    equal — bit-identically — both the promoted node's maturity log and
    the subscriber's merged push stream: nothing lost, nothing early,
    nothing duplicated across crashes, wedges, restarts, retransmission
    and failover. Accepted ops must equal applied + benignly rejected,
    and the chain must hold exactly [applied] records. With
    [prune_wal] on, pruning must also have actually happened
    ([pruned_somewhere]) and the surviving chain must stay under the
    disk bound — twice the most ops a checkpoint can trail by under
    {!Rts_resilience.Durable}'s cadence — so the run demonstrates bounded disk
    over 10× [checkpoint_every] ops, not pruning disabled.

    [RTS_SERVE_TRACE=<tenant>|all] dumps the oracle, server and
    subscriber streams and the oracle's ops for a tenant that diverges. *)

type scenario =
  | Clean
      (** no scenario fault: replication + gating under churn only. A
          spurious failover (heartbeats delayed by network-fault luck)
          may still happen and must then be handled correctly. *)
  | Kill of int  (** fail-stop the primary at this virtual tick *)
  | Wedge of { at : int; duration : int }
      (** stall the primary, then wake the zombie — its stale frames
          must be fenced and it must fail-stop on the new view *)

type config = {
  tenants : int;
  queries : int;  (** initial registrations per tenant *)
  elements : int;  (** stream elements per tenant *)
  batch : int;  (** elements per batch frame ([1] = singleton frames) *)
  threshold : int;  (** max maturity threshold drawn per query *)
  churn : float;  (** per-chunk probability of a terminate + register *)
  dim : int;
  seed : int;  (** master seed — the whole run replays from it *)
  faulty_incarnations : int;  (** per (node, tenant): lives with fault plans *)
  crash_every : int;  (** mean appends between drawn crash points *)
  wedges : int;  (** tenant wedge injections spread across the run *)
  scenario : scenario;
  cluster : Cluster.config;
}

val default : config
(** 3 serving nodes, [Kill 120], no wedges, mild network faults, WAL
    pruning on, enough volume for 10× the checkpoint interval. *)

type tenant_report = {
  name : string;
  accepted : int;
  applied : int;
  rejected : int;  (** benign engine rejections (churn races) *)
  restarts : int;  (** on the promoted node *)
  archived_records : int;  (** ops rescued from pruned segments *)
  chain_records : int;  (** records still on the promoted node's disk *)
  chain_base : int;  (** ops below the surviving chain ( > 0 ⇒ pruned) *)
  matured : int;
  log_ok : bool;  (** promoted node's maturity log == oracle *)
  sub_ok : bool;  (** subscriber's merged push stream == oracle *)
  acct_ok : bool;  (** accepted = applied + rejected; chain = applied *)
  chain_ok : bool;  (** archive ++ chain is gap-free from op 1 *)
  disk_ok : bool;  (** surviving chain under the pruning bound *)
}

type report = {
  per_tenant : tenant_report list;
  promoted : int;
  failovers : int;
  fenced : int;  (** stale-epoch frames dropped cluster-wide *)
  crashes_total : int;
  client_retries : int;  (** {!Rts_serve.Frame.Retry_after} rounds observed *)
  overloads : int;  (** typed {!Rts_serve.Frame.Overloaded} refusals observed *)
  net_retransmits : int;
  scenario_ok : bool;  (** the scenario actually played out as scripted *)
  faults_ok : bool;
      (** [faulty_incarnations = 0] or at least one storage crash was
          actually exercised *)
  volume_ok : bool;
      (** ≥ 10 × [checkpoint_every] ops per tenant. Reported but not
          folded into [ok]: survival-to-application depends on
          fault-plan luck (disk-full windows and kills shed ops under
          the at-least-once admission contract), so only pinned-seed
          tests assert it. *)
  pruned_somewhere : bool;
  ok : bool;
}

val run :
  ?progress:(string -> unit) -> make:(dim:int -> Rts_core.Engine.t) -> config -> report
(** Deterministic: same [config] (and engine kind) — same report.
    Raises [Invalid_argument] on a nonsensical config, including a
    [Kill] or [Wedge] scenario with fewer than two serving nodes. *)

val pp : Format.formatter -> report -> unit
