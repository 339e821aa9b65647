(** Uniform interface over all RTS engines.

    Every solution evaluated in the paper — the proposed DT algorithm and
    the four competitors — supports exactly three operations: REGISTER,
    TERMINATE, and processing one stream element (which may mature any
    number of queries). This record-of-closures interface lets the workload
    driver, the test suite, and the benchmark harness treat them uniformly;
    cross-checking any two engines for equal maturity behaviour is the
    central correctness property of the repository. *)

open Types
module Metrics = Rts_obs.Metrics

type t = {
  name : string;
  dim : int;
  register : query -> unit;
      (** Accept a query at the current moment. Raises [Invalid_argument] on
          an invalid query or duplicate alive id. *)
  register_batch : query list -> unit;
      (** Accept many queries at one instant. Atomic: if any query is
          invalid, already alive or repeated in the batch, raises
          [Invalid_argument] and registers none of them. Otherwise
          identical to registering them one by one (in list order), but
          an engine may
          exploit the batch — the DT engine builds one endpoint tree
          directly, the paper's Scenario-1 "construction at the beginning
          of the stream", instead of paying the logarithmic method's
          migration churn per query. *)
  terminate : int -> unit;
      (** Stop and eliminate an alive query by id. Raises [Not_found] if the
          id is not alive (already matured, terminated, or never seen). *)
  process : elem -> int list;
      (** Feed one stream element; returns the ids of the queries this
          element matured, in ascending id order (deterministic across
          engines so traces can be compared verbatim). *)
  feed_batch : elem array -> int list;
      (** Feed many stream elements at one instant; returns the ids of all
          queries the batch matured, in ascending id order. Semantically
          the batch is an unordered multiset arriving together: the
          matured set, every alive query's accumulated weight, and the
          [alive_snapshot] after the call are identical to feeding the
          elements one at a time, but an engine may reorder elements
          {e within} the batch to amortize work — the DT engine sorts by
          key and shares descent prefixes — so per-element attribution of
          maturity inside a batch (and, for the DT engine, the exact
          interleaving-sensitive work counters) may differ from a
          specific sequential order. [feed_batch [|e|]] and [process e]
          are exactly equivalent. *)
  alive : unit -> int;  (** Number of currently alive queries. *)
  alive_snapshot : unit -> (query * int) list;
      (** [(q, W)] for every alive query in ascending id order: the query
          as originally registered and the exact weight it has accumulated
          since registration. This is the engine's checkpointable state —
          maturity behaviour is fully determined by it, so registering
          each [q] with threshold [q.threshold - W] into a fresh engine
          (what [Rts_resilience.Recovery] does, and what
          {!Dt_engine.restore} implements natively) continues the run
          bit-identically. Cost is O(alive); not a hot-path call. *)
  metrics : unit -> Metrics.snapshot;
      (** Uniform observability surface (DESIGN.md, "Observability").
          Every engine answers at least [elements_total],
          [registered_total], [terminated_total], [matured_total] and the
          [alive] gauge; scan-style engines add [scan_updates_total] (the
          O(nm) work term), the DT engine adds its protocol counters
          ([dt_signals_total], [dt_round_ends_total], [dt_heap_ops_total],
          [dt_node_updates_total], [rebuilds_total], [trees]). Counters
          are monotone across calls; snapshots are cheap (O(#metrics))
          and may be {!Metrics.diff}ed for per-window deltas. *)
}

val sort_matured : int list -> int list
(** Ascending, dedup-free sort used by implementations to normalize their
    [process] output. *)

val batch_of_register :
  dim:int -> is_alive:(int -> bool) -> (query -> unit) -> query list -> unit
(** Default [register_batch]: check every query first (valid at [dim],
    id not [is_alive], no id repeated in the batch), raising
    [Invalid_argument] before anything is registered, then iterate
    [register]. *)

val batch_of_process : (elem -> int list) -> elem array -> int list
(** Default [feed_batch]: iterate [process] in array order, collect and
    sort the matured ids once. Exactly sequential semantics — wrappers
    that must observe every element individually use this. *)

val sort_snapshot : (query * int) list -> (query * int) list
(** Ascending id order — the normalization every [alive_snapshot]
    implementation applies so snapshots are comparable verbatim. *)

val no_metrics : unit -> Metrics.snapshot
(** The empty snapshot — for wrapper engines (e.g. recording proxies)
    that have nothing of their own to report. *)

(** Registry + the uniform counter set shared by the scan-style engines.
    Owning one of these is all an engine needs to satisfy the [metrics]
    contract; hot-path increments are single int mutations. *)
module Counters : sig
  type t = {
    reg : Metrics.t;
    elements : Metrics.counter;
    registered : Metrics.counter;
    terminated : Metrics.counter;
    matured : Metrics.counter;
    scan_updates : Metrics.counter;
    alive : Metrics.gauge;
  }

  val create : unit -> t

  val snapshot : t -> alive:int -> Metrics.snapshot
  (** Refreshes the [alive] gauge, then snapshots the registry. *)
end
