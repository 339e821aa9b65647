(** Unified metrics layer for every RTS engine and driver.

    The paper's headline claims are {e budgets} — [O(h log tau)] DT
    messages per query, [O~(n + m)] total work — so the system's cost
    profile must be observable, uniformly, at any point of a run. This
    module provides named counters, gauges and histograms in a registry
    with O(1) hot-path updates, plus immutable {!snapshot}s that can be
    diffed (per-window deltas for trajectory traces), rendered as JSON
    (the [BENCH_*.json] files) or Prometheus-style text ([rts-cli
    --stats]).

    Conventions (documented in DESIGN.md, "Observability"):
    - counters end in [_total] and only ever grow;
    - gauges are instantaneous levels (e.g. [alive] queries);
    - histogram observations are in the unit named by the metric
      (e.g. [*_us] = microseconds).

    A registry is cheap (a hashtable of boxed ints); every engine owns
    one so that two engines in the same process never share counters. *)

type t
(** A metric registry. *)

type counter
type gauge
type histogram

val create : unit -> t

(* ---- registration (get-or-create; idempotent per name) ---- *)

val counter : t -> string -> counter
(** [counter t name] returns the counter registered under [name],
    creating it at 0 on first use. Raises [Invalid_argument] if [name]
    is already registered as a different metric kind. *)

val gauge : t -> string -> gauge

val histogram : ?buckets:float array -> t -> string -> histogram
(** [buckets] are upper bounds of cumulative buckets (ascending); a
    [+inf] overflow bucket is implicit. Default: powers of 10 from 1 to
    1e6. Raises [Invalid_argument] on a non-ascending bucket array, or
    if [name] exists with different buckets. *)

(* ---- hot path: O(1) ---- *)

val incr : counter -> unit
val add : counter -> int -> unit
(** Raises [Invalid_argument] on a negative delta — counters only grow. *)

val value : counter -> int

val set : gauge -> float -> unit
val gauge_value : gauge -> float

val observe : histogram -> float -> unit
(** Binary-search the bucket: O(log #buckets), constant for the default
    array. *)

(* ---- snapshots ---- *)

type histogram_summary = {
  count : int;
  sum : float;
  buckets : (float * int) array;  (** (upper bound, cumulative count) *)
}

type value_snapshot =
  | Counter of int
  | Gauge of float
  | Histogram of histogram_summary

type snapshot
(** An immutable, sorted view of a registry at one instant. *)

val snapshot : t -> snapshot

val empty : snapshot

val of_assoc : (string * value_snapshot) list -> snapshot
(** Build a snapshot directly — the adapter path for components that
    keep their own tallies in flat mutable records for hot-path reasons
    (e.g. {!Rts_core.Endpoint_tree.stats}) and only materialize metric
    names on demand. Duplicate names raise [Invalid_argument]. *)

val get : snapshot -> string -> value_snapshot option

val counter_value : snapshot -> string -> int
(** 0 if absent or not a counter — total-order convenience for tests and
    the bench aggregator. *)

val diff : before:snapshot -> after:snapshot -> snapshot
(** Per-window delta: counters and histogram counts subtract, gauges take
    the [after] value. Metrics present only in [after] pass through;
    metrics only in [before] are dropped (a metric never disappears from
    a live registry, so this only happens across unrelated snapshots). *)

val merge : snapshot -> snapshot -> snapshot
(** Pointwise sum (counters and histograms add, gauges take the second
    operand) — used by the bench to aggregate across engines or runs.
    Raises [Invalid_argument] on a kind mismatch under one name. *)

val merge_all : snapshot list -> snapshot
(** [merge_all snaps] folds {!merge} left-to-right over [snaps] (so for
    gauges the {e last} snapshot carrying a name wins) — the shard layer
    aggregates its per-shard engine snapshots with this, appending its
    own corrected gauges last. [merge_all [] = empty]. *)

val is_monotone : before:snapshot -> after:snapshot -> bool
(** Every counter present in both grew or stayed equal — the
    engine-agnostic sanity law asserted by the test suite. *)

(* ---- rendering ---- *)

val to_json : snapshot -> Json.t
(** Object keyed by metric name. Counters/gauges are numbers; histograms
    are objects [{"count": n, "sum": s, "buckets": {"le_<b>": c, ...}}]. *)

val to_prometheus : ?prefix:string -> snapshot -> string
(** Prometheus text exposition (v0 subset): [# TYPE] lines plus samples;
    histograms expand to [_bucket{le="..."}], [_sum], [_count]. [prefix]
    is prepended to every metric name (default none). *)

val pp : Format.formatter -> snapshot -> unit
(** Human-readable one-line-per-metric dump (used by [--stats]). *)
