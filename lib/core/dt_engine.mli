(** The paper's RTS algorithm, end to end (Theorem 1).

    Maintains a collection of {!Endpoint_tree}s governed by the logarithmic
    method of Section 5 (Bentley–Saxe): slot [j] holds at most [2^(j-1)]
    alive queries (property P3); a REGISTER collapses the smallest prefix of
    slots that can absorb the newcomer into a single freshly built tree,
    with every migrated query's threshold reduced by the weight it has
    already accumulated (Section 5, steps 1–3). TERMINATE and maturity
    remove heap entries only; once a tree has lost half of the queries it
    was built with, it is rebuilt on its alive remainder (the global
    rebuilding of Section 4), keeping total space [O~(m_alive)].

    Complexities (paper, Sections 5–7): processing [n] elements and [m]
    queries costs [O(n log^{d+1} m + m log^{d+1} m log tau_max)] in total;
    space is [O(m_alive log^d m_alive)]. *)

open Types

type t

val create : ?eager:bool -> dim:int -> unit -> t
(** Fresh engine for [dim]-dimensional streams ([dim >= 1]). [eager] is the
    ablation switch of {!Endpoint_tree.build}: disable the DT slack rounds
    and signal every counter change (exact but slower; benchmarked by the
    ablation target). *)

val create_static : ?eager:bool -> dim:int -> query list -> t
(** Build an engine over a one-shot batch (the Section 4 setting / the
    paper's "static" Scenario 1): a single endpoint tree over all queries,
    cheaper than [m] successive {!register} calls. Registration later is
    still allowed. *)

val register : t -> query -> unit
(** REGISTER(q): amortized [O(log^{d+1} m)]. Raises [Invalid_argument] on
    an invalid query or an id that is already alive. *)

val register_batch : t -> query list -> unit
(** Register a batch of queries at one instant: a single logarithmic-method
    collapse absorbing the whole batch, instead of one per query. This is
    how {!create_static} builds the paper's Scenario-1 setup. Raises
    [Invalid_argument], registering nothing, on an invalid query or an id
    that is already alive or repeated in the batch. *)

val terminate : t -> int -> unit
(** TERMINATE by id; [O(log^{d+1} m)]. Raises [Not_found] if not alive. *)

val process : t -> elem -> int list
(** Feed one element; returns the newly matured query ids (ascending).
    Raises [Invalid_argument], changing nothing, on an invalid element
    ({!Types.validate_elem}). Allocates nothing when no query matures. *)

val process_batch : t -> elem array -> int list
(** Feed a batch of elements arriving at one instant; returns all newly
    matured query ids (ascending). Validates the whole batch (a refused
    batch changes nothing), sorts it once by first coordinate in the
    engine's scratch and feeds every live tree through
    {!Endpoint_tree.feed_sorted}, so a batch of [b] elements costs one
    sort plus [b] short tail-walks per tree instead of [b] full descents,
    and allocates nothing in the steady state. Matured set, surviving
    weights and {!alive_snapshot} are identical to [b] sequential
    {!process} calls on the same multiset;
    per-element maturity attribution inside the batch (and the
    interleaving-sensitive work counters) may differ because elements are
    reordered and global-rebuild checks run once at batch end. *)

val is_alive : t -> int -> bool

val progress : t -> int -> int
(** [progress t id] = W(q): the exact total weight accumulated by the alive
    query since its registration, combining the weight credited during tree
    migrations with its current tree's counters. Raises [Not_found] if the
    query is not alive. *)

val alive_count : t -> int

val tree_count : t -> int
(** Number of (non-empty) endpoint trees currently live — the [g] of
    Section 5; tests assert it stays [O(log m)] (property P1). *)

val rebuild_count : t -> int
(** Total endpoint-tree (re)constructions so far — the source of the cost
    "bumps" the paper points out in Figures 3 and 6. *)

val stats : t -> Endpoint_tree.stats
(** Aggregated telemetry over all trees ever built (signals, round ends,
    heap operations, counter updates) — drives the message-bound assertions
    and the ablation bench. *)

val metrics : t -> Engine.Metrics.snapshot
(** The uniform observability surface (see {!Engine.t.metrics}): folds
    {!stats} into the shared metric names ([dt_signals_total] = DT
    messages delivered, [dt_round_ends_total], [dt_heap_ops_total],
    [dt_node_updates_total]) next to the engine-level tallies
    ([elements_total], [registered_total], [terminated_total],
    [matured_total]), the construction tallies ([rebuilds_total] = every
    tree installed, by a registration's migration or a global rebuild;
    [built_queries_total] = the queries those builds took, newcomers
    included; [global_rebuilds_total] = Section 4 rebuilds of a tree
    that lost half its queries) and the [alive] / [trees] gauges.
    Counters agree with {!stats} exactly — asserted by the test suite. *)

val alive_snapshot : t -> (query * int) list
(** [(q, W)] for every alive query, ascending id: the original query and
    the exact weight it has accumulated since registration. Together with
    {!restore} this checkpoints an engine: maturity behaviour after
    [restore ~dim (alive_snapshot t)] is identical to continuing [t]. *)

val restore : ?eager:bool -> dim:int -> (query * int) list -> t
(** Rebuild an engine from a snapshot (one fresh endpoint tree over the
    batch, thresholds reduced by the consumed weights — exactly the
    paper's global-rebuilding threshold adjustment). Raises
    [Invalid_argument] on duplicate ids or [consumed] outside
    [0, threshold). *)

val space : t -> Endpoint_tree.space
(** Aggregate structure footprint across all live endpoint trees. The
    paper's space guarantee — [O~(m_alive)] at all times, via global
    rebuilding and properties P2/P3 — is asserted against this by the
    test suite. *)

val engine : t -> Engine.t
(** Package as a uniform {!Engine.t} named ["dt"] (["dt-eager"] under the
    ablation switch). *)

val make : dim:int -> Engine.t
(** [make ~dim] = [engine (create ~dim ())]. *)

val make_eager : dim:int -> Engine.t
(** The ablation variant: [engine (create ~eager:true ~dim ())]. *)
