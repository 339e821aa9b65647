(** The endpoint tree — the paper's core data structure (Sections 4, 6, 7).

    One endpoint tree manages a {e batch} of queries, all registered at the
    instant the tree is built (dynamic registration is layered on top by
    {!Dt_engine} with the logarithmic method, which only ever builds whole
    trees). For dimension 1 it is a balanced binary search tree over the
    queries' interval endpoints; node [u] has a jurisdiction interval [I(u)]
    and a counter [c(u)] equal to the total weight of stream elements whose
    value fell in [I(u)] since the build. For higher dimensions the nodes of
    the tree on dimension [k] carry secondary endpoint trees on dimension
    [k+1], range-tree style (Section 6); only last-dimension nodes carry
    counters.

    Each query [q] is decomposed into its canonical node set [U_q] —
    [O(log^d m)] last-dimension nodes whose jurisdiction regions disjointly
    tile [R_q] — and runs one instance of the weighted distributed-tracking
    protocol (Section 7) with the nodes of [U_q] as participants. The
    protocol's slack deadlines sit in a per-node min-heap (Section 4,
    "putting together all queries with heaps"), so processing an element
    costs one root-to-leaf descent per tree level plus O(log m) per signal
    actually fired.

    Maturity is reported exactly: the callback fires while processing the
    element whose arrival makes [W(q) >= tau_q]. *)

open Types

type t

val build : ?eager:bool -> dim:int -> on_mature:(int -> unit) -> (query * int) list -> t
(** [build ~dim ~on_mature batch] constructs a tree over [batch], a list of
    [(query, remaining)] pairs — [remaining] is how much more weight must
    fall in the query's rectangle {e from now on} for it to mature (equal to
    the original threshold for a brand-new query, smaller for a query
    migrating between trees). Requires [remaining >= 1], unique ids and
    [dim >= 1]; validated. [on_mature] is invoked with the query id during
    the {!process} call that matures it; the query is removed from the tree
    automatically. Cost: O(b log b) for a batch of size b.

    [eager] (default false) is an ablation switch: it disables the DT round
    protocol and has every canonical node signal its coordinator on every
    counter change (the "direct" endgame mode from the start). Maturity
    stays exact, but the slack machinery — the paper's key idea — is
    removed, so per-query work degrades to O(W(q)) instead of
    O(h log tau); the ablation benchmark quantifies the gap. *)

val dim : t -> int

val process : t -> elem -> unit
(** Route one stream element through the tree: update the counters of the
    nodes covering it and run all induced distributed-tracking steps,
    invoking [on_mature] for every query this element matures. The element
    itself is not stored. *)

type cursor
(** A batched-descent cursor: caches the root-to-leaf path of the previous
    element so a run of key-sorted elements shares the common prefix of
    their descents instead of re-descending from the root each time. On a
    1D tree it additionally {e aggregates} counter increments: a node that
    stays on the path across many consecutive elements receives one summed
    bump (and one heap drain) when it leaves the path or at {!flush},
    instead of one per element. Signal deliveries remain exact ([fire]
    hands over [c - cbar] in multiples of lambda and re-arms above [c]),
    and the known weight never exceeds the true weight, so maturities are
    never reported early; after {!flush} the matured set equals the
    sequential one. Between elements the tree's counters lag behind the
    fed weight, so a cursor must be flushed before the tree is observed
    ({!current_weight}, {!remaining}, snapshots) or mutated through any
    other entry point. Work counters can only decrease vs. {!process}. *)

val cursor : t -> cursor
(** Fresh cursor positioned before every key. O(depth) allocation, done
    once per batch (or reused across batches of one tree). *)

val process_sorted : cursor -> elem -> unit
(** [process_sorted c e] routes [e] like {!process} but via the cursor's
    cached path, deferring 1D counter bumps as described above. Requires
    the first coordinate of successive elements fed to [c] to be
    non-decreasing; raises [Invalid_argument] otherwise. Elements are
    validated like {!process}. *)

val flush : cursor -> unit
(** Apply every pending aggregated counter bump on the cursor's cached
    path (deepest node first) and run the induced drains, then forget the
    path. After [flush c] the tree state is exactly as if the whole fed
    prefix had been processed; the cursor may keep feeding (still
    non-decreasing) elements afterwards. Idempotent. *)

val sort_batch : elem array -> elem array
(** Copy of the batch sorted ascending on the first coordinate, using a
    monomorphic branch-only float comparator (the polymorphic [compare]
    is an out-of-line call and a sort makes ~2 n log n of them). Shared by
    {!process_batch} and multi-tree drivers that feed several cursors from
    one sorted copy. *)

val process_batch : t -> elem array -> unit
(** [process_batch t elems] validates every element, sorts the batch
    (into the tree's preallocated scratch buffers on 1D trees, a copy
    otherwise), feeds it through the tree's reusable cursor and
    {!flush}es it. The matured id multiset equals that of calling
    {!process} on the batch in any order (weights are order-independent
    within a batch); only the attribution of maturity to individual
    elements inside the batch coarsens. Work counters never exceed the
    per-element equivalents — shared descents and aggregated bumps can
    only remove work. On a 1D tree the call allocates zero minor-heap
    words once the scratch buffers have reached the batch size (gated by
    validate_bench on every perf run). *)

val sort_kw : float array -> int array -> int -> unit
(** [sort_kw keys wts n] co-sorts the first [n] entries of the parallel
    (key, weight) arrays ascending by key, in place, with a monomorphic
    closure-free quicksort. Allocation-free. Exposed for multi-tree
    drivers ({!Dt_engine}) that extract a batch once and feed every live
    1D tree via {!feed_sorted_kw}. *)

val feed_sorted_kw : t -> float array -> int array -> int -> unit
(** [feed_sorted_kw t keys wts n] feeds the first [n] (key, weight)
    pairs — which the caller guarantees are pre-validated and sorted
    ascending by key, e.g. by {!sort_kw} — through the tree's reusable
    cursor and flushes it, exactly like the 1D {!process_batch} but
    without re-extracting or re-sorting. Allocation-free. Raises
    [Invalid_argument] if the tree is not one-dimensional. *)

val remove : t -> int -> unit
(** [remove t id] terminates an alive query: deletes its slack entries from
    all node heaps in O(h log m). The tree keeps its endpoints (Section 5:
    termination never restructures the tree). Raises [Not_found] if [id] is
    not alive in this tree. *)

val is_alive : t -> int -> bool

val current_weight : t -> int -> int
(** [current_weight t id] is W(q) accumulated since this tree was built —
    the exact sum of the canonical nodes' counters (Section 4, global
    rebuilding). O(h). Raises [Not_found] if not alive. *)

val remaining : t -> int -> int
(** [remaining t id] = the query's remaining threshold minus
    {!current_weight}; always [>= 1] for an alive query. *)

val alive_count : t -> int

val built_count : t -> int
(** Number of queries the tree was built with. *)

val alive_queries : t -> (query * int) list
(** Snapshot of alive queries with their {!remaining} values — exactly the
    batch needed to rebuild this tree (or migrate its content to a bigger
    one) with thresholds adjusted as in Sections 4–5. *)

val fanout : t -> int -> int
(** [fanout t id] = [h_q = |U_q|], the number of canonical nodes (DT
    participants) of an alive query. For tests: O(log^d m) is the paper's
    bound. *)

type stats = {
  mutable elements : int; (** elements processed *)
  mutable node_updates : int; (** counter increments performed *)
  mutable signals : int; (** DT signals delivered (heap pops) *)
  mutable round_ends : int; (** DT round terminations *)
  mutable heap_ops : int; (** heap insert/delete/update operations *)
}

val stats : t -> stats
(** Live telemetry — drives the ablation bench and the message-bound test. *)

type space = {
  tree_nodes : int; (** nodes across all levels (primary + secondary) *)
  live_entries : int; (** slack-heap entries of alive queries = sum of h_q *)
  dead_entries : int; (** heap-store slack left by departed queries *)
}

val space : t -> space
(** Walk the structure and count its footprint; O(size). Backs the tests
    of the paper's space claims: [tree_nodes = O(b log^(d-1) b)] and
    [live_entries = O(b log^d b)] for a tree built on [b] queries. *)
