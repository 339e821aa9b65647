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

val sort_kw : float array -> int array -> int -> unit
(** [sort_kw keys idx n] co-sorts the first [n] entries of the parallel
    (key, int) arrays ascending by key, in place, with a monomorphic
    closure-free quicksort. Allocation-free. {!Dt_engine} sorts each batch
    once this way — first coordinates against an identity permutation —
    and feeds every live tree from the result via {!feed_sorted}; {!build}
    sorts each level's endpoints with it. *)

val feed_sorted : t -> elem array -> float array -> int array -> int array -> int -> unit
(** [feed_sorted t elems keys idx wts n] feeds the batch [elems] in the
    order [idx.(0), ..., idx.(n-1)], where [keys.(i)] is the first
    coordinate and [wts.(i)] the weight of [elems.(idx.(i))]. The caller
    guarantees that the elements are valid and [keys] ascending (e.g. by
    {!sort_kw}); nothing is re-checked. Allocation-free.

    The tree's cursor keeps the previous element's top-level
    root-to-leaf path, so a key-sorted run shares the common prefix of
    its descents: each element pops the exhausted suffix and tail-walks
    to its own leaf. On a 1D tree it also {e aggregates} counter
    increments: a node that stays on the path across many consecutive
    elements receives one summed bump (and one heap drain) when it leaves
    the path or at the end of the call, instead of one per element. A
    d > 1 tree applies each element to every path node's secondary tree
    at once. Signal deliveries remain exact and the known weight never
    exceeds the true weight, so maturities are never reported early; on
    return the matured set and every survivor's weight equal those of
    {!process} on the same elements, and only the attribution of
    maturity to individual elements inside the call coarsens. Work
    counters can only decrease vs. {!process}. *)

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

val progress : t -> int -> int
(** [progress t id] is W(q) since the query was registered: its
    threshold minus {!remaining}. The weight credited before this tree
    is the threshold minus the [remaining] the tree was built with, so
    the tree alone knows it. Raises [Not_found] if not alive. *)

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
