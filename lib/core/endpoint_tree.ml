open Types

type stats = {
  mutable elements : int;
  mutable node_updates : int;
  mutable signals : int;
  mutable round_ends : int;
  mutable heap_ops : int;
}

(* Unboxed, off-heap storage for everything the per-element path touches.
   Bigarrays are invisible to the GC: the minor collector never scans
   them, writes need no [caml_modify] barrier, and int/float loads come
   back unboxed. Combined with the tree's preallocated cursor below, the
   per-element and batched feeds allocate zero minor-heap words per
   element — gated by validate_bench on every perf run. *)
type farr = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type iarr = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let ba_f n : farr = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n

let ba_i n : iarr = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

(* [k] int arrays of [n] entries carved out of one allocation. The GC
   charges a Bigarray's off-heap bytes per allocation, and an allocation
   that is large against the live heap forces a major cycle, so one slab
   forces at most one where [k] separate arrays could force [k]. *)
let ba_slab k n =
  let a = ba_i (k * n) in
  Array.init k (fun i -> Bigarray.Array1.sub a (i * n) n)

let[@inline] bget (a : iarr) i = Bigarray.Array1.unsafe_get a i

let[@inline] bset (a : iarr) i (v : int) = Bigarray.Array1.unsafe_set a i v

let[@inline] fget (a : farr) i = Bigarray.Array1.unsafe_get a i

(* One query's distributed-tracking state. Its canonical node set U_q —
   the "participants" of Section 4 — lives in the tree's flat edge arena
   as the contiguous index range [e_off, e_off + e_len): see [t] below.
   [tree_tau] is the weight the query still needed when this tree was
   built; within a tree, W(q) is simply the sum of the canonical nodes'
   counters (all counters start at zero at build time and U_q tiles R_q). *)
type qstate = {
  query : query;
  tree_tau : int;
  mutable e_off : int; (* first edge of this query in the edge arena *)
  mutable e_len : int; (* h_q = |U_q| *)
  mutable lambda : int;
  mutable signals : int; (* signals received in the current round *)
  mutable direct : bool; (* endgame mode: remaining <= 6h *)
  mutable wknown : int; (* direct mode: coordinator's exact W(q) *)
  mutable alive : bool;
}

(* The tree. Every node of every level — the top level on dimension 0
   and each secondary tree on a later dimension — has one id in one node
   arena, stored structure-of-arrays on Bigarray. The hot path — one
   root-to-leaf descent per element per level — touches a few flat
   off-heap arrays, and a tree holds the same few heap blocks whatever
   its dimension. A level occupies a contiguous id range in preorder
   (the top level's root is 0; a level's ids precede those of the
   secondary trees it carries), so an internal node's left child is the
   next id. [jlo, jhi) is a node's jurisdiction interval on its level's
   dimension; the rightmost spine has jhi = infinity. Walks pass the
   dimension down, so no node records its level.

   A last-dimension node's id is also its slot in [counters] and in
   [hbase]/[hlen]/[hcap], which describe the slot's sigma min-heap H(u)
   — the per-node heap of slack deadlines (Section 4, "putting together
   all queries with heaps") — stored as index regions of the shared
   [hstore]. Other nodes' slots stay at capacity 0. Heap capacities are
   exact by construction (one entry per canonical (query, node) edge,
   and edges are only ever removed after build), so a heap push can
   never need to grow anything.

   Edges themselves are a structure-of-arrays arena indexed by edge id:
   [e_owner] (index into [qarr]), [e_slot] (counter/heap slot),
   [e_cbar] (counter value acknowledged to the coordinator), [e_sigma]
   (counter value at which the next signal fires) and [e_pos] (index in
   the slot's heap region, -1 when absent). A query's edges are
   contiguous, [qstate.e_off .. e_off + e_len). *)
type t = {
  dims : int;
  eager : bool; (* ablation: skip DT rounds, signal every counter change *)
  jlo : farr; (* per node: jurisdiction start *)
  jhi : farr; (* per node: jurisdiction end *)
  right : iarr; (* per node: right child, -1 for a leaf; left is id + 1 *)
  sub : iarr; (* per node: secondary tree's root, -1 for none; empty at d = 1 *)
  states : (int, qstate) Hashtbl.t;
  mutable alive : int;
  built : int;
  on_mature : int -> unit;
  st : stats;
  counters : iarr; (* per-slot element counters c(u) *)
  hbase : iarr; (* per-slot heap region start in [hstore] *)
  hlen : iarr; (* per-slot heap size *)
  hcap : iarr; (* per-slot heap capacity (exact) *)
  hstore : iarr; (* heap entries: edge ids, ordered by e_sigma per region *)
  e_owner : iarr;
  e_slot : iarr;
  e_cbar : iarr;
  e_sigma : iarr;
  e_pos : iarr;
  qarr : qstate array; (* build-order query states; e_owner indexes this *)
  (* the batch cursor of {!feed_sorted}; its path is empty between calls *)
  cpath : int array; (* node ids of the cached top-level path, root first *)
  cmark : int array; (* cumulative weight [cw] when cpath.(i) was pushed *)
  mutable clen : int;
  mutable cw : int; (* 1D: weight fed since the last flush; d > 1: always 0 *)
}

(* ---- intrusive sigma heap, flat edition ------------------------------ *)
(* Each heap lives in hstore[base .. base + hcap); entries are edge ids
   ordered by e_sigma, each knowing its own region-relative index via
   e_pos. The comparison loops are closure-free: a generic heap's
   closure-based comparator measurably dominates the 2D running time. *)

let heap_swap t base i j =
  let hs = t.hstore in
  let a = bget hs (base + i) and b = bget hs (base + j) in
  bset hs (base + i) b;
  bset hs (base + j) a;
  bset t.e_pos a j;
  bset t.e_pos b i

let rec heap_up t base i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if bget t.e_sigma (bget t.hstore (base + i)) < bget t.e_sigma (bget t.hstore (base + parent))
    then begin
      heap_swap t base i parent;
      heap_up t base parent
    end
  end

let rec heap_down t base len i =
  let l = (2 * i) + 1 in
  if l < len then begin
    let r = l + 1 in
    let smallest =
      if r < len && bget t.e_sigma (bget t.hstore (base + r)) < bget t.e_sigma (bget t.hstore (base + l))
      then r
      else l
    in
    if bget t.e_sigma (bget t.hstore (base + smallest)) < bget t.e_sigma (bget t.hstore (base + i))
    then begin
      heap_swap t base i smallest;
      heap_down t base len smallest
    end
  end

let heap_push t slot ei =
  let base = bget t.hbase slot in
  let len = bget t.hlen slot in
  assert (len < bget t.hcap slot);
  bset t.hstore (base + len) ei;
  bset t.e_pos ei len;
  bset t.hlen slot (len + 1);
  heap_up t base len

let heap_remove t slot ei =
  let base = bget t.hbase slot in
  let len = bget t.hlen slot - 1 in
  let i = bget t.e_pos ei in
  assert (i >= 0 && i <= len && bget t.hstore (base + i) = ei);
  bset t.hlen slot len;
  bset t.e_pos ei (-1);
  if i <> len then begin
    let last = bget t.hstore (base + len) in
    bset t.hstore (base + i) last;
    bset t.e_pos last i;
    heap_down t base len i;
    heap_up t base (bget t.e_pos last)
  end

(* Restore order after [e_sigma.{ei}] changed in place. *)
let heap_fix t slot ei =
  let base = bget t.hbase slot and len = bget t.hlen slot in
  heap_down t base len (bget t.e_pos ei);
  heap_up t base (bget t.e_pos ei)

(* ---- sorting -------------------------------------------------------- *)

(* Monomorphic closure-free quicksort of (key, companion int) pairs:
   direct float compares, no closure calls, no write barriers —
   several times cheaper than [Array.sort] swapping boxed pointers
   through [caml_modify]. *)
let swap_ki (keys : float array) (idx : int array) i j =
  let k = Array.unsafe_get keys i in
  Array.unsafe_set keys i (Array.unsafe_get keys j);
  Array.unsafe_set keys j k;
  let v = Array.unsafe_get idx i in
  Array.unsafe_set idx i (Array.unsafe_get idx j);
  Array.unsafe_set idx j v

let rec qsort_kw (keys : float array) (idx : int array) lo hi =
  if hi - lo > 12 then begin
    (* median-of-three pivot, Hoare partition *)
    let mid = (lo + hi) lsr 1 in
    if keys.(mid) < keys.(lo) then swap_ki keys idx mid lo;
    if keys.(hi) < keys.(mid) then begin
      swap_ki keys idx hi mid;
      if keys.(mid) < keys.(lo) then swap_ki keys idx mid lo
    end;
    let p = keys.(mid) in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while Array.unsafe_get keys !i < p do
        incr i
      done;
      while Array.unsafe_get keys !j > p do
        decr j
      done;
      if !i <= !j then begin
        swap_ki keys idx !i !j;
        incr i;
        decr j
      end
    done;
    qsort_kw keys idx lo !j;
    qsort_kw keys idx !i hi
  end
  else
    for i = lo + 1 to hi do
      let k = keys.(i) and v = idx.(i) in
      let j = ref (i - 1) in
      while !j >= lo && Array.unsafe_get keys !j > k do
        Array.unsafe_set keys (!j + 1) (Array.unsafe_get keys !j);
        Array.unsafe_set idx (!j + 1) (Array.unsafe_get idx !j);
        decr j
      done;
      Array.unsafe_set keys (!j + 1) k;
      Array.unsafe_set idx (!j + 1) v
    done

let sort_kw keys idx n = if n > 1 then qsort_kw keys idx 0 (n - 1)

(* ---- construction --------------------------------------------------- *)

(* Construction runs on flat arrays and closure-free recursion. One
   builder carries the scratch of a whole [build]:

   - [keys]/[co]: one level's endpoints and the sort's int companion,
     sized for the largest level (2 per query);
   - [stk]: member ranges, used as a stack — the top level's members are
     [0, m) (indices into [qarr]), and a non-last level pushes, per node,
     the range of queries whose canonical set holds that node (a
     counting sort by node), recurses into each node's secondary tree,
     then pops;
   - [sink]: (owner, slot) pairs in emission order. Last levels append
     their canonical edges here for good; a non-last level appends its
     (owner, node) pairs at the end only until its counting sort has
     consumed them. Once [build] has read it, the sink becomes the
     tree's [hstore] and [e_cbar];
   - [njlo]/[njhi]/[nright]/[nsub]: the node arena, [nn] ids in use.
     Each level claims [n] consecutive ids as it is built, so levels
     take ids, and last levels their slots, in build order. [nsub]
     stays empty in a 1D build, which has no secondary trees.

   [stk], [sink] and the arena grow (at least doubling), so holders
   re-read the field after any call that may grow them. The arena starts
   empty, and a level reserves room for its own nodes and, if it is not
   last, a bound on the next level's: a 1D build sizes the arena
   exactly, and a 2D build grows it once. [build] copies a larger arena
   down to [nn] nodes, so a tree keeps exactly sized node arrays. *)
type builder = {
  bdims : int;
  bq : qstate array;
  keys : float array;
  co : int array;
  mutable stk : iarr;
  mutable sp : int;
  mutable sink : iarr;
  mutable sn : int;
  mutable njlo : farr;
  mutable njhi : farr;
  mutable nright : iarr;
  mutable nsub : iarr;
  mutable nn : int;
}

(* A fresh array of [n] entries that starts with [a]'s first [used]. *)
let copy a ~used n =
  let b = Bigarray.Array1.create (Bigarray.Array1.kind a) Bigarray.c_layout n in
  Bigarray.Array1.blit (Bigarray.Array1.sub a 0 used) (Bigarray.Array1.sub b 0 used);
  b

(* A copy of [a]'s first [used] entries with room for [need]. *)
let grow a ~used need = copy a ~used (max need (2 * Bigarray.Array1.dim a))

(* [a] cut to its first [n] entries: [a] itself when it has exactly [n],
   else a copy, so no view keeps a larger buffer alive. *)
let fit a n = if Bigarray.Array1.dim a = n then a else copy a ~used:n n

(* Room on the stack for entries up to [need], above the live [0, sp). *)
let reserve b need =
  if need > Bigarray.Array1.dim b.stk then b.stk <- grow b.stk ~used:b.sp need

(* Room in the sink for [pairs] more pairs. *)
let reserve_sink b pairs =
  let need = b.sn + (2 * pairs) in
  if need > Bigarray.Array1.dim b.sink then b.sink <- grow b.sink ~used:b.sn need

(* Room in the arena for [nodes] more nodes. *)
let reserve_nodes b nodes =
  let need = b.nn + nodes and used = b.nn in
  if need > Bigarray.Array1.dim b.nright then begin
    b.njlo <- grow b.njlo ~used need;
    b.njhi <- grow b.njhi ~used need;
    b.nright <- grow b.nright ~used need;
    if b.bdims > 1 then b.nsub <- grow b.nsub ~used need
  end

(* Emits land in room [build_level] reserved after counting them. *)
let emit b owner slot =
  bset b.sink b.sn owner;
  bset b.sink (b.sn + 1) slot;
  b.sn <- b.sn + 2

(* Lay the balanced binary tree over leaves [lo, hi] of the sorted,
   distinct [keys] out in preorder from arena node [id]: a left child is
   its parent's immediate neighbour, and the right child follows the
   left subtree's 2 * (mid - lo + 1) - 1 nodes. At d > 1 every node
   starts with no secondary tree. *)
let rec fill_nodes b (keys : float array) kn id lo hi =
  if b.bdims > 1 then bset b.nsub id (-1);
  if lo = hi then begin
    b.njlo.{id} <- keys.(lo);
    b.njhi.{id} <- (if lo + 1 < kn then keys.(lo + 1) else infinity);
    bset b.nright id (-1)
  end
  else begin
    let mid = (lo + hi) / 2 in
    let l = id + 1 and r = id + (2 * (mid - lo + 1)) in
    fill_nodes b keys kn l lo mid;
    fill_nodes b keys kn r (mid + 1) hi;
    bset b.nright id r;
    b.njlo.{id} <- b.njlo.{l};
    b.njhi.{id} <- b.njhi.{r}
  end

(* Canonical decomposition of the leaf range [a, z) below node [id],
   which spans leaves [lo, hi]: emit (owner, base + node) for the maximal
   nodes inside the range, left to right. On integer leaf indices this is
   the float test it stands for — node [id]'s jurisdiction
   [keys.(lo), keys.(hi + 1)) lies inside [keys.(a), keys.(z)) iff
   a <= lo and hi < z — with no loads from the arena. *)
let rec canonical b owner base a z id lo hi =
  if a <= lo && hi < z then emit b owner (base + id)
  else if hi < a || z <= lo then ()
  else begin
    assert (lo < hi);
    let mid = (lo + hi) / 2 in
    canonical b owner base a z (id + 1) lo mid;
    canonical b owner base a z (id + (2 * (mid - lo + 1))) (mid + 1) hi
  end

(* The number of nodes [canonical] emits for the same range. *)
let rec canonical_count a z lo hi =
  if a <= lo && hi < z then 1
  else if hi < a || z <= lo then 0
  else
    let mid = (lo + hi) / 2 in
    canonical_count a z lo mid + canonical_count a z (mid + 1) hi

(* Build the level on dimension [k] over the queries [bq.(stk.{i})], i in
   [mlo, mhi), into the arena; its root id, or -1 when it has no
   endpoint. *)
let rec build_level b k mlo mhi =
  let last = k = b.bdims - 1 in
  let mn = mhi - mlo in
  (* A stack frame at [ab] receives each member's bounds as leaf indices:
     ab + 2i for member mlo + i's lower bound, ab + 2i + 1 for its upper
     bound, or max_int (past every leaf) for +infinity. *)
  let ab = b.sp in
  reserve b (ab + (2 * mn));
  let stk = b.stk and keys = b.keys and co = b.co in
  (* Grid endpoints on dimension k, each tagged in the sort companion
     with its frame slot. A +infinity upper bound creates no endpoint:
     the rightmost jurisdiction already extends to +infinity. *)
  let kn = ref 0 in
  for i = 0 to mn - 1 do
    let r = (Array.unsafe_get b.bq (bget stk (mlo + i))).query.rect in
    keys.(!kn) <- r.lo.(k);
    co.(!kn) <- 2 * i;
    incr kn;
    if r.hi.(k) <> infinity then begin
      keys.(!kn) <- r.hi.(k);
      co.(!kn) <- (2 * i) + 1;
      incr kn
    end
    else bset stk (ab + (2 * i) + 1) max_int
  done;
  sort_kw keys co !kn;
  (* Deduplicate in place; each endpoint's leaf goes to its frame slot. *)
  let u = ref (-1) in
  for i = 0 to !kn - 1 do
    if !u < 0 || keys.(i) <> keys.(!u) then begin
      incr u;
      keys.(!u) <- keys.(i)
    end;
    bset stk (ab + co.(i)) !u
  done;
  let kn = !u + 1 in
  if kn = 0 then -1
  else begin
    let n = (2 * kn) - 1 in
    (* A last level's pairs are its canonical edges, each naming its
       node's arena id, which is the node's slot; a non-last level's
       are (owner, node index in the level) and only feed the counting
       sort below. Counted first, so the sink grows once per level at
       most and a 1D build sizes it exactly: the GC charges every
       Bigarray byte allocated. *)
    let npairs = ref 0 in
    for i = 0 to mn - 1 do
      let a = bget stk (ab + (2 * i)) and z = bget stk (ab + (2 * i) + 1) in
      npairs := !npairs + canonical_count a z 0 (kn - 1)
    done;
    (* Room for this level and, below a non-last one, the next level's
       trees: a pair's member gives them at most two endpoints, so at
       most 4 * npairs nodes. A 1D or 2D build reserves once. *)
    reserve_nodes b (if last then n else n + (4 * !npairs));
    let base = b.nn in
    b.nn <- base + n;
    fill_nodes b keys kn base 0 (kn - 1);
    reserve_sink b !npairs;
    let s0 = b.sn in
    let ebase = if last then base else 0 in
    for i = 0 to mn - 1 do
      let a = bget stk (ab + (2 * i)) and z = bget stk (ab + (2 * i) + 1) in
      canonical b (bget stk (mlo + i)) ebase a z 0 0 (kn - 1)
    done;
    if not last then begin
      (* Counting sort of the pairs by node, over the [ab] frame: [cnt]
         holds n + 1 counters, then the members follow node by node.
         After the scatter, node u's members are [cnt.{u - 1}, cnt.{u})
         relative to [m0] (from 0 for u = 0). *)
      let npairs = !npairs in
      let c0 = ab in
      let m0 = c0 + n + 1 in
      reserve b (m0 + npairs);
      let stk = b.stk and sink = b.sink in
      Bigarray.Array1.fill (Bigarray.Array1.sub stk c0 (n + 1)) 0;
      for p = 0 to npairs - 1 do
        let c = c0 + 1 + bget sink (s0 + (2 * p) + 1) in
        bset stk c (bget stk c + 1)
      done;
      for u = 1 to n do
        bset stk (c0 + u) (bget stk (c0 + u) + bget stk (c0 + u - 1))
      done;
      for p = 0 to npairs - 1 do
        let c = c0 + bget sink (s0 + (2 * p) + 1) in
        bset stk (m0 + bget stk c) (bget sink (s0 + (2 * p)));
        bset stk c (bget stk c + 1)
      done;
      b.sn <- s0;
      b.sp <- m0 + npairs;
      (* Hang the secondary trees. *)
      for u = 0 to n - 1 do
        let lo = if u = 0 then 0 else bget b.stk (c0 + u - 1) in
        let hi = bget b.stk (c0 + u) in
        if hi > lo then begin
          let root = build_level b (k + 1) (m0 + lo) (m0 + hi) in
          bset b.nsub (base + u) root
        end
      done
    end;
    b.sp <- ab;
    base
  end

(* ---- distributed-tracking per query ---------------------------------- *)

let set_deadline t ei =
  t.st.heap_ops <- t.st.heap_ops + 1;
  let slot = bget t.e_slot ei in
  if bget t.e_pos ei >= 0 then heap_fix t slot ei else heap_push t slot ei

(* Start a DT round (or the direct endgame) for [q], given how much weight
   it still needs. Resynchronizes every edge with its node's exact counter
   — the "collection" step of the protocol. *)
let start_phase t (q : qstate) remaining =
  assert (remaining >= 1);
  let h = q.e_len in
  q.direct <- t.eager || remaining <= 6 * h;
  if q.direct then q.wknown <- q.tree_tau - remaining
  else begin
    q.lambda <- remaining / (2 * h);
    q.signals <- 0
  end;
  (* a direct-mode edge fires on every counter change, a round's edge
     on every lambda *)
  let slack = if q.direct then 1 else q.lambda in
  for ei = q.e_off to q.e_off + h - 1 do
    let c = bget t.counters (bget t.e_slot ei) in
    bset t.e_cbar ei c;
    bset t.e_sigma ei (c + slack);
    set_deadline t ei
  done

let tree_weight t (q : qstate) =
  let acc = ref 0 in
  for ei = q.e_off to q.e_off + q.e_len - 1 do
    acc := !acc + bget t.counters (bget t.e_slot ei)
  done;
  !acc

(* Retire [q]: its slack entries leave their heaps, and it leaves the
   tree. Maturity and termination share this. *)
let retire t (q : qstate) =
  q.alive <- false;
  for ei = q.e_off to q.e_off + q.e_len - 1 do
    if bget t.e_pos ei >= 0 then begin
      heap_remove t (bget t.e_slot ei) ei;
      t.st.heap_ops <- t.st.heap_ops + 1
    end
  done;
  t.alive <- t.alive - 1;
  Hashtbl.remove t.states q.query.id

let mature t (q : qstate) =
  retire t q;
  t.on_mature q.query.id

let end_round t (q : qstate) =
  t.st.round_ends <- t.st.round_ends + 1;
  let w = tree_weight t q in
  let remaining = q.tree_tau - w in
  if remaining <= 0 then mature t q else start_phase t q remaining

(* The edge has just been popped from its node's heap because
   c(u) >= sigma. Deliver the pending signal(s). *)
let fire t ei =
  let q = Array.unsafe_get t.qarr (bget t.e_owner ei) in
  let c = bget t.counters (bget t.e_slot ei) in
  if q.direct then begin
    t.st.signals <- t.st.signals + 1;
    q.wknown <- q.wknown + (c - bget t.e_cbar ei);
    bset t.e_cbar ei c;
    if q.wknown >= q.tree_tau then mature t q
    else begin
      bset t.e_sigma ei (c + 1);
      set_deadline t ei
    end
  end
  else begin
    let h = q.e_len in
    let k = (c - bget t.e_cbar ei) / q.lambda in
    (* The coordinator halts the round at the h-th signal, so at most
       h - q.signals of the k signals are actually delivered; any surplus
       weight is picked up by the round-end collection. *)
    let delivered = min k (h - q.signals) in
    t.st.signals <- t.st.signals + delivered;
    q.signals <- q.signals + delivered;
    if q.signals >= h then end_round t q
    else begin
      bset t.e_cbar ei (bget t.e_cbar ei + (k * q.lambda));
      bset t.e_sigma ei (bget t.e_cbar ei + q.lambda);
      set_deadline t ei
    end
  end

(* Hot path: runs on every counter increment of every visited node, so it
   must not allocate when no deadline fires. A while loop, not an inner
   recursive function — the closure an inner [let rec loop] captures
   would be one minor-heap block per node update. *)
let drain t slot =
  let c = bget t.counters slot in
  let base = bget t.hbase slot in
  let continue = ref true in
  while !continue do
    if bget t.hlen slot > 0 then begin
      let ei = bget t.hstore base in
      if bget t.e_sigma ei <= c then begin
        heap_remove t slot ei;
        t.st.heap_ops <- t.st.heap_ops + 1;
        fire t ei
      end
      else continue := false
    end
    else continue := false
  done

(* One root-to-leaf descent per level, from the level root [u] on
   dimension [k]: at every node of the path, a last-dimension level bumps
   the node's counter and drains its deadline heap; other levels recurse
   into the node's secondary tree. The key is read from [value] by index
   at every step rather than passed down as a [float] argument, which a
   non-flambda compiler boxes on every call. Allocation-free. *)
let rec process_level t (value : point) w k u =
  if value.(k) >= fget t.jlo u then descend t value w k u

and descend t (value : point) w k u =
  (if k = t.dims - 1 then begin
     bset t.counters u (bget t.counters u + w);
     t.st.node_updates <- t.st.node_updates + 1;
     drain t u
   end
   else
     let s = bget t.sub u in
     if s >= 0 then process_level t value w (k + 1) s);
  let r = bget t.right u in
  if r >= 0 then
    if value.(k) >= fget t.jlo r then descend t value w k r else descend t value w k (u + 1)

(* ---- batch cursor ---------------------------------------------------- *)

(* The tree's cursor caches the current root-to-leaf path of the top level
   between consecutive elements of a key-sorted batch, and — on a 1D
   (last) level — defers counter increments with cumulative-weight marks:
   a node that stays on the path across many consecutive elements
   receives ONE aggregated bump (and one heap drain) when it finally
   leaves the path (or at the end-of-batch flush), instead of one per
   element.

   Protocol correctness: [fire] delivers exact [c - cbar] deltas in
   multiples of lambda and re-arms [sigma > c], so an aggregated jump of
   k*lambda produces exactly the k signals the per-element drains would
   have, and the known weight never exceeds the true weight (never
   early). After the flush every counter is fully applied and drained, so
   per-node undelivered weight is < lambda and the DT invariant
   W < (wknown + tau)/2 holds: any query whose true weight reached tau
   has matured. Maturities therefore coarsen to batch granularity but the
   matured id multiset equals the sequential one at every batch boundary.
   Work counters (node updates, heap ops) can only decrease. *)

(* Apply the pending aggregated weight of path slot [i]. A no-op on a
   d > 1 tree, whose [cw] never advances. *)
let flush_slot t i =
  let pend = t.cw - Array.unsafe_get t.cmark i in
  if pend > 0 then begin
    let slot = Array.unsafe_get t.cpath i in
    bset t.counters slot (bget t.counters slot + pend);
    t.st.node_updates <- t.st.node_updates + 1;
    drain t slot
  end

(* Apply every pending bump on the cached path, deepest node first, and
   forget the path. *)
let flush t =
  for i = t.clen - 1 downto 0 do
    flush_slot t i
  done;
  t.clen <- 0;
  t.cw <- 0

(* Feed sorted entry [i]. Takes the arrays plus an index rather than the
   key itself: a [float] function argument is boxed at every call on
   non-flambda compilers, while the indexed load stays unboxed. Pops the
   path suffix whose jurisdictions end at or before the key — they nest
   along the path, so the exhausted nodes form a contiguous suffix, and
   the root's extends to +infinity, so once seeded the path never
   empties — then tail-walks to the key's leaf, marking each fresh node
   with the current cumulative weight. Node-id indexing is safe by
   construction, so the walk uses unsafe loads. *)
let feed1 t (elems : elem array) (keys : float array) (idx : int array) (wts : int array) i =
  let x = Array.unsafe_get keys i in
  let path = t.cpath in
  let len = ref t.clen in
  while !len > 0 && x >= fget t.jhi (Array.unsafe_get path (!len - 1)) do
    decr len;
    flush_slot t !len
  done;
  if !len = 0 && x >= fget t.jlo 0 then begin
    Array.unsafe_set path 0 0;
    Array.unsafe_set t.cmark 0 t.cw;
    len := 1
  end;
  if !len > 0 then begin
    let u = ref (Array.unsafe_get path (!len - 1)) in
    let r = ref (bget t.right !u) in
    while !r >= 0 do
      let nxt = if x >= fget t.jlo !r then !r else !u + 1 in
      Array.unsafe_set path !len nxt;
      Array.unsafe_set t.cmark !len t.cw;
      incr len;
      u := nxt;
      r := bget t.right nxt
    done;
    if t.dims = 1 then
      (* 1D: the weight lands on every path node lazily — it is folded
         into [cw] and applied when nodes leave the path. *)
      t.cw <- t.cw + Array.unsafe_get wts i
    else begin
      (* d > 1: sub-trees key on other dimensions, so the element is
         applied to each path node's secondary tree now; the cursor still
         amortizes the top-level navigation. *)
      let value = (Array.unsafe_get elems (Array.unsafe_get idx i)).value in
      let w = Array.unsafe_get wts i in
      for j = 0 to !len - 1 do
        let s = bget t.sub (Array.unsafe_get path j) in
        if s >= 0 then process_level t value w 1 s
      done
    end
  end;
  t.clen <- !len

(* The number of nodes across all levels. *)
let nodes t = Bigarray.Array1.dim t.right

let feed_sorted t elems keys idx wts n =
  t.st.elements <- t.st.elements + n;
  if nodes t > 0 then begin
    for i = 0 to n - 1 do
      feed1 t elems keys idx wts i
    done;
    flush t
  end

(* ---- public API ------------------------------------------------------ *)

let build ?(eager = false) ~dim ~on_mature batch =
  if dim < 1 then invalid_arg "Endpoint_tree.build: dim < 1";
  let states = Hashtbl.create (max 16 (2 * List.length batch)) in
  let qarr =
    Array.map
      (fun (q, remaining) ->
        validate_query ~dim q;
        if remaining < 1 then invalid_arg "Endpoint_tree.build: remaining < 1";
        if remaining > q.threshold then
          invalid_arg "Endpoint_tree.build: remaining exceeds threshold";
        if Hashtbl.mem states q.id then invalid_arg "Endpoint_tree.build: duplicate query id";
        let qs =
          {
            query = q;
            tree_tau = remaining;
            e_off = 0;
            e_len = 0;
            lambda = 0;
            signals = 0;
            direct = false;
            wknown = 0;
            alive = true;
          }
        in
        Hashtbl.replace states q.id qs;
        qs)
      (Array.of_list batch)
  in
  let m = Array.length qarr in
  let b =
    {
      bdims = dim;
      bq = qarr;
      keys = Array.make (2 * m) 0.;
      co = Array.make (2 * m) 0;
      stk = ba_i (max 16 (4 * m));
      sp = m;
      sink = ba_i 0;
      sn = 0;
      njlo = ba_f 0;
      njhi = ba_f 0;
      nright = ba_i 0;
      nsub = ba_i 0;
      nn = 0;
    }
  in
  for i = 0 to m - 1 do
    bset b.stk i i
  done;
  let (_ : int) = build_level b 0 0 m in
  (* One slot per node; only last-dimension nodes' slots take edges. *)
  let nslots = b.nn and sink = b.sink and nedges = b.sn / 2 in
  (* Edges per query and exact heap capacities per slot, from the sink. *)
  let per_slot = ba_slab 4 nslots in
  let counters = per_slot.(0) and hcap = per_slot.(1) in
  let hbase = per_slot.(2) and hlen = per_slot.(3) in
  Bigarray.Array1.fill counters 0;
  Bigarray.Array1.fill hcap 0;
  Bigarray.Array1.fill hlen 0;
  for p = 0 to nedges - 1 do
    let q = Array.unsafe_get qarr (bget sink (2 * p)) and s = bget sink ((2 * p) + 1) in
    q.e_len <- q.e_len + 1;
    bset hcap s (bget hcap s + 1)
  done;
  let off = ref 0 in
  for s = 0 to nslots - 1 do
    bset hbase s !off;
    off := !off + bget hcap s
  done;
  (* Queries own contiguous edge ranges in build order. One scatter pass
     fills each range from its end, so a query's edges come out in the
     reverse of their emission order; [e_off] walks down from the range
     end and finishes on its start. *)
  let off = ref 0 in
  Array.iter
    (fun q ->
      assert (q.e_len >= 1);
      off := !off + q.e_len;
      q.e_off <- !off)
    qarr;
  let per_edge = ba_slab 4 nedges in
  let e_owner = per_edge.(0) and e_slot = per_edge.(1) in
  let e_sigma = per_edge.(2) and e_pos = per_edge.(3) in
  for p = 0 to nedges - 1 do
    let qi = bget sink (2 * p) in
    let q = Array.unsafe_get qarr qi in
    q.e_off <- q.e_off - 1;
    bset e_owner q.e_off qi;
    bset e_slot q.e_off (bget sink ((2 * p) + 1))
  done;
  (* The sink is read. Its 2 * nedges entries become the heap store,
     which [start_phase] fills, and [e_cbar]: the tree keeps the
     builder's largest buffer rather than allocating two more. *)
  let hstore = Bigarray.Array1.sub sink 0 nedges in
  let e_cbar = Bigarray.Array1.sub sink nedges nedges in
  Bigarray.Array1.fill e_cbar 0;
  Bigarray.Array1.fill e_sigma 0;
  Bigarray.Array1.fill e_pos (-1);
  (* The top level's deepest path is its leftmost: [fill_nodes] gives
     the left half the larger share. The cursor holds one such path. *)
  let right = fit b.nright nslots in
  let rec depth u = if bget right u < 0 then 1 else 1 + depth (u + 1) in
  let depth = if nslots > 0 then depth 0 else 0 in
  let t =
    {
      dims = dim;
      eager;
      jlo = fit b.njlo nslots;
      jhi = fit b.njhi nslots;
      right;
      sub = fit b.nsub (if dim > 1 then nslots else 0);
      states;
      alive = Array.length qarr;
      built = Array.length qarr;
      on_mature;
      st = { elements = 0; node_updates = 0; signals = 0; round_ends = 0; heap_ops = 0 };
      counters;
      hbase;
      hlen;
      hcap;
      hstore;
      e_owner;
      e_slot;
      e_cbar;
      e_sigma;
      e_pos;
      qarr;
      cpath = Array.make (depth + 1) (-1);
      cmark = Array.make (depth + 1) 0;
      clen = 0;
      cw = 0;
    }
  in
  Array.iter (fun q -> start_phase t q q.tree_tau) qarr;
  t

let dim t = t.dims

let process t e =
  if Array.length e.value <> t.dims then invalid_arg "Endpoint_tree.process: bad dimensionality";
  if e.weight < 1 then invalid_arg "Endpoint_tree.process: weight < 1";
  t.st.elements <- t.st.elements + 1;
  if nodes t > 0 then process_level t e.value e.weight 0 0

let find_alive t id =
  match Hashtbl.find_opt t.states id with
  | Some q when q.alive -> q
  | _ -> raise Not_found

let is_alive t id = match Hashtbl.find_opt t.states id with Some q -> q.alive | None -> false

let remove t id = retire t (find_alive t id)

let current_weight t id = tree_weight t (find_alive t id)

let remaining t id =
  let q = find_alive t id in
  q.tree_tau - tree_weight t q

let progress t id =
  let q = find_alive t id in
  q.query.threshold - (q.tree_tau - tree_weight t q)

let alive_count t = t.alive

let built_count t = t.built

let alive_queries t =
  Hashtbl.fold
    (fun _ (q : qstate) acc ->
      if q.alive then (q.query, q.tree_tau - tree_weight t q) :: acc else acc)
    t.states []

let fanout t id = (find_alive t id).e_len

let stats t = t.st

type space = { tree_nodes : int; live_entries : int; dead_entries : int }

let space t =
  let live = ref 0 in
  for s = 0 to Bigarray.Array1.dim t.hlen - 1 do
    live := !live + bget t.hlen s
  done;
  {
    tree_nodes = nodes t;
    live_entries = !live;
    dead_entries = Bigarray.Array1.dim t.hstore - !live;
  }
