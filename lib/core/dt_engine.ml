open Types

let src = Logs.Src.create "rts.dt_engine" ~doc:"RTS distributed-tracking engine"

module Log = (val Logs.src_log src : Logs.LOG)

type slot = { mutable tree : Endpoint_tree.t option }

type t = {
  dims : int;
  eager : bool;
  mutable slots : slot array; (* slots.(i) plays the role of T_{i+1}, capacity 2^i *)
  mutable live : Endpoint_tree.t array;
      (* dense cache of the non-empty slots' trees, refreshed once per
         migration, rebuild or drop: the per-element path iterates this
         flat array instead of matching [tree option] per slot per element *)
  mutable matured_acc : int list; (* maturities reported during the current [process] *)
  agg : Endpoint_tree.stats; (* stats inherited from destroyed trees *)
  mutable rebuilds : int; (* tree installs: migrations and global rebuilds *)
  mutable built_queries : int; (* queries handed to [Endpoint_tree.build] *)
  mutable global_rebuilds : int; (* Section 4 rebuilds of a halved tree *)
  (* engine-level tallies for the uniform metrics surface; the protocol
     counters (signals, round ends, heap ops, node updates) live in the
     endpoint trees' flat stats records and are folded in on demand *)
  mutable n_elements : int;
  mutable n_registered : int;
  mutable n_terminated : int;
  mutable n_matured : int;
  (* batch scratch: each batch's first coordinates are co-sorted ONCE
     here with the permutation [bidx], its weights gathered into [bwts]
     in that order, and every live tree is fed the same flat arrays.
     Grown on demand, so the steady state allocates nothing. *)
  mutable bkeys : float array;
  mutable bidx : int array;
  mutable bwts : int array;
}

let zero_stats () : Endpoint_tree.stats =
  { elements = 0; node_updates = 0; signals = 0; round_ends = 0; heap_ops = 0 }

let create ?(eager = false) ~dim () =
  if dim < 1 then invalid_arg "Dt_engine.create: dim < 1";
  {
    dims = dim;
    eager;
    slots = [||];
    live = [||];
    matured_acc = [];
    agg = zero_stats ();
    rebuilds = 0;
    built_queries = 0;
    global_rebuilds = 0;
    n_elements = 0;
    n_registered = 0;
    n_terminated = 0;
    n_matured = 0;
    bkeys = [||];
    bidx = [||];
    bwts = [||];
  }

let absorb_stats (agg : Endpoint_tree.stats) (s : Endpoint_tree.stats) =
  agg.elements <- agg.elements + s.elements;
  agg.node_updates <- agg.node_updates + s.node_updates;
  agg.signals <- agg.signals + s.signals;
  agg.round_ends <- agg.round_ends + s.round_ends;
  agg.heap_ops <- agg.heap_ops + s.heap_ops

let slot_alive slot = match slot.tree with Some tr -> Endpoint_tree.alive_count tr | None -> 0

(* The slot index and tree holding alive query [id]; [Not_found] if
   none. Ids are unique across trees, and there are O(log m) slots, so
   probing each tree's own id table replaces an engine-wide id -> slot
   table that every migration had to rewrite. *)
let rec find_from t id i =
  if i < 0 then raise Not_found
  else
    match t.slots.(i).tree with
    | Some tr when Endpoint_tree.is_alive tr id -> (i, tr)
    | _ -> find_from t id (i - 1)

let find_tree t id = find_from t id (Array.length t.slots - 1)

let is_alive t id = match find_tree t id with _ -> true | exception Not_found -> false

let ensure_slots t j =
  let g = Array.length t.slots in
  if j > g then t.slots <- Array.init j (fun i -> if i < g then t.slots.(i) else { tree = None })

let refresh_live t =
  t.live <- Array.of_list (List.filter_map (fun slot -> slot.tree) (Array.to_list t.slots))

let on_mature_of t qid =
  t.n_matured <- t.n_matured + 1;
  t.matured_acc <- qid :: t.matured_acc

(* Build a tree over [batch] (query, remaining) pairs and install it in
   slot [idx]. The caller refreshes [live]. *)
let install_tree t idx batch =
  let tree = Endpoint_tree.build ~eager:t.eager ~dim:t.dims ~on_mature:(on_mature_of t) batch in
  let n = Endpoint_tree.built_count tree in
  Log.debug (fun m -> m "built endpoint tree in slot %d over %d queries" idx n);
  t.rebuilds <- t.rebuilds + 1;
  t.built_queries <- t.built_queries + n;
  t.slots.(idx).tree <- Some tree

(* Empty [slot], keeping its tree's stats. The caller refreshes [live]. *)
let discard_slot t slot =
  match slot.tree with
  | Some tr ->
      absorb_stats t.agg (Endpoint_tree.stats tr);
      slot.tree <- None
  | None -> ()

(* Refuse an invalid query, an alive id or an id repeated in [queries]
   before anything moves: a refused registration leaves the engine
   untouched. [who] names the entry point in the error. *)
let admit t ~who queries =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (q : query) ->
      validate_query ~dim:t.dims q;
      if is_alive t q.id then invalid_arg ("Dt_engine." ^ who ^ ": id already alive");
      if Hashtbl.mem seen q.id then invalid_arg ("Dt_engine." ^ who ^ ": duplicate id");
      Hashtbl.replace seen q.id ())
    queries

(* The logarithmic method's insertion step (Section 5) for a non-empty
   list of (query, remaining) newcomers arriving at one instant: find the
   smallest j (1-based) whose capacity 2^(j-1) holds the alive queries of
   T_1..T_j plus the newcomers, and migrate everything in T_1..T_j into a
   fresh T_j, thresholds reduced by the weight already seen (steps 2-3).
   Such a j always exists once it exceeds the current number of slots by
   enough. *)
let collapse t fresh =
  let len = List.length fresh in
  let g = Array.length t.slots in
  let rec find_j j cum =
    let cum = cum + if j - 1 < g then slot_alive t.slots.(j - 1) else 0 in
    if cum + len <= 1 lsl (j - 1) then j else find_j (j + 1) cum
  in
  let j = find_j 1 0 in
  ensure_slots t j;
  t.n_registered <- t.n_registered + len;
  let batch = ref fresh in
  for i = 0 to j - 1 do
    (match t.slots.(i).tree with
    | Some tr -> batch := List.rev_append (Endpoint_tree.alive_queries tr) !batch
    | None -> ());
    discard_slot t t.slots.(i)
  done;
  install_tree t (j - 1) !batch;
  refresh_live t

let register t (q : query) =
  admit t ~who:"register" [ q ];
  collapse t [ (q, q.threshold) ]

(* Batch registration: one collapse absorbing the whole batch instead of
   one per query. *)
let register_batch t queries =
  if queries <> [] then begin
    admit t ~who:"register_batch" queries;
    collapse t (List.map (fun (q : query) -> (q, q.threshold)) queries)
  end

let create_static ?eager ~dim queries =
  let t = create ?eager ~dim () in
  register_batch t queries;
  t

(* Global rebuilding (Section 4): once a tree has lost half the queries it
   was built with, rebuild it on the alive remainder with thresholds
   adjusted; drop it entirely when empty. *)
let maybe_rebuild t idx =
  let slot = t.slots.(idx) in
  match slot.tree with
  | None -> ()
  | Some tr ->
      let alive = Endpoint_tree.alive_count tr and built = Endpoint_tree.built_count tr in
      if alive = 0 then begin
        Log.debug (fun m -> m "slot %d empty, dropping its tree" idx);
        discard_slot t slot;
        refresh_live t
      end
      else if 2 * alive <= built then begin
        Log.debug (fun m ->
            m "global rebuild of slot %d: %d alive of %d built" idx alive built);
        let batch = Endpoint_tree.alive_queries tr in
        discard_slot t slot;
        install_tree t idx batch;
        t.global_rebuilds <- t.global_rebuilds + 1;
        refresh_live t
      end

(* The feeds' epilogue, skipped entirely on the common no-maturity case:
   the global-rebuild probe, then the matured ids in ascending order. *)
let take_matured t =
  if t.matured_acc == [] then []
  else begin
    for i = 0 to Array.length t.slots - 1 do
      maybe_rebuild t i
    done;
    let out = Engine.sort_matured t.matured_acc in
    t.matured_acc <- [];
    out
  end

(* Per-element hot path: iterate the dense [live] cache with a bare for
   loop (no option match, no closure allocation per element). *)
let process t e =
  validate_elem ~dim:t.dims e;
  t.n_elements <- t.n_elements + 1;
  t.matured_acc <- [];
  let live = t.live in
  for i = 0 to Array.length live - 1 do
    Endpoint_tree.process live.(i) e
  done;
  take_matured t

let ensure_scratch t n =
  if Array.length t.bkeys < n then begin
    t.bkeys <- Array.make n 0.;
    t.bidx <- Array.make n 0;
    t.bwts <- Array.make n 0
  end

(* Batched ingestion, one path for every dimension and tree count:
   validate the whole batch, co-sort its first coordinates with an
   identity permutation in the engine's scratch, gather the weights in
   that order, and feed every live tree the same flat arrays through its
   shared-prefix cursor ({!Endpoint_tree.feed_sorted}) — a batch of b
   elements costs one sort plus b short tail-walks per tree instead of b
   full root-to-leaf descents, and allocates nothing in the steady state.
   Maturities accumulate across the batch; global-rebuild checks run once
   at the end (rebuilds never change which queries mature or their exact
   weights, only when migration work happens). The matured set, every
   survivor's weight, and the post-call [alive_snapshot] equal the
   sequential [process] results for the same multiset of elements. *)
let process_batch t elems =
  let n = Array.length elems in
  for i = 0 to n - 1 do
    validate_elem ~dim:t.dims (Array.unsafe_get elems i)
  done;
  t.n_elements <- t.n_elements + n;
  let live = t.live in
  if n = 0 || Array.length live = 0 then []
  else begin
    ensure_scratch t n;
    let keys = t.bkeys and idx = t.bidx and wts = t.bwts in
    for i = 0 to n - 1 do
      Array.unsafe_set keys i (Array.unsafe_get (Array.unsafe_get elems i).value 0);
      Array.unsafe_set idx i i
    done;
    Endpoint_tree.sort_kw keys idx n;
    for i = 0 to n - 1 do
      Array.unsafe_set wts i (Array.unsafe_get elems (Array.unsafe_get idx i)).weight
    done;
    t.matured_acc <- [];
    for ti = 0 to Array.length live - 1 do
      Endpoint_tree.feed_sorted (Array.unsafe_get live ti) elems keys idx wts n
    done;
    take_matured t
  end

let terminate t id =
  let idx, tr = find_tree t id in
  Endpoint_tree.remove tr id;
  t.n_terminated <- t.n_terminated + 1;
  maybe_rebuild t idx

let progress t id = Endpoint_tree.progress (snd (find_tree t id)) id

let alive_count t = Array.fold_left (fun acc slot -> acc + slot_alive slot) 0 t.slots

let tree_count t =
  Array.fold_left (fun acc slot -> if slot_alive slot > 0 then acc + 1 else acc) 0 t.slots

let rebuild_count t = t.rebuilds

let stats t =
  let total = zero_stats () in
  absorb_stats total t.agg;
  Array.iter
    (fun slot ->
      match slot.tree with Some tr -> absorb_stats total (Endpoint_tree.stats tr) | None -> ())
    t.slots;
  total

let alive_snapshot t =
  let acc = ref [] in
  Array.iter
    (fun slot ->
      match slot.tree with
      | Some tr ->
          List.iter
            (fun ((q : query), remaining) -> acc := (q, q.threshold - remaining) :: !acc)
            (Endpoint_tree.alive_queries tr)
      | None -> ())
    t.slots;
  List.sort (fun ((a : query), _) ((b : query), _) -> compare a.id b.id) !acc

let restore ?eager ~dim entries =
  let t = create ?eager ~dim () in
  if entries <> [] then begin
    List.iter
      (fun ((q : query), consumed) ->
        if consumed < 0 || consumed >= q.threshold then
          invalid_arg "Dt_engine.restore: consumed out of range")
      entries;
    admit t ~who:"restore" (List.map fst entries);
    collapse t (List.map (fun ((q : query), consumed) -> (q, q.threshold - consumed)) entries)
  end;
  t

let space t =
  Array.fold_left
    (fun (acc : Endpoint_tree.space) slot ->
      match slot.tree with
      | Some tr ->
          let s = Endpoint_tree.space tr in
          {
            Endpoint_tree.tree_nodes = acc.tree_nodes + s.tree_nodes;
            live_entries = acc.live_entries + s.live_entries;
            dead_entries = acc.dead_entries + s.dead_entries;
          }
      | None -> acc)
    { Endpoint_tree.tree_nodes = 0; live_entries = 0; dead_entries = 0 }
    t.slots

(* Uniform metrics surface. The hot-path counters stay in the endpoint
   trees' flat mutable records (Endpoint_tree.stats) — a snapshot folds
   them into the shared metric names, so the observability layer costs
   nothing per element beyond the engine's own tallies. *)
let metrics t : Rts_obs.Metrics.snapshot =
  let st = stats t in
  Rts_obs.Metrics.of_assoc
    [
      ("elements_total", Rts_obs.Metrics.Counter t.n_elements);
      ("registered_total", Rts_obs.Metrics.Counter t.n_registered);
      ("terminated_total", Rts_obs.Metrics.Counter t.n_terminated);
      ("matured_total", Rts_obs.Metrics.Counter t.n_matured);
      ("alive", Rts_obs.Metrics.Gauge (float_of_int (alive_count t)));
      ("trees", Rts_obs.Metrics.Gauge (float_of_int (tree_count t)));
      ("rebuilds_total", Rts_obs.Metrics.Counter t.rebuilds);
      ("built_queries_total", Rts_obs.Metrics.Counter t.built_queries);
      ("global_rebuilds_total", Rts_obs.Metrics.Counter t.global_rebuilds);
      ("dt_node_updates_total", Rts_obs.Metrics.Counter st.node_updates);
      ("dt_signals_total", Rts_obs.Metrics.Counter st.signals);
      ("dt_round_ends_total", Rts_obs.Metrics.Counter st.round_ends);
      ("dt_heap_ops_total", Rts_obs.Metrics.Counter st.heap_ops);
    ]

let engine t =
  {
    Engine.name = (if t.eager then "dt-eager" else "dt");
    dim = t.dims;
    register = register t;
    register_batch = register_batch t;
    terminate = terminate t;
    process = process t;
    feed_batch = process_batch t;
    alive = (fun () -> alive_count t);
    alive_snapshot = (fun () -> alive_snapshot t);
    metrics = (fun () -> metrics t);
  }

let make ~dim = engine (create ~dim ())

let make_eager ~dim = engine (create ~eager:true ~dim ())
