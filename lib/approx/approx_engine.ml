open Rts_core
module Types = Rts_core.Types
module Metrics = Rts_obs.Metrics
module Handle_heap = Rts_structures.Handle_heap

type qstate = {
  q : Types.query;
  l_reg : int;  (* summary range bounds frozen at registration *)
  u_reg : int;
  mutable last_mass : int;  (* clock at the previous deadline check *)
  mutable last_lw : int;  (* certified lower bound on W at that check *)
  mutable handle : (int * int) Handle_heap.handle;
}

type t = {
  name : string;
  s : Summary.t;
  alive : (int, qstate) Hashtbl.t;
  heap : (int * int) Handle_heap.t;  (* (deadline mass, id), min by deadline *)
  counters : Engine.Counters.t;
  checks_c : Metrics.counter;
  cells_c : Metrics.counter;
  words_g : Metrics.gauge;
}

let create ~name ~summary () =
  let counters = Engine.Counters.create () in
  {
    name;
    s = summary;
    alive = Hashtbl.create 256;
    heap =
      Handle_heap.create
        ~leq:(fun (d1, i1) (d2, i2) -> d1 < d2 || (d1 = d2 && i1 <= i2))
        ();
    counters;
    checks_c = Metrics.counter counters.Engine.Counters.reg "approx_checks_total";
    cells_c = Metrics.counter counters.Engine.Counters.reg "approx_cells_total";
    words_g = Metrics.gauge counters.Engine.Counters.reg "approx_sketch_words";
  }

let range_of t (q : Types.query) =
  t.s.Summary.range ~lo:q.rect.Types.lo.(0) ~hi:q.rect.Types.hi.(0)

(* How much more stream mass to wait for before re-checking a query.

   Any stride is sound — the check itself decides maturity, so a stride
   only trades re-check work against detection lateness (the DT slack
   idea, keyed on total mass because the summary cannot watch a single
   range cheaply). The stride extrapolates the query's observed fill
   rate between its last two checks: if the certified lower bound gained
   [gained] over [dm] mass, closing the remaining [short] needs about
   [short * dm / gained] more — halved for safety so the shortfall
   converges geometrically (O(log tau) checks on a steady range).
   Queries observing no gain back off to a doubling schedule, capped at
   [max tau (mass/2)] so even a range that turns hot late is detected
   within one tau (or one mass doubling) of maturing. Floats avoid
   [short * dm] overflow; the arithmetic is still deterministic. *)
let stride t st ~lw =
  let short = st.q.Types.threshold - lw in
  let mass = t.s.Summary.mass () in
  let cap = float_of_int (max st.q.Types.threshold (mass / 2)) in
  let gained = lw - st.last_lw and dm = mass - st.last_mass in
  let est =
    if gained <= 0 then cap
    else float_of_int short *. float_of_int (max 1 dm) /. (2. *. float_of_int gained)
  in
  let est = Float.min est cap in
  if est < 1. then 1 else int_of_float est

let lower_w st est = max 0 (est.Summary.lower - st.u_reg)

let register t q =
  Types.validate_query ~dim:1 q;
  if Hashtbl.mem t.alive q.Types.id then
    invalid_arg (Printf.sprintf "%s: duplicate alive query id %d" t.name q.Types.id);
  let est = range_of t q in
  let mass = t.s.Summary.mass () in
  (* First check after half a threshold's worth of mass: even if every
     unit landed in the range, the query is at most halfway by then. *)
  let d = mass + max 1 (q.Types.threshold / 2) in
  let handle = Handle_heap.push t.heap (d, q.Types.id) in
  let st =
    {
      q;
      l_reg = est.Summary.lower;
      u_reg = est.Summary.upper;
      last_mass = mass;
      last_lw = 0;
      handle;
    }
  in
  Hashtbl.replace t.alive q.Types.id st;
  Metrics.incr t.counters.Engine.Counters.registered;
  Metrics.add t.cells_c est.Summary.cells

let terminate t id =
  match Hashtbl.find_opt t.alive id with
  | None -> raise Not_found
  | Some st ->
      Handle_heap.remove t.heap st.handle;
      Hashtbl.remove t.alive id;
      Metrics.incr t.counters.Engine.Counters.terminated

let drain t =
  let matured = ref [] in
  let clock = t.s.Summary.mass () in
  let rec go () =
    match Handle_heap.peek t.heap with
    | Some (d, _) when d <= clock ->
        let _, id = Option.get (Handle_heap.pop t.heap) in
        let st = Hashtbl.find t.alive id in
        Metrics.incr t.checks_c;
        let lw = lower_w st (range_of t st.q) in
        if lw >= st.q.Types.threshold then begin
          Hashtbl.remove t.alive id;
          Metrics.incr t.counters.Engine.Counters.matured;
          matured := id :: !matured
        end
        else begin
          let s = stride t st ~lw in
          st.last_mass <- clock;
          st.last_lw <- lw;
          st.handle <- Handle_heap.push t.heap (clock + s, id)
        end;
        go ()
    | _ -> ()
  in
  go ();
  Engine.sort_matured !matured

let process t e =
  Types.validate_elem ~dim:1 e;
  t.s.Summary.insert e.Types.value.(0) e.Types.weight;
  Metrics.incr t.counters.Engine.Counters.elements;
  drain t

let bounds t id =
  match Hashtbl.find_opt t.alive id with
  | None -> raise Not_found
  | Some st ->
      let est = range_of t st.q in
      (lower_w st est, est.Summary.upper - st.l_reg)

let checks t = Metrics.value t.checks_c

let alive_snapshot t =
  Hashtbl.fold
    (fun _ st acc ->
      let lw = lower_w st (range_of t st.q) in
      (* The contract wants exact W; an approximate engine only has an
         interval, so it reports the certified lower end (clamped below
         tau). A restore from this snapshot under-credits and therefore
         stays never-early. *)
      (st.q, min (st.q.Types.threshold - 1) lw) :: acc)
    t.alive []
  |> Engine.sort_snapshot

let engine t =
  {
    Engine.name = t.name;
    dim = 1;
    register = register t;
    register_batch = Engine.batch_of_register ~dim:1 ~is_alive:(Hashtbl.mem t.alive) (register t);
    terminate = terminate t;
    process = process t;
    feed_batch = Engine.batch_of_process (process t);
    alive = (fun () -> Hashtbl.length t.alive);
    alive_snapshot = (fun () -> alive_snapshot t);
    metrics =
      (fun () ->
        Metrics.set t.words_g (float_of_int (t.s.Summary.words ()));
        Engine.Counters.snapshot t.counters ~alive:(Hashtbl.length t.alive));
  }
