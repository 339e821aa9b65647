open Types
module Metrics = Rts_obs.Metrics

type state = { q : query; mutable got : int }

type t = { dims : int; alive : (int, state) Hashtbl.t; counters : Engine.Counters.t }

let create ~dim () =
  if dim < 1 then invalid_arg "Baseline_engine.create: dim < 1";
  { dims = dim; alive = Hashtbl.create 64; counters = Engine.Counters.create () }

let register t q =
  validate_query ~dim:t.dims q;
  if Hashtbl.mem t.alive q.id then invalid_arg "Baseline_engine.register: id already alive";
  Hashtbl.replace t.alive q.id { q; got = 0 };
  Metrics.incr t.counters.registered

let terminate t id =
  if not (Hashtbl.mem t.alive id) then raise Not_found;
  Hashtbl.remove t.alive id;
  Metrics.incr t.counters.terminated

let process t e =
  validate_elem ~dim:t.dims e;
  Metrics.incr t.counters.elements;
  let matured = ref [] in
  Hashtbl.iter
    (fun id s ->
      if rect_contains s.q.rect e.value then begin
        Metrics.incr t.counters.scan_updates;
        s.got <- s.got + e.weight;
        if s.got >= s.q.threshold then matured := id :: !matured
      end)
    t.alive;
  List.iter
    (fun id ->
      Hashtbl.remove t.alive id;
      Metrics.incr t.counters.matured)
    !matured;
  Engine.sort_matured !matured

(* Batched scan: flip the loop nest. One pass over the alive table, and per
   query a tight early-exit walk of the element array — the query stops
   scanning the moment it matures, exactly as it would have been removed
   mid-batch by the sequential path. [scan_updates], the matured set and
   every survivor's [got] are identical to feeding the elements one at a
   time; iterating queries outermost touches each [state] record once per
   batch instead of once per element. *)
let feed_batch t elems =
  Array.iter (fun e -> validate_elem ~dim:t.dims e) elems;
  let n = Array.length elems in
  Metrics.add t.counters.elements n;
  let matured = ref [] in
  Hashtbl.iter
    (fun id s ->
      let i = ref 0 in
      let dead = ref false in
      while (not !dead) && !i < n do
        let e = elems.(!i) in
        if rect_contains s.q.rect e.value then begin
          Metrics.incr t.counters.scan_updates;
          s.got <- s.got + e.weight;
          if s.got >= s.q.threshold then begin
            matured := id :: !matured;
            dead := true
          end
        end;
        incr i
      done)
    t.alive;
  List.iter
    (fun id ->
      Hashtbl.remove t.alive id;
      Metrics.incr t.counters.matured)
    !matured;
  Engine.sort_matured !matured

let is_alive t id = Hashtbl.mem t.alive id

let progress t id =
  match Hashtbl.find_opt t.alive id with Some s -> s.got | None -> raise Not_found

let alive_count t = Hashtbl.length t.alive

let alive_snapshot t =
  Hashtbl.fold (fun _ s acc -> (s.q, s.got) :: acc) t.alive [] |> Engine.sort_snapshot

let metrics t = Engine.Counters.snapshot t.counters ~alive:(alive_count t)

let engine t =
  {
    Engine.name = "baseline";
    dim = t.dims;
    register = register t;
    register_batch = Engine.batch_of_register ~dim:t.dims ~is_alive:(is_alive t) (register t);
    terminate = terminate t;
    process = process t;
    feed_batch = feed_batch t;
    alive = (fun () -> alive_count t);
    alive_snapshot = (fun () -> alive_snapshot t);
    metrics = (fun () -> metrics t);
  }

let make ~dim = engine (create ~dim ())
