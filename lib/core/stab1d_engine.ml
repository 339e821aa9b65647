open Types
module Interval_tree = Rts_structures.Interval_tree
module Metrics = Rts_obs.Metrics

type state = { q : query; mutable got : int }

type t = {
  tree : state Interval_tree.t;
  index : (int, state) Hashtbl.t;
  counters : Engine.Counters.t;
}

let create () =
  { tree = Interval_tree.create (); index = Hashtbl.create 64; counters = Engine.Counters.create () }

let register t q =
  validate_query ~dim:1 q;
  if Hashtbl.mem t.index q.id then invalid_arg "Stab1d_engine.register: id already alive";
  let s = { q; got = 0 } in
  Interval_tree.insert t.tree ~id:q.id ~lo:q.rect.lo.(0) ~hi:q.rect.hi.(0) s;
  Hashtbl.replace t.index q.id s;
  Metrics.incr t.counters.registered

let remove t (s : state) =
  Interval_tree.delete t.tree ~id:s.q.id ~lo:s.q.rect.lo.(0) ~hi:s.q.rect.hi.(0);
  Hashtbl.remove t.index s.q.id

let terminate t id =
  match Hashtbl.find_opt t.index id with
  | Some s ->
      remove t s;
      Metrics.incr t.counters.terminated
  | None -> raise Not_found

let process t e =
  validate_elem ~dim:1 e;
  Metrics.incr t.counters.elements;
  let matured = ref [] in
  Interval_tree.iter_stab t.tree e.value.(0) (fun _id s ->
      Metrics.incr t.counters.scan_updates;
      s.got <- s.got + e.weight;
      if s.got >= s.q.threshold then matured := s :: !matured);
  List.iter
    (fun s ->
      remove t s;
      Metrics.incr t.counters.matured)
    !matured;
  Engine.sort_matured (List.map (fun s -> s.q.id) !matured)

(* Batched feed: same per-element stab/update/remove sequence as [process]
   (element order preserved — removal timing affects later stabs), with
   the matured ids accumulated across the batch and sorted once. *)
let feed_batch t elems =
  let matured = ref [] in
  Array.iter
    (fun e ->
      validate_elem ~dim:1 e;
      Metrics.incr t.counters.elements;
      let hit = ref [] in
      Interval_tree.iter_stab t.tree e.value.(0) (fun _id s ->
          Metrics.incr t.counters.scan_updates;
          s.got <- s.got + e.weight;
          if s.got >= s.q.threshold then hit := s :: !hit);
      List.iter
        (fun s ->
          remove t s;
          Metrics.incr t.counters.matured;
          matured := s.q.id :: !matured)
        !hit)
    elems;
  Engine.sort_matured !matured

let is_alive t id = Hashtbl.mem t.index id

let progress t id =
  match Hashtbl.find_opt t.index id with Some s -> s.got | None -> raise Not_found

let alive_count t = Hashtbl.length t.index

let alive_snapshot t =
  Hashtbl.fold (fun _ s acc -> (s.q, s.got) :: acc) t.index [] |> Engine.sort_snapshot

let metrics t = Engine.Counters.snapshot t.counters ~alive:(alive_count t)

let engine t =
  {
    Engine.name = "interval-tree";
    dim = 1;
    register = register t;
    register_batch = Engine.batch_of_register ~dim:1 ~is_alive:(is_alive t) (register t);
    terminate = terminate t;
    process = process t;
    feed_batch = feed_batch t;
    alive = (fun () -> alive_count t);
    alive_snapshot = (fun () -> alive_snapshot t);
    metrics = (fun () -> metrics t);
  }

let make () = engine (create ())
