open Types
module Segment_interval_tree = Rts_structures.Segment_interval_tree
module Metrics = Rts_obs.Metrics

type state = { q : query; mutable got : int }

type t = {
  tree : state Segment_interval_tree.t;
  index : (int, state) Hashtbl.t;
  counters : Engine.Counters.t;
}

let create () =
  {
    tree = Segment_interval_tree.create ();
    index = Hashtbl.create 64;
    counters = Engine.Counters.create ();
  }

let register t q =
  validate_query ~dim:2 q;
  if Hashtbl.mem t.index q.id then invalid_arg "Stab2d_engine.register: id already alive";
  let s = { q; got = 0 } in
  Segment_interval_tree.insert t.tree ~id:q.id ~xlo:q.rect.lo.(0) ~xhi:q.rect.hi.(0)
    ~ylo:q.rect.lo.(1) ~yhi:q.rect.hi.(1) s;
  Hashtbl.replace t.index q.id s;
  Metrics.incr t.counters.registered

let remove t (s : state) =
  Segment_interval_tree.delete t.tree ~id:s.q.id;
  Hashtbl.remove t.index s.q.id

let terminate t id =
  match Hashtbl.find_opt t.index id with
  | Some s ->
      remove t s;
      Metrics.incr t.counters.terminated
  | None -> raise Not_found

let process t e =
  validate_elem ~dim:2 e;
  Metrics.incr t.counters.elements;
  let matured = ref [] in
  Segment_interval_tree.iter_stab t.tree ~x:e.value.(0) ~y:e.value.(1) (fun _id s ->
      Metrics.incr t.counters.scan_updates;
      s.got <- s.got + e.weight;
      if s.got >= s.q.threshold then matured := s :: !matured);
  List.iter
    (fun s ->
      remove t s;
      Metrics.incr t.counters.matured)
    !matured;
  Engine.sort_matured (List.map (fun s -> s.q.id) !matured)

(* Batched feed: element order preserved (removal timing affects later
   stabs); matured ids accumulated across the batch, sorted once. *)
let feed_batch t elems =
  let matured = ref [] in
  Array.iter
    (fun e ->
      validate_elem ~dim:2 e;
      Metrics.incr t.counters.elements;
      let hit = ref [] in
      Segment_interval_tree.iter_stab t.tree ~x:e.value.(0) ~y:e.value.(1) (fun _id s ->
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
    Engine.name = "seg-intv";
    dim = 2;
    register = register t;
    register_batch = Engine.batch_of_register ~dim:2 ~is_alive:(is_alive t) (register t);
    terminate = terminate t;
    process = process t;
    feed_batch = feed_batch t;
    alive = (fun () -> alive_count t);
    alive_snapshot = (fun () -> alive_snapshot t);
    metrics = (fun () -> metrics t);
  }

let make () = engine (create ())
