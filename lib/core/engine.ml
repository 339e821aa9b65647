open Types
module Metrics = Rts_obs.Metrics

type t = {
  name : string;
  dim : int;
  register : query -> unit;
  register_batch : query list -> unit;
  terminate : int -> unit;
  process : elem -> int list;
  feed_batch : elem array -> int list;
  alive : unit -> int;
  alive_snapshot : unit -> (query * int) list;
  metrics : unit -> Metrics.snapshot;
}

let sort_matured ids = List.sort compare ids

let batch_of_process process elems =
  let matured = ref [] in
  Array.iter (fun e -> matured := List.rev_append (process e) !matured) elems;
  sort_matured !matured

let sort_snapshot entries =
  List.sort (fun ((a : query), _) ((b : query), _) -> compare a.id b.id) entries

(* Validate the whole batch before registering any of it, so a refused
   batch leaves the engine as it was. *)
let batch_of_register ~dim ~is_alive register queries =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun q ->
      validate_query ~dim q;
      if is_alive q.id then invalid_arg "register_batch: id already alive";
      if Hashtbl.mem seen q.id then invalid_arg "register_batch: duplicate id";
      Hashtbl.replace seen q.id ())
    queries;
  List.iter register queries

let no_metrics () = Metrics.empty

(* Shared instrumentation backbone for the scan-style engines (baseline and
   the three stabbing competitors): the uniform metric names every engine
   must answer, backed by a private registry with O(1) hot-path counters.
   The DT engine exposes the same names but sources the protocol counters
   from its endpoint trees' flat stats records (see Dt_engine.metrics). *)
module Counters = struct
  type nonrec t = {
    reg : Metrics.t;
    elements : Metrics.counter;
    registered : Metrics.counter;
    terminated : Metrics.counter;
    matured : Metrics.counter;
    scan_updates : Metrics.counter;
    alive : Metrics.gauge;
  }

  let create () =
    let reg = Metrics.create () in
    {
      reg;
      elements = Metrics.counter reg "elements_total";
      registered = Metrics.counter reg "registered_total";
      terminated = Metrics.counter reg "terminated_total";
      matured = Metrics.counter reg "matured_total";
      scan_updates = Metrics.counter reg "scan_updates_total";
      alive = Metrics.gauge reg "alive";
    }

  let snapshot c ~alive =
    Metrics.set c.alive (float_of_int alive);
    Metrics.snapshot c.reg
end
