(* Span recorder for the traced run.

   A span is (name, start, stop, parent), kept in preallocated off-heap
   buffers so recording neither allocates on the OCaml heap nor moves
   [heap_live_mb]. Parents come from a small stack of open spans: a span
   opened while another is open is its child. A layer's self time is its
   spans' durations minus the durations of their direct children. *)

module A1 = Bigarray.Array1

let now_ns () = Int64.to_int (Rts_util.Timer.now_ns ())

(* Span names. Every name belongs to one layer; [layer_of] maps it. *)
let names =
  [|
    "bench.batch"; (* one ingest call: decode, feed, alerts, re-arm *)
    "bench.control"; (* one serve_churn control frame (register/terminate) *)
    "csv.decode";
    "frame.decode";
    "serve.run"; (* Hub.run: Hub/Reliable/Server, minus engine and io *)
    "durable.feed";
    "durable.register";
    "durable.register_batch";
    "durable.terminate";
    "engine.feed";
    "engine.register";
    "engine.register_batch";
    "engine.terminate";
    "engine.snapshot";
    "io.open";
    "io.append";
    "io.sync";
    "io.close";
    "io.read";
    "io.write_atomic";
    "io.list";
    "io.remove";
    "io.truncate";
    "recovery.recover";
  |]

let n_names = Array.length names

let id name =
  let rec go i =
    if i = n_names then invalid_arg ("Spans.id: unknown span " ^ name)
    else if names.(i) = name then i
    else go (i + 1)
  in
  go 0

let layer_of name = String.sub name 0 (String.index name '.')

let s_batch = id "bench.batch"
let s_control = id "bench.control"
let s_csv = id "csv.decode"
let s_frame = id "frame.decode"
let s_serve = id "serve.run"
let s_durable_feed = id "durable.feed"
let s_durable_register = id "durable.register"
let s_durable_register_batch = id "durable.register_batch"
let s_durable_terminate = id "durable.terminate"
let s_engine_feed = id "engine.feed"
let s_engine_register = id "engine.register"
let s_engine_register_batch = id "engine.register_batch"
let s_engine_terminate = id "engine.terminate"
let s_engine_snapshot = id "engine.snapshot"
let s_io_open = id "io.open"
let s_io_append = id "io.append"
let s_io_sync = id "io.sync"
let s_io_close = id "io.close"
let s_io_read = id "io.read"
let s_io_write_atomic = id "io.write_atomic"
let s_io_list = id "io.list"
let s_io_remove = id "io.remove"
let s_io_truncate = id "io.truncate"
let s_recover = id "recovery.recover"

type t = {
  cap : int;
  name : (int, Bigarray.int_elt, Bigarray.c_layout) A1.t;
  start : (int, Bigarray.int_elt, Bigarray.c_layout) A1.t;
  stop : (int, Bigarray.int_elt, Bigarray.c_layout) A1.t;
  parent : (int, Bigarray.int_elt, Bigarray.c_layout) A1.t;
  stack : int array;  (** open spans, innermost last *)
  mutable depth : int;
  mutable n : int;
  mutable overflow : bool;
}

let create ~cap =
  let mk () = A1.create Bigarray.int Bigarray.c_layout cap in
  {
    cap;
    name = mk ();
    start = mk ();
    stop = mk ();
    parent = mk ();
    stack = Array.make 64 (-1);
    depth = 0;
    n = 0;
    overflow = false;
  }

(* The recorder in use; [None] in untraced runs, where no wrapper that
   calls [enter] is installed at all. *)
let current : t option ref = ref None

let reset t =
  t.n <- 0;
  t.depth <- 0;
  t.overflow <- false

let enter t nm =
  let i = t.n in
  if i >= t.cap || t.depth >= Array.length t.stack then begin
    t.overflow <- true;
    -1
  end
  else begin
    t.n <- i + 1;
    A1.unsafe_set t.name i nm;
    A1.unsafe_set t.parent i (if t.depth = 0 then -1 else t.stack.(t.depth - 1));
    t.stack.(t.depth) <- i;
    t.depth <- t.depth + 1;
    A1.unsafe_set t.start i (now_ns ());
    i
  end

let leave t i =
  if i >= 0 then begin
    A1.unsafe_set t.stop i (now_ns ());
    t.depth <- t.depth - 1
  end

(* [with_span nm f x] runs [f x] inside span [nm] when a recorder is
   installed, and plainly otherwise. *)
let with_span nm f x =
  match !current with
  | None -> f x
  | Some t -> (
      let i = enter t nm in
      match f x with
      | r ->
          leave t i;
          r
      | exception e ->
          leave t i;
          raise e)

(* Per-name totals over the recorded spans. *)
type agg = {
  calls : int array;
  total_ns : int array;  (** sum of durations *)
  self_ns : int array;  (** durations minus direct children's durations *)
  mutable roots_ns : int;  (** sum of root-span durations *)
  mutable negative_self : int;  (** spans whose children outlast them *)
}

let empty_agg () =
  {
    calls = Array.make n_names 0;
    total_ns = Array.make n_names 0;
    self_ns = Array.make n_names 0;
    roots_ns = 0;
    negative_self = 0;
  }

let aggregate_into agg t =
  let child_ns = Array.make t.n 0 in
  for i = 0 to t.n - 1 do
    let d = A1.get t.stop i - A1.get t.start i in
    let p = A1.get t.parent i in
    if p >= 0 then child_ns.(p) <- child_ns.(p) + d
  done;
  for i = 0 to t.n - 1 do
    let nm = A1.get t.name i in
    let d = A1.get t.stop i - A1.get t.start i in
    let self = d - child_ns.(i) in
    if self < 0 then agg.negative_self <- agg.negative_self + 1;
    agg.calls.(nm) <- agg.calls.(nm) + 1;
    agg.total_ns.(nm) <- agg.total_ns.(nm) + d;
    agg.self_ns.(nm) <- agg.self_ns.(nm) + self;
    if A1.get t.parent i < 0 then agg.roots_ns <- agg.roots_ns + d
  done

let calls agg nm = agg.calls.(nm)
let total_s agg nm = float_of_int agg.total_ns.(nm) *. 1e-9
let self_s agg nm = float_of_int agg.self_ns.(nm) *. 1e-9

(* Self time summed over every span name of a layer. *)
let layer_self_s agg layer =
  let s = ref 0 in
  Array.iteri (fun i nm -> if layer_of nm = layer then s := !s + agg.self_ns.(i)) names;
  float_of_int !s *. 1e-9

(* Write the recorded spans as TSV: index, name, start_ns, stop_ns,
   parent index (-1 for a root). *)
let dump t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "index\tname\tstart_ns\tstop_ns\tparent\n";
      for i = 0 to t.n - 1 do
        Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\n" i names.(A1.get t.name i) (A1.get t.start i)
          (A1.get t.stop i) (A1.get t.parent i)
      done)
