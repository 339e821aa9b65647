(* Timing wrappers at the seams the libraries expose as records of
   closures: the [Engine.t] handed to [Durable.wrap] / [Hub.create
   ~make], and the [Io.dir] handed as [~dir] / [~provider]. Each closure
   is run inside a span of the current recorder; the wrappers also count
   Io calls and bytes and the engine's feed allocation. Only the traced
   run installs them. *)

open Rts_core
open Rts_resilience

type counts = {
  mutable appends : int;
  mutable append_bytes : int;
  mutable syncs : int;
  mutable atomic_writes : int;
  mutable atomic_bytes : int;
  mutable read_bytes : int;
  mutable feed_alloc_words : float;  (** minor-heap words allocated inside engine feeds *)
}

let counts () =
  {
    appends = 0;
    append_bytes = 0;
    syncs = 0;
    atomic_writes = 0;
    atomic_bytes = 0;
    read_bytes = 0;
    feed_alloc_words = 0.;
  }

(* The counts the wrappers add to: [Some] only during the timed phase of
   a traced pass. *)
let counting : counts option ref = ref None

let count f = match !counting with Some c -> f c | None -> ()
let span = Spans.with_span

(* The result cell and the closure are allocated before the bracket
   opens, so only the feed's own allocation is counted. *)
let feed (f : 'a -> int list) x =
  let r = ref [] in
  let w = Rts_obs.Alloc.words (fun () -> r := span Spans.s_engine_feed f x) in
  count (fun c -> c.feed_alloc_words <- c.feed_alloc_words +. w);
  !r

let engine (e : Engine.t) : Engine.t =
  {
    e with
    Engine.register = span Spans.s_engine_register e.Engine.register;
    register_batch = span Spans.s_engine_register_batch e.Engine.register_batch;
    terminate = span Spans.s_engine_terminate e.Engine.terminate;
    process = feed e.Engine.process;
    feed_batch = feed e.Engine.feed_batch;
    alive_snapshot = span Spans.s_engine_snapshot e.Engine.alive_snapshot;
  }

(* The Durable-wrapped engine seen from the caller: its spans enclose the
   inner engine's and the Io dir's, so their difference is Durable's
   own time (WAL record encode, checkpoint encode). *)
let durable (e : Engine.t) : Engine.t =
  {
    e with
    Engine.register = span Spans.s_durable_register e.Engine.register;
    register_batch = span Spans.s_durable_register_batch e.Engine.register_batch;
    terminate = span Spans.s_durable_terminate e.Engine.terminate;
    feed_batch = span Spans.s_durable_feed e.Engine.feed_batch;
  }

let file (f : Io.file) : Io.file =
  {
    Io.append =
      (fun s ->
        count (fun c ->
            c.appends <- c.appends + 1;
            c.append_bytes <- c.append_bytes + String.length s);
        span Spans.s_io_append f.Io.append s);
    sync =
      (fun () ->
        count (fun c -> c.syncs <- c.syncs + 1);
        span Spans.s_io_sync f.Io.sync ());
    close = span Spans.s_io_close f.Io.close;
  }

let dir (d : Io.dir) : Io.dir =
  {
    Io.open_append = (fun name -> file (span Spans.s_io_open d.Io.open_append name));
    read_file =
      (fun name ->
        let r = span Spans.s_io_read d.Io.read_file name in
        (match r with
        | Some s -> count (fun c -> c.read_bytes <- c.read_bytes + String.length s)
        | None -> ());
        r);
    write_atomic =
      (fun name contents ->
        count (fun c ->
            c.atomic_writes <- c.atomic_writes + 1;
            c.atomic_bytes <- c.atomic_bytes + String.length contents);
        span Spans.s_io_write_atomic (d.Io.write_atomic name) contents);
    list_files = span Spans.s_io_list d.Io.list_files;
    remove_file = span Spans.s_io_remove d.Io.remove_file;
    truncate_file = (fun name len -> span Spans.s_io_truncate (d.Io.truncate_file name) len);
  }

(* The DT engine every workload runs, wrapped when [traced]. *)
let make_dt ~traced ~dim =
  let e = Engine_registry.make ~name:"dt" ~dim in
  if traced then engine e else e
