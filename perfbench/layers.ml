(* Per-layer accounting of the traced passes, and the metrics it yields.

   Counts are summed over traced passes; every pass replays the same
   generated script from the same empty state, so per-op ratios and
   per-pass counts are exact and repeat run to run. Times are summed
   over the same passes. *)

type t = {
  ingest : Spans.agg;  (** spans of the timed phases *)
  recovery : Spans.agg;  (** spans of one traced recovery per pass *)
  mutable passes : int;
  mutable wall_s : float;  (** timed-phase wall time *)
  mutable elems : int;
  mutable ops : int;  (** elements + registrations + terminations *)
  mutable frames : int;  (** wire frames sent in the timed phase *)
  mutable node_updates : int;
  mutable heap_ops : int;
  mutable signals : int;
  mutable rebuilds : int;
  counts : Traced.counts;  (** what the Io and engine wrappers counted *)
  mutable net_msgs : int;
  mutable retries : int;
  mutable overloaded : int;
  mutable records_scanned : int;
  mutable recover_ms : float list;  (** untraced recoveries *)
  mutable disk_bytes : int;  (** WAL + checkpoint bytes at the end of a pass *)
}

let create () =
  {
    ingest = Spans.empty_agg ();
    recovery = Spans.empty_agg ();
    passes = 0;
    wall_s = 0.;
    elems = 0;
    ops = 0;
    frames = 0;
    node_updates = 0;
    heap_ops = 0;
    signals = 0;
    rebuilds = 0;
    counts = Traced.counts ();
    net_msgs = 0;
    retries = 0;
    overloaded = 0;
    records_scanned = 0;
    recover_ms = [];
    disk_bytes = 0;
  }

(* The DT engine's work counters, summed over engines. *)
type dt = { nu : int; ho : int; si : int; rb : int }

let dt_counters (engines : Rts_core.Engine.t list) =
  List.fold_left
    (fun acc (e : Rts_core.Engine.t) ->
      let s = e.Rts_core.Engine.metrics () in
      let c = Rts_obs.Metrics.counter_value s in
      {
        nu = acc.nu + c "dt_node_updates_total";
        ho = acc.ho + c "dt_heap_ops_total";
        si = acc.si + c "dt_signals_total";
        rb = acc.rb + c "rebuilds_total";
      })
    { nu = 0; ho = 0; si = 0; rb = 0 }
    engines

let add_dt t ~before ~after =
  t.node_updates <- t.node_updates + after.nu - before.nu;
  t.heap_ops <- t.heap_ops + after.ho - before.ho;
  t.signals <- t.signals + after.si - before.si;
  t.rebuilds <- t.rebuilds + after.rb - before.rb

(* Start the timed phase of a traced pass: spans go to [r], counts to
   [t.counts]. *)
let start_pass t (r : Spans.t) =
  Spans.reset r;
  Spans.current := Some r;
  Traced.counting := Some t.counts

let stop () =
  Spans.current := None;
  Traced.counting := None

(* Account the timed phase of a traced pass. The first pass's spans are
   also written to [work]/spans.tsv. *)
let add_pass t (r : Spans.t) ~work ~wall_s ~elems ~ops ~before ~after =
  Spans.aggregate_into t.ingest r;
  if r.Spans.overflow then Common.check "span buffer large enough" false;
  if t.passes = 0 then Spans.dump r (Filename.concat work "spans.tsv");
  t.passes <- t.passes + 1;
  t.wall_s <- t.wall_s +. wall_s;
  t.elems <- t.elems + elems;
  t.ops <- t.ops + ops;
  add_dt t ~before ~after

(* One traced recovery: [recover ()] runs inside a [recovery.recover]
   span with the recorder installed. *)
let add_recovery t (r : Spans.t) recover =
  Spans.reset r;
  Spans.current := Some r;
  let _, (report : Rts_resilience.Recovery.report) = Spans.with_span Spans.s_recover recover () in
  Spans.current := None;
  Spans.aggregate_into t.recovery r;
  t.records_scanned <- t.records_scanned + report.Rts_resilience.Recovery.wal_records

(* Share of the traced wall time not inside any span: loop overhead and
   clock reads. The per-layer shares add back up to the total only when
   this stays within the bound. *)
let unattributed t =
  if t.wall_s <= 0. || t.ingest.Spans.negative_self > 0 then 1.
  else (t.wall_s -. (float_of_int t.ingest.Spans.roots_ns *. 1e-9)) /. t.wall_s

(* Each layer's self time as a share of the traced wall time, in
   percent. With [unattributed] they add up to 100. *)
let shares t =
  List.map
    (fun layer -> (layer, 100. *. Spans.layer_self_s t.ingest layer /. t.wall_s))
    [ "bench"; "csv"; "frame"; "serve"; "durable"; "engine"; "io" ]

(* Largest share of traced wall time that may fall outside every span
   before the per-layer metrics are refused. *)
let unattributed_bound = 0.05

let metrics ~overhead_pct t =
  let fdiv a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let per x n = if n = 0 then 0. else x /. float_of_int n in
  let ag = t.ingest and rc = t.recovery in
  let s nm = Spans.self_s ag nm and tot nm = Spans.total_s ag nm and calls nm = Spans.calls ag nm in
  let sum f l = List.fold_left (fun a x -> a +. f x) 0. l in
  let durable_self =
    sum s
      Spans.
        [ s_durable_feed; s_durable_register; s_durable_register_batch; s_durable_terminate ]
  in
  let register_calls = calls Spans.s_engine_register in
  let io_self = Spans.layer_self_s ag "io" in
  let engine_recovery =
    sum (Spans.total_s rc)
      Spans.[ s_engine_feed; s_engine_register; s_engine_register_batch; s_engine_terminate ]
  in
  let per_pass n = fdiv n t.passes in
  let c = t.counts in
  [
    ("csv.decode_us_per_elem", 1e6 *. per (tot Spans.s_csv) t.elems, "us");
    ("frame.decode_us_per_frame", 1e6 *. per (tot Spans.s_frame) t.frames, "us");
    ("engine.feed_us_per_elem", 1e6 *. per (tot Spans.s_engine_feed) t.elems, "us");
    ("engine.alloc_words_per_elem", per c.Traced.feed_alloc_words t.elems, "words");
    ("engine.dt_node_updates_per_elem", fdiv t.node_updates t.elems, "count");
    ("engine.dt_heap_ops_per_elem", fdiv t.heap_ops t.elems, "count");
    ("engine.dt_signals_per_elem", fdiv t.signals t.elems, "count");
    ("engine.register_us", 1e6 *. per (tot Spans.s_engine_register) register_calls, "us");
    ( "engine.terminate_us",
      1e6 *. per (tot Spans.s_engine_terminate) (calls Spans.s_engine_terminate),
      "us" );
    ("engine.rebuilds", per_pass t.rebuilds, "count");
    ( "engine.snapshot_ms",
      1e3 *. per (tot Spans.s_engine_snapshot) (calls Spans.s_engine_snapshot),
      "ms" );
    ("durable.self_us_per_op", 1e6 *. per durable_self t.ops, "us");
    ("durable.wal_records_per_op", fdiv c.Traced.appends t.ops, "count");
    ("durable.checkpoints", per_pass c.Traced.atomic_writes, "count");
    ("durable.fsyncs", per_pass c.Traced.syncs, "count");
    ("io.append_us_per_op", 1e6 *. per (tot Spans.s_io_append) t.ops, "us");
    ("io.sync_ms_per_call", 1e3 *. per (tot Spans.s_io_sync) (calls Spans.s_io_sync), "ms");
    ( "io.write_atomic_ms_per_call",
      1e3 *. per (tot Spans.s_io_write_atomic) (calls Spans.s_io_write_atomic),
      "ms" );
    ("io.read_ms", 1e3 *. per (tot Spans.s_io_read) t.passes, "ms");
    ("io.appends_per_op", fdiv c.Traced.appends t.ops, "count");
    ("io.append_bytes_per_op", fdiv c.Traced.append_bytes t.ops, "B");
    ("io.syncs_per_op", fdiv c.Traced.syncs t.ops, "count");
    ("io.checkpoint_bytes_per_op", fdiv c.Traced.atomic_bytes t.ops, "B");
    ("io.read_bytes_per_op", fdiv c.Traced.read_bytes t.ops, "B");
    ("io.self_us_per_op", 1e6 *. per io_self t.ops, "us");
    ("io.disk_mb", Common.mb t.disk_bytes, "MB");
    ("serve.self_us_per_op", 1e6 *. per (s Spans.s_serve) t.ops, "us");
    ("net.msgs_per_frame", fdiv t.net_msgs t.frames, "count");
    ("serve.retries", per_pass t.retries, "count");
    ("serve.overloaded", per_pass t.overloaded, "count");
    ( "recovery.recover_ms",
      (match t.recover_ms with [] -> 0. | l -> Common.median l),
      "ms" );
    ("recovery.self_ms", 1e3 *. per (Spans.self_s rc Spans.s_recover) t.passes, "ms");
    ("recovery.replay_ms", 1e3 *. per engine_recovery t.passes, "ms");
    ("recovery.records_scanned", per_pass t.records_scanned, "count");
  ]
  @ [
      ("trace.unattributed_pct", 100. *. unattributed t, "%");
      ("trace.overhead_pct", overhead_pct, "%");
    ]


(* Log the layer shares and the tracing overhead, refuse the per-layer
   metrics (by failing the run) when the layers' self times do not add
   back up to the traced total, and return the metrics. *)
let report ~overhead_pct t =
  Common.log "layer shares of traced wall time (%.3f s): %s" t.wall_s
    (String.concat ", "
       (List.map (fun (l, pct) -> Printf.sprintf "%s %.2f%%" l pct) (shares t)));
  Common.log "unattributed traced time: %.3f%%" (100. *. unattributed t);
  Common.log "tracing overhead: %.2f%% of untraced throughput" overhead_pct;
  Common.check "per-layer self times add up to the traced total"
    (unattributed t <= unattributed_bound);
  metrics ~overhead_pct t
