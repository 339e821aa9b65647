open Rts_core
open Rts_workload
module Metrics = Rts_obs.Metrics

type config = { fsync_every : int; checkpoint_every : int }

let default = { fsync_every = 1; checkpoint_every = 1024 }

type handle = {
  dir : Io.dir;
  cfg : config;
  wal : Wal.writer;
  inner : Engine.t;
  mutable ops : int;  (** durable-stream op ordinal of the last applied op *)
  mutable elements : int;
  mutable last_checkpoint_ops : int;
  mutable checkpoint_wal_bytes : int;  (** [Wal.bytes] when the newest checkpoint was taken *)
  mutable checkpoint_bytes : int;  (** its size; 0 until this handle takes one *)
  mutable next_gen : int;
  mutable checkpoints : int;
}

let count_elements ops =
  List.fold_left (fun n op -> match op with Replay.Element _ -> n + 1 | _ -> n) 0 ops

let checkpoint_now h =
  Wal.sync h.wal;
  let _, bytes =
    Checkpoint.write ~dir:h.dir ~gen:h.next_gen ~dim:h.inner.Engine.dim ~ops:h.ops
      ~elements:h.elements
      (h.inner.Engine.alive_snapshot ())
  in
  h.checkpoints <- h.checkpoints + 1;
  h.next_gen <- h.next_gen + 1;
  h.last_checkpoint_ops <- h.ops;
  h.checkpoint_wal_bytes <- Wal.bytes h.wal;
  h.checkpoint_bytes <- bytes;
  Checkpoint.prune ~dir:h.dir

(* A checkpoint costs in proportion to its snapshot, so it waits until
   the WAL grew by half the last one: its cost stays within twice the
   replay it saves. The op floor keeps a small snapshot from
   checkpointing after nearly every batch. *)
let checkpoint_due h =
  h.ops - h.last_checkpoint_ops >= h.cfg.checkpoint_every
  && 2 * (Wal.bytes h.wal - h.checkpoint_wal_bytes) >= h.checkpoint_bytes

let maybe_checkpoint h = if checkpoint_due h then checkpoint_now h

(* Apply-then-log: the engine validates first, so a rejected op raises
   before anything reaches the WAL. Crash between apply and append
   merely shortens the durable prefix by one op — the producer re-feeds
   it after recovery, which is the same at-least-once window any
   crash already opens. *)
let log h op =
  Wal.append h.wal op;
  h.ops <- h.ops + 1;
  match op with Replay.Element _ -> h.elements <- h.elements + 1 | _ -> ()

let apply h op =
  let matured =
    match op with
    | Replay.Register q ->
        h.inner.Engine.register q;
        []
    | Replay.Terminate id ->
        h.inner.Engine.terminate id;
        []
    | Replay.Element e -> h.inner.Engine.process e
  in
  log h op;
  matured

let durability_metrics h =
  Metrics.of_assoc
    [
      ("wal_records_total", Metrics.Counter (Wal.appended h.wal));
      ("wal_fsyncs_total", Metrics.Counter (Wal.fsyncs h.wal));
      ("checkpoints_total", Metrics.Counter h.checkpoints);
      ("checkpoint_last_gen", Metrics.Gauge (float_of_int (h.next_gen - 1)));
    ]

let wrap ?(config = default) ?report ?wal_epoch ?(segment_records = 0) ~dir (engine : Engine.t)
    =
  if config.fsync_every < 1 then invalid_arg "Durable.wrap: fsync_every < 1";
  if config.checkpoint_every < 1 then invalid_arg "Durable.wrap: checkpoint_every < 1";
  let scanned =
    match report with
    | Some (r : Recovery.report) -> r.wal
    | None -> Wal.scan ~dim:engine.Engine.dim ~dir ()
  in
  let wal =
    Wal.writer ~fsync_every:config.fsync_every ?epoch:wal_epoch ~segment_records ~scanned
      ~dim:engine.Engine.dim ~dir ()
  in
  let ops, elements =
    match report with
    | Some (r : Recovery.report) -> (r.ops_total, r.elements_total)
    | None ->
        (* Without a recovery report the element count can only come
           from the records actually present, so a pruned chain (base >
           0) must go through {!Recovery.recover} instead. Counted once,
           here: nothing keeps the scan past opening. *)
        (scanned.Wal.base + scanned.Wal.records, count_elements scanned.Wal.ops)
  in
  let next_gen =
    match Checkpoint.generations ~dir with (g, _) :: _ -> g + 1 | [] -> 0
  in
  let h =
    {
      dir;
      cfg = config;
      wal;
      inner = engine;
      ops;
      elements;
      last_checkpoint_ops = ops;
      checkpoint_wal_bytes = 0;
      checkpoint_bytes = 0;
      next_gen;
      checkpoints = 0;
    }
  in
  let recovery_metrics =
    match report with Some r -> Recovery.metrics r | None -> Metrics.empty
  in
  let step op =
    let matured = apply h op in
    maybe_checkpoint h;
    matured
  in
  let wrapped =
    {
      engine with
      Engine.register = (fun q -> ignore (step (Replay.Register q)));
      register_batch =
        (fun qs ->
          engine.Engine.register_batch qs;
          (* Log the whole batch, one record per query in one write,
             before considering a checkpoint: a checkpoint taken
             mid-batch would describe engine state the op count does not
             cover, and replaying the rest of the batch over it would
             re-register live ids. Every engine refuses a batch before
             anything moves, so a refused batch logs nothing and leaves
             nothing unlogged. *)
          Wal.append_ops h.wal (List.map (fun q -> Replay.Register q) qs);
          h.ops <- h.ops + List.length qs;
          maybe_checkpoint h);
      terminate = (fun id -> ignore (step (Replay.Terminate id)));
      process = (fun e -> step (Replay.Element e));
      feed_batch =
        (fun elems ->
          let matured = engine.Engine.feed_batch elems in
          (* Same apply-then-log discipline as [register_batch]: the
             batch is one record in one write, logged before considering
             a checkpoint, so no checkpoint describes a half-applied
             batch. A torn record drops the whole batch: the at-least-once
             window is the batch — the producer re-feeds from its last
             acknowledged batch boundary, exactly as it re-feeds a single
             element. *)
          Wal.append_elements h.wal elems;
          h.ops <- h.ops + Array.length elems;
          h.elements <- h.elements + Array.length elems;
          maybe_checkpoint h;
          matured);
      metrics =
        (fun () ->
          Metrics.merge
            (Metrics.merge (engine.Engine.metrics ()) (durability_metrics h))
            recovery_metrics);
    }
  in
  (wrapped, h)

let sync h = Wal.sync h.wal

let close h = Wal.close h.wal

let rotate_wal h = Wal.rotate h.wal

let prune_wal h ~below =
  (* Never reclaim past what the newest durable checkpoint covers:
     recovery replays the chain from the checkpoint floor, so a segment
     above it is still load-bearing whatever the caller's floor says. *)
  Wal.prune ~dir:h.dir ~below:(min below h.last_checkpoint_ops)

let wal_rotations h = Wal.rotations h.wal

let synced h = Wal.synced h.wal

let last_checkpoint_ops h = h.last_checkpoint_ops
