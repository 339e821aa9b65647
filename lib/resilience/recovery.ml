open Rts_core
open Rts_workload
module Metrics = Rts_obs.Metrics

type report = {
  checkpoint_gen : int option;
  generations_skipped : int;
  checkpoint_ops : int;
  checkpoint_elements : int;
  wal_records : int;
  ops_replayed : int;
  bytes_discarded : int;
  ops_total : int;
  elements_total : int;
  maturities : (int * int) list;
  wal : Wal.scanned;
}

(* Newest checkpoint that validates, plus how many newer ones were
   skipped as corrupt. *)
let newest_valid ~dir =
  let rec go skipped = function
    | [] -> (None, skipped)
    | (_, name) :: rest -> (
        match Checkpoint.load ~dir name with
        | meta, entries -> (Some (meta, entries), skipped)
        | exception Checkpoint.Corrupt _ -> go (skipped + 1) rest)
  in
  go 0 (Checkpoint.generations ~dir)

let adjust entries =
  List.map
    (fun ((q : Types.query), consumed) ->
      if consumed = 0 then q else { q with Types.threshold = q.threshold - consumed })
    entries

let rec drop n = function
  | rest when n <= 0 -> rest
  | [] -> []
  | _ :: rest -> drop (n - 1) rest

exception Gap of { checkpoint_ops : int; wal_base : int }

let () =
  Printexc.register_printer (function
    | Gap { checkpoint_ops; wal_base } ->
        Some
          (Printf.sprintf
             "Recovery.Gap: the newest valid checkpoint covers op %d but the WAL starts after \
              op %d"
             checkpoint_ops wal_base)
    | _ -> None)

let recover ~dim ~make ~dir () =
  let checkpoint, generations_skipped = newest_valid ~dir in
  let checkpoint_gen, checkpoint_ops, checkpoint_elements, entries =
    match checkpoint with
    | Some ((meta : Checkpoint.meta), entries) ->
        if meta.dim <> dim then
          invalid_arg
            (Printf.sprintf "Recovery.recover: checkpoint dimension %d, expected %d" meta.dim
               dim);
        (Some meta.gen, meta.ops, meta.elements, entries)
    | None -> (None, 0, 0, [])
  in
  let wal = Wal.scan ~dim ~dir () in
  (* Segments below the checkpoint floor are pruned, so a chain with
     [base] > 0 leans on a checkpoint reaching [base]. If every such
     generation was refused as corrupt, ops [checkpoint_ops + 1 .. base]
     are in neither place: refuse rather than resume without them. *)
  if checkpoint_ops < wal.Wal.base then
    raise (Gap { checkpoint_ops; wal_base = wal.Wal.base });
  let engine = make ~dim in
  if entries <> [] then engine.Engine.register_batch (adjust entries);
  (* The checkpoint may cover ops whose WAL records were lost with the
     torn tail (the checkpoint is synced after the WAL, so normally
     wal.records >= checkpoint_ops; a mid-log corruption can still
     shorten the trusted prefix below it). Replay whatever the WAL
     holds past the checkpoint; durability reaches the further of the
     two positions. *)
  (* The WAL chain may not reach back to op 0: segments below the
     checkpoint floor are pruned, so [wal.base] ops are simply absent.
     They are covered by the checkpoint (checked above), so replay
     starts [checkpoint_ops - base] records into the chain. *)
  let suffix = drop (checkpoint_ops - wal.Wal.base) wal.Wal.ops in
  let outcome =
    try Replay.replay_ops engine suffix
    with Replay.Engine_error { op_index; exn; _ } ->
      (* re-raise with absolute positions: ordinal within the whole WAL *)
      raise
        (Replay.Engine_error
           { op_index = op_index + checkpoint_ops; line_no = op_index + checkpoint_ops; exn })
  in
  let ops_replayed = List.length suffix in
  let report =
    {
      checkpoint_gen;
      generations_skipped;
      checkpoint_ops;
      checkpoint_elements;
      wal_records = wal.Wal.records;
      ops_replayed;
      bytes_discarded = wal.Wal.bytes_discarded;
      ops_total = max checkpoint_ops (wal.Wal.base + wal.Wal.records);
      elements_total = checkpoint_elements + outcome.Replay.elements;
      maturities =
        List.map (fun (ord, id) -> (ord + checkpoint_elements, id)) outcome.Replay.maturities;
      wal;
    }
  in
  (engine, report)

let metrics r =
  Metrics.of_assoc
    [
      ("recovery_ops_replayed", Metrics.Counter r.ops_replayed);
      ("recovery_bytes_discarded", Metrics.Counter r.bytes_discarded);
      ("recovery_generations_skipped", Metrics.Counter r.generations_skipped);
      ( "recovery_checkpoint_gen",
        Metrics.Gauge (match r.checkpoint_gen with Some g -> float_of_int g | None -> -1.) );
    ]

let pp_report ppf r =
  let open Format in
  fprintf ppf "@[<v>recovery report:@,";
  (match r.checkpoint_gen with
  | Some g ->
      fprintf ppf "  checkpoint: generation %d (ops %d, elements %d)@," g r.checkpoint_ops
        r.checkpoint_elements
  | None -> fprintf ppf "  checkpoint: none@,");
  if r.generations_skipped > 0 then
    fprintf ppf "  corrupt generations skipped: %d@," r.generations_skipped;
  fprintf ppf "  wal: %d intact ops, %d replayed past checkpoint@," r.wal_records
    r.ops_replayed;
  if r.bytes_discarded > 0 then
    fprintf ppf "  torn tail discarded: %d bytes@," r.bytes_discarded;
  fprintf ppf "  maturities re-fired during replay: %d@," (List.length r.maturities);
  fprintf ppf "  durable position: op %d (element %d) — resume after it@]" r.ops_total
    r.elements_total
