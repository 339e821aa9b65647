(** Crash recovery: newest valid checkpoint + WAL suffix replay.

    Algorithm:

    + enumerate checkpoint generations, newest first; load the first
      one that validates ({!Checkpoint.Corrupt} generations are skipped
      and counted — a damaged newest checkpoint costs replay time, not
      data);
    + build a fresh engine and register every checkpointed query with
      its threshold reduced by the consumed weight (the paper's
      global-rebuilding threshold adjustment — continuation behaviour
      is bit-identical, see {!Rts_core.Dt_engine.restore});
    + scan the WAL, drop its torn tail, and replay the ops past the
      checkpoint's op ordinal.

    The returned {!report} says exactly how far durability reached:
    [ops_total] ops (of which [elements_total] elements) survive; the
    producer should resume feeding from op [ops_total + 1]. The
    replayed maturities are reported with {e global} element ordinals
    so they concatenate seamlessly with the continuation — the
    crash-equivalence property the fault-injection suite asserts. *)

open Rts_core

type report = {
  checkpoint_gen : int option;  (** Generation restored from, if any. *)
  generations_skipped : int;  (** Corrupt generations stepped over. *)
  checkpoint_ops : int;  (** Op ordinal covered by that checkpoint. *)
  checkpoint_elements : int;  (** Element ordinal covered by it. *)
  wal_records : int;  (** Intact ops found in the WAL (ops, not records). *)
  ops_replayed : int;  (** WAL ops applied past the checkpoint. *)
  bytes_discarded : int;  (** Torn-tail bytes dropped from the WAL. *)
  ops_total : int;  (** Durable op count — resume after this. *)
  elements_total : int;  (** Durable element count. *)
  maturities : (int * int) list;
      (** [(global element ordinal, query id)] fired during replay. *)
  wal : Wal.scanned;
      (** The chain as recovery scanned it. {!Durable.wrap} hands it to
          the WAL writer, so a restart reads each WAL file once. *)
}

exception Gap of { checkpoint_ops : int; wal_base : int }
(** The WAL chain starts after op [wal_base] (older segments were
    pruned), but the newest checkpoint that validates covers only
    [checkpoint_ops] < [wal_base] ops — none at all (0) when every
    generation was refused. The ops in between survive nowhere, so the
    directory cannot be recovered. *)

val recover :
  dim:int -> make:(dim:int -> Engine.t) -> dir:Io.dir -> unit -> Engine.t * report
(** [recover ~dim ~make ~dir ()] rebuilds an engine from the durable
    state in [dir]. An empty directory yields a fresh engine and a
    zero report. Raises [Invalid_argument] if a valid checkpoint's
    dimensionality differs from [dim]; {!Gap} if that checkpoint does
    not reach the start of the WAL chain; {!Wal.Unsupported_format} on
    a format-1 (text) WAL; {!Rts_workload.Replay.Engine_error}
    (with absolute op ordinals) if the WAL suffix is inconsistent with
    the checkpoint — which, given per-record CRCs, indicates a bug or
    tampering rather than a crash. *)

val metrics : report -> Rts_obs.Metrics.snapshot
(** The recovery counters ([recovery_ops_replayed],
    [recovery_bytes_discarded], [recovery_generations_skipped],
    [recovery_checkpoint_gen] gauge) as a snapshot, ready to merge into
    an engine's [--stats] output. *)

val pp_report : Format.formatter -> report -> unit
(** Human-readable multi-line report (printed by [rts-cli recover]). *)
