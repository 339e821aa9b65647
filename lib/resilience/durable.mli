(** Make any {!Rts_core.Engine.t} crash-recoverable.

    [wrap ~dir engine] returns an engine with identical maturity
    behaviour that additionally:

    - appends every op (REGISTER / TERMINATE / element) to the
      checksummed {!Wal} in [dir] — {e after} applying it, so an op the
      engine rejects (duplicate id, bad query) never pollutes the log
      and can never poison a future recovery. A [feed_batch] is one
      ['E'] record and a [register_batch] one record per query, each
      batch in one write;
    - whenever {!checkpoint_due} holds after an op (after the whole
      batch for [register_batch] / [feed_batch]), fsyncs the WAL and
      atomically publishes a {!Checkpoint} generation built from the
      engine's [alive_snapshot], then prunes all but the newest two
      generations. The cadence is sized to the snapshot: a checkpoint
      waits for at least [checkpoint_every] ops {e and} for WAL bytes
      reaching half the size of the previous checkpoint, so a large
      snapshot is published at most once per half its size in log, and
      recovery replays at most that much past the op floor;
    - folds the durability counters ([wal_records_total],
      [wal_fsyncs_total], [checkpoints_total]) — and, when a
      {!Recovery.report} is supplied, the [recovery_*] metrics — into
      the engine's [metrics] snapshot.

    Crash contract: if the process dies at any moment, [Recovery.recover
    ~dir] yields an engine equal to this one as of some durable prefix
    of the applied ops (all synced ops; never more than applied), and
    its report names that position so the producer resumes exactly
    there. The fault-injection suite asserts the resulting maturity log
    is bit-identical to an uninterrupted run for {e every} crash point.

    The handle is the one ledger of this durable state: the op count,
    the fsynced-through position ({!synced}), the checkpoint floor
    ({!last_checkpoint_ops}) and the checkpoint cadence
    ({!checkpoint_due}). An owner that must choose its own checkpoint
    moments — [rts-serve] checkpoints only at quiescent drain ticks,
    after a read-back verify — applies through {!apply}, which never
    checkpoints, and asks {!checkpoint_due} when it is ready.

    Restarting over a non-empty [dir]: recover first and wrap the
    recovered engine ([wrap ~report]) — wrapping a {e fresh} engine over
    an old WAL would diverge from the log. The WAL writer continues
    after the intact prefix (amputating any torn tail); checkpoint
    generations continue above the highest present. *)

open Rts_core

type config = {
  fsync_every : int;  (** WAL fsync batching (default 1 — every op). *)
  checkpoint_every : int;
      (** Minimum ops between checkpoints (default 1024); see
          {!checkpoint_due} for the byte rule on top. *)
}

val default : config

type handle
(** Owner's control surface for the wrapped engine's durability state. *)

val wrap :
  ?config:config ->
  ?report:Recovery.report ->
  ?wal_epoch:int ->
  ?segment_records:int ->
  dir:Io.dir ->
  Engine.t ->
  Engine.t * handle
(** See module doc. [report] (from the {!Recovery.recover} that produced
    [engine]) both positions the op/element ordinals and seeds the
    [recovery_*] metrics — mandatory when the WAL chain has been pruned
    ([base > 0]), since the element count is then only derivable from a
    checkpoint. [wal_epoch] stamps the writer incarnation's epoch into
    the log (raises {!Wal.Fenced} if the chain carries a higher one);
    [segment_records] > 0 enables WAL rotation at that segment size.
    The WAL writer opens from the report's scan, so nothing may write
    to [dir] between that recovery and [wrap].
    Raises [Invalid_argument] on a nonsensical config. *)

val apply : handle -> Rts_workload.Replay.op -> int list
(** Apply one op to the inner engine, then log it; returns the ids the
    op matured. Never checkpoints. Raises what the engine raises for a
    rejected op, before anything is logged. *)

val checkpoint_due : handle -> bool
(** Both: at least [checkpoint_every] ops were logged since the last
    checkpoint (or since [wrap]), and the WAL bytes written since that
    checkpoint reach half its size. Until this handle's first checkpoint
    the size counts as 0, so the op floor alone decides. A checkpoint
    costs in proportion to its snapshot, so this caps its cost at twice
    the WAL bytes it spares recovery; the floor keeps a small snapshot
    from being republished after nearly every batch. The wrapped engine
    checkpoints exactly when this holds after an op or batch. *)

val synced : handle -> int
(** The op ordinal the WAL is fsynced through ({!Wal.synced}): rotation
    and checkpoint syncs included. Still readable after {!close}. *)

val last_checkpoint_ops : handle -> int
(** The op ordinal the newest checkpoint covers; at [wrap], the
    recovered position. *)

val sync : handle -> unit
(** Force the WAL durable now, regardless of batching. *)

val checkpoint_now : handle -> unit
(** Publish a checkpoint immediately (also syncs the WAL first). *)

val rotate_wal : handle -> unit
(** Seal the active WAL records into a cold segment now. *)

val prune_wal : handle -> below:int -> int
(** Reclaim cold WAL segments wholly at or below [min below
    last-checkpoint-ops] — the caller supplies its external floor (e.g.
    minimum replica ack) and the checkpoint floor is applied on top, so
    recovery can always replay the chain from the newest checkpoint.
    Returns the number of segments removed. *)

val wal_rotations : handle -> int
(** Cold segments sealed by this handle's writer. *)

val close : handle -> unit
(** Sync and release the WAL file handle. Further ops on the wrapped
    engine raise [Invalid_argument]. *)
