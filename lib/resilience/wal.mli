(** Checksummed, append-only, segmented write-ahead log of engine
    operations.

    Record framing (one record per applied op, text so a trace stays
    [grep]-able):

    {v
    <len>,<crc32-hex8>,<payload>\n
    v}

    where [payload] is {!Rts_workload.Replay.op_to_line} (R/T/E lines),
    [len] its byte length, and the CRC-32 covers the payload. The frame
    makes the log self-validating: {!scan_string} accepts the longest
    prefix of intact records and reports everything after the first
    violation — bad length, bad checksum, missing terminator, truncated
    payload, unparsable op — as a {e torn tail}. A torn or corrupt final
    record is therefore dropped, not fatal: exactly the state a crash
    mid-append (or a lost unsynced page) leaves behind. Because every
    record is covered by its own CRC, a bit flip cannot turn one valid
    record into a different valid one — corruption only ever shortens
    the trusted prefix, never rewrites history.

    {2 Segmentation}

    The log is a chain: zero or more {e cold segments}
    ([wal-<base>.seg], immutable, atomically published, each headed by
    [RTSWSEG,1,<epoch>,<base>,<count>,<crc>]) followed by the {e active
    file} ([wal.log]). Once the log has rotated — or carries a nonzero
    epoch — the active file leads with [RTSWACT,1,<epoch>,<base>,<crc>];
    the header-less form is the legacy single-file log and scans as base
    0, epoch 0, so every pre-segmentation log is still readable. [base]
    counts the ops that precede the file's first record, so a chain
    scan yields ops [base+1 .. base+records] of the global sequence.

    Rotation ({!rotate}, or automatic every [segment_records] appends)
    seals the active records into a cold segment and resets the active
    file to a bare header. The crash window between those two atomic
    steps leaves an overlap, which {!scan} and {!writer} resolve in
    favour of the sealed copy. Cold segments wholly below a caller's
    safe floor (its checkpoint, its replicas' acks) are reclaimed with
    {!prune} — this is what keeps disk usage bounded on a server that
    never stops.

    {2 Epoch fencing}

    Each header carries the {e epoch} of the writer incarnation that
    produced it. Opening a {!writer} with an [epoch] lower than the
    highest one already in the directory raises {!Fenced}: a deposed
    primary cannot extend a log its successor has taken over.

    Durability: {!append} buffers in the OS via {!Io.file.append};
    records become crash-proof when the writer fsyncs — every
    [fsync_every] records, at every rotation, or explicitly via {!sync}
    (the {!Durable} wrapper syncs before each checkpoint so the
    checkpoint never claims ops the log could lose). {!synced} says how
    far that reaches. *)

open Rts_workload

val default_file : string
(** ["wal.log"]. *)

exception Fenced of { requested : int; found : int }
(** Raised by {!writer} when asked to open with an epoch below the one
    already stamped in the directory: the caller is a stale incarnation
    and must not write. *)

val frame : Replay.op -> string
(** One framed record including the trailing newline. *)

type scanned = {
  ops : Replay.op list;  (** Available records, chain order. *)
  records : int;  (** [List.length ops]. *)
  base : int;
      (** Ops below the chain: [List.hd ops] (if any) is op number
          [base + 1] of the global sequence. 0 unless segments have
          been pruned away (or the active header says otherwise). *)
  epoch : int;  (** Highest epoch stamped in the chain; 0 if none. *)
  valid_bytes : int;
      (** Byte length of the {e active file}'s intact prefix (header
          included). *)
  bytes_discarded : int;
      (** Torn-tail bytes in the {e active file} after that prefix. *)
}

val scan_string : dim:int -> string -> scanned
(** Parse a raw record image (no headers — the legacy/in-memory form).
    Total: never raises on any input. [base] and [epoch] are 0. *)

val scan : dim:int -> dir:Io.dir -> unit -> scanned
(** Scan the whole chain rooted at {!default_file}:
    cold segments in base order, then the active file, de-duplicating
    the rotation crash-window overlap. An absent chain is an empty
    log. *)

type segment = { seg_file : string; seg_base : int; seg_count : int; seg_epoch : int }

val segments : dir:Io.dir -> segment list
(** Cold segments present in [dir], sorted by base. Only
    segments with an intact header are listed. *)

val scan_segment_string : dim:int -> string -> (int * int * int * Replay.op list) option
(** Validate a cold-segment image: [Some (epoch, base, count, ops)] iff
    the header CRC holds and exactly [count] intact records follow.
    Exposed so harnesses can archive a segment's contents before it is
    pruned (the soak's full-history oracle). *)

val segment_name : int -> string
(** [segment_name base] is the cold-segment file name for a segment
    whose first record is op [base + 1]. *)

val prune : dir:Io.dir -> below:int -> int
(** Remove every cold segment whose records all lie at or below op
    number [below]; returns how many were removed. Safe floors are the
    caller's business: the checkpoint floor locally, the minimum
    replica ack under replication. *)

type writer

val writer :
  ?fsync_every:int ->
  ?epoch:int ->
  ?segment_records:int ->
  dim:int ->
  dir:Io.dir ->
  unit ->
  writer
(** Open (or create) the log for appending. An existing chain is
    scanned first; the active file's torn tail is truncated away, and a
    rotation-crash overlap is resolved (the active file is rewritten to
    start where the cold chain ends), so new records always extend the
    intact chain. [fsync_every] (default 1: sync every record, the safe
    end of the spectrum) batches fsyncs for throughput at the price of
    a wider lost-suffix window on crash.

    [epoch] (default: inherit whatever the chain carries) stamps this
    incarnation's epoch into the active header and every segment it
    seals; raises {!Fenced} if the chain already carries a higher one.
    [segment_records] > 0 rotates automatically after that many records
    accumulate in the active file; 0 (default) disables rotation and
    preserves the classic single-file layout byte for byte. *)

val existing : writer -> scanned
(** What the opening chain scan found (before any {!append} by this
    writer). *)

val epoch : writer -> int
(** The epoch this writer stamps (after inheritance/fencing). *)

val append : writer -> Replay.op -> unit
(** Frame and append one record; fsyncs if the batch is due, rotates if
    the segment is full. *)

val sync : writer -> unit
(** Force outstanding records durable now. No-op if none are pending. *)

val rotate : writer -> unit
(** Seal the active records into a cold segment now (no-op on an empty
    active file) and continue appending to a fresh active file. *)

val close : writer -> unit
(** {!sync}, then release the handle. *)

val records : writer -> int
(** Total ops ever logged through this chain: the chain's base plus
    available records plus this writer's appends. *)

val synced : writer -> int
(** The chain ordinal of the last record an fsync covers: {!records}
    minus the records appended since the last {!sync}. Every fsync goes
    through {!sync} — the [fsync_every] cadence, an explicit call,
    {!rotate} and {!close} — so this is exact. Records the writer found
    on opening count as synced. *)

val appended : writer -> int
(** Records appended through this writer. *)

val fsyncs : writer -> int
(** Fsyncs issued by this writer (feeds [wal_fsyncs_total]). *)

val rotations : writer -> int
(** Segments sealed by this writer. *)
