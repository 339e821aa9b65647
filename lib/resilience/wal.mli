(** Checksummed, append-only, segmented write-ahead log of engine
    operations.

    {2 Records}

    Every record is binary and carries its own CRC:

    {v
    u32 LE payload length | u32 LE CRC-32 of the payload | payload
    v}

    The payload starts with a kind byte. All numbers are little-endian;
    floats are stored as their raw IEEE-754 bits, so a scan returns them
    bit for bit.

    {v
    kind  rest of the payload                            ops
    'E'   u32 count, then per element: dim x f64, i64 weight   count
    'R'   i64 id, i64 threshold, dim x (f64 lo, f64 hi)       1
    'T'   i64 id                                              1
    v}

    {!append} writes one record per op. {!append_elements} writes a
    whole element batch as one ['E'] record (several when the batch
    would pass the 1,000,000-byte payload cap the scanner enforces), in
    one [write(2)]. {!append_ops} writes one record per op, all in one
    [write(2)].

    The frame makes the log self-validating: {!scan_string} accepts the
    longest prefix of intact records and reports everything after the
    first violation as a {e torn tail}. A record is refused for a short
    or oversized frame, a bad CRC, an unknown kind, a payload length
    that does not fit [dim], a non-finite coordinate, a weight below 1,
    or a rectangle {!Rts_core.Types.rect_make} rejects: exactly what
    {!Rts_workload.Replay.parse_op} refuses of the same op in text. A
    torn or corrupt final record is therefore dropped, not fatal:
    exactly the state a crash mid-append (or a lost unsynced page)
    leaves behind. A torn ['E'] record drops its whole batch, which is
    the at-least-once window {!Durable}'s [feed_batch] documents.
    Because every record is covered by its own CRC, a bit flip cannot
    turn one valid record into a different valid one — corruption only
    ever shortens the trusted prefix, never rewrites history.

    {2 Segmentation}

    The log is a chain: zero or more {e cold segments}
    ([wal-<base>.seg], immutable, atomically published, each headed by
    a segment header carrying epoch, base and op count) followed by the
    {e active file} ([wal.log]). A non-empty active file starts with an
    active header carrying epoch and base; a fresh log gets it in the
    same [write(2)] as its first record. Headers are binary too:

    {v
    "RTSWACT" u8 2 | i64 epoch | i64 base | u32 CRC             active
    "RTSWSEG" u8 2 | i64 epoch | i64 base | i64 count | u32 CRC  segment
    v}

    [base] counts the ops that precede the file's first record, so a
    chain scan yields ops [base+1 .. base+records] of the global
    sequence. A log written by the format-1 (text) builds — a
    header-less active file, or an [RTSWACT,1,...] /
    [RTSWSEG,1,...] header — raises {!Unsupported_format}, so it is
    never truncated away as a torn tail.

    Rotation ({!rotate}, which a serving tenant calls at every
    checkpoint) seals the active file's intact record bytes, as they
    are, into a cold segment and resets the active file to a bare
    header. The crash window between those two atomic steps leaves an
    overlap, which {!scan} and {!writer} resolve in favour of the sealed
    copy. Cold segments wholly below a caller's safe floor (its
    checkpoint, its replicas' acks) are reclaimed with {!prune} — this
    is what keeps disk usage bounded on a server that never stops.

    {2 Epoch fencing}

    Each header carries the {e epoch} of the writer incarnation that
    produced it. Opening a {!writer} with an [epoch] lower than the
    highest one already in the directory raises {!Fenced}: a deposed
    primary cannot extend a log its successor has taken over.

    {2 Counting}

    Op ordinals count ops, whatever records hold them: {!records},
    {!synced}, [scanned.records], a segment's count and [fsync_every].
    Only {!appended} counts records.

    Durability: appends buffer in the OS via {!Io.file.append}; records
    become crash-proof when the writer fsyncs — once [fsync_every] ops
    are pending (checked after each write), at every rotation, or
    explicitly via {!sync} (the {!Durable} wrapper syncs before each
    checkpoint so the checkpoint never claims ops the log could lose).
    {!synced} says how far that reaches. *)

open Rts_workload

val default_file : string
(** ["wal.log"]. *)

exception Fenced of { requested : int; found : int }
(** Raised by {!writer} when asked to open with an epoch below the one
    already stamped in the directory: the caller is a stale incarnation
    and must not write. *)

exception Unsupported_format of string
(** Raised by {!scan} and {!writer} (and so by {!Recovery.recover}) on a
    log in the format-1 text layout; the message names the file. Nothing
    is modified. *)

val frame : Replay.op -> string
(** One op as one record. *)

type layout
(** How the chain lay on disk when it was scanned: where the cold chain
    ends and what the active file held. {!writer} positions its appends
    from it. *)

type scanned = {
  ops : Replay.op list;  (** Available ops, chain order. *)
  records : int;  (** [List.length ops]: ops, not records. *)
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
  layout : layout;
}

val scan_string : dim:int -> string -> scanned
(** Decode a raw record image (no header). Total: never raises on any
    input. [base] and [epoch] are 0. *)

val scan : ?from:int -> dim:int -> dir:Io.dir -> unit -> scanned
(** Scan the whole chain rooted at {!default_file}:
    cold segments in base order, then the active file, de-duplicating
    the rotation crash-window overlap. An absent chain is an empty
    log.

    [from] (default 0) reads only the cold segments whose base is at or
    above it, and the active file: the part of the chain a caller has
    not read back yet. [base] is then where the part read starts. A
    caller that verified the chain through op [v] and sealed it there
    passes [~from:v]; every segment sealed since has a base at or
    above [v]. *)

type segment = { seg_file : string; seg_base : int; seg_count : int; seg_epoch : int }

val segments : dir:Io.dir -> segment list
(** Cold segments present in [dir], sorted by base. Only
    segments with an intact header are listed. *)

val scan_segment_string : dim:int -> string -> (int * int * int * Replay.op list) option
(** Validate a cold-segment image: [Some (epoch, base, count, ops)] iff
    the header CRC holds and intact records holding exactly [count] ops
    follow.
    Exposed so harnesses can archive a segment's contents before it is
    pruned (the soak's full-history oracle). *)

val segment_name : int -> string
(** [segment_name base] is the cold-segment file name for a segment
    whose first record is op [base + 1]. *)

type writer

val writer :
  ?fsync_every:int ->
  ?epoch:int ->
  ?scanned:scanned ->
  dim:int ->
  dir:Io.dir ->
  unit ->
  writer
(** Open (or create) the log for appending. An existing chain is
    scanned first; the active file's torn tail is truncated away, and a
    rotation-crash overlap is resolved (the active file is rewritten to
    start where the cold chain ends), so new records always extend the
    intact chain. [fsync_every] (default 1: sync after every write, the
    safe end of the spectrum) batches fsyncs for throughput at the price
    of a wider lost-suffix window on crash. Raises [Invalid_argument] if
    one ['R'] record of dimension [dim] would pass the payload cap.

    [epoch] (default: inherit whatever the chain carries) stamps this
    incarnation's epoch into the active header and every segment it
    seals; raises {!Fenced} if the chain already carries a higher one.
    The writer never rotates on its own: only {!rotate} seals a
    segment.

    [scanned] is a {!scan} of [dir] already in hand — {!Recovery.recover}
    takes one — so the writer opens without reading the chain again.
    Nothing may have written to [dir] since that scan. The writer keeps
    none of the scan past opening, only the chain's op count and epoch:
    its footprint does not grow with the log it opened. *)

val epoch : writer -> int
(** The epoch this writer stamps (after inheritance/fencing). *)

val append : writer -> Replay.op -> unit
(** Append one op as one record in one write; fsyncs if the batch is
    due. *)

val append_ops : writer -> Replay.op list -> unit
(** One record per op, all in one write. No-op on [[]]. *)

val append_elements : writer -> Rts_core.Types.elem array -> unit
(** The whole batch as ['E'] records in one write: one record, or as
    many as the payload cap requires. No-op on an empty batch. Raises
    [Invalid_argument] on an element whose dimension is not the
    writer's. *)

val sync : writer -> unit
(** Force outstanding ops durable now. No-op if none are pending. *)

val rotate : ?scanned:scanned -> writer -> unit
(** Seal the active file's intact records, byte for byte, into a cold
    segment now (no-op on an empty active file) and continue appending
    to a fresh active file.

    [scanned] is a {!scan} of the chain taken since the writer's last
    append (a read-back the caller just verified). When its active file
    holds the base and op count the writer expects, its bytes are
    copied into the segment as they are, and the file is neither read
    nor decoded again; otherwise the file is read as without it.

    Raises {!Fault.Crash}, sealing nothing, if the active file holds
    other than the ops this writer put there (a silently torn write
    cut it short): sealing its intact prefix would move every later op
    to the wrong ordinal; the caller recovers from that prefix. *)

val prune : writer -> below:int -> int
(** Remove every cold segment whose records all lie at or below op
    number [below]; returns how many were removed. A segment ends where
    the next link of the chain begins — the next segment's base, or the
    writer's active file for the newest — so nothing is read. Safe
    floors are the caller's business: the checkpoint floor locally, the
    minimum replica ack under replication. *)

val close : writer -> unit
(** {!sync}, then release the handle. *)

val records : writer -> int
(** Total ops ever logged through this chain: the chain's base plus
    available ops plus the ops this writer appended. *)

val synced : writer -> int
(** The chain ordinal of the last op an fsync covers: {!records} minus
    the ops appended since the last {!sync}. Every fsync goes through
    {!sync} — the [fsync_every] cadence, an explicit call, {!rotate} and
    {!close} — so this is exact. Ops the writer found on opening count
    as synced. *)

val appended : writer -> int
(** Records (not ops) appended through this writer. *)

val bytes : writer -> int
(** Bytes appended through this writer, active headers included
    (what {!Durable}'s checkpoint cadence weighs against the
    snapshot's size). *)

val fsyncs : writer -> int
(** Fsyncs issued by this writer (feeds [wal_fsyncs_total]). *)
