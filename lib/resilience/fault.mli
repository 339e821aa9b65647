(** Deterministic, PRNG-seeded fault injection at the {!Io} seam.

    {!wrap} interposes on a {!Io.dir} and models the failure physics a
    durability layer must survive:

    - {b crash-at-op-k}: the [crash_at_append]-th append call raises
      {!Crash}; every later operation through the wrapper also raises —
      the process is "dead". What survives on the underlying dir is
      exactly what a kernel would have persisted;
    - {b lost unsynced tail}: appended-but-unsynced bytes are held in a
      pending buffer and only reach the underlying dir on [sync]. At
      crash time a {!Rts_util.Prng}-chosen {e prefix} of the pending
      bytes (plus, with [torn], a prefix of the in-flight record)
      survives — so the WAL tail can end mid-record;
    - {b bit flips}: with [bit_flip], one PRNG-chosen bit of the
      surviving unsynced tail is inverted — a {e corrupt} (not merely
      truncated) tail;
    - {b crash-at-checkpoint}: the [crash_at_atomic]-th
      [write_atomic] call crashes either just before or just after the
      rename (PRNG coin) — the checkpoint either never existed or fully
      landed, never half of it;
    - {b silent short write} ([short_at_append]): one record is
      partially persisted with no error raised — the scanner's CRC
      framing is what catches it later;
    - {b disk full} ([enospc_at_append]): appends start raising
      {!Io.No_space} while the machine stays alive — the load-shedding
      (rather than crash-recovery) failure axis.

    Everything is driven by the caller's [Prng.t], so a failing
    crash/recovery case replays exactly from its seed.

    Helpers {!flip_random_bit} and {!truncate_random} damage files at
    rest (media corruption, short reads) to exercise checksum
    validation and generation fallback. *)

exception Crash of string
(** The simulated machine died. Test harnesses catch this, then run
    {!Recovery.recover} against the underlying (surviving) dir. *)

type plan = {
  crash_at_append : int;
      (** 1-based count of {!Io.file.append} calls (across all files
          opened through the wrapper) at which to crash; the WAL issues
          one append per op, and one per batch for
          [feed_batch]/[register_batch], so this is crash at the k-th
          op or batch. [max_int]
          (see {!no_crash}) never fires. *)
  torn : bool;
      (** Allow a prefix of the in-flight record to survive the crash. *)
  bit_flip : bool;
      (** Corrupt one bit of the surviving unsynced tail (if any). *)
  crash_at_atomic : int option;
      (** 1-based count of [write_atomic] calls at which to crash
          (before or after publication, PRNG coin). *)
  short_at_append : int option;
      (** 1-based append count at which to inject a {e silent short
          write}: only a strict PRNG-chosen prefix of that record is
          retained, no error is raised, and the process runs on. A
          short-written {e final} record is indistinguishable from a
          torn tail and is amputated by the WAL scanner; a short write
          {e mid}-log makes every later record unreachable (appended
          after garbage) — the scan's trusted prefix ends before it
          either way. *)
  enospc_at_append : int option;
      (** 1-based append count from which the store is {e full}: that
          append and every later one raise {!Io.No_space} (sticky, the
          disk does not un-fill itself); reads, [sync] and [close] keep
          working and no previously appended byte is harmed. Unlike
          {!Crash} the machine stays up — the caller decides whether to
          shed load or fail over to a fresh store. *)
}

val no_crash : plan
(** [{ crash_at_append = max_int; torn = false; bit_flip = false;
      crash_at_atomic = None; short_at_append = None;
      enospc_at_append = None }] — a transparent wrapper. *)

val wrap : rng:Rts_util.Prng.t -> plan -> Io.dir -> Io.dir
(** Interpose the fault model on [dir]. The wrapper is single-use: once
    crashed it stays crashed. *)

val crashed : Io.dir -> bool
(** Whether a {!wrap}ped dir has crashed ([false] for foreign dirs). *)

val flip_random_bit : rng:Rts_util.Prng.t -> Io.dir -> string -> bool
(** Invert one random bit of an existing file (media corruption).
    [false] if the file is missing or empty. *)

val truncate_random : rng:Rts_util.Prng.t -> Io.dir -> string -> bool
(** Keep only a random proper prefix of an existing file (short read /
    lost pages). [false] if missing or empty. *)
