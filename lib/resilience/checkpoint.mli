(** Atomic, generation-numbered, self-checksummed engine snapshots.

    A checkpoint captures {!Rts_core.Engine.t.alive_snapshot} — every
    alive query with its exact accumulated weight — together with the
    position in the op stream it reflects, so {!Recovery} can restore
    the engine and replay only the WAL suffix past it.

    File format ([checkpoint-<gen>.ckpt], format 2, binary,
    little-endian):

    {v
    offset  size            field
    0       7               magic "RTSCKPT"
    7       1               version byte (2)
    8       5 x 8           gen, dim, ops, elements, count   (int64)
    48      count x E       entries, E = 24 + 16 * dim bytes each:
                              id, threshold, consumed        (int64)
                              dim x (lo, hi)                 (float64 bits)
    n - 4   4               CRC-32 of bytes [0, n - 4)
    v}

    Floats are stored as their raw bits, so a round trip is bit-exact
    (infinite bounds, [-0.0] and subnormals included) and costs no
    decimal formatting. The CRC covers the header as much as the
    entries, and the file length must equal exactly
    [48 + count * E + 4], so truncation, bit rot and short reads all
    surface as {!Corrupt}. {!load} checks, in order and before it
    allocates anything proportional to [count]: the minimum length, the
    magic and version (a format-1 text file, [RTSCKPT,1,...], is refused
    with a message naming format 1), the CRC, the header ranges ([dim]
    capped at [max_int / 32], so the length arithmetic cannot overflow),
    the exact payload length, and then each entry (consumed in
    \[0, threshold), no duplicate id, [lo < hi] in every dimension,
    which no NaN bound satisfies). Publication is atomic
    ({!Io.dir.write_atomic}: write temp, fsync, rename): a crash
    mid-checkpoint leaves the previous generation untouched and at worst
    a stray [*.tmp] that {!prune} sweeps. Generations only ever increase; older ones are kept
    as fallbacks until pruned. *)

open Rts_core

exception Corrupt of string
(** The named checkpoint file is missing, truncated, checksum-damaged,
    or semantically invalid (bad counts, duplicate ids, consumed weight
    out of range). Recovery treats this as "skip to the next older
    generation", never as data. *)

type meta = {
  gen : int;  (** Generation number (monotone per directory). *)
  dim : int;
  ops : int;  (** Ops (R/T/E) reflected in this snapshot. *)
  elements : int;  (** Element ops among them — the maturity-ordinal base. *)
  count : int;  (** Alive queries recorded. *)
}

val filename : int -> string
(** [filename gen] = ["checkpoint-<gen padded to 10>.ckpt"]. *)

val parse_filename : string -> int option
(** Inverse of {!filename}; [None] for anything else (including temp
    files), so stray files in the directory are ignored. *)

val write :
  dir:Io.dir -> gen:int -> dim:int -> ops:int -> elements:int ->
  (Types.query * int) list -> string * int
(** Serialize and atomically publish one generation; returns the file
    name and its size in bytes. Entries are [(q, consumed)] as produced by [alive_snapshot].
    Raises [Invalid_argument] on a negative [gen], a [dim] below 1, or an
    entry whose rectangle is not [dim]-dimensional. *)

val load : dir:Io.dir -> string -> meta * (Types.query * int) list
(** Read back and fully validate one checkpoint file. Raises {!Corrupt}. *)

val generations : dir:Io.dir -> (int * string) list
(** All checkpoint generations present, newest first. *)

val prune : dir:Io.dir -> unit
(** Delete all but the newest two generations — the newest plus one
    fallback for when recovery refuses it as corrupt — and any leftover
    [*.tmp] from an interrupted atomic write. *)
