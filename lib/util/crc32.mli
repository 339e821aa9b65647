(** CRC-32 (IEEE 802.3 / zlib polynomial, reflected).

    The integrity primitive behind the durability layer: WAL records and
    checkpoint files are checksummed so that torn writes, bit rot, and
    short reads are {e detected} instead of silently replayed into an
    engine. Pure OCaml, table-driven, no dependencies; matches the
    classic zlib [crc32] function bit for bit (checked against the
    canonical test vector ["123456789"] -> [0xCBF43926]). *)

type t = int32
(** A CRC value. The empty string has CRC [0l]. *)

val string : ?crc:t -> string -> t
(** [string s] is the CRC-32 of [s]. [string ~crc s] continues a running
    checksum, so [string ~crc:(string a) b = string (a ^ b)] — the
    incremental form used when checksumming streamed payloads. *)

val substring : ?crc:t -> string -> pos:int -> len:int -> t
(** CRC of [String.sub s pos len] without allocating the copy. Raises
    [Invalid_argument] if the range is out of bounds. *)

val subbytes : ?crc:t -> bytes -> pos:int -> len:int -> t
(** {!substring} over a [bytes] buffer still being filled — how a
    checkpoint image or a WAL record is checksummed before its CRC is
    written into it. *)
