type t = int32

(* Reflected table for polynomial 0xEDB88320 (the bit-reversed IEEE
   802.3 polynomial) — the same table zlib builds in crc32.c. Entries
   are plain (unboxed) ints holding the unsigned 32-bit value, so the
   inner loop below reads them without an [Int32] indirection. *)
let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let subbytes ?(crc = 0l) b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Crc32: range out of bounds";
  (* Standard incremental form: pre- and post-condition the register with
     a bitwise complement so that chunked and one-shot checksums agree.
     The register stays within 32 bits: table entries do, and [lsr 8]
     only shrinks it. *)
  let c = ref (lnot (Int32.to_int crc) land 0xffffffff) in
  for i = pos to pos + len - 1 do
    let idx = (!c lxor Char.code (Bytes.unsafe_get b i)) land 0xff in
    c := Array.unsafe_get table idx lxor (!c lsr 8)
  done;
  Int32.of_int (lnot !c land 0xffffffff)

(* Read-only view of [s]: the loop never writes through it. *)
let substring ?crc s ~pos ~len = subbytes ?crc (Bytes.unsafe_of_string s) ~pos ~len

let string ?crc s = substring ?crc s ~pos:0 ~len:(String.length s)
