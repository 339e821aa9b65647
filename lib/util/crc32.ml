type t = int32

(* Slicing-by-8 tables for polynomial 0xEDB88320 (the bit-reversed IEEE
   802.3 polynomial), flattened: table [k] holds entries [256k ..
   256k + 255]. Table 0 is the classic bytewise table zlib builds in
   crc32.c; entry [n] of table [k] is the register after byte [n] is
   followed by [k] zero bytes, so eight table reads advance the register
   over eight bytes at once. Entries are plain (unboxed) ints holding the
   unsigned 32-bit value, so the loops below read them without an
   [Int32] indirection. *)
let tables =
  let t = Array.make 2048 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.((256 * (k - 1)) + n) in
      t.((256 * k) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

let u32 b i = Int32.to_int (Bytes.get_int32_le b i) land 0xffffffff

let subbytes ?(crc = 0l) b ~pos ~len =
  if pos < 0 || len < 0 || pos > Bytes.length b - len then
    invalid_arg "Crc32: range out of bounds";
  (* Standard incremental form: pre- and post-condition the register with
     a bitwise complement so that chunked and one-shot checksums agree.
     The register stays within 32 bits: table entries do, and [lsr 8]
     only shrinks it. *)
  let t = tables in
  let c = ref (lnot (Int32.to_int crc) land 0xffffffff) in
  let i = ref pos and stop = pos + len in
  while !i + 8 <= stop do
    (* the first byte of the word goes through table 7, the last through
       table 0 *)
    let lo = !c lxor u32 b !i and hi = u32 b (!i + 4) in
    c :=
      Array.unsafe_get t (1792 + (lo land 0xff))
      lxor Array.unsafe_get t (1536 + ((lo lsr 8) land 0xff))
      lxor Array.unsafe_get t (1280 + ((lo lsr 16) land 0xff))
      lxor Array.unsafe_get t (1024 + (lo lsr 24))
      lxor Array.unsafe_get t (768 + (hi land 0xff))
      lxor Array.unsafe_get t (512 + ((hi lsr 8) land 0xff))
      lxor Array.unsafe_get t (256 + ((hi lsr 16) land 0xff))
      lxor Array.unsafe_get t (hi lsr 24);
    i := !i + 8
  done;
  for j = !i to stop - 1 do
    let idx = (!c lxor Char.code (Bytes.unsafe_get b j)) land 0xff in
    c := Array.unsafe_get t idx lxor (!c lsr 8)
  done;
  Int32.of_int (lnot !c land 0xffffffff)

(* Read-only view of [s]: the loop never writes through it. *)
let substring ?crc s ~pos ~len = subbytes ?crc (Bytes.unsafe_of_string s) ~pos ~len

let string ?crc s = substring ?crc s ~pos:0 ~len:(String.length s)
