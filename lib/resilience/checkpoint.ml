module Crc32 = Rts_util.Crc32
open Rts_core

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

type meta = { gen : int; dim : int; ops : int; elements : int; count : int }

let prefix = "checkpoint-"
let suffix = ".ckpt"
let filename gen = Printf.sprintf "%s%010d%s" prefix gen suffix

let parse_filename name =
  let plen = String.length prefix and slen = String.length suffix in
  let n = String.length name in
  if n = plen + 10 + slen
     && String.sub name 0 plen = prefix
     && String.sub name (n - slen) slen = suffix
  then int_of_string_opt (String.sub name plen 10)
  else None

(* The layout is tabulated in checkpoint.mli. *)
let magic = "RTSCKPT"
let version = 2
let header_bytes = 8 + (5 * 8)
let crc_bytes = 4
let entry_bytes dim = 24 + (16 * dim)

(* Keeps [entry_bytes dim] from overflowing, so a forged header cannot
   wrap the length arithmetic in [load]. *)
let max_dim = max_int / 32

let write ~dir ~gen ~dim ~ops ~elements entries =
  if gen < 0 then invalid_arg "Checkpoint.write: negative generation";
  if dim < 1 then invalid_arg "Checkpoint.write: dimension < 1";
  let count = List.length entries in
  let len = header_bytes + (count * entry_bytes dim) + crc_bytes in
  let b = Bytes.create len in
  let int_at off v = Bytes.set_int64_le b off (Int64.of_int v) in
  Bytes.blit_string magic 0 b 0 (String.length magic);
  Bytes.set_uint8 b 7 version;
  int_at 8 gen;
  int_at 16 dim;
  int_at 24 ops;
  int_at 32 elements;
  int_at 40 count;
  List.iteri
    (fun i ((q : Types.query), consumed) ->
      if Types.dim_of_rect q.rect <> dim then
        invalid_arg "Checkpoint.write: query dimension mismatch";
      let off = header_bytes + (i * entry_bytes dim) in
      int_at off q.id;
      int_at (off + 8) q.threshold;
      int_at (off + 16) consumed;
      for k = 0 to dim - 1 do
        let o = off + 24 + (16 * k) in
        Bytes.set_int64_le b o (Int64.bits_of_float q.rect.lo.(k));
        Bytes.set_int64_le b (o + 8) (Int64.bits_of_float q.rect.hi.(k))
      done)
    entries;
  Bytes.set_int32_le b (len - crc_bytes) (Crc32.subbytes b ~pos:0 ~len:(len - crc_bytes));
  let name = filename gen in
  dir.Io.write_atomic name (Bytes.unsafe_to_string b);
  (name, len)

(* Every check runs before anything proportional to [count] is
   allocated, and each failure is a [Corrupt]: the image is untrusted. *)
let load ~dir name =
  let data =
    match dir.Io.read_file name with
    | None -> corrupt "%s: no such checkpoint" name
    | Some data -> data
  in
  let n = String.length data in
  if n < String.length magic + 1 then corrupt "%s: truncated header" name;
  if String.sub data 0 (String.length magic) <> magic then corrupt "%s: bad magic" name;
  if n > 9 && String.sub data 7 3 = ",1," then
    corrupt "%s: checkpoint format 1 (text) is no longer read; format %d expected" name version;
  let v = Char.code data.[7] in
  if v <> version then corrupt "%s: unsupported checkpoint format %d" name v;
  if n < header_bytes + crc_bytes then corrupt "%s: truncated header" name;
  let body_end = n - crc_bytes in
  if String.get_int32_le data body_end <> Crc32.substring data ~pos:0 ~len:body_end then
    corrupt "%s: checksum mismatch" name;
  let int_at what off =
    let x = String.get_int64_le data off in
    let i = Int64.to_int x in
    if Int64.of_int i <> x then corrupt "%s: %s out of range" name what;
    i
  in
  let gen = int_at "gen" 8 and dim = int_at "dim" 16 and ops = int_at "ops" 24 in
  let elements = int_at "elements" 32 and count = int_at "count" 40 in
  if not
       (gen >= 0 && dim >= 1 && dim <= max_dim && ops >= 0 && elements >= 0
      && elements <= ops && count >= 0)
  then corrupt "%s: malformed header fields" name;
  (* [body / per_entry] rather than [count * per_entry]: a forged count
     cannot overflow the comparison. *)
  let body = body_end - header_bytes and per_entry = entry_bytes dim in
  if body mod per_entry <> 0 || body / per_entry <> count then
    corrupt "%s: payload of %d bytes does not hold %d entries of dimension %d" name body count
      dim;
  let seen = Hashtbl.create count in
  let entry i =
    let off = header_bytes + (i * per_entry) in
    let id = int_at "id" off in
    let threshold = int_at "threshold" (off + 8) in
    let consumed = int_at "consumed" (off + 16) in
    let bound o = Int64.float_of_bits (String.get_int64_le data o) in
    let bounds = Array.init dim (fun k -> let o = off + 24 + (16 * k) in (bound o, bound (o + 8))) in
    (* [rect_make] refuses a NaN bound too: [lo < hi] is false for it *)
    let rect =
      try Types.rect_make bounds with Invalid_argument msg -> corrupt "%s: entry %d: %s" name i msg
    in
    if consumed < 0 || consumed >= threshold then
      corrupt "%s: entry %d: consumed %d out of [0, %d)" name i consumed threshold;
    if Hashtbl.mem seen id then corrupt "%s: duplicate query id %d" name id;
    Hashtbl.replace seen id ();
    ({ Types.id; rect; threshold }, consumed)
  in
  let rec entries i acc = if i < 0 then acc else entries (i - 1) (entry i :: acc) in
  ({ gen; dim; ops; elements; count }, entries (count - 1) [])

let generations_of names =
  names
  |> List.filter_map (fun name ->
         match parse_filename name with Some gen -> Some (gen, name) | None -> None)
  |> List.sort (fun (a, _) (b, _) -> compare b a)

let generations ~dir = generations_of (dir.Io.list_files ())

(* Generations retained: the newest, plus one fallback for when
   recovery refuses the newest as corrupt. *)
let keep = 2

let prune ~dir =
  let names = dir.Io.list_files () in
  List.iteri (fun i (_, name) -> if i >= keep then dir.Io.remove_file name) (generations_of names);
  (* sweep leftovers of interrupted atomic writes *)
  List.iter
    (fun name ->
      if Filename.check_suffix name ".tmp" && String.length name >= String.length prefix
         && String.sub name 0 (String.length prefix) = prefix
      then dir.Io.remove_file name)
    names
