module Crc32 = Rts_util.Crc32
open Rts_core
open Rts_workload

let default_file = "wal.log"

exception Fenced of { requested : int; found : int }
exception Unsupported_format of string

let unsupported file what =
  raise
    (Unsupported_format
       (Printf.sprintf "%s: %s is no longer read; WAL format 2 (binary) expected" file what))

(* ---------------- records ---------------- *)

(* The layout is tabulated in wal.mli. The payload cap keeps a corrupt
   length field from making the scanner treat the rest of the file as
   one giant pending record; the writer splits element batches under
   it. *)
let max_payload = 1_000_000
let framing = 8
let elem_bytes dim = (8 * dim) + 8
let elems_header = 5
let register_bytes dim = 17 + (16 * dim)
let terminate_bytes = 9

let put_int b off v = Bytes.set_int64_le b off (Int64.of_int v)
let put_float b off x = Bytes.set_int64_le b off (Int64.bits_of_float x)

(* Fill in the length and CRC of the record whose payload of [len]
   bytes is already written at [off + framing]. *)
let seal b off len =
  Bytes.set_int32_le b off (Int32.of_int len);
  Bytes.set_int32_le b (off + 4) (Crc32.subbytes b ~pos:(off + framing) ~len)

let op_bytes = function
  | Replay.Register q -> framing + register_bytes (Types.dim_of_rect q.rect)
  | Terminate _ -> framing + terminate_bytes
  | Element e -> framing + elems_header + elem_bytes (Array.length e.value)

(* One [E] record for [elems.(first) .. elems.(first + n - 1)] at [off];
   returns the offset after it. *)
let put_elements b off ~dim elems first n =
  let p = off + framing and per = elem_bytes dim in
  Bytes.set b p 'E';
  Bytes.set_int32_le b (p + 1) (Int32.of_int n);
  for i = 0 to n - 1 do
    let e = elems.(first + i) and o = p + elems_header + (i * per) in
    if Array.length e.Types.value <> dim then invalid_arg "Wal: element dimension mismatch";
    for k = 0 to dim - 1 do
      put_float b (o + (8 * k)) e.Types.value.(k)
    done;
    put_int b (o + (8 * dim)) e.Types.weight
  done;
  let len = elems_header + (n * per) in
  seal b off len;
  p + len

let put_op b off op =
  let p = off + framing in
  match op with
  | Replay.Element e -> put_elements b off ~dim:(Array.length e.value) [| e |] 0 1
  | Terminate id ->
      Bytes.set b p 'T';
      put_int b (p + 1) id;
      seal b off terminate_bytes;
      p + terminate_bytes
  | Register q ->
      let dim = Types.dim_of_rect q.rect in
      Bytes.set b p 'R';
      put_int b (p + 1) q.id;
      put_int b (p + 9) q.threshold;
      for k = 0 to dim - 1 do
        put_float b (p + 17 + (16 * k)) q.rect.lo.(k);
        put_float b (p + 25 + (16 * k)) q.rect.hi.(k)
      done;
      seal b off (register_bytes dim);
      p + register_bytes dim

let frame op =
  let b = Bytes.create (op_bytes op) in
  ignore (put_op b 0 op);
  Bytes.unsafe_to_string b

(* ---------------- scanning ---------------- *)

(* The active file as the opening scan found it. *)
type active = { a_epoch : int; a_base : int; a_ops : Replay.op list; a_records : int }

(* How the chain lay on disk when it was scanned: what {!writer} needs
   to position its appends without reading the chain again. *)
type layout = {
  cold_end : int;  (* op ordinal the cold chain ends at; 0 without one *)
  active_file : [ `Absent | `Empty | `Damaged | `Header of active ];
}

type scanned = {
  ops : Replay.op list;
  records : int;
  base : int;
  epoch : int;
  valid_bytes : int;
  bytes_discarded : int;
  layout : layout;
}

let no_layout = { cold_end = 0; active_file = `Absent }

let empty_scanned =
  { ops = []; records = 0; base = 0; epoch = 0; valid_bytes = 0; bytes_discarded = 0; layout = no_layout }

(* Raised inside the decoder only; ends the intact prefix. *)
exception Refused

let get_u32 data off = Int32.to_int (String.get_int32_le data off) land 0xffff_ffff

let get_int data off =
  let x = String.get_int64_le data off in
  let i = Int64.to_int x in
  if Int64.of_int i <> x then raise_notrace Refused;
  i

let get_float data off = Int64.float_of_bits (String.get_int64_le data off)

(* Decode the record at [pos] onto [acc] (newest first); returns the
   extended list, its op count and the next position. Refuses exactly
   what [Replay.parse_op] refuses of the same op, plus any framing
   violation. *)
let decode ~dim data pos acc =
  let n = String.length data in
  if n - pos < framing then raise_notrace Refused;
  let len = get_u32 data pos in
  if len < 1 || len > max_payload || n - pos - framing < len then raise_notrace Refused;
  let p = pos + framing in
  if String.get_int32_le data (pos + 4) <> Crc32.substring data ~pos:p ~len then
    raise_notrace Refused;
  let next = p + len in
  match data.[p] with
  | 'E' ->
      let per = elem_bytes dim in
      if len < elems_header then raise_notrace Refused;
      let count = get_u32 data (p + 1) in
      (* [body / per] rather than [count * per]: a forged count cannot
         overflow the comparison *)
      let body = len - elems_header in
      if count < 1 || body mod per <> 0 || body / per <> count then raise_notrace Refused;
      let acc = ref acc in
      for i = 0 to count - 1 do
        let o = p + elems_header + (i * per) in
        let value =
          Array.init dim (fun k ->
              let x = get_float data (o + (8 * k)) in
              if Float.is_finite x then x else raise_notrace Refused)
        in
        let weight = get_int data (o + (8 * dim)) in
        if weight < 1 then raise_notrace Refused;
        acc := Replay.Element { Types.value; weight } :: !acc
      done;
      (!acc, count, next)
  | 'R' ->
      if len <> register_bytes dim then raise_notrace Refused;
      let id = get_int data (p + 1) and threshold = get_int data (p + 9) in
      let bounds =
        Array.init dim (fun k ->
            (get_float data (p + 17 + (16 * k)), get_float data (p + 25 + (16 * k))))
      in
      (* [rect_make] refuses a NaN bound too: [lo < hi] is false for it *)
      let rect = try Types.rect_make bounds with Invalid_argument _ -> raise_notrace Refused in
      (Replay.Register { Types.id; rect; threshold } :: acc, 1, next)
  | 'T' ->
      if len <> terminate_bytes then raise_notrace Refused;
      (Replay.Terminate (get_int data (p + 1)) :: acc, 1, next)
  | _ -> raise_notrace Refused

let scan_range ~dim data ~pos:start =
  let rec go pos acc records =
    match decode ~dim data pos acc with
    | acc, count, next -> go next acc (records + count)
    | exception Refused -> (List.rev acc, records, pos - start, String.length data - pos)
  in
  go start [] 0

let scan_string ~dim data =
  let ops, records, valid_bytes, bytes_discarded = scan_range ~dim data ~pos:0 in
  { ops; records; base = 0; epoch = 0; valid_bytes; bytes_discarded; layout = no_layout }

(* ---------------- headers ---------------- *)

(* Active file header (first bytes of a non-empty active file):

     "RTSWACT" | u8 version = 2 | i64 epoch | i64 base | u32 CRC

   Cold segment header:

     "RTSWSEG" | u8 version = 2 | i64 epoch | i64 base | i64 count | u32 CRC

   All little-endian; the CRC covers every header byte before it.
   [base] is the number of ops that precede the file's first record in
   the global op sequence; a file with base [b] holds records for ops
   [b+1], [b+2], ... Format 1 wrote these headers as text
   ([RTSWACT,1,...]) and allowed a header-less active file whose text
   records start with a decimal length; both are refused with
   {!Unsupported_format} rather than scanned as 0 intact records, which
   a writer would then truncate away. *)

let active_magic = "RTSWACT"
let segment_magic = "RTSWSEG"
let version = 2

let header_bytes nfields = 8 + (8 * nfields) + 4

let header magic fields =
  let n = header_bytes (List.length fields) in
  let b = Bytes.create n in
  Bytes.blit_string magic 0 b 0 (String.length magic);
  Bytes.set_uint8 b 7 version;
  List.iteri (fun i v -> put_int b (8 + (8 * i)) v) fields;
  Bytes.set_int32_le b (n - 4) (Crc32.subbytes b ~pos:0 ~len:(n - 4));
  Bytes.unsafe_to_string b

let active_header ~epoch ~base = header active_magic [ epoch; base ]
let segment_header ~epoch ~base ~count = header segment_magic [ epoch; base; count ]

(* [Some (fields, header_len)] for an intact version-2 header of
   [nfields] non-negative fields; [None] if damaged. Raises
   {!Unsupported_format} on a format-1 text header. *)
let read_header ~file magic nfields data =
  let n = header_bytes nfields and m = String.length magic in
  let len = String.length data in
  if len > m && String.sub data 0 m = magic && data.[m] = ',' then
    unsupported file "WAL format 1 (text header)";
  if len < n || String.sub data 0 m <> magic || Char.code data.[m] <> version then None
  else if String.get_int32_le data (n - 4) <> Crc32.substring data ~pos:0 ~len:(n - 4) then None
  else
    match List.init nfields (fun i -> get_int data (8 + (8 * i))) with
    | fields when List.for_all (fun v -> v >= 0) fields -> Some (fields, n)
    | _ -> None
    | exception Refused -> None

(* The active file's first bytes. A format-1 log without a header
   starts with the decimal length of its first text record; a damaged
   header (say, a torn first append) cannot start with a digit, since
   every header starts with the magic. *)
let parse_active_header data : [ `Empty | `Damaged | `Header of int * int * int ] =
  if data = "" then `Empty
  else if data.[0] >= '0' && data.[0] <= '9' then
    unsupported default_file "WAL format 1 (header-less text log)"
  else
    match read_header ~file:default_file active_magic 2 data with
    | Some ([ epoch; base ], hlen) -> `Header (epoch, base, hlen)
    | _ -> `Damaged

(* Scan the active file image: header plus records. A damaged header
   makes the base unknowable, so nothing in the file can be trusted.
   Returns the file's state, its intact byte length and its torn-tail
   length. *)
let scan_active ~dim data =
  match parse_active_header data with
  | `Empty -> (`Empty, 0, 0)
  | `Damaged -> (`Damaged, 0, String.length data)
  | `Header (a_epoch, a_base, hlen) ->
      let a_ops, a_records, valid, disc = scan_range ~dim data ~pos:hlen in
      (`Header { a_epoch; a_base; a_ops; a_records }, hlen + valid, disc)

(* [Some (epoch, base, count, header_len)] if [data] begins with a
   valid cold-segment header. *)
let parse_segment_header ~file data =
  match read_header ~file segment_magic 3 data with
  | Some ([ epoch; base; count ], hlen) -> Some (epoch, base, count, hlen)
  | _ -> None

let scan_segment ~file ~dim data =
  match parse_segment_header ~file data with
  | None -> None
  | Some (epoch, base, count, hlen) ->
      let ops, records, _, disc = scan_range ~dim data ~pos:hlen in
      (* A cold segment is published atomically: anything short of
         exactly [count] intact records means it is damaged and cannot
         be trusted as a link in the chain. *)
      if records = count && disc = 0 then Some (epoch, base, count, ops) else None

let scan_segment_string ~dim data = scan_segment ~file:"segment image" ~dim data

(* ---------------- segment naming ---------------- *)

let stem = Filename.remove_extension default_file
let segment_name base = Printf.sprintf "%s-%010d.seg" stem base

let segment_base_of_name name =
  let prefix = stem ^ "-" and suffix = ".seg" in
  let pn = String.length prefix and sn = String.length suffix in
  let n = String.length name in
  if n = pn + 10 + sn && String.sub name 0 pn = prefix && String.sub name (n - sn) sn = suffix
  then
    let digits = String.sub name pn 10 in
    if String.for_all (fun c -> c >= '0' && c <= '9') digits then Some (int_of_string digits)
    else None
  else None

type segment = { seg_file : string; seg_base : int; seg_count : int; seg_epoch : int }

let segments ~dir =
  dir.Io.list_files ()
  |> List.filter_map (fun name ->
         match segment_base_of_name name with
         | None -> None
         | Some base -> (
             match Option.bind (dir.Io.read_file name) (parse_segment_header ~file:name) with
             | Some (epoch, b, count, _) when b = base ->
                 Some { seg_file = name; seg_base = base; seg_count = count; seg_epoch = epoch }
             | _ -> None))
  |> List.sort (fun a b -> compare a.seg_base b.seg_base)

(* ---------------- chain scan ---------------- *)

type chain = { c_base : int; c_end : int; c_ops_rev : Replay.op list }

let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: tl -> drop (n - 1) tl

(* Fold the cold segments, lowest base first, into the longest
   contiguous chain ending at the newest segment; a damaged or missing
   link restarts the chain after it — corruption never rewrites history,
   it only lifts the floor below which records are unavailable. Returns
   the chain and the highest epoch seen across valid segments. *)
let cold_chain ~dim ~dir =
  let epoch_max = ref 0 in
  let chain =
    List.fold_left
      (fun chain name ->
        match Option.bind (dir.Io.read_file name) (scan_segment ~file:name ~dim) with
        | None -> None
        | Some (epoch, base, count, ops) -> (
            epoch_max := max !epoch_max epoch;
            let fresh = { c_base = base; c_end = base + count; c_ops_rev = List.rev ops } in
            match chain with
            | None -> Some fresh
            | Some c ->
                if base = c.c_end then
                  Some { c with c_end = base + count; c_ops_rev = List.rev_append ops c.c_ops_rev }
                else Some fresh))
      None
      (dir.Io.list_files ()
      |> List.filter (fun n -> segment_base_of_name n <> None)
      |> List.sort compare)
  in
  (chain, !epoch_max)

let scan ~dim ~dir () =
  let chain, seg_epoch = cold_chain ~dim ~dir in
  let cold_end = match chain with Some c -> c.c_end | None -> 0 in
  match dir.Io.read_file default_file with
  | None -> (
      match chain with
      | None -> empty_scanned
      | Some c ->
          {
            ops = List.rev c.c_ops_rev;
            records = c.c_end - c.c_base;
            base = c.c_base;
            epoch = seg_epoch;
            valid_bytes = 0;
            bytes_discarded = 0;
            layout = { cold_end; active_file = `Absent };
          })
  | Some data -> (
      let active_file, valid_bytes, bytes_discarded = scan_active ~dim data in
      let aepoch, abase, aops, arecords =
        match active_file with
        | `Header a -> (a.a_epoch, a.a_base, a.a_ops, a.a_records)
        | `Empty | `Damaged -> (0, 0, [], 0)
      in
      let epoch = max seg_epoch aepoch in
      let layout = { cold_end; active_file } in
      match chain with
      | Some c when abase <= c.c_end ->
          (* Overlap is the crash window between publishing a cold
             segment and rewriting the active file: the cold copy of the
             shared records is authoritative, the active duplicates are
             skipped. *)
          let skip = c.c_end - abase in
          let tail = drop skip aops in
          let taken = max 0 (arecords - skip) in
          {
            ops = List.rev_append c.c_ops_rev tail;
            records = c.c_end - c.c_base + taken;
            base = c.c_base;
            epoch;
            valid_bytes;
            bytes_discarded;
            layout;
          }
      | _ ->
          (* No cold chain, or a gap between it and the active file: the
             active file is where appends land, so it wins. *)
          { ops = aops; records = arecords; base = abase; epoch; valid_bytes; bytes_discarded; layout })

(* ---------------- writer ---------------- *)

type writer = {
  dir : Io.dir;
  dim : int;
  found : int; (* ops the chain held on opening: its base plus its records *)
  fsync_every : int;
  segment_records : int;
  epoch : int;
  mutable file : Io.file;
  mutable headed : bool;  (** the active file on disk starts with its header *)
  mutable active_base : int;
  mutable active_records : int;
  mutable logged : int;
  mutable appended : int;
  mutable bytes : int;
  mutable since_sync : int;
  mutable fsyncs : int;
  mutable rotations : int;
  mutable closed : bool;
}

let rewrite_active dir ~epoch ~base ops =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (active_header ~epoch ~base);
  List.iter (fun op -> Buffer.add_string buf (frame op)) ops;
  dir.Io.write_atomic default_file (Buffer.contents buf)

let writer ?(fsync_every = 1) ?epoch ?(segment_records = 0) ?scanned ~dim ~dir () =
  if fsync_every < 1 then invalid_arg "Wal.writer: fsync_every < 1";
  if segment_records < 0 then invalid_arg "Wal.writer: segment_records < 0";
  if register_bytes dim > max_payload then
    invalid_arg "Wal.writer: dimension too large for one record";
  let existing = match scanned with Some s -> s | None -> scan ~dim ~dir () in
  let epoch =
    match epoch with
    | None -> existing.epoch
    | Some e ->
        if e < existing.epoch then raise (Fenced { requested = e; found = existing.epoch });
        e
  in
  let { cold_end; active_file } = existing.layout in
  (* A header records a base or an epoch the records cannot; without
     either, a fresh file gets its header with its first record. *)
  let fresh ~base =
    if epoch > 0 || base > 0 then begin
      rewrite_active dir ~epoch ~base [];
      (base, 0, true)
    end
    else (base, 0, false)
  in
  let active_base, active_records, headed =
    match active_file with
    | `Absent -> fresh ~base:(existing.base + existing.records)
    | `Empty -> fresh ~base:cold_end
    | `Damaged ->
        dir.Io.truncate_file default_file 0;
        fresh ~base:cold_end
    | `Header a when cold_end > a.a_base || epoch > a.a_epoch ->
        (* Records already sealed into cold segments supersede any copy
           still sitting in the active file (the rotation crash
           window). *)
        let base = max cold_end a.a_base in
        let keep = drop (base - a.a_base) a.a_ops in
        rewrite_active dir ~epoch ~base keep;
        (base, List.length keep, true)
    | `Header a ->
        (* The classic path: amputate a torn tail before appending — a
           record appended after garbage would be unreachable to the
           scanner forever. *)
        if existing.bytes_discarded > 0 then
          dir.Io.truncate_file default_file existing.valid_bytes;
        (a.a_base, a.a_records, true)
  in
  let handle = dir.Io.open_append default_file in
  {
    dir;
    dim;
    found = existing.base + existing.records;
    fsync_every;
    segment_records;
    epoch;
    file = handle;
    headed;
    active_base;
    active_records;
    logged = 0;
    appended = 0;
    bytes = 0;
    since_sync = 0;
    fsyncs = 0;
    rotations = 0;
    closed = false;
  }

let epoch w = w.epoch

let sync w =
  if w.since_sync > 0 then begin
    w.file.Io.sync ();
    w.fsyncs <- w.fsyncs + 1;
    w.since_sync <- 0
  end

let rotate w =
  if w.closed then invalid_arg "Wal.rotate: writer is closed";
  sync w;
  w.file.Io.close ();
  (match w.dir.Io.read_file default_file with
  | None -> ()
  | Some data -> (
      match scan_active ~dim:w.dim data with
      | `Header { a_base; a_records; _ }, valid_bytes, _ when a_records > 0 ->
          (* Seal the intact records byte for byte, behind a segment
             header in place of the active one. *)
          let hlen = header_bytes 2 in
          w.dir.Io.write_atomic (segment_name a_base)
            (segment_header ~epoch:w.epoch ~base:a_base ~count:a_records
            ^ String.sub data hlen (valid_bytes - hlen));
          rewrite_active w.dir ~epoch:w.epoch ~base:(a_base + a_records) [];
          w.headed <- true;
          w.active_base <- a_base + a_records;
          w.active_records <- 0;
          w.rotations <- w.rotations + 1
      | _ -> ()));
  w.file <- w.dir.Io.open_append default_file

(* One write(2) of [b], which holds [records] records of [ops] ops. *)
let write w b ~records ~ops =
  if w.closed then invalid_arg "Wal.append: writer is closed";
  let s = Bytes.unsafe_to_string b in
  let s = if w.headed then s else active_header ~epoch:w.epoch ~base:w.active_base ^ s in
  w.file.Io.append s;
  w.headed <- true;
  w.appended <- w.appended + records;
  w.bytes <- w.bytes + String.length s;
  w.logged <- w.logged + ops;
  w.active_records <- w.active_records + ops;
  w.since_sync <- w.since_sync + ops;
  if w.since_sync >= w.fsync_every then sync w;
  if w.segment_records > 0 && w.active_records >= w.segment_records then rotate w

let append_ops w ops =
  if ops <> [] then begin
    let b = Bytes.create (List.fold_left (fun n op -> n + op_bytes op) 0 ops) in
    ignore (List.fold_left (fun off op -> put_op b off op) 0 ops);
    let n = List.length ops in
    write w b ~records:n ~ops:n
  end

let append w op = append_ops w [ op ]

let append_elements w elems =
  let n = Array.length elems and dim = w.dim in
  if n > 0 then begin
    let per_record = (max_payload - elems_header) / elem_bytes dim in
    let records = (n + per_record - 1) / per_record in
    let b = Bytes.create ((records * (framing + elems_header)) + (n * elem_bytes dim)) in
    let off = ref 0 in
    for r = 0 to records - 1 do
      let first = r * per_record in
      off := put_elements b !off ~dim elems first (min per_record (n - first))
    done;
    write w b ~records ~ops:n
  end

let close w =
  if not w.closed then begin
    sync w;
    w.closed <- true;
    w.file.Io.close ()
  end

let records w = w.found + w.logged
let synced w = records w - w.since_sync
let appended w = w.appended
let bytes w = w.bytes
let fsyncs w = w.fsyncs
let rotations w = w.rotations

let prune ~dir ~below =
  let removed = ref 0 in
  List.iter
    (fun seg ->
      if seg.seg_base + seg.seg_count <= below then begin
        dir.Io.remove_file seg.seg_file;
        incr removed
      end)
    (segments ~dir);
  !removed
