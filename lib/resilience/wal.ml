module Crc32 = Rts_util.Crc32
open Rts_workload

let default_file = "wal.log"

exception Fenced of { requested : int; found : int }

(* A single frame is at most a few hundred bytes (one op line); cap the
   length field so a corrupt header cannot make the scanner treat the
   rest of the file as one giant pending record. *)
let max_payload = 1_000_000

let frame op =
  let payload = Replay.op_to_line op in
  Printf.sprintf "%d,%s,%s\n" (String.length payload) (Crc32.to_hex (Crc32.string payload)) payload

type scanned = {
  ops : Replay.op list;
  records : int;
  base : int;
  epoch : int;
  valid_bytes : int;
  bytes_discarded : int;
}

let empty_scanned = { ops = []; records = 0; base = 0; epoch = 0; valid_bytes = 0; bytes_discarded = 0 }

let is_digit = function '0' .. '9' -> true | _ -> false

(* Parse one record starting at [pos]; [Some (op, next_pos)] or [None]
   if the bytes from [pos] are not an intact record. *)
let parse_record ~dim ~record_no data pos =
  let n = String.length data in
  match String.index_from_opt data pos ',' with
  | None -> None
  | Some c1 ->
      let len_digits = c1 - pos in
      if len_digits < 1 || len_digits > 7 then None
      else if not (String.for_all is_digit (String.sub data pos len_digits)) then None
      else
        let len = int_of_string (String.sub data pos len_digits) in
        if len > max_payload then None
        else
          let crc_end = c1 + 9 in
          if crc_end >= n || data.[crc_end] <> ',' then None
          else
            match Crc32.of_hex (String.sub data (c1 + 1) 8) with
            | None -> None
            | Some crc ->
                let pstart = crc_end + 1 in
                (* payload plus its '\n' terminator must fit *)
                if pstart + len >= n then None
                else if data.[pstart + len] <> '\n' then None
                else
                  let payload = String.sub data pstart len in
                  if Crc32.string payload <> crc then None
                  else (
                    match Replay.parse_op ~dim ~line_no:record_no payload with
                    | op -> Some (op, pstart + len + 1)
                    | exception Csv_io.Parse_error _ -> None)

let scan_range ~dim data ~pos:start =
  let n = String.length data in
  let ops = ref [] and records = ref 0 in
  let pos = ref start and stop = ref false in
  while (not !stop) && !pos < n do
    match parse_record ~dim ~record_no:(!records + 1) data !pos with
    | Some (op, next) ->
        ops := op :: !ops;
        incr records;
        pos := next
    | None -> stop := true
  done;
  (List.rev !ops, !records, !pos - start, n - !pos)

let scan_string ~dim data =
  let ops, records, valid_bytes, bytes_discarded = scan_range ~dim data ~pos:0 in
  { ops; records; base = 0; epoch = 0; valid_bytes; bytes_discarded }

(* ---------------- segment headers ---------------- *)

(* Active file header (first line, present once the log has rotated or
   carries a nonzero epoch):

     RTSWACT,1,<epoch>,<base>,<crc32-hex8>\n

   Cold segment header:

     RTSWSEG,1,<epoch>,<base>,<count>,<crc32-hex8>\n

   In both, the CRC covers the header line up to (not including) the
   final comma. [base] is the number of ops that precede the file's
   first record in the global op sequence; a file with base [b] holds
   records for ops [b+1], [b+2], ... A header-less active file is the
   legacy (and common single-node) form: base 0, epoch 0, so every log
   written before segmentation existed still scans identically. *)

let active_magic = "RTSWACT"
let segment_magic = "RTSWSEG"

let with_crc body = Printf.sprintf "%s,%s\n" body (Crc32.to_hex (Crc32.string body))
let active_header ~epoch ~base = with_crc (Printf.sprintf "%s,1,%d,%d" active_magic epoch base)

let segment_header ~epoch ~base ~count =
  with_crc (Printf.sprintf "%s,1,%d,%d,%d" segment_magic epoch base count)

(* Split [data]'s first line [body,crc] and verify the CRC; returns the
   comma-separated body fields and the line's length with its newline. *)
let header_fields data =
  match String.index_opt data '\n' with
  | None -> None
  | Some nl -> (
      match String.rindex_from_opt data nl ',' with
      | None -> None
      | Some c ->
          let body = String.sub data 0 c in
          let crc = String.sub data (c + 1) (nl - c - 1) in
          if String.length crc <> 8 then None
          else (
            match Crc32.of_hex crc with
            | Some v when Crc32.string body = v -> Some (String.split_on_char ',' body, nl + 1)
            | _ -> None))

let int_field s = if s <> "" && String.for_all is_digit s then Some (int_of_string s) else None

(* [Some (epoch, base, header_len)] if [data] begins with a valid active
   header; [None] for the legacy header-less form. A file that starts
   with the magic but fails validation is reported as [Some] with
   [header_len = -1]: the base is unknowable, so nothing in the file can
   be trusted. *)
let parse_active_header data =
  let starts_with_magic =
    String.length data >= String.length active_magic
    && String.sub data 0 (String.length active_magic) = active_magic
  in
  if not starts_with_magic then None
  else
    let invalid = Some (0, 0, -1) in
    match header_fields data with
    | Some ([ magic; "1"; e; b ], hlen) when magic = active_magic -> (
        match (int_field e, int_field b) with
        | Some epoch, Some base -> Some (epoch, base, hlen)
        | _ -> invalid)
    | _ -> invalid

(* Scan the active file image: header (any form) plus records. *)
let scan_active ~dim data =
  match parse_active_header data with
  | None ->
      let ops, records, valid, disc = scan_range ~dim data ~pos:0 in
      (0, 0, ops, records, valid, disc)
  | Some (_, _, -1) -> (0, 0, [], 0, 0, String.length data)
  | Some (epoch, base, hlen) ->
      let ops, records, valid, disc = scan_range ~dim data ~pos:hlen in
      (epoch, base, ops, records, hlen + valid, disc)

(* [Some (epoch, base, count, header_len)] if [data] begins with a
   valid cold-segment header. *)
let parse_segment_header data =
  match header_fields data with
  | Some ([ magic; "1"; e; b; c ], hlen) when magic = segment_magic -> (
      match (int_field e, int_field b, int_field c) with
      | Some epoch, Some base, Some count -> Some (epoch, base, count, hlen)
      | _ -> None)
  | _ -> None

let scan_segment_string ~dim data =
  match parse_segment_header data with
  | None -> None
  | Some (epoch, base, count, hlen) ->
      let ops, records, _, disc = scan_range ~dim data ~pos:hlen in
      (* A cold segment is published atomically: anything short of
         exactly [count] intact records means it is damaged and cannot
         be trusted as a link in the chain. *)
      if records = count && disc = 0 then Some (epoch, base, count, ops) else None

(* ---------------- segment naming ---------------- *)

let stem = Filename.remove_extension default_file
let segment_name base = Printf.sprintf "%s-%010d.seg" stem base

let segment_base_of_name name =
  let prefix = stem ^ "-" and suffix = ".seg" in
  let pn = String.length prefix and sn = String.length suffix in
  let n = String.length name in
  if n = pn + 10 + sn && String.sub name 0 pn = prefix && String.sub name (n - sn) sn = suffix
  then int_field (String.sub name pn 10)
  else None

type segment = { seg_file : string; seg_base : int; seg_count : int; seg_epoch : int }

let segments ~dir =
  dir.Io.list_files ()
  |> List.filter_map (fun name ->
         match segment_base_of_name name with
         | None -> None
         | Some base -> (
             match Option.bind (dir.Io.read_file name) parse_segment_header with
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
        match Option.bind (dir.Io.read_file name) (scan_segment_string ~dim) with
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
  let epoch_max = ref seg_epoch in
  match dir.Io.read_file default_file with
  | None -> (
      match chain with
      | None -> empty_scanned
      | Some c ->
          {
            ops = List.rev c.c_ops_rev;
            records = c.c_end - c.c_base;
            base = c.c_base;
            epoch = !epoch_max;
            valid_bytes = 0;
            bytes_discarded = 0;
          })
  | Some data -> (
      let aepoch, abase, aops, arecords, valid_bytes, bytes_discarded = scan_active ~dim data in
      epoch_max := max !epoch_max aepoch;
      match chain with
      | None ->
          {
            ops = aops;
            records = arecords;
            base = abase;
            epoch = !epoch_max;
            valid_bytes;
            bytes_discarded;
          }
      | Some c when abase > c.c_end ->
          (* A gap between the cold chain and the active file: the
             active file is where appends land, so it wins. *)
          {
            ops = aops;
            records = arecords;
            base = abase;
            epoch = !epoch_max;
            valid_bytes;
            bytes_discarded;
          }
      | Some c ->
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
            epoch = !epoch_max;
            valid_bytes;
            bytes_discarded;
          })

(* ---------------- writer ---------------- *)

type writer = {
  dir : Io.dir;
  dim : int;
  existing : scanned;
  fsync_every : int;
  segment_records : int;
  epoch : int;
  mutable file : Io.file;
  mutable active_base : int;
  mutable active_records : int;
  mutable appended : int;
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

let writer ?(fsync_every = 1) ?epoch ?(segment_records = 0) ~dim ~dir () =
  if fsync_every < 1 then invalid_arg "Wal.writer: fsync_every < 1";
  if segment_records < 0 then invalid_arg "Wal.writer: segment_records < 0";
  let existing = scan ~dim ~dir () in
  let epoch =
    match epoch with
    | None -> existing.epoch
    | Some e ->
        if e < existing.epoch then raise (Fenced { requested = e; found = existing.epoch });
        e
  in
  let cold, _ = cold_chain ~dim ~dir in
  let cold_end = match cold with Some c -> c.c_end | None -> 0 in
  let active_base, active_records =
    match dir.Io.read_file default_file with
    | None ->
        let base = existing.base + existing.records in
        if epoch > 0 || base > 0 then rewrite_active dir ~epoch ~base [];
        (base, 0)
    | Some data -> (
        let aepoch, abase, aops, arecords, valid_bytes, bytes_discarded = scan_active ~dim data in
        (* Records already sealed into cold segments supersede any copy
           still sitting in the active file (the rotation crash
           window). *)
        let overlap = cold_end > abase in
        let cold_end = max cold_end abase in
        match parse_active_header data with
        | Some (_, _, -1) ->
            (* Corrupt header: the base is unknowable, drop the file. *)
            let base = max cold_end 0 in
            if epoch > 0 || base > 0 then rewrite_active dir ~epoch ~base []
            else dir.Io.truncate_file default_file 0;
            (base, 0)
        | _ when overlap || epoch > aepoch ->
            let keep = drop (cold_end - abase) aops in
            rewrite_active dir ~epoch ~base:cold_end keep;
            (cold_end, List.length keep)
        | _ ->
            (* The classic path: amputate a torn tail before appending —
               a record appended after garbage would be unreachable to
               the scanner forever. *)
            if bytes_discarded > 0 then dir.Io.truncate_file default_file valid_bytes;
            (abase, arecords))
  in
  let handle = dir.Io.open_append default_file in
  {
    dir;
    dim;
    existing;
    fsync_every;
    segment_records;
    epoch;
    file = handle;
    active_base;
    active_records;
    appended = 0;
    since_sync = 0;
    fsyncs = 0;
    rotations = 0;
    closed = false;
  }

let existing w = w.existing
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
  | Some data ->
      let _, abase, aops, arecords, _, _ = scan_active ~dim:w.dim data in
      if arecords > 0 then begin
        let buf = Buffer.create 1024 in
        Buffer.add_string buf (segment_header ~epoch:w.epoch ~base:abase ~count:arecords);
        List.iter (fun op -> Buffer.add_string buf (frame op)) aops;
        w.dir.Io.write_atomic (segment_name abase) (Buffer.contents buf);
        rewrite_active w.dir ~epoch:w.epoch ~base:(abase + arecords) [];
        w.active_base <- abase + arecords;
        w.active_records <- 0;
        w.rotations <- w.rotations + 1
      end);
  w.file <- w.dir.Io.open_append default_file

let append w op =
  if w.closed then invalid_arg "Wal.append: writer is closed";
  w.file.Io.append (frame op);
  w.appended <- w.appended + 1;
  w.active_records <- w.active_records + 1;
  w.since_sync <- w.since_sync + 1;
  if w.since_sync >= w.fsync_every then sync w;
  if w.segment_records > 0 && w.active_records >= w.segment_records then rotate w

let close w =
  if not w.closed then begin
    sync w;
    w.closed <- true;
    w.file.Io.close ()
  end

let records w = w.existing.base + w.existing.records + w.appended
let synced w = records w - w.since_sync
let appended w = w.appended
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
