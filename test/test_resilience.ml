(* Resilience layer: CRC-32 vectors, WAL torn-tail semantics, atomic
   checkpoint validation, recovery positioning — and the crash-equivalence
   property at the heart of the PR: for EVERY crash point (including torn
   writes, bit-flipped tails, crashes mid-checkpoint, and a corrupted
   newest checkpoint at rest), recovery plus continuation reproduces the
   uninterrupted run's maturity log bit for bit. *)

open Rts_core
open Rts_workload
open Rts_resilience
module Prng = Rts_util.Prng
module Crc32 = Rts_util.Crc32
module Metrics = Rts_obs.Metrics

let q ~id ~threshold (lo, hi) = { Types.id; rect = Types.interval lo hi; threshold }
let e v w = { Types.value = [| v |]; weight = w }

(* Pinned seeds of the crash sweeps and the checkpoint decoder fuzz;
   RTS_FAULT_SEEDS widens them. *)
let fault_seeds = Qcheck_env.seeds "RTS_FAULT_SEEDS" ~default:[ 11; 23; 47 ]

let rec drop n = function
  | rest when n <= 0 -> rest
  | [] -> []
  | _ :: rest -> drop (n - 1) rest

(* ------------------------------------------------------------------ *)
(* Crc32                                                               *)
(* ------------------------------------------------------------------ *)

let test_crc32_vectors () =
  Alcotest.(check int32) "canonical zlib vector" 0xcbf43926l (Crc32.string "123456789");
  Alcotest.(check int32) "empty string" 0l (Crc32.string "");
  Alcotest.(check bool) "incremental = whole" true
    (Crc32.string ~crc:(Crc32.string "12345") "6789" = Crc32.string "123456789");
  let s = "the quick brown fox" in
  Alcotest.(check bool) "substring = sub" true
    (Crc32.substring s ~pos:4 ~len:5 = Crc32.string (String.sub s 4 5))

(* Table-free reference: shift the register one bit at a time. *)
let crc_bitwise s =
  let c = ref 0xffffffff in
  String.iter
    (fun ch ->
      c := !c lxor Char.code ch;
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done)
    s;
  Int32.of_int (!c lxor 0xffffffff)

(* The table-driven CRC, fed in random chunks, equals the bitwise one. *)
let prop_crc32_matches_bitwise =
  QCheck.Test.make ~count:(Qcheck_env.count 300) ~name:"crc32 = bitwise reference (random chunks)"
    QCheck.(pair string (small_list small_nat))
    (fun (s, cuts) ->
      let n = String.length s in
      let cuts = List.sort_uniq compare (List.map (fun c -> if n = 0 then 0 else c mod (n + 1)) cuts) in
      let crc, last =
        List.fold_left
          (fun (crc, pos) cut -> (Crc32.substring ~crc s ~pos ~len:(cut - pos), cut))
          (0l, 0) cuts
      in
      let chunked = Crc32.substring ~crc s ~pos:last ~len:(n - last) in
      let b = Bytes.of_string s in
      chunked = crc_bitwise s && Crc32.string s = chunked
      && Crc32.subbytes b ~pos:0 ~len:n = chunked)

(* ------------------------------------------------------------------ *)
(* Wal                                                                 *)
(* ------------------------------------------------------------------ *)

let sample_ops =
  [
    Replay.Register (q ~id:1 ~threshold:3 (0., 10.));
    Replay.Element (e 5. 2);
    Replay.Register (q ~id:2 ~threshold:2 (0., 4.));
    Replay.Terminate 2;
    Replay.Element (e 1. 1);
  ]

let test_wal_roundtrip () =
  let dir = Io.mem_dir () in
  let w = Wal.writer ~dim:1 ~dir () in
  List.iter (Wal.append w) sample_ops;
  Wal.close w;
  let s = Wal.scan ~dim:1 ~dir () in
  Alcotest.(check int) "records" 5 s.Wal.records;
  Alcotest.(check int) "no discard" 0 s.Wal.bytes_discarded;
  Alcotest.(check bool) "ops identical" true (s.Wal.ops = sample_ops)

let test_wal_torn_tail () =
  let image = String.concat "" (List.map Wal.frame sample_ops) in
  (* cut mid-way through the final record *)
  let torn = String.sub image 0 (String.length image - 4) in
  let s = Wal.scan_string ~dim:1 torn in
  Alcotest.(check int) "prefix records" 4 s.Wal.records;
  Alcotest.(check bool) "discarded tail" true (s.Wal.bytes_discarded > 0);
  Alcotest.(check int) "accounting" (String.length torn)
    (s.Wal.valid_bytes + s.Wal.bytes_discarded);
  Alcotest.(check bool) "ops = prefix" true
    (s.Wal.ops = List.filteri (fun i _ -> i < 4) sample_ops)

let test_wal_bit_flip_stops_scan () =
  let image = String.concat "" (List.map Wal.frame sample_ops) in
  let frames = List.map Wal.frame sample_ops in
  (* flip a bit inside the third record's payload *)
  let off =
    String.length (List.nth frames 0) + String.length (List.nth frames 1) + 8
  in
  let b = Bytes.of_string image in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x10));
  let s = Wal.scan_string ~dim:1 (Bytes.to_string b) in
  Alcotest.(check bool) "scan stops at the damaged record" true (s.Wal.records <= 2);
  Alcotest.(check bool) "tail reported" true (s.Wal.bytes_discarded > 0)

let test_wal_scan_garbage_and_empty () =
  let s = Wal.scan_string ~dim:1 "complete garbage\nmore garbage" in
  Alcotest.(check int) "garbage: no records" 0 s.Wal.records;
  Alcotest.(check bool) "garbage: all discarded" true (s.Wal.bytes_discarded > 0);
  let s = Wal.scan_string ~dim:1 "" in
  Alcotest.(check int) "empty: no records" 0 s.Wal.records;
  let dir = Io.mem_dir () in
  let s = Wal.scan ~dim:1 ~dir () in
  Alcotest.(check int) "absent file: no records" 0 s.Wal.records

let test_wal_writer_truncates_torn_tail_on_open () =
  let dir = Io.mem_dir () in
  let w = Wal.writer ~dim:1 ~dir () in
  List.iter (Wal.append w) (List.filteri (fun i _ -> i < 3) sample_ops);
  Wal.close w;
  (* simulate a crash that left half a record behind *)
  let f = dir.Io.open_append Wal.default_file in
  f.Io.append (String.sub (Wal.frame (Replay.Element (e 0.5 1))) 0 10);
  f.Io.close ();
  let ex = Wal.scan ~dim:1 ~dir () in
  Alcotest.(check bool) "the scan reports the tail" true (ex.Wal.bytes_discarded > 0);
  let w = Wal.writer ~dim:1 ~dir () in
  Alcotest.(check int) "opening scan sees intact prefix" 3 (Wal.records w);
  List.iter (Wal.append w) (drop 3 sample_ops);
  Wal.close w;
  let s = Wal.scan ~dim:1 ~dir () in
  Alcotest.(check int) "tail amputated, appends extend the prefix" 5 s.Wal.records;
  Alcotest.(check bool) "full trace back" true (s.Wal.ops = sample_ops);
  Alcotest.(check int) "nothing left over" 0 s.Wal.bytes_discarded

(* ------------------------------------------------------------------ *)
(* Segmented WAL: rotation, pruning, epoch fencing                     *)
(* ------------------------------------------------------------------ *)

let test_wal_rotation_roundtrip () =
  let dir = Io.mem_dir () in
  let w = Wal.writer ~dim:1 ~segment_records:2 ~dir () in
  List.iter (Wal.append w) sample_ops;
  Wal.close w;
  Alcotest.(check int) "two segments sealed" 2 (Wal.rotations w);
  (match Wal.segments ~dir with
  | [ s1; s2 ] ->
      Alcotest.(check int) "first base" 0 s1.Wal.seg_base;
      Alcotest.(check int) "first count" 2 s1.Wal.seg_count;
      Alcotest.(check int) "second base" 2 s2.Wal.seg_base;
      Alcotest.(check int) "second count" 2 s2.Wal.seg_count
  | segs -> Alcotest.failf "expected 2 segments, got %d" (List.length segs));
  let s = Wal.scan ~dim:1 ~dir () in
  Alcotest.(check int) "chain records" 5 s.Wal.records;
  Alcotest.(check int) "chain base" 0 s.Wal.base;
  Alcotest.(check bool) "ops identical across the chain" true (s.Wal.ops = sample_ops);
  (* reopening continues the chain where it left off *)
  let w2 = Wal.writer ~dim:1 ~segment_records:2 ~dir () in
  Wal.append w2 (Replay.Element (e 2. 1));
  Wal.close w2;
  let s = Wal.scan ~dim:1 ~dir () in
  Alcotest.(check int) "append extends the chain" 6 s.Wal.records;
  Alcotest.(check bool) "suffix is the new op" true
    (s.Wal.ops = sample_ops @ [ Replay.Element (e 2. 1) ])

let test_wal_prune_below_floor () =
  let dir = Io.mem_dir () in
  let w = Wal.writer ~dim:1 ~dir () in
  List.iter (Wal.append w) (List.filteri (fun i _ -> i < 3) sample_ops);
  Wal.rotate w;
  List.iter (Wal.append w) (drop 3 sample_ops);
  Wal.close w;
  Alcotest.(check int) "one sealed segment" 1 (List.length (Wal.segments ~dir));
  (* a floor inside the segment reclaims nothing: pruning is whole
     segments only, never record surgery *)
  Alcotest.(check int) "partial floor removes nothing" 0 (Wal.prune ~dir ~below:2);
  Alcotest.(check int) "covering floor removes the segment" 1 (Wal.prune ~dir ~below:3);
  Alcotest.(check int) "no cold segments left" 0 (List.length (Wal.segments ~dir));
  let s = Wal.scan ~dim:1 ~dir () in
  Alcotest.(check int) "surviving records" 2 s.Wal.records;
  Alcotest.(check int) "base reflects the pruned prefix" 3 s.Wal.base;
  Alcotest.(check bool) "surviving ops are the suffix" true (s.Wal.ops = drop 3 sample_ops)

let test_wal_epoch_fencing () =
  let dir = Io.mem_dir () in
  let w = Wal.writer ~dim:1 ~epoch:3 ~dir () in
  List.iter (Wal.append w) sample_ops;
  Wal.close w;
  Alcotest.(check int) "epoch stamped in the chain" 3 (Wal.scan ~dim:1 ~dir ()).Wal.epoch;
  (match Wal.writer ~dim:1 ~epoch:2 ~dir () with
  | exception Wal.Fenced { requested = 2; found = 3 } -> ()
  | exception Wal.Fenced _ -> Alcotest.fail "Fenced carried the wrong epochs"
  | _ -> Alcotest.fail "a stale incarnation must be fenced");
  (* no epoch argument inherits the chain's *)
  let w = Wal.writer ~dim:1 ~dir () in
  Alcotest.(check int) "inherited epoch" 3 (Wal.epoch w);
  Wal.append w (Replay.Element (e 1. 1));
  Wal.close w;
  (* a successor with a higher epoch takes over and keeps the history *)
  let w = Wal.writer ~dim:1 ~epoch:7 ~dir () in
  Wal.append w (Replay.Element (e 2. 1));
  Wal.close w;
  let s = Wal.scan ~dim:1 ~dir () in
  Alcotest.(check int) "chain carries the successor epoch" 7 s.Wal.epoch;
  Alcotest.(check int) "nothing lost across the takeover" 7 s.Wal.records

let test_wal_rotation_crash_overlap () =
  (* simulate a crash between rotate's two atomic steps: the sealed
     segment exists AND the active file still holds the records it
     sealed. Scan and writer must both resolve toward the sealed copy. *)
  let a = Io.mem_dir () in
  let w = Wal.writer ~dim:1 ~segment_records:3 ~dir:a () in
  List.iter (Wal.append w) sample_ops;
  Wal.close w;
  let seg_name = Wal.segment_name 0 in
  let seg = Option.get (a.Io.read_file seg_name) in
  (* pre-rotation active image: all five records from base 0 *)
  let b = Io.mem_dir () in
  let w = Wal.writer ~dim:1 ~dir:b () in
  List.iter (Wal.append w) sample_ops;
  Wal.close w;
  b.Io.write_atomic seg_name seg;
  let s = Wal.scan ~dim:1 ~dir:b () in
  Alcotest.(check int) "overlap deduplicated" 5 s.Wal.records;
  Alcotest.(check bool) "each op appears once" true (s.Wal.ops = sample_ops);
  let w = Wal.writer ~dim:1 ~dir:b () in
  Alcotest.(check int) "opening scan agrees" 5 (Wal.records w);
  Wal.append w (Replay.Element (e 9. 1));
  Wal.close w;
  let s = Wal.scan ~dim:1 ~dir:b () in
  Alcotest.(check int) "append extends past the resolved overlap" 6 s.Wal.records;
  Alcotest.(check bool) "no duplicated prefix" true
    (s.Wal.ops = sample_ops @ [ Replay.Element (e 9. 1) ])

let test_wal_rotation_syncs () =
  (* fsync every 3 records, rotate every 4: the rotation's sync moves
     the fsync cadence, and [synced] must follow it *)
  let dir = Io.mem_dir () in
  let w = Wal.writer ~dim:1 ~fsync_every:3 ~segment_records:4 ~dir () in
  let synced_after =
    List.map
      (fun op ->
        Wal.append w op;
        Wal.synced w)
      (sample_ops @ sample_ops)
  in
  Alcotest.(check (list int)) "cadence, then rotation, then cadence from there"
    [ 0; 0; 3; 4; 4; 4; 7; 8; 8; 8 ] synced_after;
  Wal.append w (Replay.Element (e 3. 1));
  Wal.rotate w;
  Alcotest.(check int) "an explicit rotate syncs everything" (Wal.records w) (Wal.synced w);
  Wal.close w

let test_fsync_dir_errno_classifier () =
  (* "directory fsync unsupported" errnos are swallowed; real I/O
     failures must raise — a checkpoint rename that never reached
     stable storage is data loss, not an inconvenience *)
  List.iter
    (fun err -> Alcotest.(check bool) "benign errno swallowed" false (Io.fatal_fsync_error err))
    [
      Unix.EINVAL; Unix.EBADF; Unix.ENOSYS; Unix.EOPNOTSUPP; Unix.EROFS;
      Unix.EACCES; Unix.EPERM; Unix.ENOTDIR; Unix.ENOENT;
    ];
  List.iter
    (fun err -> Alcotest.(check bool) "fatal errno raises" true (Io.fatal_fsync_error err))
    [ Unix.EIO; Unix.ENOSPC; Unix.EUNKNOWNERR 122 ];
  (* a real directory fsyncs without noise; a missing path is a no-op *)
  Io.fsync_dir (Filename.get_temp_dir_name ());
  Io.fsync_dir "/definitely/not/a/real/path"

(* ------------------------------------------------------------------ *)
(* Binary records                                                      *)
(* ------------------------------------------------------------------ *)

(* The record layout as wal.mli documents it, built independently of
   Wal: [u32 length | u32 CRC of the payload | payload]. *)
let seal_payload payload =
  let len = String.length payload in
  let b = Bytes.create (8 + len) in
  Bytes.set_int32_le b 0 (Int32.of_int len);
  Bytes.set_int32_le b 4 (Crc32.string payload);
  Bytes.blit_string payload 0 b 8 len;
  Bytes.to_string b

let reseal record = seal_payload (String.sub record 8 (String.length record - 8))

let e_record ~dim (elems : Types.elem array) =
  let per = (8 * dim) + 8 in
  let b = Bytes.create (5 + (per * Array.length elems)) in
  Bytes.set b 0 'E';
  Bytes.set_int32_le b 1 (Int32.of_int (Array.length elems));
  Array.iteri
    (fun i (el : Types.elem) ->
      let o = 5 + (i * per) in
      Array.iteri (fun k x -> Bytes.set_int64_le b (o + (8 * k)) (Int64.bits_of_float x)) el.value;
      Bytes.set_int64_le b (o + (8 * dim)) (Int64.of_int el.weight))
    elems;
  seal_payload (Bytes.to_string b)

(* "RTSWACT", a version byte, epoch, base and a CRC. *)
let active_header_bytes = 8 + 16 + 4

(* Logs as the format-1 (text) builds wrote them. *)
let text_wal_images () =
  let text_frame op =
    let payload = Replay.op_to_line op in
    Printf.sprintf "%d,%08lx,%s\n" (String.length payload) (Crc32.string payload) payload
  in
  let records = String.concat "" (List.map text_frame sample_ops) in
  let header body = Printf.sprintf "%s,%08lx\n" body (Crc32.string body) in
  [
    ("header-less text log", [ (Wal.default_file, records) ]);
    ("version-1 active header", [ (Wal.default_file, header "RTSWACT,1,0,0" ^ records) ]);
    ( "version-1 segment",
      [
        (Wal.segment_name 0, header "RTSWSEG,1,0,0,5" ^ records);
        (Wal.default_file, header "RTSWACT,1,0,5");
      ] );
  ]

let test_wal_refuses_text_format () =
  List.iter
    (fun (label, files) ->
      let dir = Io.mem_dir () in
      List.iter (fun (name, image) -> dir.Io.write_atomic name image) files;
      let refused what f =
        match f () with
        | exception Wal.Unsupported_format _ -> ()
        | _ -> Alcotest.failf "%s: %s accepted a text log" label what
      in
      refused "scan" (fun () -> ignore (Wal.scan ~dim:1 ~dir ()));
      refused "writer" (fun () -> ignore (Wal.writer ~dim:1 ~dir ()));
      refused "recover" (fun () ->
          ignore (Recovery.recover ~dim:1 ~make:(fun ~dim -> Baseline_engine.make ~dim) ~dir ()));
      refused "wrap" (fun () -> ignore (Durable.wrap ~dir (Baseline_engine.make ~dim:1)));
      List.iter
        (fun (name, image) ->
          Alcotest.(check (option string)) (label ^ ": left byte-identical") (Some image)
            (dir.Io.read_file name))
        files;
      Alcotest.(check int) (label ^ ": no file added") (List.length files)
        (List.length (dir.Io.list_files ())))
    (text_wal_images ())

(* Base images for the decoder fuzz, as (dim, records): each record with
   the ops it holds. *)
let fuzz_wal_images () =
  let one op = (Wal.frame op, [ op ]) in
  let batch ~dim elems =
    (e_record ~dim elems, Array.to_list (Array.map (fun el -> Replay.Element el) elems))
  in
  let e1 v weight = { Types.value = [| v |]; weight } in
  let e2 a b weight = { Types.value = [| a; b |]; weight } in
  let r2 =
    Replay.Register
      { Types.id = 7; rect = Types.rect_make [| (0., 1.); (neg_infinity, 2.) |]; threshold = 4 }
  in
  [|
    (1, List.map one sample_ops);
    ( 1,
      [
        batch ~dim:1 [| e1 1. 1; e1 (-0.) 3; e1 1e300 2; e1 5. 1; e1 2.5 max_int |];
        one (Replay.Terminate 3);
        batch ~dim:1 [| e1 0. 1; e1 9. 2; e1 4. 7 |];
      ] );
    (2, [ one r2; batch ~dim:2 [| e2 0. 1. 1; e2 (-3.) 1e-300 2; e2 5. 5. 9 |]; one (Replay.Terminate 7) ]);
  |]

let image_of records = String.concat "" (List.map fst records)
let ops_of records = List.concat_map snd records

let rec is_prefix p l =
  match (p, l) with
  | [], _ -> true
  | x :: p', y :: l' -> x = y && is_prefix p' l'
  | _ :: _, [] -> false

(* [scan_string] is total and its accounting adds up. *)
let scan_untrusted label ~dim image =
  match Wal.scan_string ~dim image with
  | exception e -> Alcotest.failf "%s: %s escaped the decoder" label (Printexc.to_string e)
  | s ->
      if s.Wal.records <> List.length s.Wal.ops
         || s.Wal.valid_bytes + s.Wal.bytes_discarded <> String.length image
      then Alcotest.failf "%s: scan accounting is off" label;
      s

(* Random bit flips (1-8 bits), truncations and splices of two images,
   per pinned seed: a flip or truncation yields a prefix of the original
   ops, never a different op. *)
let test_wal_mutation_fuzz () =
  let images = fuzz_wal_images () in
  let rounds = Qcheck_env.count 300 in
  List.iter
    (fun seed ->
      let rng = Prng.create ~seed in
      for round = 1 to rounds do
        let dim, ra = images.(Prng.int rng (Array.length images)) in
        let _, rb = images.(Prng.int rng (Array.length images)) in
        let a = image_of ra and b = image_of rb in
        let label kind = Printf.sprintf "seed %d round %d %s" seed round kind in
        let expect_prefix kind image =
          let s = scan_untrusted (label kind) ~dim image in
          if not (is_prefix s.Wal.ops (ops_of ra)) then
            Alcotest.failf "%s: ops are not a prefix of the original" (label kind)
        in
        let flipped = Bytes.of_string a in
        for _ = 0 to Prng.int rng 8 do
          let i = Prng.int rng (Bytes.length flipped) in
          Bytes.set flipped i (Char.chr (Char.code (Bytes.get flipped i) lxor (1 lsl Prng.int rng 8)))
        done;
        expect_prefix "flip" (Bytes.to_string flipped);
        expect_prefix "truncate" (String.sub a 0 (Prng.int rng (String.length a)));
        let cut_a = Prng.int rng (String.length a + 1) and cut_b = Prng.int rng (String.length b + 1) in
        ignore
          (scan_untrusted (label "splice")
             ~dim (String.sub a 0 cut_a ^ String.sub b cut_b (String.length b - cut_b)))
      done)
    fault_seeds

(* Forged records, most behind a recomputed CRC: each must end the
   intact prefix exactly at the forged record. *)
let test_wal_forged_records () =
  let forgeries ~dim r =
    let edit f =
      let b = Bytes.of_string r in
      f b;
      reseal (Bytes.to_string b)
    in
    let raw f =
      let b = Bytes.of_string r in
      f b;
      Bytes.to_string b
    in
    let bits = Int64.bits_of_float in
    [
      ("length over the cap", raw (fun b -> Bytes.set_int32_le b 0 1_000_001l));
      ("length 2^32 - 1", raw (fun b -> Bytes.set_int32_le b 0 (-1l)));
      ("length 0", raw (fun b -> Bytes.set_int32_le b 0 0l));
      ("unknown kind", edit (fun b -> Bytes.set b 8 'X'));
      ("one byte too long", reseal (r ^ "\000"));
      ("kind byte only", reseal (String.sub r 0 9));
    ]
    @
    match r.[8] with
    | 'E' ->
        let count = Int32.to_int (String.get_int32_le r 9) in
        [
          ("count + 1", edit (fun b -> Bytes.set_int32_le b 9 (Int32.of_int (count + 1))));
          ("count 2^32 - 1", edit (fun b -> Bytes.set_int32_le b 9 (-1l)));
          ("count 0", edit (fun b -> Bytes.set_int32_le b 9 0l));
          ("NaN coordinate", edit (fun b -> Bytes.set_int64_le b 13 (bits Float.nan)));
          ("infinite coordinate", edit (fun b -> Bytes.set_int64_le b 13 (bits infinity)));
          ("weight 0", edit (fun b -> Bytes.set_int64_le b (13 + (8 * dim)) 0L));
          ("negative weight", edit (fun b -> Bytes.set_int64_le b (13 + (8 * dim)) (-4L)));
          ("weight beyond the int range", edit (fun b -> Bytes.set_int64_le b (13 + (8 * dim)) Int64.max_int));
        ]
    | 'R' ->
        [
          ("NaN bound", edit (fun b -> Bytes.set_int64_le b 25 (bits Float.nan)));
          ("lo = hi", edit (fun b -> Bytes.set_int64_le b 25 (String.get_int64_le r 33)));
          ("id beyond the int range", edit (fun b -> Bytes.set_int64_le b 9 Int64.min_int));
        ]
    | _ -> [ ("id beyond the int range", edit (fun b -> Bytes.set_int64_le b 9 Int64.max_int)) ]
  in
  Array.iter
    (fun (dim, records) ->
      List.iteri
        (fun i (r, _) ->
          let before = List.filteri (fun j _ -> j < i) records in
          let after = List.filteri (fun j _ -> j > i) records in
          List.iter
            (fun (label, forged) ->
              let image = image_of before ^ forged ^ image_of after in
              let s = scan_untrusted label ~dim image in
              if s.Wal.ops <> ops_of before || s.Wal.valid_bytes <> String.length (image_of before)
              then Alcotest.failf "record %d, %s: not refused at the record" i label)
            (forgeries ~dim r))
        records;
      let s = scan_untrusted "unforged" ~dim (image_of records) in
      Alcotest.(check bool) "the unforged image scans whole" true
        (s.Wal.ops = ops_of records && s.Wal.bytes_discarded = 0))
    (fuzz_wal_images ())

(* 40k 3D elements are 1.28 MB of payload: more than one record may
   carry, so the writer splits the batch under the scanner's cap. *)
let test_wal_batch_over_payload_cap () =
  let dim = 3 and n = 40_000 in
  let rng = Prng.create ~seed:5 in
  let elems =
    Array.init n (fun _ ->
        { Types.value = Array.init dim (fun _ -> float_of_int (Prng.int rng 100)); weight = 1 + Prng.int rng 3 })
  in
  Alcotest.(check bool) "one record would pass the cap" true (5 + (n * ((8 * dim) + 8)) > 1_000_000);
  let dir = Io.mem_dir () in
  let cfg = { Durable.fsync_every = 64; checkpoint_every = 1_000_000 } in
  let durable, h = Durable.wrap ~config:cfg ~dir (Baseline_engine.make ~dim) in
  durable.Engine.register_batch
    (List.init 3 (fun id ->
         { Types.id; rect = Types.rect_make (Array.make dim (0., 50.)); threshold = 1000 * (id + 1) }));
  let matured = durable.Engine.feed_batch elems in
  Alcotest.(check (list int)) "every query matures" [ 0; 1; 2 ] matured;
  Alcotest.(check int) "three queries and the batch in two records" 5
    (Metrics.counter_value (durable.Engine.metrics ()) "wal_records_total");
  Durable.close h;
  let s = Wal.scan ~dim ~dir () in
  Alcotest.(check int) "every op scans back" (3 + n) s.Wal.records;
  Alcotest.(check bool) "elements bit for bit, in order" true
    (drop 3 s.Wal.ops = Array.to_list (Array.map (fun el -> Replay.Element el) elems));
  let _, r = Recovery.recover ~dim ~make:(fun ~dim -> Baseline_engine.make ~dim) ~dir () in
  Alcotest.(check int) "recovery replays the whole batch" n r.Recovery.elements_total;
  Alcotest.(check (list int)) "and re-fires its maturities" matured
    (List.sort compare (List.map snd r.Recovery.maturities))

(* An open writer keeps the chain's op count and epoch, not its opening
   scan: on a real directory, its reachable heap is the same over a
   10k-op and a 100k-op log. *)
let test_wal_writer_footprint_flat () =
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "rts-wal-footprint-%d" (Unix.getpid ()))
  in
  let dir = Io.fs_dir root in
  let grow_to ops =
    let w = Wal.writer ~fsync_every:1_000_000 ~dim:1 ~dir () in
    while Wal.records w < ops do
      Wal.append_elements w (Array.init 1000 (fun i -> e (float_of_int i) 1))
    done;
    Wal.close w
  in
  let footprint ops =
    grow_to ops;
    let w = Wal.writer ~dim:1 ~dir () in
    Alcotest.(check int) (Printf.sprintf "%d ops found" ops) ops (Wal.records w);
    let words = Obj.reachable_words (Obj.repr w) in
    Wal.close w;
    words
  in
  let small = footprint 10_000 in
  let large = footprint 100_000 in
  List.iter (fun n -> Sys.remove (Filename.concat root n)) (Array.to_list (Sys.readdir root));
  Sys.rmdir root;
  Alcotest.(check int) "writer words, 10k vs 100k ops" small large

(* The count gate: appends and bytes per op are exact at dims 1-3. *)
let test_wal_count_gate () =
  List.iter
    (fun dim ->
      let store = Io.mem_dir () in
      let sizes = ref [] in
      let dir =
        {
          store with
          Io.open_append =
            (fun name ->
              let f = store.Io.open_append name in
              {
                f with
                Io.append =
                  (fun s ->
                    sizes := String.length s :: !sizes;
                    f.Io.append s);
              });
        }
      in
      let label what = Printf.sprintf "dim %d: %s" dim what in
      let cfg = { Durable.fsync_every = 64; checkpoint_every = 1_000_000 } in
      let durable, h = Durable.wrap ~config:cfg ~dir (Baseline_engine.make ~dim) in
      let rng = Prng.create ~seed:dim in
      durable.Engine.register_batch
        (List.init 100 (fun id ->
             let side _ =
               let a = float_of_int (Prng.int rng 10) in
               (a, a +. 5.)
             in
             { Types.id; rect = Types.rect_make (Array.init dim side); threshold = 1_000_000 }));
      Alcotest.(check (list int))
        (label "one append for 100 queries, behind the active header")
        [ active_header_bytes + (100 * (8 + 17 + (16 * dim))) ]
        !sizes;
      for _ = 1 to 3 do
        sizes := [];
        let elems =
          Array.init 64 (fun _ ->
              { Types.value = Array.init dim (fun _ -> float_of_int (Prng.int rng 20)); weight = 1 + Prng.int rng 4 })
        in
        ignore (durable.Engine.feed_batch elems);
        Alcotest.(check (list int)) (label "one append per 64-element batch")
          [ 8 + 5 + (64 * ((8 * dim) + 8)) ]
          !sizes;
        let data = Option.get (store.Io.read_file Wal.default_file) in
        let record = e_record ~dim elems in
        let n = String.length record in
        Alcotest.(check bool) (label "the record is the documented layout") true
          (String.sub data (String.length data - n) n = record)
      done;
      Alcotest.(check int) (label "wal_records_total counts records") 103
        (Metrics.counter_value (durable.Engine.metrics ()) "wal_records_total");
      Durable.close h)
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Checkpoint                                                          *)
(* ------------------------------------------------------------------ *)

let sample_entries =
  [ (q ~id:1 ~threshold:7 (0., 10.), 4); (q ~id:5 ~threshold:2 (3., 4.5), 0) ]

let test_checkpoint_roundtrip () =
  let dir = Io.mem_dir () in
  let name, bytes = Checkpoint.write ~dir ~gen:3 ~dim:1 ~ops:10 ~elements:7 sample_entries in
  Alcotest.(check string) "file name" (Checkpoint.filename 3) name;
  Alcotest.(check int) "size as published: header, 2 entries of 40 bytes, CRC"
    (48 + (2 * 40) + 4) bytes;
  Alcotest.(check int) "size on disk" bytes
    (String.length (Option.get (dir.Io.read_file name)));
  let meta, entries = Checkpoint.load ~dir name in
  Alcotest.(check int) "gen" 3 meta.Checkpoint.gen;
  Alcotest.(check int) "dim" 1 meta.Checkpoint.dim;
  Alcotest.(check int) "ops" 10 meta.Checkpoint.ops;
  Alcotest.(check int) "elements" 7 meta.Checkpoint.elements;
  Alcotest.(check int) "count" 2 meta.Checkpoint.count;
  Alcotest.(check bool) "entries identical" true (entries = sample_entries);
  let meta', entries' = Checkpoint.load ~dir (Checkpoint.filename 3) in
  Alcotest.(check bool) "load is stable" true (meta' = meta && entries' = entries)

let expect_corrupt label f =
  match f () with
  | exception Checkpoint.Corrupt _ -> ()
  | _ -> Alcotest.fail (label ^ ": should raise Corrupt")

(* No single-bit flip anywhere in the file — header metadata included —
   may yield a DIFFERENT valid checkpoint. This is what the
   header-covering CRC buys: a flipped [ops] bit can no longer
   masquerade as a valid checkpoint at the wrong position. (A flip that
   loads to the identical state would be allowed to succeed; CRC-32
   catches every single-bit flip, so none does.) *)
let test_checkpoint_detects_every_bit_flip () =
  let dir = Io.mem_dir () in
  let name, _ = Checkpoint.write ~dir ~gen:0 ~dim:1 ~ops:10 ~elements:7 sample_entries in
  let image = Option.get (dir.Io.read_file name) in
  let original = Checkpoint.load ~dir name in
  for byte = 0 to String.length image - 1 do
    for bit = 0 to 7 do
      let b = Bytes.of_string image in
      Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl bit)));
      let d = Io.mem_dir () in
      d.Io.write_atomic name (Bytes.to_string b);
      match Checkpoint.load ~dir:d name with
      | exception Checkpoint.Corrupt _ -> ()
      | loaded ->
          if loaded <> original then
            Alcotest.failf "bit %d of byte %d: flip yielded a different valid checkpoint"
              bit byte
    done
  done

let test_checkpoint_detects_every_truncation () =
  let dir = Io.mem_dir () in
  let name, _ = Checkpoint.write ~dir ~gen:0 ~dim:1 ~ops:10 ~elements:7 sample_entries in
  let image = Option.get (dir.Io.read_file name) in
  for len = 0 to String.length image - 1 do
    let d = Io.mem_dir () in
    d.Io.write_atomic name (String.sub image 0 len);
    expect_corrupt (Printf.sprintf "truncated to %d bytes" len) (fun () ->
        Checkpoint.load ~dir:d name)
  done

let test_checkpoint_semantic_validation () =
  let dir = Io.mem_dir () in
  expect_corrupt "missing file" (fun () -> Checkpoint.load ~dir "nope.ckpt");
  (* consumed >= threshold is nonsense: the query would already have matured *)
  let name, _ =
    Checkpoint.write ~dir ~gen:0 ~dim:1 ~ops:1 ~elements:0
      [ (q ~id:1 ~threshold:3 (0., 1.), 3) ]
  in
  expect_corrupt "consumed >= threshold" (fun () -> Checkpoint.load ~dir name);
  let name, _ =
    Checkpoint.write ~dir ~gen:1 ~dim:1 ~ops:2 ~elements:0
      [ (q ~id:1 ~threshold:3 (0., 1.), 0); (q ~id:1 ~threshold:5 (0., 2.), 1) ]
  in
  expect_corrupt "duplicate id" (fun () -> Checkpoint.load ~dir name)

let test_checkpoint_generations_and_prune () =
  let dir = Io.mem_dir () in
  List.iter
    (fun g -> ignore (Checkpoint.write ~dir ~gen:g ~dim:1 ~ops:g ~elements:0 []))
    [ 0; 1; 2; 3; 4 ];
  let f = dir.Io.open_append "checkpoint-leftover.tmp" in
  f.Io.append "interrupted atomic write";
  f.Io.close ();
  Alcotest.(check (list int)) "newest first" [ 4; 3; 2; 1; 0 ]
    (List.map fst (Checkpoint.generations ~dir));
  Checkpoint.prune ~dir;
  Alcotest.(check (list int)) "kept newest two" [ 4; 3 ]
    (List.map fst (Checkpoint.generations ~dir));
  Alcotest.(check bool) "tmp swept" true
    (not (List.mem "checkpoint-leftover.tmp" (dir.Io.list_files ())))

(* Edge values survive a write/load bit for bit: open-ended bounds,
   -0.0, a subnormal, max_float, extreme ids and thresholds. *)
let test_checkpoint_bit_exact_roundtrip () =
  let subnormal = Int64.float_of_bits 1L in
  let cuts = [| neg_infinity; -0.; subnormal; max_float; infinity |] in
  List.iter
    (fun dim ->
      let entries =
        List.mapi
          (fun i (id, threshold, consumed) ->
            let bounds = Array.init dim (fun k -> (cuts.((i + k) mod 4), cuts.(((i + k) mod 4) + 1))) in
            ({ Types.id; rect = Types.rect_make bounds; threshold }, consumed))
          [
            (min_int, max_int, max_int - 1);
            (max_int, max_int - 1, 0);
            (0, 1, 0);
            (-1, max_int, 12345);
            (42, max_int - 7, max_int - 8);
          ]
      in
      let dir = Io.mem_dir () in
      let name, _ = Checkpoint.write ~dir ~gen:max_int ~dim ~ops:max_int ~elements:(max_int - 1) entries in
      let meta, loaded = Checkpoint.load ~dir name in
      Alcotest.(check (list int)) "meta" [ max_int; dim; max_int; max_int - 1; 5 ]
        [ meta.Checkpoint.gen; meta.dim; meta.ops; meta.elements; meta.count ];
      let bits (q : Types.query) =
        Array.to_list (Array.map Int64.bits_of_float (Array.append q.rect.lo q.rect.hi))
      in
      List.iter2
        (fun ((q : Types.query), c) ((q' : Types.query), c') ->
          Alcotest.(check (list int)) "ints" [ q.id; q.threshold; c ] [ q'.id; q'.threshold; c' ];
          Alcotest.(check (list int64)) "bounds bit-identical" (bits q) (bits q'))
        entries loaded)
    (* 1500: engines take any dimension, so the writer must too, or a
       durable run would die at its first checkpoint *)
    [ 1; 2; 3; 1500 ]

(* A format-1 text checkpoint, as older builds wrote it (its own CRC
   included): [RTSCKPT,1,gen,dim,ops,elements,count,crc] then one
   [consumed,id,threshold,lo,hi] line per entry. *)
let v1_text_image ~gen ~ops ~elements entries =
  let payload =
    String.concat ""
      (List.map
         (fun ((q : Types.query), consumed) ->
           Printf.sprintf "%d,%d,%d,%g,%g\n" consumed q.id q.threshold q.rect.lo.(0) q.rect.hi.(0))
         entries)
  in
  let header = Printf.sprintf "RTSCKPT,1,%d,1,%d,%d,%d" gen ops elements (List.length entries) in
  Printf.sprintf "%s,%08lx\n%s" header (Crc32.string (header ^ "\n" ^ payload)) payload

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_checkpoint_refuses_text_format () =
  List.iter
    (fun entries ->
      let dir = Io.mem_dir () in
      let name = Checkpoint.filename 0 in
      dir.Io.write_atomic name (v1_text_image ~gen:0 ~ops:3 ~elements:2 entries);
      match Checkpoint.load ~dir name with
      | exception Checkpoint.Corrupt msg ->
          if not (contains ~sub:"format 1" msg) then Alcotest.failf "message %S names no format 1" msg
      | _ -> Alcotest.fail "a text checkpoint loaded")
    [ []; sample_entries ]

(* Re-seal a forged image: recompute the trailing CRC, so the checks
   after the checksum are the ones that must catch the forgery. *)
let reseal b =
  let n = Bytes.length b in
  Bytes.set_int32_le b (n - 4) (Crc32.subbytes b ~pos:0 ~len:(n - 4));
  Bytes.to_string b

let load_image image =
  let d = Io.mem_dir () in
  d.Io.write_atomic "c.ckpt" image;
  Checkpoint.load ~dir:d "c.ckpt"

(* Only [Corrupt] may escape the decoder; anything else fails. *)
let load_untrusted label image =
  match load_image image with
  | exception Checkpoint.Corrupt _ -> `Corrupt
  | exception e -> Alcotest.failf "%s: %s escaped the decoder" label (Printexc.to_string e)
  | _ -> `Loaded

let fuzz_base_images () =
  let dir = Io.mem_dir () in
  let image name = Option.get (dir.Io.read_file name) in
  let e2 =
    [
      ({ Types.id = 3; rect = Types.rect_make [| (0., 1.); (neg_infinity, 2.) |]; threshold = 9 }, 8);
      ({ Types.id = 4; rect = Types.rect_make [| (-5., 5.); (1., infinity) |]; threshold = 1 }, 0);
    ]
  in
  [|
    image (fst (Checkpoint.write ~dir ~gen:0 ~dim:1 ~ops:10 ~elements:7 sample_entries));
    image (fst (Checkpoint.write ~dir ~gen:1 ~dim:2 ~ops:12 ~elements:3 e2));
    image (fst (Checkpoint.write ~dir ~gen:2 ~dim:1 ~ops:0 ~elements:0 []));
  |]

(* Random bit flips (1-8 bits), truncations and splices of two images,
   per pinned seed. *)
let test_checkpoint_mutation_fuzz () =
  let images = fuzz_base_images () in
  let rounds = Qcheck_env.count 300 in
  List.iter
    (fun seed ->
      let rng = Prng.create ~seed in
      for round = 1 to rounds do
        let a = images.(Prng.int rng (Array.length images)) in
        let b = images.(Prng.int rng (Array.length images)) in
        let label kind = Printf.sprintf "seed %d round %d %s" seed round kind in
        let flipped = Bytes.of_string a in
        for _ = 0 to Prng.int rng 8 do
          let i = Prng.int rng (Bytes.length flipped) in
          Bytes.set flipped i (Char.chr (Char.code (Bytes.get flipped i) lxor (1 lsl Prng.int rng 8)))
        done;
        ignore (load_untrusted (label "flip") (Bytes.to_string flipped));
        ignore (load_untrusted (label "truncate") (String.sub a 0 (Prng.int rng (String.length a))));
        let cut_a = Prng.int rng (String.length a + 1) and cut_b = Prng.int rng (String.length b + 1) in
        let spliced = String.sub a 0 cut_a ^ String.sub b cut_b (String.length b - cut_b) in
        ignore (load_untrusted (label "splice") spliced);
        (* a flip re-sealed with a fresh CRC reaches the semantic checks *)
        ignore (load_untrusted (label "resealed flip") (reseal flipped))
      done)
    fault_seeds

(* Forged headers and entries with a recomputed CRC: each must be
   refused by the check behind the checksum. Image 0 is dim 1 with two
   entries of 40 bytes from offset 48. *)
let test_checkpoint_forged_fields () =
  let base = (fuzz_base_images ()).(0) in
  let forge label edits =
    let b = Bytes.of_string base in
    List.iter (fun (off, v) -> Bytes.set_int64_le b off v) edits;
    match load_untrusted label (reseal b) with
    | `Corrupt -> ()
    | `Loaded -> Alcotest.failf "%s: forged image loaded" label
  in
  let i = Int64.of_int and bits = Int64.bits_of_float in
  let gen, dim, ops, elements, count = (8, 16, 24, 32, 40) in
  let e0, e1 = (48, 88) in
  forge "count = max_int" [ (count, i max_int) ];
  forge "count + 1" [ (count, 3L) ];
  forge "count - 1" [ (count, 1L) ];
  forge "count = -1" [ (count, -1L) ];
  (* 40 * (2 + 2^60) wraps to 80 in 63-bit arithmetic *)
  forge "count overflowing the length product" [ (count, i (2 + (1 lsl 60))) ];
  forge "count beyond the int range" [ (count, Int64.max_int) ];
  forge "dim = 0" [ (dim, 0L) ];
  forge "dim huge" [ (dim, i (1 lsl 40)) ];
  forge "dim = int64 max" [ (dim, Int64.max_int) ];
  forge "dim = 2 (payload no longer fits)" [ (dim, 2L) ];
  forge "negative gen" [ (gen, -1L) ];
  forge "negative ops" [ (ops, -1L) ];
  forge "elements > ops" [ (elements, 11L) ];
  forge "NaN lo" [ (e0 + 24, bits Float.nan) ];
  forge "NaN hi" [ (e1 + 32, bits Float.nan) ];
  forge "lo = hi" [ (e0 + 24, bits 10.) ];
  forge "lo > hi" [ (e1 + 24, bits 5.) ];
  forge "duplicate id" [ (e1, 1L) ];
  forge "consumed = threshold" [ (e0 + 16, 7L) ];
  forge "consumed > threshold" [ (e1 + 16, 3L) ];
  forge "negative consumed" [ (e1 + 16, -1L) ];
  forge "threshold = 0" [ (e1 + 8, 0L) ];
  forge "id beyond the int range" [ (e0, Int64.min_int) ];
  forge "threshold beyond the int range" [ (e0 + 8, Int64.max_int) ];
  (* a different version byte, CRC recomputed *)
  let b = Bytes.of_string base in
  Bytes.set_uint8 b 7 3;
  (match load_untrusted "version 3" (reseal b) with
  | `Corrupt -> ()
  | `Loaded -> Alcotest.fail "version 3 loaded");
  (* the unforged base still loads *)
  match load_untrusted "base" base with
  | `Loaded -> ()
  | `Corrupt -> Alcotest.fail "base image refused"

(* ------------------------------------------------------------------ *)
(* Recovery (hand-built cases)                                         *)
(* ------------------------------------------------------------------ *)

let make_baseline ~dim = Baseline_engine.make ~dim
let make_dt ~dim = Dt_engine.make ~dim

let test_recover_empty_dir () =
  let dir = Io.mem_dir () in
  let engine, r = Recovery.recover ~dim:1 ~make:make_baseline ~dir () in
  Alcotest.(check int) "no queries" 0 (engine.Engine.alive ());
  Alcotest.(check bool) "no checkpoint" true (r.Recovery.checkpoint_gen = None);
  Alcotest.(check int) "nothing durable" 0 r.Recovery.ops_total;
  Alcotest.(check int) "no maturities" 0 (List.length r.Recovery.maturities)

(* register q1(thr 4); E w2; E miss; [checkpoint @ ops 3, elements 2];
   E w2 -> matures q1 at global element ordinal 3. *)
let populated_dir () =
  let dir = Io.mem_dir () in
  let cfg = { Durable.fsync_every = 1; checkpoint_every = 3 } in
  let durable, h = Durable.wrap ~config:cfg ~dir (Baseline_engine.make ~dim:1) in
  durable.Engine.register (q ~id:1 ~threshold:4 (0., 10.));
  ignore (durable.Engine.process (e 5. 2));
  ignore (durable.Engine.process (e 20. 9));
  let matured = durable.Engine.process (e 5. 2) in
  Alcotest.(check (list int)) "q1 matured live" [ 1 ] matured;
  Durable.close h;
  dir

let test_recover_checkpoint_plus_wal_suffix () =
  let dir = populated_dir () in
  let engine, r = Recovery.recover ~dim:1 ~make:make_dt ~dir () in
  Alcotest.(check bool) "restored from gen 0" true (r.Recovery.checkpoint_gen = Some 0);
  Alcotest.(check int) "checkpoint ops" 3 r.Recovery.checkpoint_ops;
  Alcotest.(check int) "checkpoint elements" 2 r.Recovery.checkpoint_elements;
  Alcotest.(check int) "wal records" 4 r.Recovery.wal_records;
  Alcotest.(check int) "replayed past checkpoint" 1 r.Recovery.ops_replayed;
  Alcotest.(check int) "durable ops" 4 r.Recovery.ops_total;
  Alcotest.(check int) "durable elements" 3 r.Recovery.elements_total;
  Alcotest.(check (list (pair int int))) "maturity re-fired at global ordinal" [ (3, 1) ]
    r.Recovery.maturities;
  Alcotest.(check int) "q1 gone" 0 (engine.Engine.alive ())

let test_recover_skips_corrupt_newest_checkpoint () =
  let dir = populated_dir () in
  let rng = Prng.create ~seed:99 in
  (match Checkpoint.generations ~dir with
  | (_, name) :: _ -> Alcotest.(check bool) "flipped" true (Fault.flip_random_bit ~rng dir name)
  | [] -> Alcotest.fail "expected a checkpoint");
  let engine, r = Recovery.recover ~dim:1 ~make:make_baseline ~dir () in
  Alcotest.(check int) "corrupt generation skipped" 1 r.Recovery.generations_skipped;
  Alcotest.(check bool) "fell back to scratch" true (r.Recovery.checkpoint_gen = None);
  Alcotest.(check int) "full WAL replayed" 4 r.Recovery.ops_replayed;
  Alcotest.(check (list (pair int int))) "same maturity log from scratch" [ (3, 1) ]
    r.Recovery.maturities;
  Alcotest.(check int) "q1 gone" 0 (engine.Engine.alive ())

(* the populated_dir trace again, but over a rotating WAL: cold
   segments every 2 records, checkpoint at op 3 *)
let segmented_dir () =
  let dir = Io.mem_dir () in
  let cfg = { Durable.fsync_every = 1; checkpoint_every = 3 } in
  let durable, h =
    Durable.wrap ~config:cfg ~segment_records:2 ~dir (Baseline_engine.make ~dim:1)
  in
  durable.Engine.register (q ~id:1 ~threshold:4 (0., 10.));
  ignore (durable.Engine.process (e 5. 2));
  ignore (durable.Engine.process (e 20. 9));
  let matured = durable.Engine.process (e 5. 2) in
  Alcotest.(check (list int)) "q1 matured live" [ 1 ] matured;
  (h, dir)

let test_recover_checkpoint_only_dir () =
  let h, dir = segmented_dir () in
  (* publish a checkpoint covering everything, then prune: the whole
     WAL history is rotated away — only checkpoints and a bare active
     header remain on disk *)
  Durable.checkpoint_now h;
  Durable.rotate_wal h;
  Alcotest.(check bool) "segments pruned" true (Durable.prune_wal h ~below:max_int > 0);
  Durable.close h;
  Alcotest.(check int) "no cold segments left" 0 (List.length (Wal.segments ~dir));
  let s = Wal.scan ~dim:1 ~dir () in
  Alcotest.(check int) "no records left" 0 s.Wal.records;
  Alcotest.(check int) "chain base = durable ops" 4 s.Wal.base;
  let engine, r = Recovery.recover ~dim:1 ~make:make_dt ~dir () in
  Alcotest.(check bool) "restored from a checkpoint" true (r.Recovery.checkpoint_gen <> None);
  Alcotest.(check int) "nothing to replay" 0 r.Recovery.ops_replayed;
  Alcotest.(check int) "resumes after the checkpointed ops" 4 r.Recovery.ops_total;
  Alcotest.(check int) "element ordinal restored" 3 r.Recovery.elements_total;
  Alcotest.(check (list (pair int int))) "no replayed maturities" [] r.Recovery.maturities;
  Alcotest.(check int) "q1 matured before the checkpoint" 0 (engine.Engine.alive ());
  (* continuation over the pruned chain (base > 0) carries the report
     and keeps global element ordinals intact *)
  let cfg = { Durable.fsync_every = 1; checkpoint_every = 100 } in
  let durable2, h2 = Durable.wrap ~config:cfg ~report:r ~segment_records:2 ~dir engine in
  durable2.Engine.register (q ~id:2 ~threshold:3 (0., 10.));
  let m = durable2.Engine.process (e 5. 3) in
  Alcotest.(check (list int)) "continuation matures" [ 2 ] m;
  Durable.close h2;
  let _, r2 = Recovery.recover ~dim:1 ~make:make_dt ~dir () in
  Alcotest.(check int) "chain replays only the continuation" 2 r2.Recovery.ops_replayed;
  Alcotest.(check (list (pair int int)))
    "maturity re-fired at the global ordinal" [ (4, 2) ] r2.Recovery.maturities

let test_recover_empty_newest_segment () =
  let h, dir = segmented_dir () in
  (* the newest link of the chain — the active file — is a bare header:
     the last append landed exactly on a rotation boundary *)
  Durable.rotate_wal h;
  Durable.close h;
  let s = Wal.scan ~dim:1 ~dir () in
  Alcotest.(check int) "records intact in cold segments" 4 s.Wal.records;
  Alcotest.(check int) "active file holds nothing" 2
    (List.length (Wal.segments ~dir));
  let engine, r = Recovery.recover ~dim:1 ~make:make_baseline ~dir () in
  Alcotest.(check bool) "restored from gen 0" true (r.Recovery.checkpoint_gen = Some 0);
  Alcotest.(check int) "replayed the post-checkpoint suffix" 1 r.Recovery.ops_replayed;
  Alcotest.(check int) "durable ops" 4 r.Recovery.ops_total;
  Alcotest.(check (list (pair int int))) "maturity re-fired" [ (3, 1) ]
    r.Recovery.maturities;
  Alcotest.(check int) "q1 gone" 0 (engine.Engine.alive ())

(* A directory left by a text-checkpoint build: its only checkpoint is
   format 1. Recovery skips it like any corrupt generation and rebuilds
   from the whole WAL. *)
let test_recover_skips_text_checkpoint () =
  let dir = populated_dir () in
  (match Checkpoint.generations ~dir with
  | [ (0, name) ] ->
      dir.Io.write_atomic name
        (v1_text_image ~gen:0 ~ops:3 ~elements:2 [ (q ~id:1 ~threshold:4 (0., 10.), 2) ])
  | _ -> Alcotest.fail "expected exactly generation 0");
  let engine, r = Recovery.recover ~dim:1 ~make:make_dt ~dir () in
  Alcotest.(check int) "text generation skipped" 1 r.Recovery.generations_skipped;
  Alcotest.(check bool) "no checkpoint used" true (r.Recovery.checkpoint_gen = None);
  Alcotest.(check int) "full WAL replayed" 4 r.Recovery.ops_replayed;
  Alcotest.(check (list (pair int int))) "same maturity log from the WAL" [ (3, 1) ]
    r.Recovery.maturities;
  Alcotest.(check int) "q1 gone" 0 (engine.Engine.alive ())

(* The same text generation over a pruned chain: the WAL no longer
   holds the ops the refused checkpoints covered, so recovery must
   refuse instead of replaying from the chain's base with no state. *)
let test_recover_refuses_gap_below_wal_base () =
  let text_over dir names =
    List.iter
      (fun name ->
        dir.Io.write_atomic name
          (v1_text_image ~gen:0 ~ops:3 ~elements:2 [ (q ~id:1 ~threshold:4 (0., 10.), 2) ]))
      names
  in
  let pruned () =
    let h, dir = segmented_dir () in
    Durable.checkpoint_now h;
    Durable.rotate_wal h;
    Alcotest.(check bool) "segments pruned" true (Durable.prune_wal h ~below:max_int > 0);
    Durable.close h;
    Alcotest.(check int) "chain base" 4 (Wal.scan ~dim:1 ~dir ()).Wal.base;
    (dir, List.map snd (Checkpoint.generations ~dir))
  in
  let expect_gap label dir ~checkpoint_ops =
    match Recovery.recover ~dim:1 ~make:make_dt ~dir () with
    | exception Recovery.Gap g ->
        Alcotest.(check (pair int int)) label (checkpoint_ops, 4) (g.checkpoint_ops, g.wal_base)
    | _ -> Alcotest.failf "%s: recovered across a gap" label
  in
  (* every generation refused: nothing reaches op 4 *)
  let dir, names = pruned () in
  Alcotest.(check int) "two generations" 2 (List.length names);
  text_over dir names;
  expect_gap "no valid checkpoint" dir ~checkpoint_ops:0;
  (* only the newest refused: the older one stops at op 3 *)
  let dir, names = pruned () in
  text_over dir [ List.hd names ];
  expect_gap "older checkpoint below the base" dir ~checkpoint_ops:3

let test_recover_dim_mismatch () =
  let dir = Io.mem_dir () in
  ignore (Checkpoint.write ~dir ~gen:0 ~dim:2 ~ops:0 ~elements:0 []);
  match Recovery.recover ~dim:1 ~make:make_baseline ~dir () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "dimension mismatch should raise"

let test_recovery_metrics () =
  let dir = populated_dir () in
  let _, r = Recovery.recover ~dim:1 ~make:make_baseline ~dir () in
  let m = Recovery.metrics r in
  Alcotest.(check int) "ops replayed" 1 (Metrics.counter_value m "recovery_ops_replayed");
  Alcotest.(check int) "bytes discarded" 0 (Metrics.counter_value m "recovery_bytes_discarded");
  Alcotest.(check int) "generations skipped" 0
    (Metrics.counter_value m "recovery_generations_skipped");
  Alcotest.(check bool) "gen gauge" true
    (Metrics.get m "recovery_checkpoint_gen" = Some (Metrics.Gauge 0.))

(* ------------------------------------------------------------------ *)
(* Durable wrapper                                                     *)
(* ------------------------------------------------------------------ *)

(* Building valid terminate ops requires knowing maturities; record from
   a live engine (same recipe as test_replay). *)
let trace seed steps =
  let log = ref [] in
  let engine =
    Replay.recording ~sink:(fun op -> log := op :: !log) (Baseline_engine.make ~dim:1)
  in
  let rng = Prng.create ~seed in
  let alive = ref [] and next = ref 0 in
  for _ = 1 to steps do
    if Prng.bernoulli rng 0.2 || !alive = [] then begin
      let a = float_of_int (Prng.int rng 20) in
      engine.Engine.register
        (q ~id:!next ~threshold:(1 + Prng.int rng 40)
           (a, a +. 1. +. float_of_int (Prng.int rng 10)));
      alive := !next :: !alive;
      incr next
    end;
    if !alive <> [] && Prng.bernoulli rng 0.05 then begin
      let v = List.nth !alive (Prng.int rng (List.length !alive)) in
      engine.Engine.terminate v;
      alive := List.filter (fun i -> i <> v) !alive
    end;
    let matured =
      engine.Engine.process
        { Types.value = [| float_of_int (Prng.int rng 25) |]; weight = 1 + Prng.int rng 5 }
    in
    alive := List.filter (fun i -> not (List.mem i matured)) !alive
  done;
  List.rev !log

let test_durable_is_transparent () =
  let ops = trace 7 400 in
  let reference = Replay.replay_ops (Baseline_engine.make ~dim:1) ops in
  let dir = Io.mem_dir () in
  let cfg = { Durable.fsync_every = 4; checkpoint_every = 64 } in
  let durable, h = Durable.wrap ~config:cfg ~dir (Dt_engine.make ~dim:1) in
  let o = Replay.replay_ops durable ops in
  Alcotest.(check (list (pair int int))) "maturity log unchanged"
    reference.Replay.maturities o.Replay.maturities;
  let m = durable.Engine.metrics () in
  Alcotest.(check int) "every op logged" (List.length ops)
    (Metrics.counter_value m "wal_records_total");
  Alcotest.(check bool) "checkpoints taken" true
    (Metrics.counter_value m "checkpoints_total" >= List.length ops / 64);
  Alcotest.(check bool) "fsyncs batched" true
    (Metrics.counter_value m "wal_fsyncs_total" < List.length ops);
  Durable.close h;
  let s = Wal.scan ~dim:1 ~dir () in
  Alcotest.(check int) "all records durable after close" (List.length ops) s.Wal.records;
  Alcotest.(check bool) "log is the trace" true (s.Wal.ops = ops)

let test_durable_register_batch_checkpoint_boundary () =
  (* A checkpoint may only cover op counts at batch boundaries: taking
     one mid-batch would replay the batch's tail over already-live ids. *)
  let dir = Io.mem_dir () in
  let cfg = { Durable.fsync_every = 1; checkpoint_every = 2 } in
  let durable, h = Durable.wrap ~config:cfg ~dir (Baseline_engine.make ~dim:1) in
  durable.Engine.register_batch
    (List.map (fun id -> q ~id ~threshold:5 (0., 10.)) [ 1; 2; 3; 4; 5 ]);
  Alcotest.(check int) "one checkpoint for the whole batch" 1
    (Metrics.counter_value (durable.Engine.metrics ()) "checkpoints_total");
  Durable.close h;
  let engine, r = Recovery.recover ~dim:1 ~make:make_baseline ~dir () in
  Alcotest.(check int) "checkpoint covers the full batch" 5 r.Recovery.checkpoint_ops;
  Alcotest.(check int) "all five alive" 5 (engine.Engine.alive ());
  Alcotest.(check int) "nothing replayed twice" 0 r.Recovery.ops_replayed

let test_durable_checkpoint_due () =
  let dir = Io.mem_dir () in
  let cfg = { Durable.fsync_every = 2; checkpoint_every = 5 } in
  let durable, h = Durable.wrap ~config:cfg ~dir (Baseline_engine.make ~dim:1) in
  let due = ref [] in
  for i = 1 to 5 do
    ignore (Durable.apply h (Replay.Element (e (float_of_int i) 1)));
    due := Durable.checkpoint_due h :: !due
  done;
  Alcotest.(check (list bool)) "due at exactly checkpoint_every ops"
    [ false; false; false; false; true ] (List.rev !due);
  Durable.checkpoint_now h;
  Alcotest.(check bool) "not due right after a checkpoint" false (Durable.checkpoint_due h);
  Alcotest.(check int) "checkpoint floor" 5 (Durable.last_checkpoint_ops h);
  (* the wrapped engine checkpoints on the same predicate *)
  for i = 1 to 4 do
    ignore (durable.Engine.process (e (float_of_int i) 1))
  done;
  Alcotest.(check int) "wrapper: 4 ops, no checkpoint yet" 1
    (Metrics.counter_value (durable.Engine.metrics ()) "checkpoints_total");
  ignore (durable.Engine.process (e 5. 1));
  Alcotest.(check int) "wrapper: checkpoint at the 5th op" 2
    (Metrics.counter_value (durable.Engine.metrics ()) "checkpoints_total");
  Alcotest.(check int) "wrapper: floor follows" 10 (Durable.last_checkpoint_ops h);
  Durable.close h

let test_durable_apply_never_checkpoints () =
  let ops = trace 9 60 in
  let dir = Io.mem_dir () in
  let every = 4 in
  let cfg = { Durable.fsync_every = 3; checkpoint_every = every } in
  let durable, h = Durable.wrap ~config:cfg ~dir (Dt_engine.make ~dim:1) in
  let checkpoints () =
    Metrics.counter_value (durable.Engine.metrics ()) "checkpoints_total"
  in
  let applied = List.filteri (fun i _ -> i < 3 * every) ops in
  let matured = List.concat_map (fun op -> Durable.apply h op) applied in
  Alcotest.(check int) "no checkpoint across 3 x checkpoint_every applies" 0 (checkpoints ());
  Alcotest.(check bool) "but one is due" true (Durable.checkpoint_due h);
  Alcotest.(check int) "floor unmoved" 0 (Durable.last_checkpoint_ops h);
  let prefix = Replay.replay_ops (Baseline_engine.make ~dim:1) applied in
  Alcotest.(check (list int)) "apply returns the engine's maturities"
    (List.map snd prefix.Replay.maturities) matured;
  Alcotest.(check int) "the fsync cadence still runs" (3 * every) (Durable.synced h);
  Durable.close h;
  let s = Wal.scan ~dim:1 ~dir () in
  Alcotest.(check bool) "every applied op logged" true (s.Wal.ops = applied)

let test_durable_bad_config () =
  let dir = Io.mem_dir () in
  let bad cfg =
    match Durable.wrap ~config:cfg ~dir (Baseline_engine.make ~dim:1) with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "bad config should raise"
  in
  bad { Durable.fsync_every = 0; checkpoint_every = 1 };
  bad { Durable.fsync_every = 1; checkpoint_every = 0 }

(* An element the WAL scanner would refuse never reaches the log: the
   engine refuses it first, so the ops after it stay recoverable. *)
let test_durable_refuses_unloggable_element () =
  let dir = Io.mem_dir () in
  let durable, h = Durable.wrap ~dir (Baseline_engine.make ~dim:1) in
  durable.Engine.register (q ~id:1 ~threshold:5 (0., 10.));
  let refused label f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted" label
  in
  refused "+inf" (fun () -> durable.Engine.process (e infinity 1));
  refused "-inf" (fun () -> durable.Engine.process (e neg_infinity 1));
  refused "batch with +inf" (fun () -> durable.Engine.feed_batch [| e 1. 1; e infinity 1 |]);
  ignore (durable.Engine.process (e 1. 1));
  Durable.close h;
  let s = Wal.scan ~dim:1 ~dir () in
  Alcotest.(check int) "every logged op scans back" 2 s.Wal.records;
  Alcotest.(check int) "nothing discarded" 0 s.Wal.bytes_discarded

(* A refused batch logs nothing and registers nothing, so recovery
   lands on the same alive set as a run without the batch. *)
let test_durable_refused_batch_recovers () =
  List.iter
    (fun name ->
      let make ~dim = Engine_registry.make ~name ~dim in
      let dir = Io.mem_dir () in
      let durable, h = Durable.wrap ~dir (make ~dim:1) in
      durable.Engine.register (q ~id:1 ~threshold:5 (0., 10.));
      ignore (durable.Engine.process (e 1. 2));
      let before = durable.Engine.alive_snapshot () in
      (match
         durable.Engine.register_batch
           [ q ~id:2 ~threshold:3 (0., 4.); q ~id:3 ~threshold:3 (1., 4.); q ~id:2 ~threshold:3 (0., 4.) ]
       with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.failf "%s: a batch repeating id 2 was accepted" name);
      Alcotest.(check bool) (name ^ ": live engine unchanged") true
        (durable.Engine.alive_snapshot () = before);
      Durable.close h;
      let engine, r = Recovery.recover ~dim:1 ~make ~dir () in
      Alcotest.(check int) (name ^ ": nothing logged for the batch") 2 r.Recovery.ops_total;
      Alcotest.(check bool) (name ^ ": recovered alive set as without the batch") true
        (engine.Engine.alive_snapshot () = before))
    [ "baseline"; "dt"; "interval-tree"; "r-tree" ]

(* ------------------------------------------------------------------ *)
(* Checkpoint cadence and restart reads                                *)
(* ------------------------------------------------------------------ *)

(* A store that counts the bytes appended to the WAL and logs each
   checkpoint publication as (WAL bytes appended by then, image size),
   newest first. *)
let cadence_store () =
  let store = Io.mem_dir () in
  let wal_bytes = ref 0 and published = ref [] in
  let dir =
    {
      store with
      Io.open_append =
        (fun name ->
          let f = store.Io.open_append name in
          if name <> Wal.default_file then f
          else
            {
              f with
              Io.append =
                (fun s ->
                  f.Io.append s;
                  wal_bytes := !wal_bytes + String.length s);
            });
      write_atomic =
        (fun name data ->
          store.Io.write_atomic name data;
          if Checkpoint.parse_filename name <> None then
            published := (!wal_bytes, String.length data) :: !published);
    }
  in
  (dir, wal_bytes, published)

(* The cli_wal shape: 10,000 1D queries, then 256 batches of 64
   elements, the default op floor. No query can mature (thresholds
   exceed the stream's total weight), so every checkpoint is 48 + 10,000
   x 40 + 4 = 400,052 bytes, and each batch is one 1,037-byte record.
   The set-up checkpoint is the first; the next waits for 200,026 WAL
   bytes, which batch 193 reaches (2 x 193 x 1,037 = 400,282). A
   checkpoint every 1,024 ops would take 17. *)
let test_cadence_cli_wal_shape () =
  let dir, _, published = cadence_store () in
  let cfg = { Durable.fsync_every = 64; checkpoint_every = 1024 } in
  let durable, h = Durable.wrap ~config:cfg ~dir (Dt_engine.make ~dim:1) in
  let rng = Prng.create ~seed:1 in
  durable.Engine.register_batch
    (List.init 10_000 (fun id ->
         let a = float_of_int (Prng.int rng 1000) in
         q ~id ~threshold:(2_000_000 + Prng.int rng 2_000_000) (a, a +. 1. +. float_of_int (Prng.int rng 50))));
  for _ = 1 to 256 do
    let batch = Array.init 64 (fun _ -> e (float_of_int (Prng.int rng 1050)) (1 + Prng.int rng 100)) in
    Alcotest.(check (list int)) "nothing matures" [] (durable.Engine.feed_batch batch)
  done;
  Alcotest.(check int) "two checkpoints: set-up and batch 193" 2
    (Metrics.counter_value (durable.Engine.metrics ()) "checkpoints_total");
  Alcotest.(check int) "the second covers 193 batches" (10_000 + (193 * 64))
    (Durable.last_checkpoint_ops h);
  Alcotest.(check (list int)) "each image is the full snapshot" [ 400_052; 400_052 ]
    (List.map snd !published);
  Durable.close h

type cadence_case = { seed : int; dim : int; floor : int; steps : int }

let pp_cadence_case c =
  Printf.sprintf "{seed=%d; dim=%d; floor=%d; steps=%d}" c.seed c.dim c.floor c.steps

(* A random stream of registrations (single and batched), terminations,
   single elements and element batches through the wrapped DT engine.
   Checked at every checkpoint: it comes at least [floor] ops and half
   the previous image's bytes of WAL after the previous one. Checked
   after every op or batch: the WAL past the newest checkpoint stays
   below the larger of the bytes the floor's ops took and half that
   checkpoint, plus the step's own record. *)
let run_cadence_case c =
  let dir, wal_bytes, published = cadence_store () in
  let cfg = { Durable.fsync_every = 8; checkpoint_every = c.floor } in
  let durable, h = Durable.wrap ~config:cfg ~dir (Dt_engine.make ~dim:c.dim) in
  let rng = Prng.create ~seed:c.seed in
  let alive = ref [] and next = ref 0 and ops = ref 0 in
  let query () =
    let id = !next in
    incr next;
    alive := id :: !alive;
    let side _ =
      let a = float_of_int (Prng.int rng 20) in
      (a, a +. 1. +. float_of_int (Prng.int rng 10))
    in
    { Types.id; rect = Types.rect_make (Array.init c.dim side); threshold = 1 + Prng.int rng 400 }
  in
  let elem () =
    { Types.value = Array.init c.dim (fun _ -> float_of_int (Prng.int rng 30)); weight = 1 + Prng.int rng 5 }
  in
  let gone ids = alive := List.filter (fun i -> not (List.mem i ids)) !alive in
  let fail fmt = Printf.ksprintf (fun m -> QCheck.Test.fail_reportf "%s: %s" (pp_cadence_case c) m) fmt in
  let last_ops = ref 0 and last_at = ref 0 and last_size = ref 0 in
  let floor_bytes = ref None and seen = ref 0 in
  for step = 1 to c.steps do
    let before = !wal_bytes in
    let n =
      match Prng.int rng 10 with
      | 0 ->
          let qs = List.init (1 + Prng.int rng 40) (fun _ -> query ()) in
          durable.Engine.register_batch qs;
          List.length qs
      | 1 ->
          durable.Engine.register (query ());
          1
      | 2 when !alive <> [] ->
          let v = List.nth !alive (Prng.int rng (List.length !alive)) in
          durable.Engine.terminate v;
          gone [ v ];
          1
      | 3 | 4 ->
          gone (durable.Engine.process (elem ()));
          1
      | _ ->
          let es = Array.init (1 + Prng.int rng 64) (fun _ -> elem ()) in
          gone (durable.Engine.feed_batch es);
          Array.length es
    in
    ops := !ops + n;
    let record = !wal_bytes - before in
    (match !published with
    | (at, size) :: _ when List.length !published > !seen ->
        if List.length !published > !seen + 1 then fail "step %d: two checkpoints" step;
        seen := List.length !published;
        if !ops - !last_ops < c.floor then
          fail "step %d: checkpoint %d ops after the previous one" step (!ops - !last_ops);
        if 2 * (at - !last_at) < !last_size then
          fail "step %d: checkpoint after %d WAL bytes, previous image %d bytes" step
            (at - !last_at) !last_size;
        last_ops := !ops;
        last_at := at;
        last_size := size;
        floor_bytes := None
    | _ -> ());
    let since = !wal_bytes - !last_at in
    if !floor_bytes = None && !ops - !last_ops >= c.floor then floor_bytes := Some since;
    let bound = max (Option.value !floor_bytes ~default:since) (!last_size / 2) + record in
    if since >= bound then fail "step %d: %d WAL bytes past the checkpoint, bound %d" step since bound;
    if Durable.checkpoint_due h then fail "step %d: a due checkpoint was not taken" step
  done;
  Durable.close h;
  true

let prop_checkpoint_cadence =
  let gen =
    QCheck.Gen.(
      let* seed = int_bound 1_000_000 in
      let* dim = int_range 1 3 in
      let* floor = int_range 1 64 in
      let+ steps = int_range 20 160 in
      { seed; dim; floor; steps })
  in
  QCheck.Test.make ~count:(Qcheck_env.count 60) ~name:"checkpoint cadence: floor, half image, replay bound"
    (QCheck.make ~print:pp_cadence_case gen)
    run_cadence_case

(* Recover, then wrap with the report, over a counting store: the WAL
   writer opens from recovery's scan, so each WAL file is read once. *)
let restart_reads store ~segment_records =
  let reads = Hashtbl.create 8 in
  let dir =
    {
      store with
      Io.read_file =
        (fun name ->
          Hashtbl.replace reads name (1 + Option.value ~default:0 (Hashtbl.find_opt reads name));
          store.Io.read_file name);
    }
  in
  let engine, report = Recovery.recover ~dim:1 ~make:make_baseline ~dir () in
  let cfg = { Durable.fsync_every = 1; checkpoint_every = 4 } in
  let durable, h = Durable.wrap ~config:cfg ~report ~segment_records ~dir engine in
  let count name = Option.value ~default:0 (Hashtbl.find_opt reads name) in
  Alcotest.(check int) "one read of wal.log" 1 (count Wal.default_file);
  List.iter
    (fun seg -> Alcotest.(check int) ("one read of " ^ seg.Wal.seg_file) 1 (count seg.Wal.seg_file))
    (Wal.segments ~dir:store);
  (durable, h, report)

let test_restart_reads_wal_once () =
  (* a rotated chain with a checkpoint and a torn active tail *)
  let store = Io.mem_dir () in
  let cfg = { Durable.fsync_every = 1; checkpoint_every = 4 } in
  let durable, h =
    Durable.wrap ~config:cfg ~segment_records:3 ~dir:store (Baseline_engine.make ~dim:1)
  in
  durable.Engine.register (q ~id:1 ~threshold:100 (0., 10.));
  for i = 1 to 8 do
    ignore (durable.Engine.process (e (float_of_int i) 1))
  done;
  Durable.close h;
  Alcotest.(check int) "three cold segments" 3 (List.length (Wal.segments ~dir:store));
  let f = store.Io.open_append Wal.default_file in
  f.Io.append (String.sub (Wal.frame (Replay.Element (e 0.5 1))) 0 10);
  f.Io.close ();
  let durable, h, report = restart_reads store ~segment_records:3 in
  Alcotest.(check int) "recovery saw the torn tail" 10 report.Recovery.bytes_discarded;
  ignore (durable.Engine.process (e 9. 1));
  Durable.close h;
  let s = Wal.scan ~dim:1 ~dir:store () in
  Alcotest.(check int) "tail amputated, the append extends the chain" 10 (s.Wal.base + s.Wal.records);
  Alcotest.(check int) "nothing left over" 0 s.Wal.bytes_discarded;
  (* the rotation crash window: the sealed segment and the active file
     both hold the same records *)
  let a = Io.mem_dir () in
  let w = Wal.writer ~dim:1 ~segment_records:3 ~dir:a () in
  List.iter (Wal.append w) sample_ops;
  Wal.close w;
  let b = Io.mem_dir () in
  let w = Wal.writer ~dim:1 ~dir:b () in
  List.iter (Wal.append w) sample_ops;
  Wal.close w;
  b.Io.write_atomic (Wal.segment_name 0) (Option.get (a.Io.read_file (Wal.segment_name 0)));
  let durable, h, _ = restart_reads b ~segment_records:0 in
  ignore (durable.Engine.process (e 9. 1));
  Durable.close h;
  let s = Wal.scan ~dim:1 ~dir:b () in
  Alcotest.(check bool) "overlap resolved once, the append extends it" true
    (s.Wal.ops = sample_ops @ [ Replay.Element (e 9. 1) ])

(* ------------------------------------------------------------------ *)
(* Crash equivalence                                                   *)
(* ------------------------------------------------------------------ *)

(* Feed ops one by one, collecting (global element ordinal, id)
   maturities, stopping silently at the simulated Crash. Returns the log
   and the number of elements whose processing COMPLETED (an op killed
   mid-flight never returns its maturities to the caller, exactly like a
   real producer). *)
let feed engine ops ~base =
  let log = ref [] and elems = ref base in
  (try
     List.iter
       (fun op ->
         match op with
         | Replay.Element el ->
             let matured = engine.Engine.process el in
             incr elems;
             List.iter (fun id -> log := (!elems, id) :: !log) matured
         | Replay.Register qq -> engine.Engine.register qq
         | Replay.Terminate id -> engine.Engine.terminate id)
       ops
   with Fault.Crash _ -> ());
  (List.rev !log, !elems)

type crash_case = {
  trace_seed : int;
  fault_seed : int;
  nops : int;
  crash_at : int;
  torn : bool;
  bit_flip : bool;
  crash_at_atomic : int option;
  damage_checkpoint : bool;
  checkpoint_every : int;
  fsync_every : int;
  engine : string; (* "baseline" | "dt" *)
}

let pp_case c =
  Printf.sprintf
    "trace_seed=%d fault_seed=%d nops=%d crash_at=%d torn=%b bit_flip=%b atomic=%s \
     damage_ckpt=%b ckpt_every=%d fsync_every=%d engine=%s"
    c.trace_seed c.fault_seed c.nops c.crash_at c.torn c.bit_flip
    (match c.crash_at_atomic with None -> "-" | Some k -> string_of_int k)
    c.damage_checkpoint c.checkpoint_every c.fsync_every c.engine

(* The property. One full crash/recovery/continuation cycle:

   1. run the trace through a Durable engine over a fault-injected
      mem_dir until the simulated machine dies;
   2. check the pre-crash live maturity log matched the reference;
   3. optionally flip a random bit of the newest checkpoint at rest;
   4. recover from what survived;
   5. resume the trace from [report.ops_total + 1] through a fresh
      Durable wrapper over the same store;
   6. the replayed + continued maturity log must equal the reference
      log restricted to ordinals past the restored checkpoint. *)
let run_crash_case c =
  let make = if c.engine = "dt" then make_dt else make_baseline in
  let ops = trace c.trace_seed c.nops in
  let reference = Replay.replay_ops (Baseline_engine.make ~dim:1) ops in
  let store = Io.mem_dir () in
  let rng = Prng.create ~seed:c.fault_seed in
  let fdir =
    Fault.wrap ~rng
      {
        Fault.no_crash with
        Fault.crash_at_append = c.crash_at;
        torn = c.torn;
        bit_flip = c.bit_flip;
        crash_at_atomic = c.crash_at_atomic;
      }
      store
  in
  let cfg =
    { Durable.fsync_every = c.fsync_every; checkpoint_every = c.checkpoint_every }
  in
  let durable, _h = Durable.wrap ~config:cfg ~dir:fdir (make ~dim:1) in
  let pre_log, pre_elems = feed durable ops ~base:0 in
  let expected_pre =
    List.filter (fun (o, _) -> o <= pre_elems) reference.Replay.maturities
  in
  if pre_log <> expected_pre then
    Alcotest.failf "%s: pre-crash log diverged from reference" (pp_case c);
  if c.damage_checkpoint then
    (match Checkpoint.generations ~dir:store with
    | (_, name) :: _ -> ignore (Fault.flip_random_bit ~rng store name)
    | [] -> ());
  let engine2, report = Recovery.recover ~dim:1 ~make ~dir:store () in
  let durable2, h2 = Durable.wrap ~config:cfg ~report ~dir:store engine2 in
  let suffix = drop report.Recovery.ops_total ops in
  let cont_log, _ = feed durable2 suffix ~base:report.Recovery.elements_total in
  Durable.close h2;
  let expected =
    List.filter
      (fun (o, _) -> o > report.Recovery.checkpoint_elements)
      reference.Replay.maturities
  in
  let got = report.Recovery.maturities @ cont_log in
  if got <> expected then
    Alcotest.failf "%s: recovered log diverged (expected %d maturities, got %d)" (pp_case c)
      (List.length expected) (List.length got);
  report

(* Exhaustive sweep: crash at EVERY append boundary of the trace, for
   each fixed seed, cycling torn/bit-flip so all damage shapes appear at
   many positions. *)

let test_crash_equivalence_exhaustive () =
  let nops = 60 in
  List.iter
    (fun seed ->
      let total = List.length (trace seed nops) in
      for crash_at = 1 to total + 1 do
        ignore
          (run_crash_case
             {
               trace_seed = seed;
               fault_seed = (seed * 7919) + crash_at;
               nops;
               crash_at;
               torn = crash_at mod 2 = 0;
               bit_flip = crash_at mod 3 = 0;
               crash_at_atomic = None;
               damage_checkpoint = crash_at mod 5 = 0;
               checkpoint_every = 7;
               fsync_every = 3;
               engine = (if crash_at mod 2 = 0 then "dt" else "baseline");
             })
      done)
    fault_seeds

let test_crash_during_checkpoint_publication () =
  (* Die inside write_atomic: the checkpoint either never existed or
     fully landed — recovery must cope with both (the PRNG coin picks). *)
  List.iter
    (fun (fault_seed, atomic_k) ->
      let r =
        run_crash_case
          {
            trace_seed = 23;
            fault_seed;
            nops = 60;
            crash_at = max_int;
            torn = false;
            bit_flip = false;
            crash_at_atomic = Some atomic_k;
            damage_checkpoint = false;
            checkpoint_every = 7;
            fsync_every = 1;
            engine = "dt";
          }
      in
      ignore r)
    [ (1, 1); (2, 1); (3, 2); (4, 2); (5, 3); (6, 3); (7, 4); (8, 4) ]

(* ------------------------------------------------------------------ *)
(* Silent short writes & disk full                                     *)
(* ------------------------------------------------------------------ *)

let test_short_write_final_record_amputated () =
  (* A silently short-written FINAL record is indistinguishable from a
     torn tail: the scanner amputates it and recovery resumes one op
     earlier. No error is ever raised at write time — that is the point. *)
  let store = Io.mem_dir () in
  let rng = Prng.create ~seed:42 in
  let fdir =
    Fault.wrap ~rng
      { Fault.no_crash with Fault.short_at_append = Some (List.length sample_ops) }
      store
  in
  let w = Wal.writer ~dim:1 ~dir:fdir () in
  List.iter (Wal.append w) sample_ops;
  Wal.close w;
  (* the writer believes all five landed *)
  Alcotest.(check int) "writer counted every append" 5 (Wal.appended w);
  let s = Wal.scan ~dim:1 ~dir:store () in
  Alcotest.(check int) "scanner amputates the short final record" 4 s.Wal.records;
  Alcotest.(check bool) "surviving ops are the prefix" true
    (s.Wal.ops = List.filteri (fun i _ -> i < 4) sample_ops)

let test_short_write_mid_log_ends_trusted_prefix () =
  (* A short write MID-log leaves garbage in the middle of the file:
     every later (perfectly intact) record is appended after it and is
     unreachable — the scan's trusted prefix ends before the damage. *)
  let store = Io.mem_dir () in
  let rng = Prng.create ~seed:3 in
  let fdir =
    Fault.wrap ~rng { Fault.no_crash with Fault.short_at_append = Some 3 } store
  in
  let w = Wal.writer ~dim:1 ~dir:fdir () in
  List.iter (Wal.append w) sample_ops;
  Wal.close w;
  let s = Wal.scan ~dim:1 ~dir:store () in
  Alcotest.(check int) "trusted prefix ends before the short record" 2 s.Wal.records;
  Alcotest.(check bool) "everything after the damage is discarded" true
    (s.Wal.bytes_discarded > 0);
  Alcotest.(check bool) "ops are the intact prefix" true
    (s.Wal.ops = List.filteri (fun i _ -> i < 2) sample_ops)

let test_short_write_then_crash_equivalence () =
  (* The combined-fault shape the serving soak leans on: a record is
     silently short-written, and the machine crashes shortly after.
     Recovery lands on the trusted prefix and the continuation (re-fed
     from [ops_total + 1], as any producer holding its unacknowledged
     tail would) reproduces the reference maturity log bit for bit.
     Checkpoints are disabled here: a checkpoint covering a short-written
     record bridges the hole and desynchronizes WAL record indices from
     op ordinals — callers that checkpoint must read-back-verify the WAL
     first, which is precisely what [Rts_serve.Server] does. *)
  List.iter
    (fun (fault_seed, crash_at) ->
      let ops = trace 23 60 in
      let reference = Replay.replay_ops (Baseline_engine.make ~dim:1) ops in
      let store = Io.mem_dir () in
      let rng = Prng.create ~seed:fault_seed in
      let fdir =
        Fault.wrap ~rng
          {
            Fault.no_crash with
            Fault.crash_at_append = crash_at;
            torn = true;
            short_at_append = Some (crash_at - 1);
          }
          store
      in
      let cfg = { Durable.fsync_every = 3; checkpoint_every = 100_000 } in
      let durable, _h = Durable.wrap ~config:cfg ~dir:fdir (make_dt ~dim:1) in
      let _pre = feed durable ops ~base:0 in
      let engine2, report = Recovery.recover ~dim:1 ~make:make_dt ~dir:store () in
      let durable2, h2 = Durable.wrap ~config:cfg ~report ~dir:store engine2 in
      let suffix = drop report.Recovery.ops_total ops in
      let cont_log, _ = feed durable2 suffix ~base:report.Recovery.elements_total in
      Durable.close h2;
      if report.Recovery.maturities @ cont_log <> reference.Replay.maturities then
        Alcotest.failf "seed=%d crash_at=%d: log diverged after short write + crash"
          fault_seed crash_at)
    [ (101, 10); (102, 17); (103, 25); (104, 33); (105, 41) ]

let test_enospc_sticky_and_failover () =
  let ops = trace 31 40 in
  let reference = Replay.replay_ops (Baseline_engine.make ~dim:1) ops in
  let store = Io.mem_dir () in
  let rng = Prng.create ~seed:7 in
  let k = 25 in
  let fdir =
    Fault.wrap ~rng { Fault.no_crash with Fault.enospc_at_append = Some k } store
  in
  let cfg = { Durable.fsync_every = 2; checkpoint_every = 100_000 } in
  let durable, h = Durable.wrap ~config:cfg ~dir:fdir (make_baseline ~dim:1) in
  let completed = ref 0 in
  (try
     List.iter
       (fun op ->
         (match op with
         | Replay.Element el -> ignore (durable.Engine.process el)
         | Replay.Register qq -> durable.Engine.register qq
         | Replay.Terminate id -> durable.Engine.terminate id);
         incr completed)
       ops
   with Io.No_space -> ());
  Alcotest.(check int) "the k-th logged op hits the full disk" (k - 1) !completed;
  (match durable.Engine.process (e 1. 1) with
  | exception Io.No_space -> ()
  | _ -> Alcotest.fail "ENOSPC must be sticky: later appends must raise too");
  (* the machine is alive: sync and close still work, nothing already
     appended is harmed *)
  Durable.close h;
  let s = Wal.scan ~dim:1 ~dir:store () in
  Alcotest.(check int) "every pre-ENOSPC record is durable" (k - 1) s.Wal.records;
  (* fail over: recover from the full store, continue on a fresh one *)
  let engine2, report = Recovery.recover ~dim:1 ~make:make_baseline ~dir:store () in
  Alcotest.(check int) "recovery resumes at the shed op" (k - 1)
    report.Recovery.ops_total;
  let fresh = Io.mem_dir () in
  let durable2, h2 = Durable.wrap ~config:cfg ~dir:fresh engine2 in
  let suffix = drop report.Recovery.ops_total ops in
  let cont_log, _ = feed durable2 suffix ~base:report.Recovery.elements_total in
  Durable.close h2;
  Alcotest.(check (list (pair int int))) "maturity log identical across failover"
    reference.Replay.maturities
    (report.Recovery.maturities @ cont_log)

(* Feed-batch crash equivalence. The script is a [trace] with its
   consecutive elements grouped into batches of 1-8, each fed through
   [Durable]'s [feed_batch]; register/terminate ops stay between them.
   A batch matures the same set as its elements one by one, so maturity
   logs are compared at batch granularity: each element ordinal maps to
   the ordinal that ends its batch. *)
type item = Op of Replay.op | Batch of Types.elem array

let batch_script seed nops =
  let rng = Prng.create ~seed:(seed + 1) in
  let flush acc pending =
    if pending = [] then acc else Batch (Array.of_list (List.rev pending)) :: acc
  in
  let rec go acc pending size = function
    | [] -> List.rev (flush acc pending)
    | Replay.Element el :: rest ->
        if List.length pending + 1 >= size then go (flush acc (el :: pending)) [] (1 + Prng.int rng 8) rest
        else go acc (el :: pending) size rest
    | op :: rest -> go (Op op :: flush acc pending) [] size rest
  in
  go [] [] (1 + Prng.int rng 8) (trace seed nops)

let feed_items (engine : Engine.t) items ~base =
  let log = ref [] and elems = ref base in
  (try
     List.iter
       (function
         | Op (Replay.Register qq) -> engine.register qq
         | Op (Replay.Terminate id) -> engine.terminate id
         | Op (Replay.Element _) -> assert false (* [batch_script] batches every element *)
         | Batch b ->
             let matured = engine.feed_batch b in
             elems := !elems + Array.length b;
             List.iter (fun id -> log := (!elems, id) :: !log) matured)
       items
   with Fault.Crash _ -> ());
  (List.sort compare !log, !elems)

let run_batch_crash_case ~seed ~crash_at ~torn ~bit_flip ~engine =
  let case = Printf.sprintf "seed=%d crash_at=%d torn=%b bit_flip=%b %s" seed crash_at torn bit_flip engine in
  let make = if engine = "dt" then make_dt else make_baseline in
  let items = batch_script seed 80 in
  let flat =
    List.concat_map
      (function
        | Op op -> [ op ] | Batch b -> Array.to_list (Array.map (fun el -> Replay.Element el) b))
      items
  in
  let ends = Hashtbl.create 64 in
  ignore
    (List.fold_left
       (fun n -> function
         | Op _ -> n
         | Batch b ->
             let m = n + Array.length b in
             for o = n + 1 to m do
               Hashtbl.replace ends o m
             done;
             m)
       0 items);
  let at_batch_end log = List.sort compare (List.map (fun (o, id) -> (Hashtbl.find ends o, id)) log) in
  let reference = at_batch_end (Replay.replay_ops (Baseline_engine.make ~dim:1) flat).Replay.maturities in
  (* op count after each item: where a recovery may land *)
  let boundaries =
    List.rev
      (List.fold_left
         (fun acc it ->
           (List.hd acc + match it with Op _ -> 1 | Batch b -> Array.length b) :: acc)
         [ 0 ] items)
  in
  let store = Io.mem_dir () in
  let rng = Prng.create ~seed:((seed * 7919) + crash_at) in
  let fdir =
    Fault.wrap ~rng { Fault.no_crash with Fault.crash_at_append = crash_at; torn; bit_flip } store
  in
  let cfg = { Durable.fsync_every = 5; checkpoint_every = 9 } in
  let durable, _ = Durable.wrap ~config:cfg ~dir:fdir (make ~dim:1) in
  let pre, pre_elems = feed_items durable items ~base:0 in
  if pre <> List.filter (fun (o, _) -> o <= pre_elems) reference then
    Alcotest.failf "%s: pre-crash log diverged" case;
  let engine2, report = Recovery.recover ~dim:1 ~make ~dir:store () in
  let rec index k = function
    | b :: _ when b = report.Recovery.ops_total -> k
    | _ :: rest -> index (k + 1) rest
    | [] -> Alcotest.failf "%s: recovered to op %d, inside a batch" case report.Recovery.ops_total
  in
  let done_items = index 0 boundaries in
  let durable2, h2 = Durable.wrap ~config:cfg ~report ~dir:store engine2 in
  let cont, _ = feed_items durable2 (drop done_items items) ~base:report.Recovery.elements_total in
  Durable.close h2;
  let got = List.sort compare (at_batch_end report.Recovery.maturities @ cont) in
  let expected = List.filter (fun (o, _) -> o > report.Recovery.checkpoint_elements) reference in
  if got <> expected then
    Alcotest.failf "%s: recovered log diverged (expected %d maturities, got %d)" case
      (List.length expected) (List.length got)

(* Crash at every append of a feed-batch run, torn and not. *)
let test_crash_equivalence_batches () =
  List.iter
    (fun seed ->
      let appends = List.length (batch_script seed 80) in
      for crash_at = 1 to appends + 1 do
        List.iter
          (fun torn ->
            run_batch_crash_case ~seed ~crash_at ~torn ~bit_flip:(crash_at mod 3 = 0)
              ~engine:(if crash_at mod 2 = 0 then "dt" else "baseline"))
          [ false; true ]
      done)
    fault_seeds

let prop_crash_equivalence =
  let case_gen =
    QCheck.Gen.(
      let* trace_seed = int_bound 1_000_000 in
      let* fault_seed = int_bound 1_000_000 in
      let* nops = int_range 10 120 in
      let* crash_frac = float_bound_inclusive 1.3 in
      let* torn = bool in
      let* bit_flip = bool in
      let* atomic = opt (int_range 1 6) in
      let* damage_checkpoint = bool in
      let* checkpoint_every = int_range 1 25 in
      let* fsync_every = int_range 1 8 in
      let+ engine = oneofl [ "baseline"; "dt" ] in
      (* crash point scaled to the trace length; > length means the run
         completes and only the unsynced tail is at risk *)
      let crash_at = max 1 (int_of_float (crash_frac *. float_of_int (2 * nops))) in
      {
        trace_seed;
        fault_seed;
        nops;
        crash_at;
        torn;
        bit_flip;
        crash_at_atomic = atomic;
        damage_checkpoint;
        checkpoint_every;
        fsync_every;
        engine;
      })
  in
  QCheck.Test.make ~count:(Qcheck_env.count 80) ~name:"crash equivalence (randomized)"
    (QCheck.make ~print:pp_case case_gen)
    (fun c ->
      ignore (run_crash_case c);
      true)

let () =
  Alcotest.run "resilience"
    [
      ( "crc32",
        [
          Alcotest.test_case "known vectors" `Quick test_crc32_vectors;
          QCheck_alcotest.to_alcotest prop_crc32_matches_bitwise;
        ] );
      ( "wal",
        [
          Alcotest.test_case "write/scan round-trip" `Quick test_wal_roundtrip;
          Alcotest.test_case "torn tail dropped" `Quick test_wal_torn_tail;
          Alcotest.test_case "bit flip stops the scan" `Quick test_wal_bit_flip_stops_scan;
          Alcotest.test_case "garbage and empty logs" `Quick test_wal_scan_garbage_and_empty;
          Alcotest.test_case "writer amputates torn tail on open" `Quick
            test_wal_writer_truncates_torn_tail_on_open;
        ] );
      ( "segmented-wal",
        [
          Alcotest.test_case "rotation round-trip" `Quick test_wal_rotation_roundtrip;
          Alcotest.test_case "prune below the floor" `Quick test_wal_prune_below_floor;
          Alcotest.test_case "epoch fencing" `Quick test_wal_epoch_fencing;
          Alcotest.test_case "rotation crash-window overlap" `Quick
            test_wal_rotation_crash_overlap;
          Alcotest.test_case "rotation syncs: synced = records" `Quick test_wal_rotation_syncs;
          Alcotest.test_case "fsync_dir errno classifier" `Quick
            test_fsync_dir_errno_classifier;
        ] );
      ( "wal-records",
        [
          Alcotest.test_case "format-1 text log refused, left intact" `Quick
            test_wal_refuses_text_format;
          Alcotest.test_case "mutation fuzz: a prefix or nothing" `Quick test_wal_mutation_fuzz;
          Alcotest.test_case "forged records behind a valid CRC" `Quick test_wal_forged_records;
          Alcotest.test_case "batch over the payload cap" `Quick test_wal_batch_over_payload_cap;
          Alcotest.test_case "count gate: appends and bytes per batch" `Quick test_wal_count_gate;
          Alcotest.test_case "open writer's footprint flat in log length" `Quick
            test_wal_writer_footprint_flat;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "write/load round-trip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "every single-bit flip detected" `Quick
            test_checkpoint_detects_every_bit_flip;
          Alcotest.test_case "every truncation detected" `Quick
            test_checkpoint_detects_every_truncation;
          Alcotest.test_case "semantic validation" `Quick test_checkpoint_semantic_validation;
          Alcotest.test_case "generations and prune" `Quick
            test_checkpoint_generations_and_prune;
          Alcotest.test_case "bit-exact round-trip at dim 1-3 and 1500" `Quick
            test_checkpoint_bit_exact_roundtrip;
          Alcotest.test_case "format-1 text refused" `Quick test_checkpoint_refuses_text_format;
          Alcotest.test_case "mutation fuzz: only Corrupt escapes" `Quick
            test_checkpoint_mutation_fuzz;
          Alcotest.test_case "forged fields behind a valid CRC" `Quick
            test_checkpoint_forged_fields;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "empty dir" `Quick test_recover_empty_dir;
          Alcotest.test_case "checkpoint + WAL suffix" `Quick
            test_recover_checkpoint_plus_wal_suffix;
          Alcotest.test_case "corrupt newest checkpoint fallback" `Quick
            test_recover_skips_corrupt_newest_checkpoint;
          Alcotest.test_case "checkpoint-only dir (WAL pruned away)" `Quick
            test_recover_checkpoint_only_dir;
          Alcotest.test_case "empty newest segment" `Quick
            test_recover_empty_newest_segment;
          Alcotest.test_case "format-1 text checkpoint skipped" `Quick
            test_recover_skips_text_checkpoint;
          Alcotest.test_case "checkpoint short of the pruned WAL refused" `Quick
            test_recover_refuses_gap_below_wal_base;
          Alcotest.test_case "dimension mismatch" `Quick test_recover_dim_mismatch;
          Alcotest.test_case "metrics" `Quick test_recovery_metrics;
        ] );
      ( "durable",
        [
          Alcotest.test_case "wrapper is transparent" `Quick test_durable_is_transparent;
          Alcotest.test_case "register_batch vs checkpoint boundary" `Quick
            test_durable_register_batch_checkpoint_boundary;
          Alcotest.test_case "checkpoint_due at exactly checkpoint_every" `Quick
            test_durable_checkpoint_due;
          Alcotest.test_case "apply never checkpoints" `Quick
            test_durable_apply_never_checkpoints;
          Alcotest.test_case "bad config rejected" `Quick test_durable_bad_config;
          Alcotest.test_case "refused register_batch, then recovery" `Quick
            test_durable_refused_batch_recovers;
          Alcotest.test_case "infinite coordinate refused before logging" `Quick
            test_durable_refuses_unloggable_element;
        ] );
      ( "cadence",
        [
          Alcotest.test_case "cli_wal shape: 2 checkpoints, not 17" `Quick
            test_cadence_cli_wal_shape;
          QCheck_alcotest.to_alcotest prop_checkpoint_cadence;
          Alcotest.test_case "recover + wrap read each WAL file once" `Quick
            test_restart_reads_wal_once;
        ] );
      ( "crash-equivalence",
        [
          Alcotest.test_case "exhaustive over every crash point" `Slow
            test_crash_equivalence_exhaustive;
          Alcotest.test_case "feed_batch: every crash point, torn or not" `Slow
            test_crash_equivalence_batches;
          Alcotest.test_case "crash during checkpoint publication" `Quick
            test_crash_during_checkpoint_publication;
          QCheck_alcotest.to_alcotest prop_crash_equivalence;
        ] );
      ( "short-write-enospc",
        [
          Alcotest.test_case "short final record amputated" `Quick
            test_short_write_final_record_amputated;
          Alcotest.test_case "short mid-log ends the trusted prefix" `Quick
            test_short_write_mid_log_ends_trusted_prefix;
          Alcotest.test_case "short write + crash equivalence" `Quick
            test_short_write_then_crash_equivalence;
          Alcotest.test_case "ENOSPC sticky, survivable, failover" `Quick
            test_enospc_sticky_and_failover;
        ] );
    ]
