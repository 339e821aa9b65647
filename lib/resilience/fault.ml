module Prng = Rts_util.Prng

exception Crash of string

type plan = {
  crash_at_append : int;
  torn : bool;
  bit_flip : bool;
  crash_at_atomic : int option;
  short_at_append : int option;
  enospc_at_append : int option;
}

let no_crash =
  {
    crash_at_append = max_int;
    torn = false;
    bit_flip = false;
    crash_at_atomic = None;
    short_at_append = None;
    enospc_at_append = None;
  }

(* Wrapped dirs are tracked so tests can ask whether a given wrapper has
   crashed; physical equality, test-scale lifetimes. *)
let registry : (Io.dir * bool ref) list ref = ref []

let crashed dir =
  match List.find_opt (fun (d, _) -> d == dir) !registry with
  | Some (_, flag) -> !flag
  | None -> false

let flip_one_bit ~rng s =
  let b = Bytes.of_string s in
  let bit = Prng.int rng (Bytes.length b * 8) in
  let i = bit / 8 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
  Bytes.to_string b

let wrap ~rng plan (dir : Io.dir) =
  let dead = ref false in
  let appends = ref 0 in
  let atomics = ref 0 in
  let alive () = if !dead then raise (Crash "simulated machine is down") in
  let die reason =
    dead := true;
    raise (Crash reason)
  in
  let open_append name =
    alive ();
    let under = dir.Io.open_append name in
    let pending = Buffer.create 256 in
    let flush_pending () =
      if Buffer.length pending > 0 then begin
        under.Io.append (Buffer.contents pending);
        Buffer.clear pending
      end
    in
    let append s =
      alive ();
      incr appends;
      (match plan.enospc_at_append with
      | Some n when !appends >= n ->
          (* Disk full: sticky from the n-th append on — every further
             append fails, but the machine is up and the existing bytes
             are intact (reads, sync, close all still work). *)
          raise Io.No_space
      | _ -> ());
      if Some !appends = plan.short_at_append then
        (* Silent short write: only a strict prefix of this record
           reaches the pending buffer, and nobody is told. If this was
           the final record the WAL scanner drops the partial frame as a
           torn tail; if more records follow they land after the
           garbage and are unreachable to any future scan — exactly why
           real systems read back or checksum what they wrote. *)
        Buffer.add_string pending (String.sub s 0 (Prng.int rng (String.length s)))
      else if !appends = plan.crash_at_append then begin
        (* The kernel may have flushed any prefix of the unsynced bytes
           on its own — survivors are a PRNG-chosen prefix of
           (pending ++ torn part of the in-flight record). *)
        let in_flight =
          if plan.torn then String.sub s 0 (Prng.int rng (String.length s + 1)) else ""
        in
        let pool = Buffer.contents pending ^ in_flight in
        Buffer.clear pending;
        let keep =
          if pool = "" then "" else String.sub pool 0 (Prng.int rng (String.length pool + 1))
        in
        let keep = if plan.bit_flip && keep <> "" then flip_one_bit ~rng keep else keep in
        if keep <> "" then under.Io.append keep;
        under.Io.sync ();
        under.Io.close ();
        die (Printf.sprintf "crash at append %d" !appends)
      end
      else Buffer.add_string pending s
    in
    let sync () =
      alive ();
      flush_pending ();
      under.Io.sync ()
    in
    let close () =
      (* A clean close means the process exited; the OS flushes its
         caches eventually, so pending bytes survive. *)
      alive ();
      flush_pending ();
      under.Io.close ()
    in
    { Io.append; sync; close }
  in
  let write_atomic name contents =
    alive ();
    incr atomics;
    match plan.crash_at_atomic with
    | Some n when !atomics = n ->
        (* Atomicity of temp+rename: the new file either fully landed
           (crash after rename) or is entirely absent (crash before) —
           a coin decides which world we died in. *)
        if Prng.bool rng then dir.Io.write_atomic name contents;
        die (Printf.sprintf "crash at atomic write %d (%s)" !atomics name)
    | _ -> dir.Io.write_atomic name contents
  in
  let guard1 f x =
    alive ();
    f x
  in
  let guard2 f x y =
    alive ();
    f x y
  in
  let wrapped =
    {
      Io.open_append;
      read_file = guard1 dir.Io.read_file;
      write_atomic;
      list_files =
        (fun () ->
          alive ();
          dir.Io.list_files ());
      remove_file = guard1 dir.Io.remove_file;
      truncate_file = guard2 dir.Io.truncate_file;
    }
  in
  registry := (wrapped, dead) :: !registry;
  wrapped

let flip_random_bit ~rng dir name =
  match dir.Io.read_file name with
  | None | Some "" -> false
  | Some data ->
      dir.Io.write_atomic name (flip_one_bit ~rng data);
      true
