(* What every workload shares: options, per-call timings, the run record,
   and the closing JSON line. *)

module A1 = Bigarray.Array1

type opts = {
  seed : int;
  seconds : float;
  trace : bool;
  work : string;  (** scratch directory for WAL dirs and the span dump *)
}

let log fmt = Printf.printf (fmt ^^ "\n%!")

let now_s = Rts_util.Timer.now

(* Nearest-rank percentile. *)
let percentile xs p =
  let xs = Array.copy xs in
  Array.sort compare xs;
  let n = Array.length xs in
  if n = 0 then nan
  else xs.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1)))

(* Peak resident set (VmHWM), MiB. *)
let rss_peak_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.)
        | _ -> go ()
        | exception End_of_file -> nan
      in
      go ())

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

(* Bytes held in the plain files of a directory. *)
let dir_bytes path =
  Array.fold_left
    (fun acc n -> acc + (Unix.stat (Filename.concat path n)).Unix.st_size)
    0 (Sys.readdir path)

let mb bytes = float_of_int bytes /. 1048576.

(* Ingest-call latencies, pooled over a run's passes, and the throughput
   of each pass. The latencies are kept off-heap, so they do not move
   [heap_live_mb]; a run records at most [sample_cap] of them. *)
type timing = {
  lat : (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t;
  mutable samples : int;
  mutable passes : int;
  mutable tputs : float list;  (** per pass: ops / wall time of the timed phase *)
}

let sample_cap = 1 lsl 18

let timing () =
  { lat = A1.create Bigarray.float64 Bigarray.c_layout sample_cap; samples = 0; passes = 0; tputs = [] }

(* The latency of one ingest call, in seconds. *)
let record t dt =
  if t.samples < sample_cap then begin
    A1.unsafe_set t.lat t.samples dt;
    t.samples <- t.samples + 1
  end

let end_pass t ~ops ~wall_s =
  t.passes <- t.passes + 1;
  t.tputs <- (float_of_int ops /. wall_s) :: t.tputs

let median xs = percentile (Array.of_list xs) 50.

(* Latency percentiles need at least this many ingest calls per run. *)
let min_samples = 1000

(* Passes a run makes at least: enough untraced ones for [min_samples]
   calls, or one untraced and one traced pass when tracing. *)
let min_passes ~(opts : opts) ~batches =
  if opts.trace then 2 else (min_samples + batches - 1) / batches

(* Run [one_pass k] for k = 0, 1, ... until [opts.seconds] have gone by
   and at least [min_passes] ran. *)
let loop ~opts ~min_passes one_pass =
  let t_end = now_s () +. opts.seconds in
  let k = ref 0 in
  while !k < min_passes || now_s () < t_end do
    one_pass !k;
    incr k
  done

(* Memory at the end of the first pass's timed phase, before any check
   runs: the live heap above [base_words] (the heap the run held before
   its first set-up: inputs and the benchmark's own state), and VmHWM. *)
type memory = { heap_mb : float; rss_mb : float }

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let memory ~base_words =
  let rss_mb = rss_peak_mb () in
  let heap_mb =
    float_of_int ((live_words () - base_words) * (Sys.word_size / 8)) /. 1048576.
  in
  { heap_mb; rss_mb }

(* The end-to-end metrics. Set-up time and throughput are medians over
   the run's set-ups and passes; the latency percentiles are over every
   ingest call of the untraced passes. *)
let e2e ~setups ~memory t =
  let lats = Array.init t.samples (A1.get t.lat) in
  let p50 = 1e3 *. percentile lats 50. and p99 = 1e3 *. percentile lats 99. in
  log "batch latency over %d ingest calls from %d passes: p50 %.4f ms, p99 %.4f ms" t.samples
    t.passes p50 p99;
  [
    ("setup_s", median setups, "s");
    ("throughput_ops_s", median t.tputs, "1/s");
    ("batch_p50_ms", p50, "ms");
    ("batch_p99_ms", p99, "ms");
    ("heap_live_mb", memory.heap_mb, "MB");
    ("rss_peak_mb", memory.rss_mb, "MB");
  ]

(* Tracing overhead: traced against untraced throughput, in percent. *)
let overhead_pct ~untraced ~traced =
  100. *. (1. -. (median traced.tputs /. median untraced.tputs))

(* Recoveries timed per run, over the dirs the first pass left. *)
let recovery_repeats = 5

(* Everything a workload reports. [e2e] and [layer] are (name, value,
   unit) in the order BENCHMARK.json lists them. *)
type result = {
  correct : bool;
  attempted : int;
  failed : int;
  e2e : (string * float * string) list;
  layer : (string * float * string) list;
}

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let print_result ~trace r =
  let metrics = if trace then r.layer else r.e2e in
  let fields =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    r.correct r.attempted r.failed (String.concat ", " fields)

(* A correctness check that failed: reported on stderr, turns the run's
   [correct] to false and the exit code to 1. *)
let gate_failures = ref []

let check name ok =
  if not ok then begin
    Printf.eprintf "perfbench: correctness check failed: %s\n%!" name;
    gate_failures := name :: !gate_failures
  end

