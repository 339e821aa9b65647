(* cli_mem and cli_wal: the [rts-cli run --batch 64] path, with and
   without [--wal DIR --fsync-every 64].

   Input (dim 1): 10,000 standing queries with tau = 2,000,000, and a
   stream of 64-element batches as CSV text. Every query that matures is
   re-armed at once with a fresh one (fixed load, no early
   terminations). Initial thresholds are drawn uniformly from [1, tau],
   the stationary residual of that renewal process, so maturities arrive
   at a steady rate from the first batch instead of in one burst after
   tau / (0.1 * 100) elements.

   A pass is: set up from empty state, ingest the whole script, close
   (and, with the WAL, recover). Passes repeat until the run's time is
   up; each replays the same script from the same empty state. *)

open Rts_core
open Rts_workload
open Rts_resilience
module Prng = Rts_util.Prng

let dim = 1
let queries = 10_000
let tau = 2_000_000
let batch = 64
let fsync_every = 64
let batches = 256

(* Batches fed to the baseline engine by the correctness check. *)
let baseline_batches = 24

type input = {
  query_lines : string array;
  elem_lines : string array;
  pool : Types.query array;  (** replacements, taken in order *)
}

let generate ~seed =
  let gen = Generator.create ~dim ~seed () in
  let rng = Prng.create ~seed:(seed lxor 0x5eed) in
  let query_lines =
    Array.init queries (fun id ->
        Csv_io.query_to_line (Generator.query gen ~id ~threshold:(1 + Prng.int rng tau)))
  in
  (* At most every initial query matures within one pass (a replacement
     needs about tau / 10 elements, more than a pass holds). *)
  let pool = Array.init queries (fun k -> Generator.query gen ~id:(queries + k) ~threshold:tau) in
  let elem_lines =
    Array.init (batches * batch) (fun _ -> Csv_io.element_to_line (Generator.element gen))
  in
  { query_lines; elem_lines; pool }

let make_dt = Traced.make_dt

(* Set-up: from empty state to ready to ingest. *)
let register_queries (engine : Engine.t) input =
  let qs =
    Array.to_list
      (Array.mapi
         (fun i l -> Csv_io.parse_query ~dim ~closed:false ~line_no:(i + 1) l)
         input.query_lines)
  in
  engine.Engine.register_batch qs

type wal = { path : string; dir : Io.dir; handle : Durable.handle }

let setup ~traced ~wal_path input =
  match wal_path with
  | None ->
      let e = make_dt ~traced ~dim in
      register_queries e input;
      (e, [ e ], None)
  | Some path ->
      let made = ref [] in
      let make ~dim =
        let e = make_dt ~traced ~dim in
        made := e :: !made;
        e
      in
      let raw = Io.fs_dir path in
      let dir = if traced then Traced.dir raw else raw in
      let e, report = Recovery.recover ~dim ~make ~dir () in
      let config = { Durable.default with Durable.fsync_every } in
      let w, handle = Durable.wrap ~config ~report ~dir e in
      let w = if traced then Traced.durable w else w in
      register_queries w input;
      (w, !made, Some { path; dir; handle })

type ingest = { alerts : Buffer.t; mutable rearmed : int; mutable failed : int }

let decode input b =
  Array.init batch (fun k ->
      let n = (b * batch) + k in
      Csv_io.parse_element ~dim ~line_no:(n + 1) input.elem_lines.(n))

(* The closed loop: one batch outstanding at a time. [timing] receives
   the wall time of every ingest call (decode, feed_batch, alerts,
   re-arm). *)
let ingest ?timing ~batches (engine : Engine.t) input =
  let r = { alerts = Buffer.create 65536; rearmed = 0; failed = 0 } in
  let call b =
    let elems = Spans.with_span Spans.s_csv (decode input) b in
    match engine.Engine.feed_batch elems with
    | exception e ->
        r.failed <- r.failed + batch;
        Common.check ("feed_batch raised " ^ Printexc.to_string e) false
    | matured ->
        let line_no = (b + 1) * batch in
        List.iter (fun id -> Printf.bprintf r.alerts "ALERT\t%d\t%d\n" line_no id) matured;
        List.iter
          (fun _ ->
            if r.rearmed >= Array.length input.pool then
              failwith "perfbench: re-arm pool exhausted";
            (try engine.Engine.register input.pool.(r.rearmed)
             with e ->
               r.failed <- r.failed + 1;
               Common.check ("register raised " ^ Printexc.to_string e) false);
            r.rearmed <- r.rearmed + 1)
          matured
  in
  for b = 0 to batches - 1 do
    let t0 = Spans.now_ns () in
    Spans.with_span Spans.s_batch call b;
    match timing with
    | Some t -> Common.record t (float_of_int (Spans.now_ns () - t0) *. 1e-9)
    | None -> ()
  done;
  r

(* Remaining weight to maturity per alive query: what a recovered engine
   must agree on (recovery re-registers each query with its threshold
   lowered by the weight it had consumed). *)
let residual (e : Engine.t) =
  List.map
    (fun ((q : Types.query), w) -> (q.Types.id, q.Types.rect, q.Types.threshold - w))
    (e.Engine.alive_snapshot ())

let recover_plain path =
  Recovery.recover ~dim ~make:(fun ~dim -> make_dt ~traced:false ~dim) ~dir:(Io.fs_dir path) ()

(* Checks made on the first pass, untimed. *)
let gate ~wal_path input (out : ingest) =
  let mem_alerts () =
    let e, _, _ = setup ~traced:false ~wal_path:None input in
    (ingest ~batches e input).alerts
  in
  (* the baseline engine agrees on a prefix *)
  let nb = baseline_batches in
  let base = Engine_registry.make ~name:"baseline" ~dim in
  register_queries base input;
  let base_alerts = Buffer.contents (ingest ~batches:nb base input).alerts in
  let full = Buffer.contents out.alerts in
  let cut = String.length base_alerts in
  Common.check "baseline prefix agrees"
    (String.length full >= cut
    && String.sub full 0 cut = base_alerts
    && (cut = String.length full
       || Scanf.sscanf (String.sub full cut (String.length full - cut)) "ALERT\t%d" (fun l ->
              l > nb * batch)));
  Common.check "prefix has maturities" (cut > 0);
  match wal_path with
  | None -> ()
  | Some _ ->
      Common.check "cli_mem and cli_wal alerts agree"
        (Buffer.contents (mem_alerts ()) = full)

let run ~(opts : Common.opts) ~wal =
  let input = generate ~seed:opts.Common.seed in
  let wal_path = if wal then Some (Filename.concat opts.Common.work "wal") else None in
  let untraced = Common.timing () and traced_t = Common.timing () in
  let layers = Layers.create () in
  let recorder = if opts.Common.trace then Some (Spans.create ~cap:(1 lsl 20)) else None in
  let setups = ref [] and ops_seen = ref [] and digests = ref [] in
  let failed = ref 0 and memory = ref None in
  let base_words = Common.live_words () in
  let one_pass k =
    let traced = opts.Common.trace && k mod 2 = 1 in
    (* every pass starts from the same collected heap, so garbage left by
       the previous pass and its checks is not collected inside this one *)
    Gc.compact ();
    Option.iter Common.rm_rf wal_path;
    let t0 = Common.now_s () in
    let engine, engines, w = setup ~traced ~wal_path input in
    let t1 = Common.now_s () in
    let c = layers.Layers.counts in
    let appends0 = c.Traced.appends and atomic0 = c.Traced.atomic_writes in
    Option.iter (fun r -> if traced then Layers.start_pass layers r) recorder;
    let dt0 = Layers.dt_counters engines in
    let timing = if traced then traced_t else untraced in
    let t2 = Common.now_s () in
    let out = ingest ~timing ~batches engine input in
    let t3 = Common.now_s () in
    Layers.stop ();
    let ops = (batches * batch) + out.rearmed in
    Common.end_pass timing ~ops ~wall_s:(t3 -. t2);
    Common.log "pass %d%s: setup %.4f s, ingest %.4f s" k (if traced then " (traced)" else "")
      (t1 -. t0) (t3 -. t2);
    setups := (t1 -. t0) :: !setups;
    ops_seen := ops :: !ops_seen;
    digests := Digest.string (Buffer.contents out.alerts) :: !digests;
    failed := !failed + out.failed;
    if traced then
      Layers.add_pass layers (Option.get recorder) ~work:opts.Common.work ~wall_s:(t3 -. t2)
        ~elems:(batches * batch) ~ops ~before:dt0 ~after:(Layers.dt_counters engines);
    if k = 0 then memory := Some (Common.memory ~base_words);
    (* close, and recover from what the run left *)
    (match w with
    | None -> ()
    | Some w ->
        let live = if k = 0 then residual engine else [] in
        if traced then begin
          let v = Rts_obs.Metrics.counter_value (engine.Engine.metrics ()) in
          (* set-up logged one record per query and one checkpoint *)
          Common.check "Durable counters agree with Io counts"
            (v "wal_records_total" - queries = c.Traced.appends - appends0
            && v "checkpoints_total" - 1 = c.Traced.atomic_writes - atomic0)
        end;
        Durable.close w.handle;
        layers.Layers.disk_bytes <- Common.dir_bytes w.path;
        if traced then
          Layers.add_recovery layers (Option.get recorder) (fun () ->
              Recovery.recover ~dim
                ~make:(fun ~dim -> make_dt ~traced:true ~dim)
                ~dir:(Traced.dir (Io.fs_dir w.path))
                ())
        else if k = 0 then
          for i = 1 to Common.recovery_repeats do
            let t0 = Common.now_s () in
            let e, _ = recover_plain w.path in
            layers.Layers.recover_ms <- (1e3 *. (Common.now_s () -. t0)) :: layers.Layers.recover_ms;
            if i = 1 then
              Common.check "recovered engine matches the live one at close" (residual e = live)
          done);
    if k = 0 then gate ~wal_path input out
  in
  Common.loop ~opts ~min_passes:(Common.min_passes ~opts ~batches) one_pass;
  (* at least five set-ups per run *)
  while List.length !setups < 5 do
    Option.iter Common.rm_rf wal_path;
    let t0 = Common.now_s () in
    let _, _, w = setup ~traced:false ~wal_path input in
    setups := (Common.now_s () -. t0) :: !setups;
    Option.iter (fun w -> Durable.close w.handle) w
  done;
  Option.iter Common.rm_rf wal_path;
  let ops = List.hd !ops_seen in
  Common.check "every pass emits the same alerts"
    (List.for_all (fun d -> d = List.hd !digests) !digests && List.for_all (( = ) ops) !ops_seen);
  let memory = Option.get !memory in
  Common.log "heap_live_mb=%.6f disk_mb=%.6f" memory.Common.heap_mb
    (Common.mb layers.Layers.disk_bytes);
  {
    Common.correct = !Common.gate_failures = [];
    attempted = List.fold_left (fun a o -> a + queries + o) 0 !ops_seen;
    failed = !failed;
    e2e = Common.e2e ~setups:!setups ~memory untraced;
    layer =
      (if opts.Common.trace then
         Layers.report ~overhead_pct:(Common.overhead_pct ~untraced ~traced:traced_t) layers
       else []);
  }
