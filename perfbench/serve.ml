(* serve_churn: the [rts-serve session] path, in memory.

   One Hub with the default Server config (dim 2), two tenants on
   Io.mem_dir, and one client subscribed to both. Each tenant starts with
   2,000 registrations; each query has a lifetime drawn from the paper's
   p_del for tau = 200,000. Replacements carry tau itself; the initial
   queries carry thresholds drawn uniformly from [1, tau], as on a
   server that has been running, so maturities start with the stream. The timed phase sends 64-element [batch] frames
   that alternate between the tenants. After each one, every [matured]
   push is answered by an [op] frame registering a replacement, and
   every query whose lifetime has run out is terminated by an [op] frame
   and replaced. One frame is outstanding at a time: each is decoded from
   its wire line, enqueued on the client, and [Hub.run] drives the
   deployment to quiescence, as [rts-serve session] does per stdin line.

   A pass is: set up a fresh Hub, send the whole script, shut down, and
   recover each tenant from what it left. *)

open Rts_core
open Rts_workload
open Rts_resilience
open Rts_serve
module Handle_heap = Rts_structures.Handle_heap
module Prng = Rts_util.Prng

let dim = 2
let tenants = [| "t0"; "t1" |]
let per_tenant = 2000
let tau = 200_000
let batch = 64
let batches = 128

(* Maturities of each tenant the baseline engine must reproduce. *)
let baseline_maturities = 20

type tenant_input = {
  reg_lines : string array;  (** initial registration frames *)
  pool_lines : string array;  (** replacement registration frames, in order *)
  ids : int array;  (** query id of reg_lines ++ pool_lines *)
  lives : int array;  (** lifetime in tenant elements, same indexing *)
}

type input = { per : tenant_input array; batch_lines : string array }

let generate ~seed =
  let gen = Generator.create ~dim ~seed () in
  let rng = Prng.create ~seed:(seed lxor 0x5eed) in
  let elems_per_tenant = batches * batch / Array.length tenants in
  (* departures run at alive / mean lifetime (about 0.23 per element);
     twice that is ample *)
  let pool = per_tenant + (elems_per_tenant / 2) in
  let per =
    Array.map
      (fun tenant ->
        let n = per_tenant + pool in
        let qs =
          Array.init n (fun id ->
              let threshold = if id < per_tenant then 1 + Prng.int rng tau else tau in
              Generator.query gen ~id ~threshold)
        in
        let lives = Array.init n (fun _ -> Generator.lifetime gen ~tau) in
        let line q = Frame.client_to_string (Frame.Op { tenant; op = Replay.Register q }) in
        {
          reg_lines = Array.map line (Array.sub qs 0 per_tenant);
          pool_lines = Array.map line (Array.sub qs per_tenant pool);
          ids = Array.map (fun (q : Types.query) -> q.Types.id) qs;
          lives;
        })
      tenants
  in
  let batch_lines =
    Array.init batches (fun i ->
        let tenant = tenants.(i mod Array.length tenants) in
        Frame.client_to_string
          (Frame.Batch { tenant; elems = Array.init batch (fun _ -> Generator.element gen) }))
  in
  { per; batch_lines }

(* The client side's view of one tenant: which of its queries are alive, when
   each must be terminated, and how far its stream has gone. *)
type tstate = {
  name : string;
  inp : tenant_input;
  alive : (int, unit) Hashtbl.t;
  deadlines : (int * int) Handle_heap.t;  (** (element ordinal, id) *)
  mutable elements : int;
  mutable next : int;  (** next index into ids/lives *)
}

type deployment = {
  hub : Hub.t;
  client : Client.t;
  states : tstate array;
  dirs : (string, Io.dir) Hashtbl.t;  (** raw dir per tenant *)
  engines : Engine.t list ref;
  mutable frames : int;
  mutable ops : int;  (** ops in the frames sent *)
  mutable failed : int;
  mutable replacements : int;
}

let make_dt = Traced.make_dt

(* Send one wire line and drive the deployment until it is quiet. *)
let send d ~ops line =
  d.frames <- d.frames + 1;
  d.ops <- d.ops + ops;
  match Spans.with_span Spans.s_frame (Frame.client_of_string ~dim) line with
  | Error msg ->
      d.failed <- d.failed + ops;
      Common.check ("frame decode: " ^ msg) false
  | Ok frame ->
      Client.enqueue d.client frame;
      Spans.with_span Spans.s_serve Hub.run d.hub;
      List.iter
        (function
          | Frame.Matured { tenant; ids; _ } ->
              let s = d.states.(if tenant = tenants.(0) then 0 else 1) in
              List.iter (fun id -> Hashtbl.remove s.alive id) ids;
              d.replacements <- d.replacements + List.length ids
          | Frame.Overloaded _ | Frame.Rejected _ -> d.failed <- d.failed + ops
          | Frame.Accepted _ | Frame.Retry_after _ | Frame.Stats_reply _ | Frame.Bye -> ())
        (Client.take_transcript d.client)

let register d s line_of =
  let k = s.next in
  if k >= Array.length s.inp.ids then failwith "perfbench: replacement pool exhausted";
  s.next <- k + 1;
  let id = s.inp.ids.(k) in
  Hashtbl.replace s.alive id ();
  ignore (Handle_heap.push s.deadlines (s.elements + s.inp.lives.(k), id));
  send d ~ops:1 (line_of k)

let control d s line_of =
  Spans.with_span Spans.s_control (fun () -> register d s line_of) ()

let replacement s k = s.inp.pool_lines.(k - per_tenant)

let setup ~traced input =
  let dirs = Hashtbl.create 4 in
  let engines = ref [] in
  let provider ~tenant ~incarnation:_ =
    let raw = Io.mem_dir () in
    Hashtbl.replace dirs tenant raw;
    if traced then Traced.dir raw else raw
  in
  let hub =
    Hub.create ~clients:1
      ~make:(fun ~dim ->
        let e = make_dt ~traced ~dim in
        engines := e :: !engines;
        e)
      ~provider ()
  in
  let states =
    Array.mapi
      (fun i name ->
        {
          name;
          inp = input.per.(i);
          alive = Hashtbl.create (2 * per_tenant);
          deadlines = Handle_heap.create ~leq:(fun (a, _) (b, _) -> a <= b) ();
          elements = 0;
          next = 0;
        })
      tenants
  in
  let d =
    {
      hub;
      client = Hub.client hub 0;
      states;
      dirs;
      engines;
      frames = 0;
      ops = 0;
      failed = 0;
      replacements = 0;
    }
  in
  Array.iter (fun name -> send d ~ops:0 ("sub," ^ name)) tenants;
  for _ = 1 to per_tenant do
    Array.iter (fun s -> register d s (fun k -> s.inp.reg_lines.(k))) states
  done;
  d.frames <- 0;
  d.ops <- 0;
  d

(* The timed phase. [timing] receives the wall time of every batch
   frame; the control frames answering it are timed only as part of the
   pass. *)
let ingest ~timing d input =
  for b = 0 to batches - 1 do
    let s = d.states.(b mod Array.length tenants) in
    let t0 = Spans.now_ns () in
    let pending = d.replacements in
    Spans.with_span Spans.s_batch (send d ~ops:batch) input.batch_lines.(b);
    let t1 = Spans.now_ns () in
    s.elements <- s.elements + batch;
    for _ = 1 to d.replacements - pending do
      control d s (replacement s)
    done;
    let rec expire () =
      match Handle_heap.peek s.deadlines with
      | Some (due, id) when due <= s.elements ->
          ignore (Handle_heap.pop s.deadlines);
          if Hashtbl.mem s.alive id then begin
            Hashtbl.remove s.alive id;
            Spans.with_span Spans.s_control
              (fun () ->
                send d ~ops:1
                  (Frame.client_to_string
                     (Frame.Op { tenant = s.name; op = Replay.Terminate id })))
              ();
            control d s (replacement s)
          end;
          expire ()
      | _ -> ()
    in
    expire ();
    Common.record timing (float_of_int (t1 - t0) *. 1e-9)
  done

let server_counter d name =
  Rts_obs.Metrics.counter_value (Server.metrics (Hub.server d.hub)) name

let net_sent d = Rts_obs.Metrics.counter_value (Hub.net_metrics d.hub) "net_sent_total"

let shutdown d =
  Server.shutdown (Hub.server d.hub);
  Hub.run d.hub

let disk_bytes d =
  Hashtbl.fold
    (fun _ (dir : Io.dir) acc ->
      List.fold_left
        (fun acc name ->
          match dir.Io.read_file name with Some s -> acc + String.length s | None -> acc)
        acc (dir.Io.list_files ()))
    d.dirs 0

let recover ~traced (dir : Io.dir) =
  Recovery.recover ~dim ~make:(fun ~dim -> make_dt ~traced ~dim) ~dir ()

(* Checks made on the first pass, untimed, after shutdown. *)
let gate d =
  let server = Hub.server d.hub in
  Common.check "no tenant crashed or restarted"
    (server_counter d "serve_crashes_total" = 0 && server_counter d "serve_restarts_total" = 0);
  Array.iter
    (fun name ->
      let log = Server.maturity_log server name in
      let dir = Hashtbl.find d.dirs name in
      Common.check (name ^ ": maturity log = client pushes, exactly once")
        (log = Client.matured d.client name);
      let ops = (Wal.scan ~dim ~dir ()).Wal.ops in
      let replay = Replay.replay_ops (make_dt ~traced:false ~dim) ops in
      Common.check (name ^ ": maturity log = replay of its WAL") (log = replay.Replay.maturities);
      (* the baseline engine, fed the WAL up to the element of the 20th
         maturity, attributes the same maturities *)
      let upto =
        match List.filteri (fun i _ -> i < baseline_maturities) log with
        | [] -> 0
        | l -> fst (List.nth l (List.length l - 1))
      in
      let rec take n = function
        | Replay.Element _ :: _ when n = upto -> []
        | (Replay.Element _ as op) :: rest -> op :: take (n + 1) rest
        | op :: rest -> op :: take n rest
        | [] -> []
      in
      let base = Replay.replay_ops (Engine_registry.make ~name:"baseline" ~dim) (take 0 ops) in
      Common.check (name ^ ": the pass has maturities") (log <> []);
      Common.check (name ^ ": baseline agrees on a WAL prefix")
        (base.Replay.maturities = List.filter (fun (ord, _) -> ord <= upto) log))
    tenants

let run ~(opts : Common.opts) =
  let input = generate ~seed:opts.Common.seed in
  let untraced = Common.timing () and traced_t = Common.timing () in
  let layers = Layers.create () in
  let recorder = if opts.Common.trace then Some (Spans.create ~cap:(1 lsl 20)) else None in
  let setups = ref [] and ops_seen = ref [] in
  let memory = ref None and attempted = ref 0 and failed = ref 0 in
  let base_words = Common.live_words () in
  let one_pass k =
    let traced = opts.Common.trace && k mod 2 = 1 in
    (* every pass starts from the same collected heap, so garbage left by
       the previous pass and its checks is not collected inside this one *)
    Gc.compact ();
    let t0 = Common.now_s () in
    let d = setup ~traced input in
    let t1 = Common.now_s () in
    attempted := !attempted + (per_tenant * Array.length tenants);
    Option.iter (fun r -> if traced then Layers.start_pass layers r) recorder;
    let dt0 = Layers.dt_counters !(d.engines) in
    let net0 = net_sent d in
    let retry0 = server_counter d "serve_retry_total" in
    let over0 = server_counter d "serve_overloaded_total" in
    let timing = if traced then traced_t else untraced in
    let t2 = Common.now_s () in
    ingest ~timing d input;
    let t3 = Common.now_s () in
    Layers.stop ();
    Common.end_pass timing ~ops:d.ops ~wall_s:(t3 -. t2);
    Common.log "pass %d%s: setup %.4f s, ingest %.4f s" k (if traced then " (traced)" else "")
      (t1 -. t0) (t3 -. t2);
    setups := (t1 -. t0) :: !setups;
    ops_seen := d.ops :: !ops_seen;
    attempted := !attempted + d.ops;
    if traced then begin
      Layers.add_pass layers (Option.get recorder) ~work:opts.Common.work ~wall_s:(t3 -. t2)
        ~elems:(batches * batch) ~ops:d.ops ~before:dt0
        ~after:(Layers.dt_counters !(d.engines));
      layers.Layers.frames <- layers.Layers.frames + d.frames;
      layers.Layers.net_msgs <- layers.Layers.net_msgs + net_sent d - net0;
      layers.Layers.retries <- layers.Layers.retries + server_counter d "serve_retry_total" - retry0;
      layers.Layers.overloaded <-
        layers.Layers.overloaded + server_counter d "serve_overloaded_total" - over0
    end;
    if k = 0 then memory := Some (Common.memory ~base_words);
    shutdown d;
    let server = Hub.server d.hub in
    Array.iter (fun name -> d.failed <- d.failed + Server.rejected_ops server name) tenants;
    failed := !failed + d.failed;
    layers.Layers.disk_bytes <- disk_bytes d;
    if k = 0 then begin
      for _ = 1 to Common.recovery_repeats do
        let t0 = Common.now_s () in
        Hashtbl.iter (fun _ dir -> ignore (recover ~traced:false dir)) d.dirs;
        layers.Layers.recover_ms <- (1e3 *. (Common.now_s () -. t0)) :: layers.Layers.recover_ms
      done;
      gate d
    end;
    if traced then
      Hashtbl.iter
        (fun _ dir ->
          Layers.add_recovery layers (Option.get recorder) (fun () ->
              recover ~traced:true (Traced.dir dir)))
        d.dirs
  in
  Common.loop ~opts ~min_passes:(Common.min_passes ~opts ~batches) one_pass;
  (* at least five set-ups per run *)
  while List.length !setups < 5 do
    let t0 = Common.now_s () in
    let d = setup ~traced:false input in
    setups := (Common.now_s () -. t0) :: !setups;
    shutdown d
  done;
  let ops = List.hd !ops_seen in
  Common.check "every pass applies the same ops" (List.for_all (( = ) ops) !ops_seen);
  let memory = Option.get !memory in
  Common.log "heap_live_mb=%.6f disk_mb=%.6f" memory.Common.heap_mb
    (Common.mb layers.Layers.disk_bytes);
  {
    Common.correct = !Common.gate_failures = [];
    attempted = !attempted;
    failed = !failed;
    e2e = Common.e2e ~setups:!setups ~memory untraced;
    layer =
      (if opts.Common.trace then
         Layers.report ~overhead_pct:(Common.overhead_pct ~untraced ~traced:traced_t) layers
       else []);
  }
