module Prng = Rts_util.Prng
module Replay = Rts_workload.Replay
module Generator = Rts_workload.Generator
module Io = Rts_resilience.Io
module Fault = Rts_resilience.Fault
module Wal = Rts_resilience.Wal
module Checkpoint = Rts_resilience.Checkpoint
module Vclock = Rts_net.Vclock
module Net_fault = Rts_net.Net_fault
module Metrics = Rts_obs.Metrics
module Server = Rts_serve.Server
module Client = Rts_serve.Client
module Frame = Rts_serve.Frame

type scenario = Clean | Kill of int | Wedge of { at : int; duration : int }

type config = {
  tenants : int;
  queries : int;
  elements : int;
  batch : int;
  threshold : int;
  churn : float;
  dim : int;
  seed : int;
  faulty_incarnations : int;
  crash_every : int;
  wedges : int;
  scenario : scenario;
  cluster : Cluster.config;
}

let default =
  {
    tenants = 2;
    queries = 30;
    (* enough volume that applied clears 10 × checkpoint_every per
       tenant even after a kill sheds the accepted-but-unapplied tail *)
    elements = 850;
    batch = 8;
    threshold = 2500;
    churn = 0.12;
    dim = 2;
    seed = 1;
    faulty_incarnations = 2;
    crash_every = 180;
    wedges = 0;
    scenario = Kill 120;
    cluster =
      {
        Cluster.default with
        Cluster.net = { Net_fault.none with drop = 0.08; duplicate = 0.04; reorder = 0.15 };
        server =
          {
            Server.default with
            Server.queue_capacity = 16;
            drain_per_tick = 6;
            segment_records = 48;
            durable =
              { Rts_resilience.Durable.fsync_every = 5; checkpoint_every = 67 };
          };
      };
  }

(* ---- workload --------------------------------------------------------- *)

(* Deterministic seed mixing (independent of Hashtbl.hash, which is not
   pinned across compiler versions — these seeds appear in CI). *)
let mix seed name incarnation =
  let h = ref (seed * 1_000_003) in
  String.iter (fun c -> h := (!h * 31) + Char.code c) name;
  h := (!h * 31) + incarnation;
  !h land 0x3FFFFFFF

let draw_plan ~crash_every rng =
  let crash_at = 2 + Prng.int rng (max 1 (2 * crash_every)) in
  let short_at =
    (* always one append before the crash: the partial record is the
       final one on the surviving log, so the scanner amputates it and
       recovery resubmits the op — a short write that nothing ever
       crashes on would be silent data loss (see Fault.plan docs) *)
    if Prng.int rng 3 = 0 then Some (crash_at - 1) else None
  in
  {
    Fault.crash_at_append = crash_at;
    torn = Prng.bool rng;
    bit_flip = Prng.int rng 3 = 0;
    crash_at_atomic = (if Prng.int rng 4 = 0 then Some (1 + Prng.int rng 2) else None);
    short_at_append = short_at;
    enospc_at_append =
      (if Prng.int rng 5 = 0 then Some (1 + Prng.int rng (max 1 crash_every)) else None);
  }

let tenant_name i = Printf.sprintf "t%d" i

(* One tenant's frames in send order: registrations, batched elements,
   churn. *)
let script cfg ~tenant_idx =
  let tenant = tenant_name tenant_idx in
  let rng = Prng.create ~seed:(mix cfg.seed tenant 0x5c71) in
  let gen = Generator.create ~dim:cfg.dim ~seed:(mix cfg.seed tenant 0x9e3d) () in
  let next_id = ref 0 in
  let known = ref [] in
  let frames = ref [] in
  let emit f = frames := f :: !frames in
  let register () =
    let id = !next_id in
    incr next_id;
    known := id :: !known;
    let threshold = 1 + Prng.int rng (max 1 cfg.threshold) in
    emit (Frame.Op { tenant; op = Replay.Register (Generator.query gen ~id ~threshold) })
  in
  for _ = 1 to cfg.queries do
    register ()
  done;
  let remaining = ref cfg.elements in
  while !remaining > 0 do
    let n = min cfg.batch !remaining in
    remaining := !remaining - n;
    if n = 1 then emit (Frame.Op { tenant; op = Replay.Element (Generator.element gen) })
    else
      emit
        (Frame.Batch { tenant; elems = Array.init n (fun _ -> Generator.element gen) });
    if Prng.float rng 1.0 < cfg.churn then begin
      (match !known with
      | [] -> ()
      | ids ->
          (* possibly already matured or terminated — exercising the
             benign-rejection path is the point *)
          let id = List.nth ids (Prng.int rng (List.length ids)) in
          emit (Frame.Op { tenant; op = Replay.Terminate id }));
      register ()
    end
  done;
  List.rev !frames

(* ---- pruned-segment archive ----------------------------------------- *)

let is_seg name =
  String.length name > 8
  && String.sub name 0 4 = "wal-"
  && String.sub name (String.length name - 4) 4 = ".seg"

(* Wrap a base dir so that cold WAL segments are captured the moment
   pruning removes them: archive ++ surviving chain is the node's full
   op history — the fault-free oracle even after the disk-bounding
   machinery has done its job. *)
let archive_wrap ~dim ~record (base : Io.dir) =
  {
    base with
    Io.remove_file =
      (fun name ->
        (if is_seg name then
           match base.Io.read_file name with
           | Some image -> (
               match Wal.scan_segment_string ~dim image with
               | Some (_epoch, sbase, _count, ops) -> record sbase ops
               | None -> ())
           | None -> ());
        base.Io.remove_file name);
  }

(* ---- reports --------------------------------------------------------- *)

type tenant_report = {
  name : string;
  accepted : int;
  applied : int;
  rejected : int;
  restarts : int;
  archived_records : int;
  chain_records : int;  (* records still on the promoted node's disk *)
  chain_base : int;
  matured : int;
  log_ok : bool;
  sub_ok : bool;
  acct_ok : bool;
  chain_ok : bool;  (* archive ++ chain is gap-free from op 1 *)
  disk_ok : bool;
}

type report = {
  per_tenant : tenant_report list;
  promoted : int;
  failovers : int;
  fenced : int;
  crashes_total : int;
  client_retries : int;
  overloads : int;
  net_retransmits : int;
  scenario_ok : bool;
  faults_ok : bool;
  volume_ok : bool;
  pruned_somewhere : bool;
  ok : bool;
}

let pp ppf r =
  Format.fprintf ppf
    "@[<v>rsoak: %s (promoted=%d failovers=%d fenced=%d crashes=%d retries=%d overloads=%d \
     retransmits=%d%s%s%s)@,"
    (if r.ok then "OK" else "FAILED")
    r.promoted r.failovers r.fenced r.crashes_total r.client_retries r.overloads
    r.net_retransmits
    (if r.scenario_ok then "" else " SCENARIO-VIOLATION")
    (if r.faults_ok then "" else " NO-CRASH")
    (if r.volume_ok then "" else " VOLUME-SHORTFALL");
  List.iter
    (fun t ->
      Format.fprintf ppf
        "  %s: accepted=%d applied=%d rejected=%d restarts=%d matured=%d disk=%d+%d \
         archived=%d%s%s%s%s%s@,"
        t.name t.accepted t.applied t.rejected t.restarts t.matured t.chain_base
        t.chain_records t.archived_records
        (if t.log_ok then "" else " LOG-MISMATCH")
        (if t.sub_ok then "" else " SUB-MISMATCH")
        (if t.acct_ok then "" else " ACCT-MISMATCH")
        (if t.chain_ok then "" else " CHAIN-GAP")
        (if t.disk_ok then "" else " DISK-UNBOUNDED"))
    r.per_tenant;
  Format.fprintf ppf "@]"

(* ---- driver ----------------------------------------------------------- *)

let run ?(progress = fun _ -> ()) ~make cfg =
  if cfg.tenants < 1 || cfg.queries < 1 || cfg.elements < 0 || cfg.batch < 1 then
    invalid_arg "Rsoak.run: nonsensical config";
  (match cfg.scenario with
  | Clean -> ()
  | Kill _ | Wedge _ when cfg.cluster.Cluster.serving < 2 ->
      (* with one serving node there is nobody to fail over to *)
      invalid_arg "Rsoak.run: a kill or wedge scenario needs at least one replica"
  | Kill at -> if at < 1 then invalid_arg "Rsoak.run: kill tick must be positive"
  | Wedge { at; duration } ->
      if at < 1 || duration < 1 then invalid_arg "Rsoak.run: bad wedge window");
  let bases : (int * string, Io.dir) Hashtbl.t = Hashtbl.create 16 in
  let archives : (int * string, (int * Replay.op list) list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let archive_of node tenant =
    match Hashtbl.find_opt archives (node, tenant) with
    | Some r -> r
    | None ->
        let r = ref [] in
        Hashtbl.add archives (node, tenant) r;
        r
  in
  let base_of node tenant =
    match Hashtbl.find_opt bases (node, tenant) with
    | Some d -> d
    | None ->
        let arch = archive_of node tenant in
        let d =
          archive_wrap ~dim:cfg.dim
            ~record:(fun sbase ops -> arch := (sbase, ops) :: !arch)
            (Io.mem_dir ())
        in
        Hashtbl.add bases (node, tenant) d;
        d
  in
  let provider ~node ~tenant ~incarnation =
    let base = base_of node tenant in
    if incarnation < cfg.faulty_incarnations then
      let rng =
        Prng.create ~seed:(mix cfg.seed (Printf.sprintf "%s@%d" tenant node) incarnation)
      in
      Fault.wrap ~rng (draw_plan ~crash_every:cfg.crash_every rng) base
    else base
  in
  let ccfg =
    {
      cfg.cluster with
      Cluster.clients = cfg.tenants + 1;
      server =
        { cfg.cluster.Cluster.server with Server.dim = cfg.dim; max_tenants = cfg.tenants };
    }
  in
  let cluster =
    Cluster.create ~config:ccfg ~net_seed:(mix cfg.seed "net" 0) ~make ~provider
      ~base_dir:(fun ~node ~tenant -> base_of node tenant)
      ()
  in
  let clock = Cluster.clock cluster in
  (* client 0 subscribes to everything; clients 1..tenants each drive
     one tenant's script *)
  for i = 0 to cfg.tenants - 1 do
    Cluster.subscribe cluster 0 (tenant_name i)
  done;
  for i = 0 to cfg.tenants - 1 do
    let client = Cluster.client cluster (i + 1) in
    List.iter (fun f -> Client.enqueue client f) (script cfg ~tenant_idx:i)
  done;
  (* wedge injections on the current primary at staggered virtual
     times, cycling tenants, so the watchdog's stall detection restarts
     them too *)
  for w = 0 to cfg.wedges - 1 do
    let name = tenant_name (w mod cfg.tenants) in
    ignore
      (Vclock.schedule clock
         ~delay:(40 + (w * 97))
         (fun () ->
           let p = Cluster.primary cluster in
           if Cluster.alive cluster p then
             match Server.inject_wedge (Cluster.server cluster p) name with
             | () -> ()
             | exception Invalid_argument _ -> ()))
  done;
  (match cfg.scenario with
  | Clean -> ()
  | Kill at ->
      ignore (Vclock.schedule clock ~delay:at (fun () -> Cluster.kill cluster 0))
  | Wedge { at; duration } ->
      ignore (Vclock.schedule clock ~delay:at (fun () -> Cluster.wedge cluster 0));
      ignore
        (Vclock.schedule clock ~delay:(at + duration) (fun () -> Cluster.unwedge cluster 0)));
  let scenario_done () =
    match cfg.scenario with
    | Clean -> true
    | Kill at | Wedge { at; _ } -> Vclock.now clock > at && Cluster.failovers cluster >= 1
  in
  let finished = ref false in
  let rec finish_check () =
    if not !finished then
      if scenario_done () && Cluster.quiescent cluster then begin
        finished := true;
        Cluster.stop cluster
      end
      else ignore (Vclock.schedule clock ~delay:25 finish_check)
  in
  ignore (Vclock.schedule clock ~delay:25 finish_check);
  progress "rsoak: driving the cluster to quiescence";
  Cluster.run cluster;
  progress "rsoak: quiescent; final checkpoint and shutdown";
  (* The in-run checkpoint cadence prunes with whatever ack floor the
     replicas had reached at checkpoint time; the last checkpoint of a
     run routinely lands while a replica still lags, pinning segments.
     At quiescence every ack is in, so one forced checkpoint releases
     them — the clean-shutdown checkpoint any real node would take. *)
  for s = 0 to ccfg.Cluster.serving - 1 do
    if Cluster.alive cluster s then Server.checkpoint_all (Cluster.server cluster s)
  done;
  for s = 0 to ccfg.Cluster.serving - 1 do
    if Cluster.alive cluster s then Server.shutdown (Cluster.server cluster s)
  done;
  Cluster.run cluster;
  progress "rsoak: verifying against the archived-chain oracle";
  let promoted = Cluster.primary cluster in
  let srv = Cluster.server cluster promoted in
  let subscriber = Cluster.client cluster 0 in
  let checkpoint_every = ccfg.Cluster.server.Server.durable.Rts_resilience.Durable.checkpoint_every in
  (* The most ops a checkpoint can trail by. Durable checkpoints once
     [checkpoint_every] ops and WAL bytes reaching half the previous
     checkpoint's size are both logged. The serve path logs one record
     per op, none shorter than a terminate record; the two generations
     kept on disk sized the last interval and the open one. *)
  let checkpoint_interval (dir : Io.dir) =
    let largest =
      List.fold_left
        (fun m (_, file) ->
          match dir.Io.read_file file with Some s -> max m (String.length s) | None -> m)
        0 (Checkpoint.generations ~dir)
    in
    let per_op = 2 * String.length (Wal.frame (Replay.Terminate 0)) in
    max checkpoint_every ((largest + per_op - 1) / per_op)
  in
  let segment_records = ccfg.Cluster.server.Server.segment_records in
  let per_tenant =
    List.init cfg.tenants (fun i ->
        let name = tenant_name i in
        let scanned = Wal.scan ~dim:cfg.dim ~dir:(base_of promoted name) () in
        let archived = List.sort compare !(archive_of promoted name) in
        let chain_ok, archived_ops_rev, archived_end =
          List.fold_left
            (fun (ok, acc, expect) (sbase, ops) ->
              ( ok && sbase = expect,
                List.rev_append ops acc,
                expect + List.length ops ))
            (true, [], 0) archived
        in
        let chain_ok = chain_ok && archived_end = scanned.Wal.base in
        let full_ops = List.rev_append archived_ops_rev scanned.Wal.ops in
        let oracle = Replay.replay_ops (make ~dim:cfg.dim) full_ops in
        let log = Server.maturity_log srv name in
        let sub = Client.matured subscriber name in
        (match Sys.getenv_opt "RTS_SERVE_TRACE" with
        | Some t
          when (t = name || t = "all")
               && (log <> oracle.Replay.maturities || sub <> oracle.Replay.maturities) ->
            let dump tag l =
              Printf.eprintf "[%s] %s (%d):%s\n%!" name tag (List.length l)
                (String.concat "" (List.map (fun (o, id) -> Printf.sprintf " %d:%d" o id) l))
            in
            dump "oracle" oracle.Replay.maturities;
            dump "server" log;
            dump "subscr" sub;
            List.iteri
              (fun i op ->
                Printf.eprintf "[%s] wal ord=%d %s\n%!" name (i + 1) (Replay.op_to_line op))
              full_ops
        | _ -> ());
        let accepted = Server.accepted_ops srv name in
        let applied = Server.applied_ops srv name in
        let rejected = Server.rejected_ops srv name in
        let disk_ok =
          segment_records = 0
          || scanned.Wal.records
             <= (2 * checkpoint_interval (base_of promoted name)) + (2 * segment_records) + 128
        in
        {
          name;
          accepted;
          applied;
          rejected;
          restarts = Server.restarts srv name;
          archived_records = List.length archived_ops_rev;
          chain_records = scanned.Wal.records;
          chain_base = scanned.Wal.base;
          matured = List.length log;
          log_ok = log = oracle.Replay.maturities;
          sub_ok = sub = oracle.Replay.maturities;
          acct_ok =
            accepted = applied + rejected && scanned.Wal.base + scanned.Wal.records = applied;
          chain_ok;
          disk_ok;
        })
  in
  let scenario_ok =
    match cfg.scenario with
    | Clean ->
        (* a timeout detector under a lossy network can fire spuriously
           even with a healthy primary; the deposed incumbent halts and
           the correctness checks above still govern the outcome, so a
           clean run only demands that any failover was handled, not
           that none happened (pinned-seed tests assert zero) *)
        true
    | Kill _ ->
        Cluster.failovers cluster >= 1 && promoted <> 0 && not (Cluster.alive cluster 0)
    | Wedge _ ->
        Cluster.failovers cluster >= 1
        && promoted <> 0
        && Cluster.fail_stopped cluster 0
        && Cluster.fenced cluster > 0
  in
  let volume_ok =
    segment_records = 0
    || List.for_all (fun t -> t.applied >= 10 * checkpoint_every) per_tenant
  in
  let pruned_somewhere = List.exists (fun t -> t.chain_base > 0) per_tenant in
  let crashes_total =
    let n = ref 0 in
    for s = 0 to ccfg.Cluster.serving - 1 do
      n := !n + Server.crashes (Cluster.server cluster s)
    done;
    !n
  in
  let faults_ok = cfg.faulty_incarnations = 0 || crashes_total > 0 in
  let sum_clients f =
    let n = ref 0 in
    for j = 0 to ccfg.Cluster.clients - 1 do
      n := !n + f (Cluster.client cluster j)
    done;
    !n
  in
  let net_retransmits =
    Metrics.counter_value (Cluster.net_metrics cluster) "net_retransmits_total"
  in
  (* [ok] is the correctness verdict alone. [volume_ok] is reported but
     not folded in: how many ops survive to application depends on
     fault-plan luck (a disk-full window sheds whole batches, a kill
     drops the accepted-but-unapplied tail — both documented
     at-least-once admission), so it is asserted only by tests that pin
     seed and scenario. *)
  let ok =
    List.for_all (fun t -> t.log_ok && t.sub_ok && t.acct_ok && t.chain_ok && t.disk_ok)
      per_tenant
    && scenario_ok && faults_ok
    && (segment_records = 0 || pruned_somewhere)
  in
  {
    per_tenant;
    promoted;
    failovers = Cluster.failovers cluster;
    fenced = Cluster.fenced cluster;
    crashes_total;
    client_retries = sum_clients Client.retries;
    overloads = sum_clients (fun c -> List.length (Client.overloads c));
    net_retransmits;
    scenario_ok;
    faults_ok;
    volume_ok;
    pruned_somewhere;
    ok;
  }
