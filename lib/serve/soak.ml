module Prng = Rts_util.Prng
module Types = Rts_core.Types
module Replay = Rts_workload.Replay
module Generator = Rts_workload.Generator
module Io = Rts_resilience.Io
module Fault = Rts_resilience.Fault
module Wal = Rts_resilience.Wal
module Vclock = Rts_net.Vclock
module Net_fault = Rts_net.Net_fault
module Reliable = Rts_net.Reliable
module Metrics = Rts_obs.Metrics

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
  net : Net_fault.spec;
  reliable : Reliable.config;
  server : Server.config;
}

let default =
  {
    tenants = 3;
    queries = 40;
    elements = 600;
    batch = 8;
    threshold = 2500;
    churn = 0.15;
    dim = 2;
    seed = 1;
    faulty_incarnations = 4;
    crash_every = 150;
    wedges = 2;
    net = { Net_fault.none with drop = 0.1; duplicate = 0.05; reorder = 0.2 };
    reliable = Reliable.default;
    server =
      {
        Server.default with
        Server.queue_capacity = 16;
        drain_per_tick = 6;
        durable = { Rts_resilience.Durable.default with fsync_every = 7; checkpoint_every = 97 };
      };
  }

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

type tenant_report = {
  name : string;
  accepted : int;
  applied : int;
  rejected : int;
  wal_records : int;
  restarts : int;
  matured : int;
  log_ok : bool;
  sub_ok : bool;
  acct_ok : bool;
}

type report = {
  per_tenant : tenant_report list;
  crashes : int;
  restarts_total : int;
  client_retries : int;
  overloads : int;
  net_retransmits : int;
  ok : bool;
}

let tenant_name i = Printf.sprintf "t%d" i

(* Build each tenant's frame script: registrations, batched elements,
   churn. Returned in send order. *)
let script ~seed ~dim ~queries ~elements ~batch ~threshold ~churn ~tenant_idx =
  let tenant = tenant_name tenant_idx in
  let rng = Prng.create ~seed:(mix seed tenant 0x5c71) in
  let gen = Generator.create ~dim ~seed:(mix seed tenant 0x9e3d) () in
  let next_id = ref 0 in
  let known = ref [] in
  let frames = ref [] in
  let emit f = frames := f :: !frames in
  let register () =
    let id = !next_id in
    incr next_id;
    known := id :: !known;
    let threshold = 1 + Prng.int rng (max 1 threshold) in
    emit (Frame.Op { tenant; op = Replay.Register (Generator.query gen ~id ~threshold) })
  in
  for _ = 1 to queries do
    register ()
  done;
  let remaining = ref elements in
  while !remaining > 0 do
    let n = min batch !remaining in
    remaining := !remaining - n;
    if n = 1 then emit (Frame.Op { tenant; op = Replay.Element (Generator.element gen) })
    else
      emit
        (Frame.Batch { tenant; elems = Array.init n (fun _ -> Generator.element gen) });
    if Prng.float rng 1.0 < churn then begin
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

let run ?(progress = fun _ -> ()) ~make cfg =
  if cfg.tenants < 1 || cfg.queries < 1 || cfg.elements < 0 || cfg.batch < 1 then
    invalid_arg "Soak.run: nonsensical config";
  let bases : (string, Io.dir) Hashtbl.t = Hashtbl.create 8 in
  let base_of tenant =
    match Hashtbl.find_opt bases tenant with
    | Some d -> d
    | None ->
        let d = Io.mem_dir () in
        Hashtbl.add bases tenant d;
        d
  in
  let provider ~tenant ~incarnation =
    let base = base_of tenant in
    if incarnation < cfg.faulty_incarnations then
      let rng = Prng.create ~seed:(mix cfg.seed tenant incarnation) in
      Fault.wrap ~rng (draw_plan ~crash_every:cfg.crash_every rng) base
    else base
  in
  let server_config = { cfg.server with Server.dim = cfg.dim; max_tenants = cfg.tenants } in
  (* one client per tenant, plus a dedicated subscriber watching all *)
  let hub =
    Hub.create ~server_config ~net:cfg.net ~reliable:cfg.reliable
      ~net_seed:(mix cfg.seed "net" 0) ~clients:(cfg.tenants + 1) ~make ~provider ()
  in
  let server = Hub.server hub in
  let subscriber = Hub.client hub cfg.tenants in
  for i = 0 to cfg.tenants - 1 do
    Client.enqueue subscriber (Frame.Subscribe { tenant = tenant_name i; after = 0 })
  done;
  for i = 0 to cfg.tenants - 1 do
    let frames =
      script ~seed:cfg.seed ~dim:cfg.dim ~queries:cfg.queries ~elements:cfg.elements
        ~batch:cfg.batch ~threshold:cfg.threshold ~churn:cfg.churn ~tenant_idx:i
    in
    let client = Hub.client hub i in
    List.iter (fun f -> Client.enqueue client f) frames
  done;
  (* wedge injections at staggered virtual times, cycling tenants *)
  for w = 0 to cfg.wedges - 1 do
    let name = tenant_name (w mod cfg.tenants) in
    ignore
      (Vclock.schedule (Hub.clock hub)
         ~delay:(40 + (w * 97))
         (fun () ->
           match Server.inject_wedge server name with
           | () -> ()
           | exception Invalid_argument _ -> ()))
  done;
  progress "soak: driving churn to quiescence";
  Hub.run hub;
  progress "soak: quiescent; shutting down";
  Server.shutdown server;
  (* flush the Matured pushes emitted during the final drain *)
  Hub.run hub;
  progress "soak: verifying against the WAL oracle";
  let per_tenant =
    List.init cfg.tenants (fun i ->
        let name = tenant_name i in
        let scanned = Wal.scan ~dim:cfg.dim ~dir:(base_of name) () in
        let oracle = Replay.replay_ops (make ~dim:cfg.dim) scanned.Wal.ops in
        let log = Server.maturity_log server name in
        let sub = Client.matured subscriber name in
        (match Sys.getenv_opt "RTS_SERVE_TRACE" with
        | Some t
          when (t = name || t = "all")
               && (log <> oracle.Replay.maturities || sub <> oracle.Replay.maturities) ->
            let dump tag l =
              Printf.eprintf "[%s] %s (%d):%s\n%!" name tag (List.length l)
                (String.concat ""
                   (List.map (fun (o, id) -> Printf.sprintf " %d:%d" o id) l))
            in
            dump "oracle" oracle.Replay.maturities;
            dump "server" log;
            dump "subscr" sub;
            List.iteri
              (fun i op ->
                Printf.eprintf "[%s] wal ord=%d %s\n%!" name (i + 1) (Replay.op_to_line op))
              scanned.Wal.ops
        | _ -> ());
        let accepted = Server.accepted_ops server name in
        let applied = Server.applied_ops server name in
        let rejected = Server.rejected_ops server name in
        {
          name;
          accepted;
          applied;
          rejected;
          wal_records = scanned.Wal.base + scanned.Wal.records;
          restarts = Server.restarts server name;
          matured = List.length log;
          log_ok = log = oracle.Replay.maturities;
          sub_ok = sub = oracle.Replay.maturities;
          acct_ok =
            accepted = applied + rejected
            && scanned.Wal.base + scanned.Wal.records = applied;
        })
  in
  let crashes = Server.crashes server in
  let snap = Server.metrics server in
  let restarts_total = Metrics.counter_value snap "serve_restarts_total" in
  let client_retries =
    let n = ref 0 in
    for i = 0 to Hub.clients hub - 1 do
      n := !n + Client.retries (Hub.client hub i)
    done;
    !n
  in
  let overloads =
    let n = ref 0 in
    for i = 0 to Hub.clients hub - 1 do
      n := !n + List.length (Client.overloads (Hub.client hub i))
    done;
    !n
  in
  let net_retransmits =
    Metrics.counter_value (Hub.net_metrics hub) "net_retransmits_total"
  in
  let ok =
    List.for_all (fun r -> r.log_ok && r.sub_ok && r.acct_ok) per_tenant
    && (cfg.faulty_incarnations = 0 || crashes > 0)
  in
  { per_tenant; crashes; restarts_total; client_retries; overloads; net_retransmits; ok }

let pp_report ppf r =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun t ->
      Format.fprintf ppf
        "tenant %-6s accepted=%-6d applied=%-6d rejected=%-4d wal=%-6d restarts=%-3d \
         matured=%-5d log=%s sub=%s acct=%s@,"
        t.name t.accepted t.applied t.rejected t.wal_records t.restarts t.matured
        (if t.log_ok then "ok" else "MISMATCH")
        (if t.sub_ok then "ok" else "MISMATCH")
        (if t.acct_ok then "ok" else "MISMATCH"))
    r.per_tenant;
  Format.fprintf ppf
    "crashes=%d restarts=%d client_retries=%d overloads=%d net_retransmits=%d => %s@]"
    r.crashes r.restarts_total r.client_retries r.overloads r.net_retransmits
    (if r.ok then "PASS" else "FAIL")
