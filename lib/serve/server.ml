module Engine = Rts_core.Engine
module Metrics = Rts_obs.Metrics
module Replay = Rts_workload.Replay
module Vclock = Rts_net.Vclock
module Io = Rts_resilience.Io
module Fault = Rts_resilience.Fault
module Durable = Rts_resilience.Durable
module Wal = Rts_resilience.Wal
module Recovery = Rts_resilience.Recovery
module Shard = Rts_shard.Shard
module Spsc_ring = Rts_shard.Spsc_ring

type config = {
  dim : int;
  max_tenants : int;
  query_quota : int;
  wal_lag_limit : int;
  queue_capacity : int;
  drain_per_tick : int;
  retry_after : int;
  watchdog_interval : int;
  wedge_timeout : int;
  max_restarts : int;
  shards : int;
  executor : Rts_shard.Executor.kind option;
  durable : Durable.config;
  segment_records : int;
}

let default =
  {
    dim = 2;
    max_tenants = 8;
    query_quota = 4096;
    wal_lag_limit = 512;
    queue_capacity = 64;
    drain_per_tick = 8;
    retry_after = 4;
    watchdog_interval = 8;
    wedge_timeout = 24;
    max_restarts = 1000;
    shards = 1;
    executor = None;
    durable = Durable.default;
    segment_records = 0;
  }

type health = Serving | Crashed of { disk_full : bool }

type role = Primary | Replica

(* Hooks the replication layer installs on a primary. The server stays
   transport-agnostic: it reports each committed op ([on_applied]) and
   reads back two scalars — [ack_floor], the highest op ordinal every
   replica has acknowledged as durable (the maturity-push gate), and
   [lag], the replication backlog folded into the [Wal_lag] admission
   gate so intake sheds load when replicas fall behind. *)
type replication = {
  on_applied : tenant:string -> index:int -> op:Replay.op -> unit;
  ack_floor : tenant:string -> int;
  lag : tenant:string -> int;
}

type tenant = {
  name : string;
  mutable incarnation : int;
  mutable engine : Engine.t;
  mutable handle : Durable.handle option;
      (* the running life's. When the life ends it is kept, closed, so
         [durable_floor] still reads what its WAL writer last reported;
         it is live only while Serving and not shut down. *)
  mutable life_dir : Io.dir option;
  mutable close_life : unit -> unit;
  mutable health : health;
  ring : Replay.op Spsc_ring.t;  (* accepted, not yet picked up *)
  backlog : Replay.op Queue.t;  (* picked up / resubmitted, not yet applied *)
  replay : (int * Replay.op) Queue.t;  (* applied, possibly not yet durable *)
  mutable in_flight : (int * Replay.op) option;
      (* the op currently inside the engine+WAL apply, with the ordinal
         it will own if it commits. A storage fault can strike AFTER the
         WAL record became durable (fsync boundary, surviving unsynced
         prefix) — recovery decides from [report.ops_total] whether this
         op committed (finish its bookkeeping) or not (re-apply it). *)
  mutable applied : int;  (* op ordinal = WAL record ordinal *)
  mutable elements : int;  (* element ordinal *)
  mutable accepted : int;
  mutable rejected : int;  (* benign engine rejections *)
  mutable pending_registers : int;
  mutable notified_through : int;  (* maturities staged up to this op ordinal *)
  mutable log : (int * int) list;  (* (element ordinal, id), reversed *)
  pending_pushes : (int * int * int list) Queue.t;
      (* (op ordinal, element ordinal, ids) staged but held back by the
         replication ack floor — flushed in order as acks advance, so a
         maturity is never pushed before every replica holds its op
         durably (never-early across failover). Always empty without
         replication, and on replicas (no subscribers, floor = max). *)
  mutable subscribers : int list;  (* in subscription order *)
  mutable last_progress : int;
  mutable wedged : bool;
  mutable restart_count : int;
  mutable drain_armed : bool;
}

type t = {
  config : config;
  clock : Vclock.t;
  make : dim:int -> Engine.t;
  provider : tenant:string -> incarnation:int -> Io.dir;
  send : dst:int -> Frame.server -> unit;
  tenants : (string, tenant) Hashtbl.t;
  order : string Queue.t;
  mutable role : role;
  mutable epoch : int;  (* fencing incarnation; stamps new WAL lives *)
  mutable replication : replication option;
  mutable watchdog_armed : bool;
  mutable shutting : bool;
  reg : Metrics.t;
  c_accepted : Metrics.counter;
  c_applied : Metrics.counter;
  c_rejected : Metrics.counter;
  c_matured : Metrics.counter;
  c_retry : Metrics.counter;
  c_overloaded : Metrics.counter;
  c_crashes : Metrics.counter;
  c_restarts : Metrics.counter;
  c_wedges : Metrics.counter;
  g_tenants : Metrics.gauge;
}

let trace_target = Sys.getenv_opt "RTS_SERVE_TRACE"

let tracing tenant =
  match trace_target with Some target -> target = tenant || target = "all" | None -> false

(* [Printf.ifprintf] still evaluates the arguments, so a caller whose
   argument costs something checks {!tracing} first. *)
let trace tenant fmt =
  if tracing tenant then Printf.eprintf ("[%s] " ^^ fmt ^^ "\n%!") tenant
  else Printf.ifprintf stderr fmt

let overload_counter t reason =
  Metrics.counter t.reg
    (Printf.sprintf "serve_overloaded_%s_total" (Frame.reason_to_string reason))

(* ---- tenant bookkeeping ------------------------------------------- *)

let stub_engine dim : Engine.t =
  let fail _ = invalid_arg "rts-serve: tenant engine not started" in
  {
    Engine.name = "stub";
    dim;
    register = fail;
    register_batch = fail;
    terminate = fail;
    process = fail;
    feed_batch = fail;
    alive = fail;
    alive_snapshot = fail;
    metrics = (fun () -> Engine.no_metrics ());
  }

let has_work tenant =
  tenant.in_flight <> None
  || (not (Queue.is_empty tenant.backlog))
  || not (Spsc_ring.is_empty tenant.ring)

let durable_floor tenant =
  match tenant.handle with Some h -> Durable.synced h | None -> 0

let wal_lag tenant =
  tenant.applied - durable_floor tenant + Queue.length tenant.backlog
  + Spsc_ring.length tenant.ring
  + (match tenant.in_flight with Some _ -> 1 | None -> 0)

let replica_lag t tenant =
  match t.replication with Some r -> r.lag ~tenant:tenant.name | None -> 0

(* Highest op ordinal whose maturities may be pushed to subscribers.
   Without replication (or on a replica, which has no subscribers) there
   is no failover to be early against, so the floor is unbounded and
   pushes stay synchronous — the pre-replication behaviour. *)
let push_floor t tenant =
  match t.replication with
  | Some r when t.role = Primary -> r.ack_floor ~tenant:tenant.name
  | _ -> max_int

let push t tenant ~ordinal ~ids =
  List.iter
    (fun dst -> t.send ~dst (Frame.Matured { tenant = tenant.name; ordinal; ids }))
    tenant.subscribers

(* Stage one op's maturities: append to the tenant log (the log is the
   oracle of what this node attributed, pushed or not), then either push
   now or park behind the replication ack floor. *)
let emit_maturity t tenant ~ord ~ordinal ~ids =
  tenant.log <- List.rev_append (List.map (fun id -> (ordinal, id)) ids) tenant.log;
  Metrics.add t.c_matured (List.length ids);
  if ord <= push_floor t tenant then push t tenant ~ordinal ~ids
  else Queue.add (ord, ordinal, ids) tenant.pending_pushes

(* Release parked pushes whose op every replica now holds durably. The
   replication layer calls this (via [flush_pushes]) whenever an ack
   advances the floor. FIFO pop preserves ordinal order per subscriber. *)
let flush_pending t tenant =
  let floor = push_floor t tenant in
  let rec go () =
    match Queue.peek_opt tenant.pending_pushes with
    | Some (ord, ordinal, ids) when ord <= floor ->
        ignore (Queue.pop tenant.pending_pushes);
        push t tenant ~ordinal ~ids;
        go ()
    | _ -> ()
  in
  go ()

(* Replay entries are dropped only below the handle's checkpoint floor
   — the ordinal covered by CRC-verified durability (a published
   checkpoint, or the recovery scan at life start). The fsync-based
   [durable_floor] is NOT a safe prune bound: a torn write can silently
   truncate a record the writer believes fsynced, and the scanner then
   amputates it — the op must still be in the replay queue to be
   resubmitted. *)
let prune_replay tenant h =
  let floor = Durable.last_checkpoint_ops h in
  let rec go () =
    match Queue.peek_opt tenant.replay with
    | Some (ord, _) when ord <= floor ->
        ignore (Queue.pop tenant.replay);
        go ()
    | _ -> ()
  in
  go ()

let life_factory t =
  if t.config.shards <= 1 && t.config.executor = None then (t.make, fun () -> ())
  else Shard.factory ?executor:t.config.executor ~shards:(max 1 t.config.shards) t.make

let end_life tenant =
  (match tenant.handle with
  | Some h -> ( try Durable.close h with _ -> ())
  | None -> ());
  (try tenant.close_life () with _ -> ());
  tenant.close_life <- (fun () -> ())

(* Start (or restart) a tenant life: recover from the incarnation's dir,
   wrap durable, and push the applied-but-not-durable suffix back in
   front of the backlog so it is re-applied — in original order, with
   the original ordinals. Returns [false] (leaving the tenant crashed)
   if storage faults strike during recovery itself. *)
let start_life t tenant =
  let dir = t.provider ~tenant:tenant.name ~incarnation:tenant.incarnation in
  let make, close_life = life_factory t in
  match
    let engine, report = Recovery.recover ~dim:t.config.dim ~make ~dir () in
    let engine, handle =
      Durable.wrap ~config:t.config.durable ~report
        ?wal_epoch:(if t.epoch > 0 then Some t.epoch else None)
        ~segment_records:t.config.segment_records ~dir engine
    in
    (engine, handle, report)
  with
  | engine, handle, report ->
      tenant.engine <- engine;
      tenant.handle <- Some handle;
      tenant.life_dir <- Some dir;
      tenant.close_life <- close_life;
      tenant.applied <- report.Recovery.ops_total;
      tenant.elements <- report.Recovery.elements_total;
      tenant.health <- Serving;
      tenant.wedged <- false;
      tenant.last_progress <- Vclock.now t.clock;
      (* Settle the op that was mid-apply when the previous life died.
         If the recovery report covers its ordinal, the WAL record hit
         disk before the fault: the op committed, so finish the
         bookkeeping the exception interrupted (including its maturity
         notifications, recovered from the replayed suffix — see
         [maybe_checkpoint] for why they are always there). Otherwise
         the record was lost with the crash and the op re-applies first,
         ahead of everything else. *)
      let resurrect =
        match tenant.in_flight with
        | None -> []
        | Some (ord, op) when ord > report.Recovery.ops_total ->
            tenant.in_flight <- None;
            [ op ]
        | Some (ord, op) ->
            tenant.in_flight <- None;
            (match op with
            | Replay.Register _ ->
                tenant.pending_registers <- tenant.pending_registers - 1
            | _ -> ());
            Metrics.incr t.c_applied;
            (if ord > tenant.notified_through then begin
               tenant.notified_through <- ord;
               match op with
               | Replay.Element _ ->
                   let ordinal = report.Recovery.elements_total in
                   let ids =
                     List.filter_map
                       (fun (eord, id) -> if eord = ordinal then Some id else None)
                       report.Recovery.maturities
                   in
                   if ids <> [] then emit_maturity t tenant ~ord ~ordinal ~ids
               | Replay.Register _ | Replay.Terminate _ -> ()
             end);
            (* the fault interrupted [apply_op] before it could report
               this committed op to the replication layer — do it now,
               or the record would never ship *)
            (match t.replication with
            | Some r -> r.on_applied ~tenant:tenant.name ~index:ord ~op
            | None -> ());
            []
      in
      let lost =
        Queue.fold
          (fun acc (ord, op) -> if ord > tenant.applied then op :: acc else acc)
          [] tenant.replay
      in
      Queue.clear tenant.replay;
      let tail = List.of_seq (Queue.to_seq tenant.backlog) in
      Queue.clear tenant.backlog;
      List.iter
        (fun op -> Queue.add op tenant.backlog)
        (List.rev_append lost (resurrect @ tail));
      trace tenant.name
        "reconcile inc=%d ops_total=%d lost=%d resurrect=%d backlog=%d ring=%d \
         wal_records=%d replayed=%d ckpt_gen=%s ckpt_ops=%d discarded=%d"
        tenant.incarnation report.Recovery.ops_total (List.length lost)
        (List.length resurrect) (Queue.length tenant.backlog)
        (Spsc_ring.length tenant.ring) report.Recovery.wal_records
        report.Recovery.ops_replayed
        (match report.Recovery.checkpoint_gen with
        | Some g -> string_of_int g
        | None -> "-")
        report.Recovery.checkpoint_ops report.Recovery.bytes_discarded;
      true
  | exception Fault.Crash _ ->
      (try close_life () with _ -> ());
      tenant.health <- Crashed { disk_full = false };
      false
  | exception Io.No_space ->
      (try close_life () with _ -> ());
      tenant.health <- Crashed { disk_full = true };
      false
  | exception (Recovery.Gap _ as e) ->
      (* unrecoverable directory: a restart would only meet it again *)
      (try close_life () with _ -> ());
      raise e

let fresh_tenant t name =
  {
    name;
    incarnation = 0;
    engine = stub_engine t.config.dim;
    handle = None;
    life_dir = None;
    close_life = (fun () -> ());
    health = Crashed { disk_full = false };
    ring = Spsc_ring.create ~capacity:t.config.queue_capacity;
    backlog = Queue.create ();
    replay = Queue.create ();
    in_flight = None;
    applied = 0;
    elements = 0;
    accepted = 0;
    rejected = 0;
    pending_registers = 0;
    notified_through = 0;
    log = [];
    pending_pushes = Queue.create ();
    subscribers = [];
    last_progress = 0;
    wedged = false;
    restart_count = 0;
    drain_armed = false;
  }

(* ---- the apply path ------------------------------------------------ *)

(* Apply one op at the tenant's next ordinal. Storage faults
   (Fault.Crash, Io.No_space) propagate with the op parked in
   [in_flight] — whether it consumed its ordinal is unknowable here
   (the WAL record may or may not have reached disk before the fault),
   so [start_life] decides from the recovery report. Benign engine
   rejections (duplicate register, unknown terminate) consume no
   ordinal: [Durable.apply] logs after applying, so a rejected op never
   reaches the WAL. It never checkpoints: checkpoints wait for a
   quiescent drain tick ([maybe_checkpoint]). Ops are applied only
   while a life runs, so the handle is live. *)
let apply_op t tenant op =
  tenant.in_flight <- Some (tenant.applied + 1, op);
  let h = Option.get tenant.handle in
  match Durable.apply h op with
  | matured ->
      tenant.in_flight <- None;
      tenant.applied <- tenant.applied + 1;
      if tracing tenant.name then
        trace tenant.name "apply ord=%d %s" tenant.applied (Replay.op_to_line op);
      (match op with
      | Replay.Element _ -> tenant.elements <- tenant.elements + 1
      | Replay.Register _ -> tenant.pending_registers <- tenant.pending_registers - 1
      | Replay.Terminate _ -> ());
      Queue.add (tenant.applied, op) tenant.replay;
      prune_replay tenant h;
      Metrics.incr t.c_applied;
      tenant.last_progress <- Vclock.now t.clock;
      (* Exactly-once, never-early notification across restarts: ops at
         or below [notified_through] are re-applies of already-notified
         work — bit-identical replay means their maturities were already
         pushed, so pushing again would duplicate, and there is nothing
         new to push early. *)
      if tenant.applied > tenant.notified_through then begin
        tenant.notified_through <- tenant.applied;
        if matured <> [] then
          emit_maturity t tenant ~ord:tenant.applied ~ordinal:tenant.elements ~ids:matured
      end;
      (match t.replication with
      | Some r -> r.on_applied ~tenant:tenant.name ~index:tenant.applied ~op
      | None -> ())
  | exception ((Fault.Crash _ | Io.No_space) as ex) -> raise ex
  | exception (Invalid_argument _ | Not_found) ->
      tenant.in_flight <- None;
      (match op with
      | Replay.Register _ -> tenant.pending_registers <- tenant.pending_registers - 1
      | _ -> ());
      tenant.rejected <- tenant.rejected + 1;
      if tracing tenant.name then trace tenant.name "reject %s" (Replay.op_to_line op);
      Metrics.incr t.c_rejected;
      tenant.last_progress <- Vclock.now t.clock

(* Apply as many queued ops as [budget] allows. Returns normally when
   the budget or the queues are exhausted; storage faults propagate with
   the faulting op parked in [in_flight] for [start_life] to settle. *)
let drain_some t tenant ~budget =
  let budget = ref budget in
  let continue = ref true in
  while !continue && !budget > 0 do
    match Queue.take_opt tenant.backlog with
    | Some op ->
        apply_op t tenant op;
        decr budget
    | None -> (
        match Spsc_ring.try_pop tenant.ring with
        | Some op ->
            apply_op t tenant op;
            decr budget
        | None -> continue := false)
  done

(* Read-back verification: sync, then CRC-scan the WAL and require the
   on-disk record count to equal the ops applied. A torn write can
   silently truncate a record mid-pending-buffer; once flushed it sits
   mid-file, where the scanner will amputate it AND every record after
   it. Catching that now — before a checkpoint is published over it —
   matters doubly: a checkpoint covering a torn record would let
   recovery bridge the hole, after which WAL record indices no longer
   equal op ordinals and every later durability comparison is skewed.
   Detection is surfaced as a crash so the normal supervision path
   (recover from the last consistent state, resubmit from the replay
   queue) repairs it. *)
let verify_wal t tenant =
  match (tenant.handle, tenant.life_dir) with
  | Some h, Some dir ->
      Durable.sync h;
      let scanned = Wal.scan ~dim:t.config.dim ~dir () in
      if scanned.Wal.base + scanned.Wal.records <> tenant.applied then
        raise
          (Fault.Crash
             (Printf.sprintf "wal verify: %d records on disk (base %d), %d ops applied"
                (scanned.Wal.base + scanned.Wal.records)
                scanned.Wal.base tenant.applied))
  | _ -> ()

(* Checkpoint at a quiescent point — never from inside an apply. This
   keeps the invariant [start_life] relies on: a checkpoint can never
   cover the in-flight op, so a committed in-flight op is always in the
   replayed WAL suffix and its maturities are recoverable from the
   report. (For the same reason ops go through [Durable.apply], which
   never checkpoints.) The WAL is read-back verified first so a
   checkpoint never publishes over a silently torn record. *)
let checkpoint_tenant t tenant =
  match tenant.handle with
  | None -> ()
  | Some h ->
      verify_wal t tenant;
      Durable.checkpoint_now h;
      trace tenant.name "checkpoint at %d" tenant.applied;
      prune_replay tenant h;
      (* with rotation on, closed segments wholly below both the new
         checkpoint and the replica ack floor are dead weight: recovery
         starts from the checkpoint, and every replica already holds
         those records durably. [Durable.prune_wal] re-floors at the
         checkpoint, so an unreplicated server prunes on checkpoints
         alone; a lagging replica holds segments on the primary's disk
         (deliberately — they are its catch-up source of truth). *)
      if t.config.segment_records > 0 then begin
        let floor =
          match t.replication with
          | Some r -> min tenant.applied (r.ack_floor ~tenant:tenant.name)
          | None -> tenant.applied
        in
        ignore (Durable.prune_wal h ~below:floor)
      end

let maybe_checkpoint t tenant =
  match tenant.handle with
  | Some h when Durable.checkpoint_due h -> checkpoint_tenant t tenant
  | _ -> ()

(* ---- supervision --------------------------------------------------- *)

let rec arm_drain t tenant =
  if
    (not tenant.drain_armed) && (not t.shutting) && tenant.health = Serving
    && (not tenant.wedged) && has_work tenant
  then begin
    tenant.drain_armed <- true;
    ignore (Vclock.schedule t.clock ~delay:1 (fun () -> drain_tick t tenant))
  end

and drain_tick t tenant =
  tenant.drain_armed <- false;
  if t.shutting || tenant.wedged || tenant.health <> Serving then ()
  else begin
    guard_storage t tenant (fun () ->
        drain_some t tenant ~budget:t.config.drain_per_tick;
        maybe_checkpoint t tenant);
    arm_drain t tenant
  end

(* Run [f]; a storage fault inside it crashes the tenant, to be
   supervised as usual. *)
and guard_storage t tenant f =
  try f () with
  | Fault.Crash _ -> mark_crashed t tenant ~disk_full:false
  | Io.No_space -> mark_crashed t tenant ~disk_full:true

and mark_crashed t tenant ~disk_full =
  trace tenant.name "crash disk_full=%b applied=%d in_flight=%s backlog=%d ring=%d"
    disk_full tenant.applied
    (match tenant.in_flight with
    | Some (ord, op) -> Printf.sprintf "%d:%s" ord (Replay.op_to_line op)
    | None -> "-")
    (Queue.length tenant.backlog) (Spsc_ring.length tenant.ring);
  tenant.health <- Crashed { disk_full };
  Metrics.incr t.c_crashes;
  end_life tenant;
  arm_watchdog t

and arm_watchdog t =
  if (not t.watchdog_armed) && not t.shutting then begin
    t.watchdog_armed <- true;
    ignore (Vclock.schedule t.clock ~delay:t.config.watchdog_interval (fun () -> watchdog t))
  end

and watchdog t =
  t.watchdog_armed <- false;
  if not t.shutting then begin
    let again = ref false in
    iter_tenants t (fun tenant ->
        match tenant.health with
        | Crashed _ -> if not (restart t tenant) then again := true
        | Serving when tenant.wedged && has_work tenant ->
            if Vclock.now t.clock - tenant.last_progress >= t.config.wedge_timeout then begin
              end_life tenant;
              if not (restart t tenant) then again := true
            end
            else again := true
        | Serving -> ());
    if !again then arm_watchdog t
  end

and restart t tenant =
  tenant.restart_count <- tenant.restart_count + 1;
  Metrics.incr t.c_restarts;
  if tenant.restart_count > t.config.max_restarts then
    failwith
      (Printf.sprintf "rts-serve: tenant %s exceeded %d restarts (crash loop)" tenant.name
         t.config.max_restarts);
  end_life tenant;
  tenant.incarnation <- tenant.incarnation + 1;
  if start_life t tenant then begin
    arm_drain t tenant;
    true
  end
  else false

and iter_tenants t f =
  Queue.iter (fun name -> f (Hashtbl.find t.tenants name)) t.order

(* Clean-shutdown checkpoint: force a checkpoint (and segment prune) on
   every serving tenant regardless of the op-count cadence. The in-run
   cadence prunes with whatever ack floor the replicas have reached by
   checkpoint time; at quiescence the floor has caught up, so one final
   checkpoint releases the segments a lagging replica pinned. *)
let checkpoint_all t =
  if not t.shutting then
    iter_tenants t (fun tenant ->
        if tenant.health = Serving && not tenant.wedged then
          guard_storage t tenant (fun () -> checkpoint_tenant t tenant))

(* ---- admission ----------------------------------------------------- *)

let admission t tenant ops =
  let registers =
    List.fold_left (fun n op -> match op with Replay.Register _ -> n + 1 | _ -> n) 0 ops
  in
  (* replication lag rides the same gate as local durability lag: an op
     is a liability until it is durable here AND on every replica, so
     both backlogs bound intake (quorum-lag shedding). *)
  let lag tenant = wal_lag tenant + replica_lag t tenant in
  match tenant.health with
  | Crashed { disk_full = true } -> Some Frame.Disk_full
  | Crashed { disk_full = false } ->
      (* engine unavailable mid-recovery: the quota can't be read,
         but the durability backlog still gates intake *)
      if lag tenant + List.length ops > t.config.wal_lag_limit then Some Frame.Wal_lag
      else None
  | Serving ->
      if lag tenant + List.length ops > t.config.wal_lag_limit then Some Frame.Wal_lag
      else if
        registers > 0
        && tenant.engine.Engine.alive () + tenant.pending_registers + registers
           > t.config.query_quota
      then Some Frame.Quota
      else None

let get_or_create t name =
  match Hashtbl.find_opt t.tenants name with
  | Some tenant -> Ok tenant
  | None ->
      if Hashtbl.length t.tenants >= t.config.max_tenants then
        Error (Frame.Overloaded { tenant = name; reason = Frame.Tenants })
      else begin
        let tenant = fresh_tenant t name in
        Hashtbl.add t.tenants name tenant;
        Queue.add name t.order;
        Metrics.set t.g_tenants (float_of_int (Hashtbl.length t.tenants));
        if not (start_life t tenant) then arm_watchdog t;
        Ok tenant
      end

let ingest t ~src name ops =
  match get_or_create t name with
  | Error (Frame.Overloaded { reason; _ } as reply) ->
      Metrics.incr t.c_overloaded;
      Metrics.incr (overload_counter t reason);
      t.send ~dst:src reply
  | Error reply -> t.send ~dst:src reply
  | Ok tenant -> (
      match admission t tenant ops with
      | Some reason ->
          Metrics.incr t.c_overloaded;
          Metrics.incr (overload_counter t reason);
          t.send ~dst:src (Frame.Overloaded { tenant = name; reason })
      | None ->
          let n = List.length ops in
          let room = Spsc_ring.capacity tenant.ring - Spsc_ring.length tenant.ring in
          if n > room then begin
            Metrics.incr t.c_retry;
            t.send ~dst:src (Frame.Retry_after { ticks = t.config.retry_after })
          end
          else begin
            List.iter
              (fun op ->
                ignore (Spsc_ring.try_push tenant.ring op);
                match op with
                | Replay.Register _ ->
                    tenant.pending_registers <- tenant.pending_registers + 1
                | _ -> ())
              ops;
            tenant.accepted <- tenant.accepted + n;
            trace tenant.name "accept n=%d total=%d ring=%d backlog=%d" n tenant.accepted
              (Spsc_ring.length tenant.ring) (Queue.length tenant.backlog);
            Metrics.add t.c_accepted n;
            t.send ~dst:src (Frame.Accepted { tenant = name; ops = n });
            if tenant.wedged || tenant.health <> Serving then arm_watchdog t
            else arm_drain t tenant
          end)

(* Replicated intake: ops shipped by the primary enter here, bypassing
   admission — flow control already happened at the primary (its
   [Wal_lag] gate counts replication lag), and the transport is
   exactly-once FIFO, so refusing an op here would silently diverge the
   replica. Ops land in the unbounded backlog; the normal drain /
   supervision machinery applies them and self-heals replica-side
   storage crashes exactly as it does on a standalone server. Returns
   [false] only when the tenant table is full (a topology mismatch). *)
let replica_submit t name ops =
  match get_or_create t name with
  | Error _ -> false
  | Ok tenant ->
      let n = List.length ops in
      List.iter
        (fun op ->
          Queue.add op tenant.backlog;
          match op with
          | Replay.Register _ -> tenant.pending_registers <- tenant.pending_registers + 1
          | _ -> ())
        ops;
      tenant.accepted <- tenant.accepted + n;
      Metrics.add t.c_accepted n;
      trace tenant.name "replica accept n=%d total=%d backlog=%d" n tenant.accepted
        (Queue.length tenant.backlog);
      if tenant.wedged || tenant.health <> Serving then arm_watchdog t
      else arm_drain t tenant;
      true

(* ---- lifecycle ----------------------------------------------------- *)

let metrics t = Metrics.snapshot t.reg

(* Satellite gauges for the stats frame: per-tenant WAL backlog (ops
   accepted but not yet locally durable) and replication lag. *)
let tenant_gauges t =
  Metrics.of_assoc
    (List.concat_map
       (fun name ->
         let x = Hashtbl.find t.tenants name in
         [
           ( Printf.sprintf "serve_wal_backlog_%s" name,
             Metrics.Gauge (float_of_int (wal_lag x)) );
           ( Printf.sprintf "serve_replica_lag_%s" name,
             Metrics.Gauge (float_of_int (replica_lag t x)) );
         ])
       (List.of_seq (Queue.to_seq t.order)))

let shutdown t =
  if not t.shutting then begin
    t.shutting <- true;
    iter_tenants t (fun tenant ->
        let rec pump () =
          (match tenant.health with
          | Crashed _ -> ignore (restart t tenant)
          | Serving -> tenant.wedged <- false);
          if tenant.health = Serving then
            guard_storage t tenant (fun () ->
                drain_some t tenant ~budget:max_int;
                verify_wal t tenant);
          if has_work tenant || tenant.health <> Serving then pump ()
        in
        pump ();
        end_life tenant)
  end

let is_shutdown t = t.shutting

let handle t ~src frame =
  if t.shutting then t.send ~dst:src (Frame.Rejected { message = "server is shut down" })
  else
    match frame with
    | Frame.Stats ->
        t.send ~dst:src
          (Frame.Stats_reply
             { body = Metrics.to_prometheus (Metrics.merge (metrics t) (tenant_gauges t)) })
    | Frame.Shutdown ->
        shutdown t;
        (* [shutdown] flips [t.shutting]; reply directly *)
        t.send ~dst:src Frame.Bye
    | (Frame.Subscribe _ | Frame.Op _ | Frame.Batch _) when t.role = Replica ->
        (* replicas take data only from the primary's shipping stream.
           A client frame landing here is almost always the failover
           race: the client heard the view before this node did (the
           two travel on independent links) and retargeted first. Ask
           it to retry — by then the promotion has landed — rather than
           terminally reject work the new view makes valid. *)
        t.send ~dst:src (Frame.Retry_after { ticks = t.config.retry_after })
    | Frame.Subscribe { tenant = name; after } -> (
        match get_or_create t name with
        | Error (Frame.Overloaded { reason; _ } as reply) ->
            Metrics.incr t.c_overloaded;
            Metrics.incr (overload_counter t reason);
            t.send ~dst:src reply
        | Error reply -> t.send ~dst:src reply
        | Ok tenant ->
            if not (List.mem src tenant.subscribers) then begin
              tenant.subscribers <- tenant.subscribers @ [ src ];
              (* catch-up backfill: a subscription can land arbitrarily
                 late (the frame races data frames on other links), so
                 replay every maturity this tenant already attributed,
                 grouped by element ordinal exactly as live pushes are.
                 Per-link FIFO puts the backfill before any later push:
                 the subscriber's stream converges to the server's own
                 log no matter when the subscription arrives. Two
                 exclusions keep the stream exactly-once and never-early:
                 ordinals at or below the client's [after] watermark were
                 already consumed (from a previous primary), and ordinals
                 parked in [pending_pushes] are not yet replica-durable —
                 the flush delivers those to every subscriber later. *)
              let cutoff =
                match Queue.peek_opt tenant.pending_pushes with
                | Some (_, ordinal, _) -> ordinal
                | None -> max_int
              in
              let rec backfill = function
                | [] -> ()
                | (ordinal, id) :: rest ->
                    let rec split ids = function
                      | (o, i) :: tl when o = ordinal -> split (i :: ids) tl
                      | tl -> (List.rev ids, tl)
                    in
                    let ids, rest = split [ id ] rest in
                    if ordinal > after && ordinal < cutoff then
                      t.send ~dst:src (Frame.Matured { tenant = name; ordinal; ids });
                    backfill rest
              in
              backfill (List.rev tenant.log)
            end;
            t.send ~dst:src (Frame.Accepted { tenant = name; ops = 0 }))
    | Frame.Op { tenant = name; op } -> ingest t ~src name [ op ]
    | Frame.Batch { tenant = name; elems } ->
        ingest t ~src name (Array.to_list (Array.map (fun e -> Replay.Element e) elems))

let create ?(config = default) ~clock ~make ~provider ~send () =
  if
    config.dim < 1 || config.max_tenants < 1 || config.query_quota < 1
    || config.wal_lag_limit < 1 || config.queue_capacity < 1 || config.drain_per_tick < 1
    || config.retry_after < 1 || config.watchdog_interval < 1 || config.wedge_timeout < 1
    || config.max_restarts < 1 || config.shards < 1
  then invalid_arg "Server.create: config fields must be positive";
  if config.segment_records < 0 then
    invalid_arg "Server.create: segment_records must be >= 0";
  let reg = Metrics.create () in
  {
    config;
    clock;
    make;
    provider;
    send;
    tenants = Hashtbl.create 16;
    order = Queue.create ();
    role = Primary;
    epoch = 0;
    replication = None;
    watchdog_armed = false;
    shutting = false;
    reg;
    c_accepted = Metrics.counter reg "serve_accepted_total";
    c_applied = Metrics.counter reg "serve_applied_total";
    c_rejected = Metrics.counter reg "serve_rejected_ops_total";
    c_matured = Metrics.counter reg "serve_matured_total";
    c_retry = Metrics.counter reg "serve_retry_total";
    c_overloaded = Metrics.counter reg "serve_overloaded_total";
    c_crashes = Metrics.counter reg "serve_crashes_total";
    c_restarts = Metrics.counter reg "serve_restarts_total";
    c_wedges = Metrics.counter reg "serve_wedges_total";
    g_tenants = Metrics.gauge reg "serve_tenants";
  }

(* ---- introspection ------------------------------------------------- *)

let find t name = Hashtbl.find_opt t.tenants name

let tenant_names t = List.of_seq (Queue.to_seq t.order)

let accepted_ops t name = match find t name with Some x -> x.accepted | None -> 0

let applied_ops t name = match find t name with Some x -> x.applied | None -> 0

let rejected_ops t name = match find t name with Some x -> x.rejected | None -> 0

let queue_depth t name =
  match find t name with
  | Some x -> Queue.length x.backlog + Spsc_ring.length x.ring
  | None -> 0

let restarts t name = match find t name with Some x -> x.restart_count | None -> 0

let incarnation t name = match find t name with Some x -> x.incarnation | None -> 0

let maturity_log t name = match find t name with Some x -> List.rev x.log | None -> []

let crashes t = Metrics.counter_value (metrics t) "serve_crashes_total"

let healthy t =
  let ok = ref true in
  iter_tenants t (fun tenant ->
      if
        tenant.health <> Serving || tenant.wedged || has_work tenant
        || not (Queue.is_empty tenant.pending_pushes)
      then ok := false);
  !ok

(* ---- replication surface ------------------------------------------- *)

let role t = t.role

let set_role t role =
  t.role <- role;
  if role = Primary then iter_tenants t (fun tenant -> flush_pending t tenant)

let epoch t = t.epoch

let set_epoch t e =
  if e < t.epoch then
    invalid_arg (Printf.sprintf "Server.set_epoch: %d < current %d" e t.epoch);
  t.epoch <- e

let set_replication t r = t.replication <- r

let flush_pushes t name =
  match find t name with Some tenant -> flush_pending t tenant | None -> ()

let durable_position t name =
  match find t name with Some tenant -> durable_floor tenant | None -> 0

let pending_push_count t name =
  match find t name with Some x -> Queue.length x.pending_pushes | None -> 0

let inject_wedge t name =
  match find t name with
  | None -> invalid_arg ("Server.inject_wedge: unknown tenant " ^ name)
  | Some tenant ->
      tenant.wedged <- true;
      Metrics.incr t.c_wedges;
      arm_watchdog t

let sync_all t =
  if not t.shutting then
    iter_tenants t (fun tenant ->
        if tenant.health = Serving then guard_storage t tenant (fun () -> verify_wal t tenant))
