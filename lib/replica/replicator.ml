module Replay = Rts_workload.Replay
module Server = Rts_serve.Server
module Vclock = Rts_net.Vclock

(* Primary-side shipping state for one tenant. *)
type tstate = {
  mutable hi : int;  (* highest index shipped so far *)
  acks : (int, int) Hashtbl.t;  (* replica site -> acked durable index *)
}

type t = {
  clock : Vclock.t;
  server : Server.t;
  epoch : int;
  replicas : int list;
  send : dst:int -> Rep.t -> unit;
  tenants : (string, tstate) Hashtbl.t;
  hb_every : int;
  controller : int;
  mutable stopped : bool;
}

let tstate t tenant =
  match Hashtbl.find_opt t.tenants tenant with
  | Some st -> st
  | None ->
      let st = { hi = 0; acks = Hashtbl.create 4 } in
      List.iter (fun r -> Hashtbl.replace st.acks r 0) t.replicas;
      Hashtbl.add t.tenants tenant st;
      st

let min_ack t st = List.fold_left (fun m r -> min m (Hashtbl.find st.acks r)) max_int t.replicas

let ack_floor t ~tenant =
  if t.replicas = [] then max_int
  else match Hashtbl.find_opt t.tenants tenant with None -> 0 | Some st -> min_ack t st

let lag t ~tenant =
  if t.replicas = [] then 0
  else
    let applied = Server.applied_ops t.server tenant in
    match Hashtbl.find_opt t.tenants tenant with
    | None -> applied
    | Some st -> List.fold_left (fun m r -> max m (applied - Hashtbl.find st.acks r)) 0 t.replicas

(* Re-applies after a local storage crash arrive again with the same
   index and a bit-identical op — dedup by index, ship only fresh. *)
let ship t st tenant index op =
  if index > st.hi then begin
    st.hi <- index;
    List.iter
      (fun r -> t.send ~dst:r (Rep.Append { epoch = t.epoch; tenant; index; op }))
      t.replicas
  end

let on_ack t ~replica ~tenant ~durable =
  if List.mem replica t.replicas then begin
    let st = tstate t tenant in
    let prev = try Hashtbl.find st.acks replica with Not_found -> 0 in
    if durable > prev then begin
      Hashtbl.replace st.acks replica durable;
      (* the floor may have advanced: release any parked maturity pushes *)
      Server.flush_pushes t.server tenant
    end
  end

let floors t =
  Hashtbl.fold (fun tenant st acc -> (tenant, min_ack t st) :: acc) t.tenants []
  |> List.sort compare

let rec heartbeat t () =
  if not t.stopped then begin
    let hb = Rep.Heartbeat { epoch = t.epoch; floors = floors t } in
    List.iter (fun r -> t.send ~dst:r hb) t.replicas;
    t.send ~dst:t.controller hb;
    ignore (Vclock.schedule t.clock ~delay:t.hb_every (fun () -> heartbeat t ()))
  end

let create ~clock ~server ~epoch ~replicas ~controller ?(hb_every = 8)
    ?(history = fun _ -> []) ~send () =
  if hb_every < 1 then invalid_arg "Replicator.create: hb_every must be positive";
  let t =
    {
      clock;
      server;
      epoch;
      replicas;
      send;
      tenants = Hashtbl.create 8;
      hb_every;
      controller;
      stopped = false;
    }
  in
  (* Catch-up volley: a replicator created over a server with history (a
     promotion) re-ships the history's ops to every replica. Replicas
     deduplicate on index, ack their current durable position, and the
     ack stream rebuilds the floor — no restatement round-trip needed.
     The history callback supplies (index, op) ascending; its base is
     below every replica's ack by the heartbeat-floor prune discipline,
     so no replica ever needs a record older than the history holds. *)
  List.iter
    (fun tenant ->
      let st = tstate t tenant in
      List.iter (fun (index, op) -> ship t st tenant index op) (history tenant))
    (Server.tenant_names server);
  Server.set_replication server
    (Some
       {
         Server.on_applied = (fun ~tenant ~index ~op -> ship t (tstate t tenant) tenant index op);
         ack_floor = (fun ~tenant -> ack_floor t ~tenant);
         lag = (fun ~tenant -> lag t ~tenant);
       });
  heartbeat t ();
  t

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Server.set_replication t.server None
  end

let fully_acked t =
  t.replicas = []
  || List.for_all
       (fun tenant -> ack_floor t ~tenant >= Server.applied_ops t.server tenant)
       (Server.tenant_names t.server)
