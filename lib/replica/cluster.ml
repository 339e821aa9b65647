module Prng = Rts_util.Prng
module Io = Rts_resilience.Io
module Wal = Rts_resilience.Wal
module Vclock = Rts_net.Vclock
module Envelope = Rts_net.Envelope
module Reliable = Rts_net.Reliable
module Net_fault = Rts_net.Net_fault
module Server = Rts_serve.Server
module Client = Rts_serve.Client
module Frame = Rts_serve.Frame

type config = {
  serving : int;
  clients : int;
  server : Server.config;
  reliable : Reliable.config;
  net : Net_fault.spec;
  hb_every : int;
  hb_timeout : int;
  check_every : int;
  settle_every : int;
}

let default =
  {
    serving = 3;
    clients = 2;
    server = Server.default;
    reliable = Reliable.default;
    net = Net_fault.none;
    hb_every = 8;
    hb_timeout = 48;
    check_every = 16;
    settle_every = 12;
  }

type node = {
  site : int;
  server : Server.t;
  mutable nepoch : int;  (* fencing floor: frames below this are dropped *)
  mutable viewed : int;  (* last view epoch actually adopted *)
  mutable alive : bool;
  mutable wedged : bool;
  mutable fail_stopped : bool;  (* halted on seeing a superseding view *)
  wedge_buf : (int * int * string) Queue.t;  (* (src site, epoch, body) *)
  mutable known_primary : int;
  mutable ack_to : int;  (* where this replica's acks go *)
  last_acked : (string, int) Hashtbl.t;
  accepted_index : (string, int) Hashtbl.t;  (* replica intake dedup *)
  floors : (string, int) Hashtbl.t;  (* heartbeat prune floors *)
  mutable replicator : Replicator.t option;
  mutable sweep_armed : bool;
}

type cnode = {
  csite : int;
  client : Client.t;
  mutable cepoch : int;
  mutable target : int;
  subs : (string, unit) Hashtbl.t;
}

type controller = {
  mutable ce : int;
  mutable primary : int;
  mutable last_hb : int;
  mutable probing : bool;
  mutable probe_started : int;
  positions : (int, int) Hashtbl.t;
  mutable expected : int list;
  mutable failovers : int;
}

type t = {
  cfg : config;
  dim : int;
  clock : Vclock.t;
  mutable fabric : Reliable.t option;
  nodes : node array;
  cnodes : cnode array;
  ctl : controller;
  base_dir : node:int -> tenant:string -> Io.dir;
  mutable stopped : bool;
  mutable fenced : int;
}

let fabric t = Option.get t.fabric

let node_addr i = if i < 0 then Envelope.Coordinator else Envelope.Site i

(* ---- gated sends ---------------------------------------------------- *)

(* A dead node sends nothing; a wedged node's outbound is dropped on the
   floor (the stall model: whatever it tries to say during the wedge is
   lost — what it says AFTER waking carries its stale epoch and gets
   fenced by receivers). Every live send stamps the node's epoch into
   the envelope. *)
let node_send t node ~dst body =
  if node.alive && not node.wedged then
    Reliable.send (fabric t) ~epoch:node.nepoch ~src:(Envelope.Site node.site)
      ~dst:(node_addr dst) (Envelope.App { body })

let client_send t c body =
  Reliable.send (fabric t) ~epoch:c.cepoch ~src:(Envelope.Site c.csite)
    ~dst:(Envelope.Site c.target) (Envelope.App { body })

let controller_send t ~dst body =
  Reliable.send (fabric t) ~epoch:t.ctl.ce ~src:Envelope.Coordinator ~dst:(node_addr dst)
    (Envelope.App { body })

(* ---- replica-side ack machinery ------------------------------------- *)

let send_ack t node tenant =
  let dp = Server.durable_position node.server tenant in
  let last = Option.value ~default:0 (Hashtbl.find_opt node.last_acked tenant) in
  if dp > last then begin
    Hashtbl.replace node.last_acked tenant dp;
    node_send t node ~dst:node.ack_to
      (Rep.to_string (Rep.Ack { epoch = node.nepoch; tenant; durable = dp }))
  end

(* The durable position a replica acks is its WAL's fsynced-through
   record ordinal (cadence, rotation and checkpoint syncs alike), so
   after the last op of a burst there is usually an unacked tail. The
   settle sweep — armed whenever a tail exists, re-armed until it is
   gone — forces a sync and acks the rest, letting the primary's ack
   floor (and with it the parked maturity pushes) reach the top at
   quiescence. *)
let rec arm_sweep t node =
  if (not node.sweep_armed) && node.alive && not t.stopped then begin
    node.sweep_armed <- true;
    ignore (Vclock.schedule t.clock ~delay:t.cfg.settle_every (fun () -> sweep t node))
  end

and sweep t node =
  node.sweep_armed <- false;
  if node.alive then
    if node.wedged then arm_sweep t node
    else begin
      Server.sync_all node.server;
      List.iter (fun tenant -> send_ack t node tenant) (Server.tenant_names node.server);
      let unsettled =
        List.exists
          (fun tenant ->
            Server.applied_ops node.server tenant
            > Option.value ~default:0 (Hashtbl.find_opt node.last_acked tenant))
          (Server.tenant_names node.server)
      in
      if unsettled then arm_sweep t node
    end

let install_replica_hooks t node =
  Server.set_replication node.server
    (Some
       {
         Server.on_applied =
           (fun ~tenant ~index:_ ~op:_ ->
             send_ack t node tenant;
             if
               Server.applied_ops node.server tenant
               > Server.durable_position node.server tenant
             then arm_sweep t node);
         ack_floor =
           (fun ~tenant -> Option.value ~default:0 (Hashtbl.find_opt node.floors tenant));
         lag = (fun ~tenant:_ -> 0);
       })

(* ---- promotion / demotion ------------------------------------------ *)

let history t node tenant =
  let scanned = Wal.scan ~dim:t.dim ~dir:(t.base_dir ~node:node.site ~tenant) () in
  List.mapi (fun i op -> (scanned.Wal.base + i + 1, op)) scanned.Wal.ops

let make_replicator t node ~epoch ~replicas =
  Replicator.create ~clock:t.clock ~server:node.server ~epoch ~replicas ~controller:(-1)
    ~hb_every:t.cfg.hb_every
    ~history:(fun tenant -> history t node tenant)
    ~send:(fun ~dst rep -> node_send t node ~dst (Rep.to_string rep))
    ()

let promote t node ~epoch ~members =
  (* force the applied state durable first, so the history volley covers
     everything on_applied will not re-report; storage faults during the
     sync crash the tenant and supervision re-applies as usual *)
  Server.sync_all node.server;
  if Server.epoch node.server < epoch then Server.set_epoch node.server epoch;
  Server.set_role node.server Server.Primary;
  (* a re-elected incumbent (spurious failover it won) replaces its
     replicator: the old one stamps the superseded epoch into every
     frame, which the re-fenced replicas would drop *)
  (match node.replicator with Some r -> Replicator.stop r | None -> ());
  (* replicate only to view members: a node the election never heard
     from must not pin the ack floor — and the parked pushes — at zero *)
  let replicas = List.filter (fun s -> s <> node.site) members in
  node.replicator <- Some (make_replicator t node ~epoch ~replicas)

let adopt_view_node t node ~epoch ~primary ~members =
  node.viewed <- epoch;
  if epoch > node.nepoch then node.nepoch <- epoch;
  if primary = node.site then begin
    promote t node ~epoch ~members;
    node.known_primary <- primary
  end
  else
    match node.replicator with
    | Some r ->
        (* a superseded primary halts: its divergent tail is not
           reconciled back into the cluster (future work) *)
        Replicator.stop r;
        node.replicator <- None;
        node.fail_stopped <- true;
        node.alive <- false
    | None ->
        node.known_primary <- primary;
        node.ack_to <- primary;
        if Server.epoch node.server < epoch then Server.set_epoch node.server epoch;
        (* restate our positions to the new primary so its ack floor
           rebuilds without waiting for the catch-up volley *)
        Hashtbl.reset node.last_acked;
        List.iter (fun tenant -> send_ack t node tenant) (Server.tenant_names node.server)

(* ---- node receive path ---------------------------------------------- *)

let process_rep_node t node ~src rep =
  match rep with
  | Rep.Append { epoch; tenant; index; op } ->
      if epoch > node.nepoch then begin
        node.nepoch <- epoch;
        if Server.epoch node.server < epoch then Server.set_epoch node.server epoch
      end;
      node.ack_to <- src;
      let cur = Option.value ~default:0 (Hashtbl.find_opt node.accepted_index tenant) in
      if index <= cur then
        (* duplicate (a promotion catch-up volley): re-ack our position
           so the new primary's floor covers what we already hold *)
        send_ack t node tenant
      else if index = cur + 1 then begin
        Hashtbl.replace node.accepted_index tenant index;
        if not (Server.replica_submit node.server tenant [ op ]) then
          failwith "Cluster: replica tenant table full (topology mismatch)"
      end
      else
        failwith
          (Printf.sprintf "Cluster: replication gap on %s: got %d, expected %d" tenant index
             (cur + 1))
  | Rep.Ack { tenant; durable; _ } -> (
      match node.replicator with
      | Some r -> Replicator.on_ack r ~replica:src ~tenant ~durable
      | None -> ())
  | Rep.Heartbeat { floors; _ } ->
      List.iter
        (fun (tenant, f) ->
          let cur = Option.value ~default:0 (Hashtbl.find_opt node.floors tenant) in
          if f > cur then Hashtbl.replace node.floors tenant f)
        floors
  | Rep.Probe { epoch } ->
      (* fence first — from this moment the old primary's frames bounce
         off this node — then report how far we got *)
      if epoch > node.nepoch then node.nepoch <- epoch;
      let total =
        List.fold_left
          (fun acc tenant -> acc + Server.applied_ops node.server tenant)
          0
          (Server.tenant_names node.server)
      in
      node_send t node ~dst:(-1) (Rep.to_string (Rep.Position { epoch = node.nepoch; total }))
  | Rep.Position _ -> ()
  | Rep.View { epoch; primary; members } ->
      if epoch > node.viewed then adopt_view_node t node ~epoch ~primary ~members

let process_node t node ~src body =
  if Rep.is_rep body then
    match Rep.of_string ~dim:t.dim body with
    | Ok rep -> process_rep_node t node ~src rep
    | Error msg -> failwith ("Cluster: bad rep frame on the wire: " ^ msg)
  else
    match Frame.client_of_string ~dim:t.dim body with
    | Ok frame -> Server.handle node.server ~src frame
    | Error message ->
        node_send t node ~dst:src (Frame.server_to_string (Frame.Rejected { message }))

let node_recv t node ~src ~epoch body =
  if not node.alive then () (* the fabric acked; a dead process hears nothing *)
  else if epoch < node.nepoch then t.fenced <- t.fenced + 1
  else if node.wedged then Queue.add (src, epoch, body) node.wedge_buf
  else process_node t node ~src body

(* ---- client receive path -------------------------------------------- *)

let resubscribe c =
  Hashtbl.iter
    (fun tenant () ->
      Client.enqueue c.client
        (Frame.Subscribe { tenant; after = Client.watermark c.client tenant }))
    c.subs

let client_adopt_view c ~epoch ~primary =
  c.cepoch <- epoch;
  c.target <- primary;
  ignore (Client.requeue_inflight c.client);
  resubscribe c;
  Client.kick c.client

let client_recv t c ~epoch body =
  if epoch < c.cepoch then t.fenced <- t.fenced + 1
  else if Rep.is_rep body then (
    match Rep.of_string ~dim:t.dim body with
    | Ok (Rep.View { epoch; primary; members = _ }) ->
        if epoch > c.cepoch then client_adopt_view c ~epoch ~primary
    | Ok _ -> ()
    | Error msg -> failwith ("Cluster: bad rep frame at client: " ^ msg))
  else
    match Frame.server_of_string body with
    | Ok frame -> Client.deliver c.client frame
    | Error msg -> failwith ("Cluster: bad server frame on the wire: " ^ msg)

(* ---- controller ----------------------------------------------------- *)

let broadcast_view t ~members =
  let c = t.ctl in
  let view = Rep.to_string (Rep.View { epoch = c.ce; primary = c.primary; members }) in
  for s = 0 to t.cfg.serving - 1 do
    controller_send t ~dst:s view
  done;
  Array.iter (fun cn -> controller_send t ~dst:cn.csite view) t.cnodes

(* Elect among the nodes that actually answered the probe (most caught
   up wins; ties to the lowest site). The responders become the view's
   member set — a probed node that never answered is presumed dead and
   left out, so it cannot pin the new primary's ack floor. *)
let complete_failover t =
  let c = t.ctl in
  let responders =
    List.filter (fun s -> Hashtbl.mem c.positions s) (List.sort compare c.expected)
  in
  let winner =
    List.fold_left
      (fun best s ->
        let total = Hashtbl.find c.positions s in
        match best with
        | Some (_, bt) when bt >= total -> best
        | _ -> Some (s, total))
      None responders
  in
  match winner with
  | None -> ()
  | Some (site, _) ->
      c.primary <- site;
      c.probing <- false;
      c.last_hb <- Vclock.now t.clock;
      broadcast_view t ~members:responders

let controller_recv t ~src ~epoch body =
  let c = t.ctl in
  if epoch < c.ce then t.fenced <- t.fenced + 1
  else if Rep.is_rep body then
    match Rep.of_string ~dim:t.dim body with
    | Ok (Rep.Heartbeat _) -> if src = c.primary then c.last_hb <- Vclock.now t.clock
    | Ok (Rep.Position { epoch = e; total }) ->
        if c.probing && e = c.ce && List.mem src c.expected then begin
          Hashtbl.replace c.positions src total;
          if List.for_all (fun s -> Hashtbl.mem c.positions s) c.expected then
            complete_failover t
        end
    | Ok _ -> ()
    | Error msg -> failwith ("Cluster: bad rep frame at controller: " ^ msg)

let send_probes t =
  let c = t.ctl in
  Hashtbl.reset c.positions;
  c.probe_started <- Vclock.now t.clock;
  List.iter
    (fun s -> controller_send t ~dst:s (Rep.to_string (Rep.Probe { epoch = c.ce })))
    c.expected

let rec controller_check t =
  if not t.stopped then begin
    let c = t.ctl in
    (if c.probing then begin
       (* a probed node may be dead and never answer: after a deadline,
          elect among whoever did answer. If nobody answered, widen the
          ballot to every serving node — the detection may have been
          spurious (delayed heartbeats), and the incumbent, still alive,
          can then win its own re-election — and try again under a fresh
          epoch. *)
       if Vclock.now t.clock - c.probe_started > t.cfg.hb_timeout then
         if Hashtbl.length c.positions > 0 then complete_failover t
         else begin
           c.ce <- c.ce + 1;
           c.expected <- List.init t.cfg.serving Fun.id;
           send_probes t
         end
     end
     else if Vclock.now t.clock - c.last_hb > t.cfg.hb_timeout && t.cfg.serving > 1 then begin
       (* the primary went quiet: fence it with a fresh epoch and ask
          the survivors where they stand *)
       c.ce <- c.ce + 1;
       c.probing <- true;
       c.failovers <- c.failovers + 1;
       c.expected <- List.filter (fun s -> s <> c.primary) (List.init t.cfg.serving Fun.id);
       send_probes t
     end);
    ignore (Vclock.schedule t.clock ~delay:t.cfg.check_every (fun () -> controller_check t))
  end

(* ---- construction --------------------------------------------------- *)

let create ?(config = default) ~net_seed ~make ~provider ~base_dir () =
  if config.serving < 1 then invalid_arg "Cluster.create: need at least one serving node";
  if config.clients < 1 then invalid_arg "Cluster.create: need at least one client";
  if
    config.hb_every < 1 || config.hb_timeout < 1 || config.check_every < 1
    || config.settle_every < 1
  then invalid_arg "Cluster.create: cadence fields must be positive";
  let dim = config.server.Server.dim in
  let clock = Vclock.create () in
  let rng = Prng.create ~seed:net_seed in
  let t_ref = ref None in
  let the () = match !t_ref with Some t -> t | None -> assert false in
  let deliver (env : Envelope.t) =
    match env.payload with
    | Envelope.App { body } -> (
        let t = the () in
        let src = Envelope.node_id env.src in
        match env.dst with
        | Envelope.Coordinator -> controller_recv t ~src ~epoch:env.epoch body
        | Envelope.Site i when i < t.cfg.serving ->
            node_recv t t.nodes.(i) ~src ~epoch:env.epoch body
        | Envelope.Site i -> client_recv t t.cnodes.(i - t.cfg.serving) ~epoch:env.epoch body)
    | Envelope.Ack _ -> ()
  in
  let fab =
    Reliable.create ~config:config.reliable ~clock ~rng ~spec:config.net ~deliver
      ()
  in
  let nodes =
    Array.init config.serving (fun i ->
        let server =
          Server.create ~config:config.server ~clock ~make
            ~provider:(fun ~tenant ~incarnation -> provider ~node:i ~tenant ~incarnation)
            ~send:(fun ~dst frame ->
              let t = the () in
              node_send t t.nodes.(i) ~dst (Frame.server_to_string frame))
            ()
        in
        {
          site = i;
          server;
          nepoch = 1;
          viewed = 1;
          alive = true;
          wedged = false;
          fail_stopped = false;
          wedge_buf = Queue.create ();
          known_primary = 0;
          ack_to = 0;
          last_acked = Hashtbl.create 8;
          accepted_index = Hashtbl.create 8;
          floors = Hashtbl.create 8;
          replicator = None;
          sweep_armed = false;
        })
  in
  let cnodes =
    Array.init config.clients (fun j ->
        let csite = config.serving + j in
        let client =
          Client.create ~site:csite ~clock
            ~send:(fun frame ->
              let t = the () in
              client_send t t.cnodes.(j) (Frame.client_to_string frame))
            ()
        in
        { csite; client; cepoch = 1; target = 0; subs = Hashtbl.create 4 })
  in
  let ctl =
    {
      ce = 1;
      primary = 0;
      last_hb = 0;
      probing = false;
      probe_started = 0;
      positions = Hashtbl.create 4;
      expected = [];
      failovers = 0;
    }
  in
  let t =
    {
      cfg = config;
      dim;
      clock;
      fabric = Some fab;
      nodes;
      cnodes;
      ctl;
      base_dir;
      stopped = false;
      fenced = 0;
    }
  in
  t_ref := Some t;
  Array.iter (fun node -> Server.set_epoch node.server 1) nodes;
  Array.iteri
    (fun i node ->
      if i = 0 then begin
        (* a lone serving node has no one to replicate to or fail over
           to: it runs as a plain, unreplicated Server *)
        if config.serving > 1 then
          node.replicator <-
            Some
              (make_replicator t node ~epoch:1
                 ~replicas:(List.init (config.serving - 1) (fun k -> k + 1)))
      end
      else begin
        Server.set_role node.server Server.Replica;
        install_replica_hooks t node
      end)
    nodes;
  if config.serving > 1 then controller_check t;
  t

(* ---- scenario controls ---------------------------------------------- *)

let check_site t site =
  if site < 0 || site >= t.cfg.serving then invalid_arg "Cluster: serving site out of range"

let kill t site =
  check_site t site;
  let node = t.nodes.(site) in
  node.alive <- false;
  match node.replicator with
  | Some r ->
      Replicator.stop r;
      node.replicator <- None
  | None -> ()

let wedge t site =
  check_site t site;
  t.nodes.(site).wedged <- true

let unwedge t site =
  check_site t site;
  let node = t.nodes.(site) in
  if node.wedged then begin
    node.wedged <- false;
    let rec drain () =
      match Queue.take_opt node.wedge_buf with
      | None -> ()
      | Some (src, epoch, body) ->
          (* the view that fences this node may be sitting in this very
             buffer: re-check liveness and epoch per frame *)
          if node.alive then
            if epoch < node.nepoch then t.fenced <- t.fenced + 1
            else process_node t node ~src body;
          drain ()
    in
    drain ()
  end

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Array.iter
      (fun node -> match node.replicator with Some r -> Replicator.stop r | None -> ())
      t.nodes
  end

(* ---- access --------------------------------------------------------- *)

let clock t = t.clock

let run ?max_steps t = Vclock.run_until_idle ?max_steps t.clock

let server t site =
  check_site t site;
  t.nodes.(site).server

let client t j =
  if j < 0 || j >= Array.length t.cnodes then invalid_arg "Cluster.client: out of range";
  t.cnodes.(j).client

let subscribe t j tenant =
  if j < 0 || j >= Array.length t.cnodes then invalid_arg "Cluster.subscribe: out of range";
  let c = t.cnodes.(j) in
  Hashtbl.replace c.subs tenant ();
  Client.enqueue c.client (Frame.Subscribe { tenant; after = Client.watermark c.client tenant })

let primary t = t.ctl.primary

let epoch t = t.ctl.ce

let failovers t = t.ctl.failovers

let fenced t = t.fenced

let alive t site =
  check_site t site;
  t.nodes.(site).alive

let fail_stopped t site =
  check_site t site;
  t.nodes.(site).fail_stopped

let replicator t site =
  check_site t site;
  t.nodes.(site).replicator

let clients_idle t = Array.for_all (fun c -> Client.idle c.client) t.cnodes

let quiescent t =
  clients_idle t
  && (not t.ctl.probing)
  && Array.for_all
       (fun node ->
         (not node.alive)
         || Server.healthy node.server
            && match node.replicator with Some r -> Replicator.fully_acked r | None -> true)
       t.nodes

let net_metrics t = Reliable.metrics (fabric t)
