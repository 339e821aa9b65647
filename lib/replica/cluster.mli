(** Deterministic replica-topology harness: one controller, [serving]
    serving nodes (site 0 is the initial primary), [clients] scripted
    clients, all on one {!Rts_net.Reliable} fabric over one virtual
    clock.

    {2 Addressing}

    Envelope node [Coordinator] is the failover controller; [Site i]
    for [i < serving] is serving node [i]; [Site (serving + j)] is
    client [j]. Replication frames ({!Rep}) and serve frames
    ({!Rts_serve.Frame}) share each link, told apart by verb.

    {2 Fencing}

    Epochs start at 1. Every send stamps the sender's current epoch
    into the envelope; every receiver drops (and counts, see {!fenced})
    frames below its own epoch. A failover bumps the controller epoch;
    probes and the view broadcast carry it outward, so a deposed
    primary's in-flight frames — and anything a wedged zombie says
    after it wakes — bounce off every up-to-date node and client.

    {2 Failure model}

    [kill] is fail-stop: the process vanishes; the fabric still
    transport-acks so links don't retransmit forever, but nothing is
    processed. [wedge] is a stall: inbound frames buffer, outbound
    frames are lost; on [unwedge] the buffer replays in order — by
    which time the fencing view is usually sitting in it, so the zombie
    processes a few stale frames (whose replies get fenced at their
    receivers) and then fail-stops itself. A superseded primary always
    halts rather than rejoining: its unreplicated WAL tail may diverge
    from the new primary's history, and reconciliation is future work.

    {2 Never-early, exactly-once maturity}

    The primary parks maturity pushes until every replica has the
    triggering op durable ({!Rts_serve.Server.replication}'s ack
    floor), so a push can never refer to an op that a promoted node
    might not hold. Clients re-subscribe after a view change with their
    maturity watermark, so backfill resumes exactly after the last push
    they saw. *)

module Server = Rts_serve.Server
module Client = Rts_serve.Client

type config = {
  serving : int;
      (** serving nodes; node 0 is the initial primary. With one, node 0
          runs unreplicated: no replicator, no heartbeats, no failover. *)
  clients : int;
  server : Server.config;  (** per-node server config (dim lives here) *)
  reliable : Rts_net.Reliable.config;
  net : Rts_net.Net_fault.spec;
  hb_every : int;  (** primary heartbeat cadence, ticks *)
  hb_timeout : int;  (** controller: silence before declaring death *)
  check_every : int;  (** controller liveness-check cadence *)
  settle_every : int;  (** replica durability settle-sweep delay *)
}

val default : config
(** 3 serving nodes, 2 clients, clean network. *)

type t

val create :
  ?config:config ->
  net_seed:int ->
  make:(dim:int -> Rts_core.Engine.t) ->
  provider:(node:int -> tenant:string -> incarnation:int -> Rts_resilience.Io.dir) ->
  base_dir:(node:int -> tenant:string -> Rts_resilience.Io.dir) ->
  unit ->
  t
(** [net_seed] seeds the fabric's fault draws ([net]) and its backoff
    jitter. [provider] yields the (possibly fault-wrapped) storage dir
    for one tenant life on one node; [base_dir] must yield the
    {e unwrapped} persistent dir underneath — promotion scans it to
    build the catch-up history volley. *)

(* ---- scenario controls ---- *)

val kill : t -> int -> unit
(** Fail-stop a serving node. *)

val wedge : t -> int -> unit
val unwedge : t -> int -> unit

val stop : t -> unit
(** Stop all recurring tasks (heartbeats, controller checks, settle
    sweeps stop re-arming) so {!run} can drain to idle. *)

val run : ?max_steps:int -> t -> unit
(** [Vclock.run_until_idle] on the shared clock. *)

val subscribe : t -> int -> string -> unit
(** Record client [j]'s interest in a tenant (re-subscribed with its
    watermark on every view change) and enqueue the subscribe. *)

(* ---- access ---- *)

val clock : t -> Rts_net.Vclock.t
val server : t -> int -> Server.t
val client : t -> int -> Client.t

val primary : t -> int
(** Current primary site per the controller. *)

val epoch : t -> int
val failovers : t -> int

val fenced : t -> int
(** Frames dropped for carrying a superseded epoch, cluster-wide. *)

val alive : t -> int -> bool
val fail_stopped : t -> int -> bool
val replicator : t -> int -> Replicator.t option
val clients_idle : t -> bool

val quiescent : t -> bool
(** Clients idle, no probe in flight, every live node healthy and (if
    primary) fully acked — the soak's stop condition. *)

val net_metrics : t -> Rts_obs.Metrics.snapshot
