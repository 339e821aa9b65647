(** Primary-side WAL shipping.

    A replicator attaches to a {!Rts_serve.Server} in the [Primary]
    role (it installs itself via {!Rts_serve.Server.set_replication})
    and, as each op commits locally, ships it to every replica as an
    {!Rep.Append} over the caller-supplied [send]. Replica {!Rep.Ack}s
    feed back through {!on_ack}, maintaining per-(replica, tenant)
    durable positions whose minimum is:

    - the {e ack floor} — the maturity-push gate the server reads (a
      push leaves the primary only when every replica holds its op
      durably, the never-early half of exactly-once-across-failover);
    - the {e prune floor} broadcast in heartbeats — the bound below
      which replicas may prune their own cold WAL segments.

    Replication is write-all by design: promotion picks the
    most-caught-up replica, so an op acknowledged by {e every} replica
    is durable on whichever node wins — a per-tenant majority quorum
    would let a pushed op survive only on losers. Lag relative to the
    slowest replica is surfaced through the server's [Wal_lag]
    admission gate instead (quorum-lag shedding). *)

module Replay = Rts_workload.Replay
module Server = Rts_serve.Server

type t

val create :
  clock:Rts_net.Vclock.t ->
  server:Server.t ->
  epoch:int ->
  replicas:int list ->
  controller:int ->
  ?hb_every:int ->
  ?history:(string -> (int * Replay.op) list) ->
  send:(dst:int -> Rep.t -> unit) ->
  unit ->
  t
(** Attach to [server] and begin shipping. [replicas] and [controller]
    are opaque destination ids for [send]. [history] (used at
    promotion) yields each existing tenant's op tail as
    [(index, op)] ascending — it is re-shipped immediately as a
    catch-up volley; replicas deduplicate by index and re-ack, which
    rebuilds the ack floor without a restatement round. Heartbeats
    (every [hb_every] ticks, default 8) carry per-tenant prune floors
    and keep firing until {!stop}. *)

val on_ack : t -> replica:int -> tenant:string -> durable:int -> unit
(** Feed one {!Rep.Ack}. Acks are monotone-max merged; an advance
    releases any maturity pushes the new floor permits ({!Rts_serve.Server.flush_pushes}). Acks from
    sites outside [replicas] are ignored. *)

val stop : t -> unit
(** Stop heartbeats (the recurring task does not re-arm) and uninstall
    the server hooks. Idempotent. Used on demotion, fail-stop, and
    scenario teardown. *)

val fully_acked : t -> bool
(** Every replica has acknowledged every applied op of every tenant —
    the replication half of cluster quiescence. *)
