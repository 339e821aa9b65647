(** One simulated [rts-serve] deployment: a {!Server}, [n] {!Client}s,
    and the {!Rts_net.Reliable} fabric between them, all driven by one
    deterministic virtual clock.

    Frames travel as {!Rts_net.Envelope.App} payloads over a clean
    (fault-free) fabric; the server is the [Coordinator] node, client
    [i] is [Site i]. The Reliable timer config applies to every link, so
    a whole deployment run — admission, backpressure, crashes, restarts
    — is a pure function of the configs. Fault-injected deployments run
    on {!Rts_replica.Cluster} instead. *)

open Rts_core
open Rts_resilience

type t

val create :
  ?server_config:Server.config ->
  ?reliable:Rts_net.Reliable.config ->
  clients:int ->
  make:(dim:int -> Engine.t) ->
  provider:(tenant:string -> incarnation:int -> Io.dir) ->
  unit ->
  t
(** Default timers: {!Rts_net.Reliable.default}. *)

val clock : t -> Rts_net.Vclock.t

val server : t -> Server.t

val client : t -> int -> Client.t
(** Raises [Invalid_argument] on an out-of-range index. *)

val run : ?max_steps:int -> t -> unit
(** Drain the virtual clock to quiescence (see
    {!Rts_net.Vclock.run_until_idle}). *)

val net_metrics : t -> Rts_obs.Metrics.snapshot
