(** Per-link simulated datagram channels over a shared {!Vclock},
    with {!Net_fault} decisions applied per transmission.

    [send] is fire-and-forget: the fault spec decides whether the
    envelope is dropped (targeted kind-drop, partition window, link loss
    rate), how long it travels (base latency plus an overtaking reorder
    delay), and whether a duplicate is delivered. Deliveries invoke the
    single [handler] (dispatch on [env.dst] is the receiver's job) in
    virtual-time order.

    With {!Net_fault.none} the network consumes no randomness and
    degenerates to lossless per-link FIFO at latency 1. *)

type t

val create :
  clock:Vclock.t ->
  rng:Rts_util.Prng.t ->
  spec:Net_fault.spec ->
  handler:(Envelope.t -> unit) ->
  unit ->
  t

val send : t -> Envelope.t -> unit
(** One physical transmission attempt (retransmissions call this again). *)

val metrics : t -> Rts_obs.Metrics.snapshot
(** [net_sent_total], [net_dropped_total], [net_duplicated_total],
    [net_reordered_total], [net_delivered_total]. *)
