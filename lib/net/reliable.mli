(** Reliability layer over the lossy {!Network}: per-directed-link
    sequence numbers, positive acks, exponential-backoff retransmission,
    duplicate suppression and in-order (hold-back) delivery.

    Guarantee: for every fault spec accepted by {!Net_fault.validate}
    (per-attempt loss < 1, partitions transient), every [send] is
    delivered to the application {e exactly once, in per-link FIFO
    order}, after finitely many retransmissions. Acks are raw datagrams
    — lost acks simply cause a duplicate retransmission, which the
    receiver suppresses and re-acks. *)

type config = {
  rto : int;  (** Initial retransmission timeout, in virtual ticks. *)
  rto_max : int;  (** Backoff cap: timeout doubles per attempt up to this. *)
  jitter : float;
      (** Deterministic backoff jitter: each retransmission delay [d] is
          drawn uniformly from [d, d * (1 + jitter)] using the fabric's
          seeded PRNG, decorrelating links that would otherwise retry in
          lockstep after a partition heals. 0 (default) draws nothing
          and preserves the exact pre-jitter schedule. *)
}

val default : config
(** [{ rto = 12; rto_max = 192; jitter = 0.0 }]. *)

type t

val create :
  config:config ->
  clock:Vclock.t ->
  rng:Rts_util.Prng.t ->
  spec:Net_fault.spec ->
  deliver:(Envelope.t -> unit) ->
  unit ->
  t
(** Build the fabric (and its underlying {!Network}). [deliver] receives
    each unique [App] envelope exactly once, in per-link order, and may
    call {!send} re-entrantly. *)

val send : ?epoch:int -> t -> src:Envelope.node -> dst:Envelope.node -> Envelope.payload -> unit
(** Enqueue one application message; the layer owns sequencing and retry.
    [epoch] (default 0) stamps the sender incarnation's fencing number
    into the envelope — opaque to the transport, read by receivers that
    fence stale incarnations. *)

val unacked : t -> int
(** Messages still awaiting their ack (0 at quiescence). *)

val metrics : t -> Rts_obs.Metrics.snapshot
(** Union of {!Network.metrics} and [net_protocol_sends_total] (first
    transmissions of {!send}; retransmits and acks excluded),
    [net_retransmits_total], [net_acks_sent_total],
    [net_acks_received_total], [net_dup_suppressed_total],
    [net_held_out_of_order_total]. *)
