(** Deterministic network fault model — the communication-axis analogue
    of {!Rts_resilience.Fault} (which models the storage axis).

    A {!spec} describes what a link may do to a message: drop it,
    deliver a duplicate, delay it (every delivery costs [delay_min ..
    delay_max] virtual ticks), reorder it (an extra random delay of up
    to [reorder_spread] ticks lets later messages overtake), black-hole
    it during a transient partition window, or — for [flaky] sites —
    drop it with extra probability on that site's link. [kind_drop]
    deterministically drops the first N transmissions of one envelope
    kind ([app] or [ack]), which is what the kind-drop sweep in the test
    suite uses.

    All randomness is drawn from the caller's {!Rts_util.Prng} in a
    fixed order, so every fault trajectory replays from its seed.

    Validation enforces quiescence: per-attempt loss probabilities stay
    below 1 and partitions must heal, so retransmission eventually
    delivers every message — the precondition of {!Reliable}'s
    exactly-once guarantee. *)

type spec = {
  drop : float;  (** Per-transmission loss probability, in [0, 1). *)
  duplicate : float;  (** Probability of a second delivery. *)
  reorder : float;  (** Probability of an extra, overtaking delay. *)
  delay_min : int;  (** Minimum per-delivery latency, >= 1 tick. *)
  delay_max : int;  (** Maximum per-delivery latency. *)
  reorder_spread : int;  (** Upper bound on the extra reorder delay. *)
  partitions : (int * int * int) list;
      (** [(site, from, until)]: site unreachable (both directions)
          while [from <= now <= until]. Transient by construction. *)
  flaky : (int * float) list;  (** [(site, extra_drop)] per flaky link. *)
  kind_drop : (string * int) list;
      (** [(kind, n)]: drop the first [n] transmissions whose payload
          kind is [kind] (see {!Envelope.kind}). Deterministic. *)
}

val none : spec
(** Zero faults: FIFO, latency 1, lossless — the reliable instantiation. *)

val validate : spec -> (spec, string) result

val parse : string -> (spec, string) result
(** Parse a comma-separated spec, e.g.
    ["drop=0.2,dup=0.1,reorder=0.3,delay=1-4,flaky=0:0.5,partition=2@10-500,kdrop=app:2"].
    The empty string is {!none}. Includes {!validate}. *)

val to_string : spec -> string
(** Render a spec back to the [parse] syntax (canonical order). *)

val partitioned : spec -> site:int -> now:int -> bool

val drop_rate : spec -> site:int -> float
(** Base drop probability plus the site's flaky extras. *)
