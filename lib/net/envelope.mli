(** Typed message envelopes of the simulated transport.

    - [App {body}] — opaque application payload: a frame of a protocol
      layered over the transport (the [rts-serve] wire protocol,
      {!Rts_serve.Frame}, and the replication protocol of
      {!Rts_replica.Rep}) that wants Reliable's exactly-once in-order
      delivery.
    - [Ack {ack}] — transport-level acknowledgement of sequence number
      [ack]; consumed by {!Reliable}, never seen by the application.

    Every envelope carries a per-directed-link sequence number [seq]
    assigned by the reliability layer (0 for raw/ack sends), and an
    [epoch] — the sender incarnation's fencing number (0 when the
    protocol above does not use fencing). The transport itself never
    interprets [epoch]; receivers that care (the replicated serving
    layer) drop envelopes from superseded epochs before the payload
    reaches the application. *)

type node = Coordinator | Site of int

type payload = App of { body : string } | Ack of { ack : int }

type t = { src : node; dst : node; seq : int; epoch : int; payload : payload }

val node_id : node -> int
(** [-1] for the coordinator, the site index otherwise. *)

val site_of : t -> int
(** The site endpoint of the (star-topology) link this envelope travels
    on. Raises [Invalid_argument] on a co->co message. *)

val kind : payload -> string
(** Stable short name of the payload constructor ("app", "ack") — used
    by the {!Net_fault} kind-targeted drop directive. *)

val kinds : string list
(** All kind names, in declaration order. *)

val pp_node : Format.formatter -> node -> unit
val pp_payload : Format.formatter -> payload -> unit
val pp : Format.formatter -> t -> unit
