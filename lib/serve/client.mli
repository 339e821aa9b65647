(** A scripted [rts-serve] client: windowed outbox + typed reply
    tracking.

    The transport delivers replies in the order frames were sent
    (per-link FIFO both ways), so the client matches each reply to the
    head of its in-flight queue; {!Frame.Matured} frames are
    asynchronous pushes and match nothing. On {!Frame.Retry_after} the
    frame is rescheduled on the virtual clock and re-sent at the front
    of the outbox — the cooperative half of the server's backpressure
    loop. *)

type t

val create :
  site:int -> clock:Rts_net.Vclock.t -> ?window:int -> send:(Frame.client -> unit) -> unit -> t
(** [send] transmits one frame from this client's site toward the
    server (default [window] 32 frames in flight). *)

val enqueue : t -> Frame.client -> unit
(** Queue a frame; it is sent as soon as the window allows. *)

val deliver : t -> Frame.server -> unit
(** Feed one reply/push from the transport. *)

val requeue_inflight : t -> int
(** Failover support: move every unanswered in-flight frame back to the
    front of the outbox (original order) to be re-sent — at-least-once —
    to a newly promoted primary, except [Subscribe] frames, which are
    dropped (re-subscribe with {!watermark} instead). Returns the number
    of frames requeued. The caller should re-point its [send] routing
    before the next {!enqueue}/{!kick} pumps the outbox. *)

val kick : t -> unit
(** Pump the outbox through the window now (used after
    {!requeue_inflight} once routing points at the new primary). *)

val watermark : t -> string -> int
(** Highest element ordinal among maturities received for the tenant
    (0 if none) — the [after] value for an exactly-once re-subscribe. *)

val idle : t -> bool
(** Nothing queued and nothing awaiting a reply. *)

(* ---- what the client observed ---- *)

val accepted_ops : t -> int
(** Ops the server acknowledged as admitted. *)

val retries : t -> int

val overloads : t -> (string * Frame.reason) list
(** (tenant, reason), in arrival order. *)

val rejects : t -> string list

val matured : t -> string -> (int * int) list
(** [(element ordinal, query id)] pushes received for a tenant, in
    arrival order, one pair per matured id — directly comparable to
    {!Server.maturity_log} and the replay oracle. *)

val got_bye : t -> bool

val take_transcript : t -> Frame.server list
(** All frames received since the last call, in arrival order — the
    interactive session loop's display feed. *)
