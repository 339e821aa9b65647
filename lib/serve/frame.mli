(** Wire frames of the [rts-serve] protocol.

    One frame = one line of text, carried as the opaque [body] of an
    {!Rts_net.Envelope.App} payload over the {!Rts_net.Reliable}
    transport (clients are [Site i], the daemon is [Coordinator]), or
    spoken directly over stdin/stdout by [rts-serve session]. The
    transport owns sequencing, retransmission and exactly-once in-order
    delivery; frames carry no sequence numbers of their own.

    Client -> server ({!client}):
    {v
    op,<tenant>,<R/T/E op line>       register / terminate / feed
    batch,<tenant>,<E line>[;<E line>...]   feed_batch (one instant)
    sub,<tenant>[,<after>]            subscribe-maturities (resume past watermark)
    stats                             server metric snapshot
    shutdown                          drain everything, sync, stop
    v}

    Server -> client ({!server}):
    {v
    accepted,<tenant>,<n>             n ops admitted into the tenant queue
    overloaded,<tenant>,<reason>      admission refused (typed reason)
    retry,<ticks>                     backpressure: queue full, try later
    rejected,<msg>                    malformed frame / benign engine error
    matured,<tenant>,<ordinal>,<id>[;<id>...]   push to subscribers
    stats,<body>                      metric snapshot (escaped string)
    bye                               shutdown acknowledged
    v}

    Replies to a client's frames arrive in the order the frames were
    sent (per-link FIFO); [matured] frames are asynchronous pushes
    interleaved among them and answer nothing. *)

open Rts_workload

type client =
  | Op of { tenant : string; op : Replay.op }
      (** REGISTER / TERMINATE / one element, as a {!Replay.op}. *)
  | Batch of { tenant : string; elems : Rts_core.Types.elem array }
      (** Many elements in one frame — transport-level batching. *)
  | Subscribe of { tenant : string; after : int }
      (** Subscribe to maturity pushes. [after] is an element-ordinal
          watermark: the backfill skips maturities with ordinal [<=
          after]. [0] (the wire default) replays from genesis; a client
          re-subscribing to a freshly promoted primary passes the
          highest ordinal it has already consumed, keeping the push
          stream exactly-once across failover. *)
  | Stats
  | Shutdown

type reason =
  | Tenants  (** tenant table full *)
  | Quota  (** per-tenant alive-query quota reached *)
  | Wal_lag  (** accepted-but-not-yet-durable backlog over the limit *)
  | Disk_full  (** tenant storage reported {!Rts_resilience.Io.No_space} *)

type server =
  | Accepted of { tenant : string; ops : int }
  | Overloaded of { tenant : string; reason : reason }
  | Retry_after of { ticks : int }
  | Rejected of { message : string }
  | Matured of { tenant : string; ordinal : int; ids : int list }
      (** [ordinal] is the tenant's global {e element} ordinal, the same
          coordinate {!Rts_workload.Replay.outcome.maturities} uses. *)
  | Stats_reply of { body : string }
  | Bye

val tenant_ok : string -> bool
(** Valid tenant names: nonempty, over [A-Za-z0-9_.-]. *)

val reason_to_string : reason -> string
val reason_of_string : string -> reason option

val client_to_string : client -> string
val client_of_string : dim:int -> string -> (client, string) result

val server_to_string : server -> string
val server_of_string : string -> (server, string) result

val pp_client : Format.formatter -> client -> unit
val pp_server : Format.formatter -> server -> unit
