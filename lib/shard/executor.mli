(** Pluggable shard executor: where shard tasks run.

    - {!Seq}: every task runs inline on the caller, in shard order.
      Always available; the reference semantics.
    - {!Domains}: one OCaml 5 [Domain] per shard, each draining its own
      SPSC task ring; tasks fan out in parallel and join at a barrier.
      Available only when the build selected the domains backend
      ({!domains_available}); requesting it elsewhere raises.

    The sharded engine is {e executor-oblivious} by construction: every
    observable output (matured ids, snapshots, merged metrics) is
    normalized after the barrier in deterministic shard order, so both
    executors produce bit-identical results — the pinned-seed sweep of
    [test/test_shard.ml] asserts exactly that. *)

type kind = Seq | Domains

val domains_available : bool
(** True iff this build selected the domains backend (OCaml >= 5.0). *)

val default_kind : kind
(** [Domains] when available, else [Seq]. *)

val parallelism_hint : unit -> int
(** The runtime's recommended domain count (1 on the sequential
    backend). *)

val kind_to_string : kind -> string
(** ["seq"] / ["domains"]. *)

val kind_of_string : string -> (kind, string) result

type t

val create : ?kind:kind -> shards:int -> unit -> t
(** [create ~kind ~shards ()] readies an executor with [shards] slots
    (default kind [Seq]; [Domains] spawns the worker domains here).
    Raises [Invalid_argument] if [shards < 1] or if [Domains] is
    requested on a runtime without domain support. *)

val kind : t -> kind

val shards : t -> int

val worker_count : t -> int
(** Number of worker domains actually executing tasks: [shards] under
    {!Domains}, [1] under {!Seq} (everything runs inline on the
    caller). This — not {!parallelism_hint} — is what benches must
    record as the core count a measurement really used. *)

val run_all : t -> (int -> 'a) -> 'a array
(** Run [f i] on every shard slot and wait for all (barrier); results in
    slot order. The exception of the lowest-numbered failing slot (if
    any) is re-raised on the caller. Raises [Invalid_argument] after
    {!close}. *)

val run_on : t -> int -> (unit -> 'a) -> 'a
(** Run one task on one slot and wait for it; exceptions propagate. *)

val close : t -> unit
(** Quit and join the workers (if any) — all of them, even when a task
    raised. Idempotent; subsequent [run_*] calls raise
    [Invalid_argument]. *)
