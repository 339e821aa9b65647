(** Build-time-selected execution backend (see lib/shard/dune).

    Two implementations satisfy this signature:
    - [executor_backend.domains.ml] — one OCaml 5 [Domain] per slot,
      each draining its own bounded {!Spsc_ring} of tasks (selected
      when the runtime ships [runtime_events], i.e. OCaml >= 5.0);
    - [executor_backend.seq.ml] — an inline sequential stand-in that
      keeps the library building on 4.14.

    {!Executor} is the only client; nothing else should touch this
    module. The contract every implementation must honour: worker slot
    [i] {e owns} the state its tasks close over — a slot's tasks run
    one at a time in submission order, and the end-of-call barrier of
    {!exec} establishes happens-before in both directions, so the
    coordinator may freely read that state while no call is in
    flight. *)

val available : bool
(** True when {!exec} really fans tasks out over parallel domains. *)

val parallelism_hint : unit -> int
(** The runtime's recommended domain count (1 on the sequential
    backend) — recorded by the bench so scaling numbers can be read in
    context of the hardware that produced them. *)

type pool
(** [n] worker slots, indexed [0 .. n-1]. *)

val spawn : int -> pool

val exec : pool -> (int -> 'a) -> 'a array
(** [exec p f] runs [f i] on every slot [i] (concurrently on the
    domains backend), waits for all of them (barrier), and returns the
    results in slot order. If tasks raised, the exception of the
    lowest-numbered failing slot is re-raised on the caller {e after}
    the barrier — deterministic regardless of domain scheduling, and
    never before every dispatched task has finished (a raise during a
    fan-out must not strand still-running slots). *)

val exec_on : pool -> int -> (unit -> 'a) -> 'a
(** Run one task on one slot and wait for it; exceptions propagate. *)

val close : pool -> unit
(** Stop and join the workers. Every worker is handed a quit signal and
    every domain is joined {e before} any exception propagates — a
    failing join cannot leak the other parked domains. Idempotent. *)
