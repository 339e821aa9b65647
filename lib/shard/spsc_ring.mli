(** Bounded single-producer / single-consumer ring buffer.

    Lock-free on OCaml 5: the producer side mutates only the tail index,
    the consumer side only the head, and slot contents are published
    through the [Atomic] index writes (release/acquire), so one producer
    and one consumer may run on different domains with no mutex on the
    hot path. {b The SPSC contract is the caller's obligation}: at most
    one domain ever pushes, at most one ever pops.

    This is the task channel under {!Executor_backend}'s domains
    backend (the coordinator is the producer, each worker domain the
    consumer of its own ring) and the ingest ring of the serving
    layer. *)

type 'a t

val create : capacity:int -> 'a t
(** Ring with room for at least [capacity] elements (rounded up to a
    power of two). Raises [Invalid_argument] if [capacity < 1]. *)

val capacity : _ t -> int
(** Actual (rounded) capacity. *)

val try_push : 'a t -> 'a -> bool
(** Producer side: enqueue, or return [false] if the ring is full. *)

val try_pop : 'a t -> 'a option
(** Consumer side: dequeue the oldest element, or [None] if empty. The
    vacated slot is cleared so the ring retains no reference. *)

val length : _ t -> int
(** Elements currently queued (exact for either endpoint, a snapshot
    for anyone else). *)

val is_empty : _ t -> bool
