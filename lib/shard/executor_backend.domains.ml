(* Domain-backed executor (OCaml >= 5.0; selected by dune when
   runtime_events is present).

   One long-lived Domain per slot, each draining its own bounded
   Spsc_ring of tasks: the coordinator is the single producer, the
   worker the single consumer, so the hot enqueue/dequeue path is
   lock-free. A worker that finds its ring empty spins briefly
   (batched ingestion re-fills rings within microseconds), then parks
   on a Mutex/Condition pair; the producer pings the condition only
   when the [sleeping] flag says someone is actually parked, so the
   steady-state cost of a put is one push plus one uncontended
   lock/unlock.

   Teardown discipline: a task exception must never kill a worker loop,
   and [close] must hand every ring a [Quit] and [Domain.join] every
   domain before any exception propagates — otherwise a raise during
   dispatch leaks parked domains, and OCaml caps live domains low
   enough (~128) that a leaky create/close cycle exhausts the runtime.
   Every task [exec_slots] enqueues catches its own exception into a
   per-slot cell, re-raised lowest-slot-first after the barrier, so no
   exception ever reaches the worker loop.

   Domains parked in Condition.wait are blocked outside the OCaml
   runtime, so an idle pool does not delay stop-the-world collections
   on the coordinator. *)

let available = true

let parallelism_hint () = Domain.recommended_domain_count ()

type task = Run of (unit -> unit) | Quit

module Chan = struct
  (* Per-slot task channel: SPSC ring + park/unpark. Exactly one
     producer (the coordinator) and one consumer (the slot's domain).
     [sleeping] is only read/written under [m], which is what makes the
     wakeup race-free: the consumer re-checks the ring *after* setting
     [sleeping] under the lock, so a push that missed the flag is seen
     by that re-check, and a push that sees the flag signals under the
     same lock. *)
  type t = {
    ring : task Spsc_ring.t;
    m : Mutex.t;
    c : Condition.t;
    mutable sleeping : bool;
  }

  let create () =
    { ring = Spsc_ring.create ~capacity:1024; m = Mutex.create (); c = Condition.create (); sleeping = false }

  let put t x =
    while not (Spsc_ring.try_push t.ring x) do
      (* ring full: the worker is behind; let it drain *)
      Domain.cpu_relax ()
    done;
    Mutex.lock t.m;
    if t.sleeping then Condition.signal t.c;
    Mutex.unlock t.m

  let take t =
    let spins = ref 256 in
    let rec spin () =
      match Spsc_ring.try_pop t.ring with
      | Some x -> x
      | None ->
          if !spins > 0 then begin
            decr spins;
            Domain.cpu_relax ();
            spin ()
          end
          else park ()
    and park () =
      Mutex.lock t.m;
      t.sleeping <- true;
      let rec wait () =
        match Spsc_ring.try_pop t.ring with
        | Some x ->
            t.sleeping <- false;
            Mutex.unlock t.m;
            x
        | None ->
            Condition.wait t.c t.m;
            wait ()
      in
      wait ()
    in
    spin ()
end

module Latch = struct
  type t = { m : Mutex.t; c : Condition.t; mutable pending : int }

  let create n =
    if n < 0 then invalid_arg "Executor_backend.Latch.create: negative count";
    { m = Mutex.create (); c = Condition.create (); pending = n }

  let arrive t =
    Mutex.lock t.m;
    t.pending <- t.pending - 1;
    if t.pending = 0 then Condition.broadcast t.c;
    Mutex.unlock t.m

  (* pending = 0 (empty dispatch) falls straight through — an empty
     barrier is a no-op, never a deadlock *)
  let wait t =
    Mutex.lock t.m;
    while t.pending > 0 do
      Condition.wait t.c t.m
    done;
    Mutex.unlock t.m
end

type pool = { chans : Chan.t array; domains : unit Domain.t array; mutable closed : bool }

let spawn n =
  if n < 1 then invalid_arg "Executor_backend.spawn: n < 1";
  let chans = Array.init n (fun _ -> Chan.create ()) in
  let domains =
    Array.map
      (fun ch ->
        Domain.spawn (fun () ->
            let rec loop () =
              match Chan.take ch with
              | Run f ->
                  f ();
                  loop ()
              | Quit -> ()
            in
            loop ()))
      chans
  in
  { chans; domains; closed = false }

let check p = if p.closed then invalid_arg "Executor_backend: pool closed"

(* Fan a closure out to a subset of slots, barrier, then re-raise the
   lowest-slot failure (if any) with its original backtrace. Results and
   errors live in plain arrays: each cell is written by exactly one
   worker before it arrives at the latch, and read by the coordinator
   only after the latch opens — so the barrier is also what guarantees
   no slot is still running when an exception propagates. *)
let exec_slots p slots f =
  check p;
  let n = Array.length slots in
  if n = 0 then [||]
  else begin
    let results = Array.make n None in
    let errors = Array.make n None in
    let latch = Latch.create n in
    Array.iteri
      (fun j slot ->
        Chan.put p.chans.(slot)
          (Run
             (fun () ->
               (try results.(j) <- Some (f slot)
                with e -> errors.(j) <- Some (e, Printexc.get_raw_backtrace ()));
               Latch.arrive latch)))
      slots;
    Latch.wait latch;
    Array.iter
      (function
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> ())
      errors;
    Array.map (function Some r -> r | None -> assert false) results
  end

let exec p f = exec_slots p (Array.init (Array.length p.chans) Fun.id) f

let exec_on p i f =
  if i < 0 || i >= Array.length p.chans then
    invalid_arg "Executor_backend.exec_on: slot out of range";
  (exec_slots p [| i |] (fun _ -> f ())).(0)

let close p =
  if not p.closed then begin
    p.closed <- true;
    (* every ring gets Quit (FIFO: it runs after any still-queued
       tasks), and every domain is joined, before anything re-raises *)
    Array.iter (fun ch -> Chan.put ch Quit) p.chans;
    let first_join_failure = ref None in
    Array.iter
      (fun d ->
        try Domain.join d
        with e ->
          if !first_join_failure = None then
            first_join_failure := Some (e, Printexc.get_raw_backtrace ()))
      p.domains;
    match !first_join_failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end
