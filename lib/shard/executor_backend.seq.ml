(* Sequential stand-in backend (OCaml 4.14; selected by dune when
   runtime_events is absent). Runs every task inline on the caller, in
   slot order — trivially satisfying the ownership/barrier contract of
   executor_backend.mli and the lowest-slot-first exception rule (the
   first failing task raises immediately, before later slots run, which
   is observationally the same once the barrier would have re-raised
   it). *)

let available = false

let parallelism_hint () = 1

type pool = { slots : int; mutable closed : bool }

let spawn n =
  if n < 1 then invalid_arg "Executor_backend.spawn: n < 1";
  { slots = n; closed = false }

let check p = if p.closed then invalid_arg "Executor_backend: pool closed"

let exec p f =
  check p;
  Array.init p.slots f

let exec_on p i f =
  check p;
  if i < 0 || i >= p.slots then invalid_arg "Executor_backend.exec_on: slot out of range";
  f ()

let close p = p.closed <- true
