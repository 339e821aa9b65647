type kind = Seq | Domains

let domains_available = Executor_backend.available

let default_kind = if domains_available then Domains else Seq

let parallelism_hint () = Executor_backend.parallelism_hint ()

let kind_to_string = function Seq -> "seq" | Domains -> "domains"

let kind_of_string = function
  | "seq" | "sequential" -> Ok Seq
  | "domains" | "par" -> Ok Domains
  | s -> Error (Printf.sprintf "unknown executor %S (expected seq or domains)" s)

type t = {
  shards : int;
  kind : kind;
  pool : Executor_backend.pool option; (* Some iff kind = Domains *)
  mutable closed : bool;
}

let create ?(kind = Seq) ~shards () =
  if shards < 1 then invalid_arg "Executor.create: shards < 1";
  (match kind with
  | Domains when not domains_available ->
      invalid_arg
        "Executor.create: domains executor unavailable on this runtime (OCaml < 5.0) — use seq"
  | Domains | Seq -> ());
  let pool = match kind with Domains -> Some (Executor_backend.spawn shards) | Seq -> None in
  { shards; kind; pool; closed = false }

let kind t = t.kind

let shards t = t.shards

let worker_count t = match t.kind with Seq -> 1 | Domains -> t.shards

let check t = if t.closed then invalid_arg "Executor: closed"

let run_all t f =
  check t;
  match t.pool with None -> Array.init t.shards f | Some p -> Executor_backend.exec p f

let run_on t i f =
  check t;
  if i < 0 || i >= t.shards then invalid_arg "Executor.run_on: shard out of range";
  match t.pool with None -> f () | Some p -> Executor_backend.exec_on p i f

let close t =
  if not t.closed then begin
    t.closed <- true;
    match t.pool with Some p -> Executor_backend.close p | None -> ()
  end
