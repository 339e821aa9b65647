(** Name → engine factory registry.

    Engines used to be enumerated in a closed variant inside `rts-cli`;
    with the approximate tier the set is open — `rts_approx` installs its
    engines at startup without `lib/core` depending on it. The registry is
    the single source of truth for engine names: the CLI's `--engine`
    parsing and help text and the bench rosters resolve through it, so a
    new engine library only has to call {!register} once.

    Registration is not thread-safe (it happens during single-threaded
    startup) and duplicate names are an error — two libraries silently
    fighting over a name would make `--engine` runs irreproducible. *)

type dims =
  | Any  (** Works at every dimensionality (validated per query/element). *)
  | Only of int  (** Hard-wired to one dimensionality, e.g. interval-tree. *)

type entry = {
  name : string;
  doc : string;  (** One-line description, used in [--engine] help text. *)
  dims : dims;
  make : dim:int -> Engine.t;
}

val register : name:string -> doc:string -> ?dims:dims -> (dim:int -> Engine.t) -> unit
(** Add an engine factory. Raises [Invalid_argument] on a duplicate name. *)

val find : string -> entry option

val mem : string -> bool

val names : unit -> string list
(** All registered names, in registration order (core engines first). *)

val entries : unit -> entry list

val make : name:string -> dim:int -> Engine.t
(** Resolve and build. Raises [Failure] with a user-facing message on an
    unknown name or a dimensionality the engine does not support. *)
