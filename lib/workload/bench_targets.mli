(** The single registry of benchmark targets, and the checks every
    [BENCH_<figure>.json] document must pass.

    Both sides of the bench pipeline consume this module: [bench/main.ml]
    builds its cmdliner command list (and the [all] sweep) from the
    table, and [tools/validate_bench.ml] runs {!check} on each document.
    The bench asserts at startup that its implementations and the table
    cover each other exactly, and {!check} rejects any document whose
    figure the table does not know, so a bench target cannot emit output
    the validator silently skips. *)

type t = {
  name : string;  (** target name = cmdliner subcommand = JSON "figure" *)
  doc : string;  (** one-line description (cmdliner [~doc]) *)
  strict_trace : bool;
      (** every run's [trace[].elements] must strictly increase after
          the first point — the figures whose trajectories CI replots *)
  budgeted : bool;
      (** every run is held to a work-counter entry of the budgets file,
          keyed by {!budget_key}; a run with no entry is an error *)
}

val all : t list
(** Every target, in the order the default [all] sweep runs them. *)

val names : string list

val find : string -> t option

(** {2 Budgets} *)

type budgets = {
  scale : float;
  seed : float;  (** counters are deterministic only per (scale, seed) *)
  entries : (string * (string * float) list) list;
      (** key -> (counter, ceiling) list *)
}

val budgets_of_json : Rts_obs.Json.t -> (budgets, string) result
(** Parse [{ "scale": s, "seed": n, "budgets": { key: { counter: max,
    ... }, ... } }]; [Error] names the first malformed part. *)

val budget_key : figure:string -> Rts_obs.Json.t -> string option
(** A run's budget key, ["<figure>/<engine>"], then ["/d<dim>"] when
    the run records a dim above 1, then ["/<batch>"] when it records a
    batch size or ["/k<shards>"] when it records a shard count:
    ["perf/dt/64"], ["perf/dt/d2/64"], ["shard/baseline/k4"],
    ["approx/crprecis"]. [None] when the run has no engine. *)

type row = { key : string; counter : string; budget : float; actual : float }
(** One budgeted counter of one run. *)

val status : row -> string
(** ["OVER"] when [actual > budget] (a regression; {!check} reports it
    as an error), ["LOOSE"] when [actual < budget / 2] (the ceiling
    would let a near-2x regression through), else ["OK"]. *)

val drift_cell : budget:float -> actual:float -> string
(** [(actual - budget) / budget] as a signed percentage — except that
    zero-budget rows carry no relative drift and render as ["n/a"] (met
    exactly) or ["OVER (zero budget)"] instead of the [-nan%]/[+inf%] a
    naive division produces. *)

(** {2 Document checks} *)

type report = {
  figure : string;
  runs : int;
  errors : string list;  (** empty iff the document passes *)
  rows : row list;  (** budgeted counters, in run order; empty without budgets *)
}

val check : ?budgets:budgets -> Rts_obs.Json.t -> report
(** Check one bench document. Always, at any scale:
    - the shape every figure promises (figure, params, non-empty runs,
      each with engine, total_seconds, per_op_us, elements, metrics and
      a trace, strictly advancing for [strict_trace] figures; a median
      inside its min/max envelope);
    - the paper's O(h log tau) DT message budget;
    - [perf]: the batching verdict, and [allocated_words_per_element]
      exactly 0 on every [dt] run;
    - [shard]: the sweep shape, honest core counts and the determinism
      verdict;
    - [approx]: the never-early and top-n verdicts, and
      [approx_bound_violations] exactly 0 on every sketch run.

    With [budgets], every run of a [budgeted] figure must also have an
    entry, every counter must be at most its ceiling, and the document's
    [params.scale]/[params.seed] must equal the budgets'. *)
