(** Minor-heap allocation audit for hot paths.

    Brackets [Gc.minor_words] around a section and reports how many
    minor-heap words the section itself allocated, with the bracket's own
    overhead (the boxed float each [Gc.minor_words] call returns)
    calibrated out — so a genuinely allocation-free section reports
    {e exactly} [0.], deterministically, on every compiler leg. That
    exactness is what lets validate_bench require
    [allocated_words_per_element = 0] of the DT engine with no tolerance
    band.

    The counter is monotone: concurrent noise (finalizers, signal
    handlers) can only add words, never subtract, so the minimum over a
    few runs converges on the section's true cost from above. *)

val words : (unit -> unit) -> float
(** [words f] runs [f ()] once and returns the minor-heap words it
    allocated (clamped at [0.]). *)

val words_per_item : runs:int -> items:int -> (unit -> unit) -> float
(** [words_per_item ~runs ~items f] runs [f] [runs] times (at least
    once) and divides the minimum measurement — the run least polluted
    by unrelated allocation — by [items], for sections that process
    [items] elements per run. Raises
    [Invalid_argument] if [items <= 0]. *)
