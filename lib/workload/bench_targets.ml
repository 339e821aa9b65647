type budget_keying = No_budgets | By_batch | By_shards | By_engine

type t = {
  name : string;
  doc : string;
  emits_json : bool;
  strict_trace : bool;
  budget_keying : budget_keying;
}

let t ?(emits_json = true) ?(strict_trace = false) ?(budget_keying = No_budgets) name doc =
  { name; doc; emits_json; strict_trace; budget_keying }

let all =
  [
    t "fig3" "Per-op cost over time, static scenario (Figures 3a/3b)";
    t "fig4" "Total time vs number of queries m (Figures 4a/4b)" ~strict_trace:true;
    t "fig5" "Total time vs threshold tau (Figures 5a/5b)";
    t "fig6" "Per-op cost over time, stochastic insertions (Figure 6)" ~strict_trace:true;
    t "fig7" "Total time vs insertion probability p_ins (Figure 7)";
    t "fig8" "Per-op cost over time, fixed-load insertions (Figure 8)";
    t "dims" "Dimensionality sweep d = 1..3 (Theorem 1 extension)";
    t "counting" "Counting RTS: the unweighted special case (Section 4)";
    t "robust" "Non-uniform element distributions (Zipf, clustered)";
    t "net" "Networked DT over faulty links: equivalence + message accounting";
    t "micro" "Bechamel steady-state per-element microbenchmark" ~emits_json:false;
    t "perf" "Batched ingestion vs element-at-a-time: wall clock + work counters"
      ~strict_trace:true ~budget_keying:By_batch;
    t "shard"
      "Sharded multi-domain ingestion: scaling curve k=1/2/4/8 + deterministic merge check"
      ~strict_trace:true ~budget_keying:By_shards;
    t "ablation" "DT slack rounds vs eager signalling";
    t "approx"
      "Approximate tier: sketch memory + certified error vs exact + per-op latency \
       (crprecis/heavy), top-n search parity"
      ~budget_keying:By_engine;
  ]

let names = List.map (fun x -> x.name) all

let find name = List.find_opt (fun x -> x.name = name) all

(* Shared by diff_bench's drift table and its regression test: a zero
   budget admits no relative drift — 0/0 is "met exactly", anything else
   over a zero budget is infinitely over; neither is a percentage, so
   both render as text instead of the -nan%/+inf% a naive division
   prints for freshly-added all-zero budget rows. *)
let drift_cell ~budget ~actual =
  if budget = 0.0 then if actual = 0.0 then "n/a" else "OVER (zero budget)"
  else Printf.sprintf "%+.1f%%" ((actual -. budget) /. budget *. 100.0)
