module Prng = Rts_util.Prng
module Metrics = Rts_obs.Metrics

type t = {
  clock : Vclock.t;
  rng : Prng.t;
  spec : Net_fault.spec;
  handler : Envelope.t -> unit;
  kdrop : (string, int) Hashtbl.t; (* remaining kind-targeted drops *)
  mutable sent : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable reordered : int;
  mutable delivered : int;
}

let create ~clock ~rng ~spec ~handler () =
  let kdrop = Hashtbl.create 8 in
  List.iter
    (fun (k, n) -> Hashtbl.replace kdrop k (n + Option.value ~default:0 (Hashtbl.find_opt kdrop k)))
    spec.Net_fault.kind_drop;
  {
    clock;
    rng;
    spec;
    handler;
    kdrop;
    sent = 0;
    dropped = 0;
    duplicated = 0;
    reordered = 0;
    delivered = 0;
  }

(* Skip the PRNG draw entirely for zero-probability faults: the zero-fault
   network then consumes no randomness at all, so its trajectory is the
   plain FIFO one whatever the seed. *)
let bern t p = p > 0. && Prng.bernoulli t.rng p

let delay_of t =
  if t.spec.Net_fault.delay_min = t.spec.Net_fault.delay_max then t.spec.Net_fault.delay_min
  else Prng.int_in t.rng t.spec.Net_fault.delay_min t.spec.Net_fault.delay_max

(* One physical transmission attempt of [env]. The fault decision order is
   fixed (kind-drop, partition, loss, latency, reorder, duplication) so a
   seed pins the whole trajectory. *)
let send t env =
  t.sent <- t.sent + 1;
  let site = Envelope.site_of env in
  let kind = Envelope.kind env.Envelope.payload in
  let kind_dropped =
    match Hashtbl.find_opt t.kdrop kind with
    | Some n when n > 0 ->
        Hashtbl.replace t.kdrop kind (n - 1);
        true
    | _ -> false
  in
  if kind_dropped then t.dropped <- t.dropped + 1
  else if Net_fault.partitioned t.spec ~site ~now:(Vclock.now t.clock) then
    t.dropped <- t.dropped + 1
  else if bern t (Net_fault.drop_rate t.spec ~site) then t.dropped <- t.dropped + 1
  else begin
    let deliver_once () =
      let d = delay_of t in
      let d =
        if bern t t.spec.Net_fault.reorder then begin
          t.reordered <- t.reordered + 1;
          d + 1 + Prng.int t.rng t.spec.Net_fault.reorder_spread
        end
        else d
      in
      ignore
        (Vclock.schedule t.clock ~delay:d (fun () ->
             t.delivered <- t.delivered + 1;
             t.handler env))
    in
    deliver_once ();
    if bern t t.spec.Net_fault.duplicate then begin
      t.duplicated <- t.duplicated + 1;
      deliver_once ()
    end
  end

let metrics t =
  Metrics.of_assoc
    [
      ("net_sent_total", Metrics.Counter t.sent);
      ("net_dropped_total", Metrics.Counter t.dropped);
      ("net_duplicated_total", Metrics.Counter t.duplicated);
      ("net_reordered_total", Metrics.Counter t.reordered);
      ("net_delivered_total", Metrics.Counter t.delivered);
    ]
