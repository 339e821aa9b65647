module Prng = Rts_util.Prng
module Metrics = Rts_obs.Metrics

type config = { rto : int; rto_max : int; jitter : float }

let default = { rto = 12; rto_max = 192; jitter = 0.0 }

type entry = { env : Envelope.t; mutable attempts : int; mutable timer : Vclock.timer option }

type sender_link = { mutable next_seq : int; unacked : (int, entry) Hashtbl.t }

type recv_link = { mutable expected : int; buffer : (int, Envelope.t) Hashtbl.t }

type t = {
  config : config;
  clock : Vclock.t;
  rng : Prng.t; (* jitter draws only; the Network owns its own stream *)
  mutable net : Network.t option; (* tied after create; always Some in use *)
  deliver : Envelope.t -> unit;
  senders : (int * int, sender_link) Hashtbl.t;
  receivers : (int * int, recv_link) Hashtbl.t;
  mutable protocol_sends : int;
  mutable retransmits : int;
  mutable acks_sent : int;
  mutable acks_received : int;
  mutable dup_suppressed : int;
  mutable held : int;
}

let network t = Option.get t.net

let sender_link t key =
  match Hashtbl.find_opt t.senders key with
  | Some l -> l
  | None ->
      let l = { next_seq = 1; unacked = Hashtbl.create 8 } in
      Hashtbl.replace t.senders key l;
      l

let recv_link t key =
  match Hashtbl.find_opt t.receivers key with
  | Some l -> l
  | None ->
      let l = { expected = 1; buffer = Hashtbl.create 8 } in
      Hashtbl.replace t.receivers key l;
      l

let link_key src dst = (Envelope.node_id src, Envelope.node_id dst)

(* Exponential backoff: rto * 2^(attempts-1), capped, plus optional
   deterministic jitter. Without jitter, every link that lost traffic to
   the same partition retries on the same tick when it heals — a
   synchronized burst into a link that may still be lossy. [jitter = j]
   spreads each delay uniformly over [d, d * (1 + j)] from the fabric's
   seeded PRNG, so the spread is reproducible run to run. Jitter 0 draws
   nothing, leaving pre-existing seeded schedules bit-identical. *)
let backoff t attempts =
  let d = t.config.rto lsl min attempts 20 in
  let d = min (max t.config.rto d) t.config.rto_max in
  if t.config.jitter <= 0. then d
  else
    let span = int_of_float (float_of_int d *. t.config.jitter) in
    if span <= 0 then d else d + Prng.int t.rng (span + 1)

let rec arm_timer t entry =
  let delay = backoff t entry.attempts in
  entry.timer <-
    Some
      (Vclock.schedule t.clock ~delay (fun () ->
           (* Still unacked: retransmit with doubled timeout. *)
           entry.attempts <- entry.attempts + 1;
           t.retransmits <- t.retransmits + 1;
           Network.send (network t) entry.env;
           arm_timer t entry))

let send ?(epoch = 0) t ~src ~dst payload =
  let key = link_key src dst in
  let l = sender_link t key in
  let seq = l.next_seq in
  l.next_seq <- seq + 1;
  let env = { Envelope.src; dst; seq; epoch; payload } in
  let entry = { env; attempts = 0; timer = None } in
  Hashtbl.replace l.unacked seq entry;
  t.protocol_sends <- t.protocol_sends + 1;
  Network.send (network t) env;
  arm_timer t entry

let on_receive t (env : Envelope.t) =
  match env.payload with
  | Envelope.Ack { ack } -> (
      t.acks_received <- t.acks_received + 1;
      (* The ack acknowledges [ack] on the reverse link. *)
      let key = link_key env.dst env.src in
      match Hashtbl.find_opt t.senders key with
      | None -> ()
      | Some l -> (
          match Hashtbl.find_opt l.unacked ack with
          | None -> () (* duplicate ack of an already-settled seq *)
          | Some entry ->
              Option.iter (Vclock.cancel t.clock) entry.timer;
              entry.timer <- None;
              Hashtbl.remove l.unacked ack))
  | Envelope.App _ ->
      (* Always (re-)ack, even duplicates: the previous ack may have been
         lost. Acks are raw datagrams — unsequenced, never retried. *)
      t.acks_sent <- t.acks_sent + 1;
      Network.send (network t)
        {
          Envelope.src = env.dst;
          dst = env.src;
          seq = 0;
          epoch = env.epoch;
          payload = Envelope.Ack { ack = env.seq };
        };
      let key = link_key env.src env.dst in
      let l = recv_link t key in
      if env.seq < l.expected || Hashtbl.mem l.buffer env.seq then
        t.dup_suppressed <- t.dup_suppressed + 1
      else if env.seq = l.expected then begin
        l.expected <- l.expected + 1;
        t.deliver env;
        (* Flush any consecutive out-of-order arrivals now in order. *)
        let rec flush () =
          match Hashtbl.find_opt l.buffer l.expected with
          | Some held ->
              Hashtbl.remove l.buffer l.expected;
              l.expected <- l.expected + 1;
              t.deliver held;
              flush ()
          | None -> ()
        in
        flush ()
      end
      else begin
        (* Early arrival: hold until the gap closes (per-link FIFO
           exactly-once delivery to the protocol). *)
        Hashtbl.replace l.buffer env.seq env;
        t.held <- t.held + 1
      end

let create ~config ~clock ~rng ~spec ~deliver () =
  if config.jitter < 0. then invalid_arg "Reliable.create: jitter < 0";
  (* [copy], not [split]: copying leaves the caller's stream untouched,
     so enabling (or merely plumbing) jitter never perturbs the fault
     injector's draws and every pre-jitter seeded schedule stays
     bit-identical. *)
  let jitter_rng = Prng.copy rng in
  let t =
    {
      config;
      clock;
      rng = jitter_rng;
      net = None;
      deliver;
      senders = Hashtbl.create 16;
      receivers = Hashtbl.create 16;
      protocol_sends = 0;
      retransmits = 0;
      acks_sent = 0;
      acks_received = 0;
      dup_suppressed = 0;
      held = 0;
    }
  in
  let net = Network.create ~clock ~rng ~spec ~handler:(fun env -> on_receive t env) () in
  t.net <- Some net;
  t

let unacked t =
  Hashtbl.fold (fun _ l acc -> acc + Hashtbl.length l.unacked) t.senders 0

let metrics t =
  let net = network t in
  Metrics.merge (Network.metrics net)
    (Metrics.of_assoc
       [
         ("net_protocol_sends_total", Metrics.Counter t.protocol_sends);
         ("net_retransmits_total", Metrics.Counter t.retransmits);
         ("net_acks_sent_total", Metrics.Counter t.acks_sent);
         ("net_acks_received_total", Metrics.Counter t.acks_received);
         ("net_dup_suppressed_total", Metrics.Counter t.dup_suppressed);
         ("net_held_out_of_order_total", Metrics.Counter t.held);
       ])
