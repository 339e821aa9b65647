module Vclock = Rts_net.Vclock

type t = {
  clock : Vclock.t;
  send : Frame.client -> unit;
  window : int;
  mutable outbox : Frame.client list;  (* front = next to send *)
  inflight : Frame.client Queue.t;
  mutable accepted : int;
  mutable retries : int;
  mutable overloads : (string * Frame.reason) list;  (* reversed *)
  mutable rejects : string list;  (* reversed *)
  mutable matured : (string * int * int) list;  (* (tenant, ord, id), reversed *)
  mutable bye : bool;
  mutable transcript : Frame.server list;  (* reversed *)
}

let create ~site:_ ~clock ?(window = 32) ~send () =
  if window < 1 then invalid_arg "Client.create: window must be positive";
  {
    clock;
    send;
    window;
    outbox = [];
    inflight = Queue.create ();
    accepted = 0;
    retries = 0;
    overloads = [];
    rejects = [];
    matured = [];
    bye = false;
    transcript = [];
  }

let rec pump t =
  match t.outbox with
  | f :: rest when Queue.length t.inflight < t.window ->
      t.outbox <- rest;
      Queue.add f t.inflight;
      t.send f;
      pump t
  | _ -> ()

let enqueue t f =
  t.outbox <- t.outbox @ [ f ];
  pump t

let enqueue_front t f =
  t.outbox <- f :: t.outbox;
  pump t

let pop_inflight t =
  match Queue.take_opt t.inflight with
  | Some f -> f
  | None -> failwith "Client.deliver: reply with nothing in flight"

(* Failover: frames in flight toward a dead primary will never be
   answered (its replies are fenced off), so put them back at the front
   of the outbox — original order — to be re-sent to the promoted node.
   Subscriptions are dropped rather than requeued: the caller must
   re-subscribe with the current watermark, or the stale [after = 0]
   form would replay maturities this client already consumed. Data
   frames re-send at-least-once; ops the old primary had already
   replicated apply twice, which is exactly the at-least-once intake
   contract the WAL-replay oracle measures against (maturity pushes
   stay exactly-once regardless, via the ack-floor gate plus the
   watermark backfill). *)
let requeue_inflight t =
  let stranded = List.of_seq (Queue.to_seq t.inflight) in
  Queue.clear t.inflight;
  let keep = List.filter (function Frame.Subscribe _ -> false | _ -> true) stranded in
  t.outbox <- keep @ t.outbox;
  List.length keep

let watermark t name =
  List.fold_left
    (fun acc (tn, ord, _) -> if tn = name && ord > acc then ord else acc)
    0 t.matured

let deliver t reply =
  t.transcript <- reply :: t.transcript;
  match reply with
  | Frame.Matured { tenant; ordinal; ids } ->
      t.matured <-
        List.rev_append (List.map (fun id -> (tenant, ordinal, id)) ids) t.matured
  | Frame.Accepted { ops; _ } ->
      ignore (pop_inflight t);
      t.accepted <- t.accepted + ops;
      pump t
  | Frame.Retry_after { ticks } ->
      let f = pop_inflight t in
      t.retries <- t.retries + 1;
      ignore (Vclock.schedule t.clock ~delay:(max 1 ticks) (fun () -> enqueue_front t f));
      pump t
  | Frame.Overloaded { tenant; reason } ->
      ignore (pop_inflight t);
      t.overloads <- (tenant, reason) :: t.overloads;
      pump t
  | Frame.Rejected { message } ->
      ignore (pop_inflight t);
      t.rejects <- message :: t.rejects;
      pump t
  | Frame.Stats_reply _ ->
      ignore (pop_inflight t);
      pump t
  | Frame.Bye ->
      ignore (pop_inflight t);
      t.bye <- true;
      pump t

let kick t = pump t

let idle t = t.outbox = [] && Queue.is_empty t.inflight

let accepted_ops t = t.accepted

let retries t = t.retries

let overloads t = List.rev t.overloads

let rejects t = List.rev t.rejects

let matured t name =
  List.rev t.matured
  |> List.filter_map (fun (tn, ord, id) -> if tn = name then Some (ord, id) else None)

let got_bye t = t.bye

let take_transcript t =
  let xs = List.rev t.transcript in
  t.transcript <- [];
  xs
