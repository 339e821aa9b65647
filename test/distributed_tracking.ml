(* Executable specification of the distributed-tracking (DT) protocol
   (Cormode, Muthukrishnan & Yi, ACM TALG 2011), exactly as described in
   Sections 3.2 and 7 of the paper, kept as the test suite's protocol
   oracle the way endpoint_tree_ref.ml is the tree's.

   Setting: one coordinator and [h] participants, each holding an integer
   counter starting at 0. At each timestamp at most one counter increases
   — by 1 in the unweighted problem of Section 3.2, by an arbitrary
   positive integer in the weighted variant of Section 7. The coordinator
   must report maturity the moment the counter sum reaches the threshold
   [tau], while keeping the number of transmitted messages O(h log tau) —
   far below the trivial [tau] messages.

   Protocol: while [tau > 6h], the coordinator broadcasts the slack
   [lambda = tau / (2h)]; a participant sends a one-bit signal for every
   [lambda] units its counter accumulates; after [h] signals the
   coordinator collects all exact counters, deducts them from [tau], and
   starts the next round. Once [tau <= 6h] every counter change is
   forwarded directly.

   The protocol lives in [Machine], a pure state machine
   [step : state -> event -> state * action list] over the four protocol
   messages below. The classic API after it delivers every [Transmit]
   depth-first as a synchronous call, reproducing the reference
   pseudo-code's message counts exactly. test_distributed_tracking.ml
   checks maturity exactness and the message bound against it. *)

type node = Coordinator | Site of int

type msg =
  | Slack_broadcast of { round : int; lambda : int }
      (* coordinator -> site: start round [round] with slack [lambda];
         [lambda = 0] switches the site to direct forwarding *)
  | Signal of { round : int }
      (* site -> coordinator: one more [lambda] accumulated in [round] *)
  | Round_end of { round : int }  (* coordinator -> site: report your counter *)
  | Counter_report of { round : int; value : int }
      (* site -> coordinator: exact counter; [round = -1] in direct mode *)

(* ------------------------------------------------------------------ *)
(* Pure protocol state machine.                                        *)
(*                                                                     *)
(* The coordinator and the h participants are modelled as one          *)
(* immutable ensemble state; [step] consumes exactly one event (a      *)
(* delivered message, a local increment or a local drain continuation) *)
(* and returns the successor state plus the transmissions it caused.   *)
(* Policy (when to signal, when to end a round, when maturity holds)   *)
(* lives here; the classic synchronous driver below delivers them.     *)
(* ------------------------------------------------------------------ *)

module Machine = struct
  type site_mode =
    | Rounds_mode of { lambda : int; round : int }
    | Await_slack of { round : int } (* replied to Round_end; next slack has this round *)
    | Direct_mode

  type site = { counter : int; cbar : int; smode : site_mode; sent_in_round : int }

  type co_phase = Co_rounds | Co_direct

  type co = {
    round : int;
    phase : co_phase;
    lambda : int;
    known : int array; (* per-site collected lower bound (exact in direct mode) *)
    sigs : int array; (* current-round signals per site *)
    signals_round : int;
    collecting : bool;
    pending : bool array; (* collection replies still awaited *)
  }

  type state = {
    h : int;
    tau : int;
    sites : site array;
    co : co;
    mature : bool;
    rounds_done : int;
    stale : int;
  }

  type event =
    | Increment of { site : int; by : int }
        (* the application raised [site]'s counter by [by > 0] *)
    | Deliver of { src : node; dst : node; payload : msg }
    | Drain of int
        (* local continuation at a site: emit the next due signal or
           direct report; free, not a network message *)

  type action =
    | Transmit of { src : node; dst : node; payload : msg }
    | Local of event (* feed this event back to the machine, free *)

  (* ---- accessors ---- *)

  let h st = st.h
  let tau st = st.tau
  let is_mature st = st.mature
  let rounds st = st.rounds_done
  let stale st = st.stale
  let total st = Array.fold_left (fun acc s -> acc + s.counter) 0 st.sites
  let counter st i = st.sites.(i).counter

  (* The coordinator's lower bound on the counter sum: collected values
     plus slack credit for this round's signals. Never exceeds [total]
     (never-early). *)
  let estimate st =
    let c = st.co in
    let acc = ref 0 in
    for i = 0 to st.h - 1 do
      acc := !acc + c.known.(i);
      if c.phase = Co_rounds then acc := !acc + (c.sigs.(i) * c.lambda)
    done;
    !acc

  (* ---- copy-on-write helpers ---- *)

  let set_site st i s =
    let sites = Array.copy st.sites in
    sites.(i) <- s;
    { st with sites }

  let copy_co c =
    {
      c with
      known = Array.copy c.known;
      sigs = Array.copy c.sigs;
      pending = Array.copy c.pending;
    }

  (* ---- transmissions ---- *)

  let to_site i payload = Transmit { src = Coordinator; dst = Site i; payload }

  let to_co i payload = Transmit { src = Site i; dst = Coordinator; payload }

  let broadcast st payload = List.init st.h (fun i -> to_site i payload)

  (* ---- coordinator phase transitions ---- *)

  (* Begin a phase for [remaining > 0] threshold units: a fresh slack
     round while remaining > 6h, the direct endgame otherwise. Mirrors
     the reference pseudo-code's start_phase exactly. *)
  let start_phase st remaining =
    assert (remaining > 0);
    let c = copy_co st.co in
    let round = c.round + 1 in
    if remaining <= 6 * st.h then begin
      Array.fill c.sigs 0 st.h 0;
      let c =
        { c with round; phase = Co_direct; lambda = 0; signals_round = 0; collecting = false }
      in
      ({ st with co = c }, broadcast st (Slack_broadcast { round; lambda = 0 }))
    end
    else begin
      let lambda = remaining / (2 * st.h) in
      assert (lambda >= 3);
      Array.fill c.sigs 0 st.h 0;
      let c = { c with round; phase = Co_rounds; lambda; signals_round = 0; collecting = false } in
      ({ st with co = c }, broadcast st (Slack_broadcast { round; lambda }))
    end

  let mature st = ({ st with mature = true }, [])

  let maybe_mature st = if estimate st >= st.tau then mature st else (st, [])

  let finish_collection st =
    let sum = Array.fold_left ( + ) 0 st.co.known in
    let st = { st with rounds_done = st.rounds_done + 1 } in
    if sum >= st.tau then mature st else start_phase st (st.tau - sum)

  (* ---- site-side handlers ---- *)

  let site_round s =
    match s.smode with
    | Rounds_mode { round; _ } -> round
    | Await_slack { round } -> round
    | Direct_mode -> max_int

  let drop_stale st = ({ st with stale = st.stale + 1 }, [])

  let step_drain st i =
    if st.mature then (st, [])
    else
      let s = st.sites.(i) in
      match s.smode with
      | Direct_mode ->
          if s.counter > s.cbar then
            ( set_site st i { s with cbar = s.counter },
              [ to_co i (Counter_report { round = -1; value = s.counter }) ] )
          else (st, [])
      | Rounds_mode { lambda; round } ->
          (* One signal per step plus a local continuation, so the
             coordinator's reaction (possibly a whole round end)
             interleaves between two signals, exactly as in the
             reference protocol. The h-signal cap bounds a heavy
             increment's burst: the coordinator ends the round at the
             h-th signal anyway, so anything beyond a site's h-th would
             be stale by construction. *)
          if s.counter - s.cbar >= lambda && s.sent_in_round < st.h then
            ( set_site st i
                { s with cbar = s.cbar + lambda; sent_in_round = s.sent_in_round + 1 },
              [ to_co i (Signal { round }); Local (Drain i) ] )
          else (st, [])
      | Await_slack _ -> (st, [])

  let site_deliver st i payload =
    let s = st.sites.(i) in
    match payload with
    | Slack_broadcast { round; lambda } ->
        if round < site_round s || s.smode = Direct_mode then drop_stale st
        else if lambda = 0 then
          (set_site st i { s with smode = Direct_mode }, [ Local (Drain i) ])
        else
          ( set_site st i { s with smode = Rounds_mode { lambda; round }; sent_in_round = 0 },
            [ Local (Drain i) ] )
    | Round_end { round } -> (
        match s.smode with
        | Rounds_mode { round = r; _ } when r = round ->
            ( set_site st i
                { s with cbar = s.counter; smode = Await_slack { round = round + 1 } },
              [ to_co i (Counter_report { round; value = s.counter }) ] )
        | _ -> drop_stale st)
    | Signal _ | Counter_report _ -> drop_stale st

  (* ---- coordinator-side handlers ---- *)

  let end_round st =
    let c = copy_co st.co in
    let ending = c.round in
    Array.fill c.pending 0 st.h true;
    let c = { c with collecting = true } in
    ({ st with co = c }, broadcast st (Round_end { round = ending }))

  let co_deliver st i payload =
    if st.mature then (st, [])
    else
      let c = st.co in
      match payload with
      | Signal { round } ->
          if c.phase <> Co_rounds || c.collecting || round <> c.round then
            drop_stale st
          else begin
            let nc = copy_co c in
            nc.sigs.(i) <- nc.sigs.(i) + 1;
            let nc = { nc with signals_round = nc.signals_round + 1 } in
            let st = { st with co = nc } in
            if nc.signals_round >= st.h then end_round st else maybe_mature st
          end
      | Counter_report { round = _; value } ->
          let nc = copy_co c in
          nc.known.(i) <- max nc.known.(i) value;
          if c.collecting && c.pending.(i) then begin
            nc.pending.(i) <- false;
            (* The exact report subsumes this round's signal credit —
               zero it so [estimate] never double-counts the surplus
               those signals represented. *)
            nc.sigs.(i) <- 0;
            let st = { st with co = nc } in
            if Array.exists (fun p -> p) nc.pending then (st, []) else finish_collection st
          end
          else maybe_mature { st with co = nc }
      | Slack_broadcast _ | Round_end _ -> drop_stale st

  (* ---- entry points ---- *)

  let init ~h ~tau =
    let co =
      {
        round = -1;
        phase = Co_rounds;
        lambda = 0;
        known = Array.make h 0;
        sigs = Array.make h 0;
        signals_round = 0;
        collecting = false;
        pending = Array.make h false;
      }
    in
    let site = { counter = 0; cbar = 0; smode = Await_slack { round = 0 }; sent_in_round = 0 } in
    let st =
      {
        h;
        tau;
        sites = Array.make h site;
        co;
        mature = false;
        rounds_done = 0;
        stale = 0;
      }
    in
    start_phase st tau

  let step st event =
    match event with
    | Increment { site = i; by } ->
        let s = st.sites.(i) in
        (set_site st i { s with counter = s.counter + by }, [ Local (Drain i) ])
    | Drain i -> step_drain st i
    | Deliver { src; dst; payload } -> (
        match (dst, src) with
        | Site i, Coordinator -> site_deliver st i payload
        | Coordinator, Site i -> co_deliver st i payload
        | _ -> drop_stale st)

  let pp_phase ppf st =
    Format.pp_print_string ppf
      (match st.co.phase with Co_rounds -> "rounds" | Co_direct -> "direct")
end

(* ------------------------------------------------------------------ *)
(* Classic synchronous API.                                            *)
(*                                                                     *)
(* Transmissions are delivered depth-first, immediately and in order — *)
(* a function call. This reproduces the reference protocol exactly:    *)
(* after a site's k-th signal the coordinator's whole reaction         *)
(* (including a round end, collection and the next slack broadcast)    *)
(* completes before the site's drain continuation resumes, which is    *)
(* precisely the "…unless q has announced the end of this round" rule  *)
(* of Section 7.                                                       *)
(* ------------------------------------------------------------------ *)

type t = { mutable st : Machine.state; mutable messages : int }

let rec exec t actions =
  List.iter
    (fun action ->
      match action with
      | Machine.Transmit { src; dst; payload } ->
          t.messages <- t.messages + 1;
          let st, acts = Machine.step t.st (Machine.Deliver { src; dst; payload }) in
          t.st <- st;
          exec t acts
      | Machine.Local ev ->
          let st, acts = Machine.step t.st ev in
          t.st <- st;
          exec t acts)
    actions

let create ~h ~tau =
  if h < 1 then invalid_arg "Distributed_tracking.create: h < 1";
  if tau < 1 then invalid_arg "Distributed_tracking.create: tau < 1";
  let st, acts = Machine.init ~h ~tau in
  let t = { st; messages = 0 } in
  exec t acts;
  t

let total t = Machine.total t.st

let is_mature t = Machine.is_mature t.st

let messages t = t.messages

let rounds t = Machine.rounds t.st

let state t = t.st

let describe t =
  Format.asprintf "h=%d, tau=%d, total=%d, rounds=%d, mode=%a, messages=%d" (Machine.h t.st)
    (Machine.tau t.st) (Machine.total t.st) (Machine.rounds t.st) Machine.pp_phase t.st
    t.messages

let check_increment t ~site ~by =
  if Machine.is_mature t.st then
    invalid_arg
      (Printf.sprintf
         "Distributed_tracking.increment: instance already mature (site=%d, by=%d, %s)" site by
         (describe t));
  if site < 0 || site >= Machine.h t.st then
    invalid_arg
      (Printf.sprintf
         "Distributed_tracking.increment: bad site %d (valid sites are 0..%d, %s)" site
         (Machine.h t.st - 1) (describe t));
  if by <= 0 then
    invalid_arg
      (Printf.sprintf "Distributed_tracking.increment: by <= 0 (by=%d, site=%d, %s)" by site
         (describe t))

let increment t ~site ~by =
  check_increment t ~site ~by;
  let st, acts = Machine.step t.st (Machine.Increment { site; by }) in
  t.st <- st;
  exec t acts;
  Machine.is_mature t.st

let message_bound ~h ~tau =
  (* Each round costs at most 4h messages (slack broadcast + at most h
     signals + end announcement + collection) and shrinks tau by a factor
     >= 3/2; the direct endgame forwards at most 6h changes (each change
     adds >= 1 toward a remainder <= 6h) plus its h-word broadcast. A +2
     fudge on the round count absorbs rounding in both the log and the
     lambda floor. *)
  let rec rounds_needed tau acc =
    if tau <= 6 * h then acc else rounds_needed (2 * tau / 3) (acc + 1)
  in
  let r = rounds_needed tau 0 + 2 in
  (4 * h * r) + (7 * h)
