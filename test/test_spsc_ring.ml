(* Spsc_ring: capacity rounding and bounds, FIFO order, full/empty
   boundaries, refused pushes, reference release on pop, a randomized
   model check against Queue, and — on the domains leg — a
   true concurrent producer/consumer stress with index wraparound. *)

module Spsc_ring = Rts_shard.Spsc_ring
module Executor = Rts_shard.Executor

let test_capacity_rounding () =
  List.iter
    (fun (req, expect) ->
      let r = Spsc_ring.create ~capacity:req in
      Alcotest.(check int)
        (Printf.sprintf "capacity %d rounds to %d" req expect)
        expect (Spsc_ring.capacity r))
    [ (1, 1); (2, 2); (3, 4); (4, 4); (5, 8); (15, 16); (16, 16); (17, 32) ];
  Alcotest.check_raises "capacity 0 rejected" (Invalid_argument "Spsc_ring.create: capacity < 1")
    (fun () -> ignore (Spsc_ring.create ~capacity:0));
  match Spsc_ring.create ~capacity:(-3) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative capacity must be rejected"

let test_fifo_and_boundaries () =
  let r = Spsc_ring.create ~capacity:4 in
  Alcotest.(check bool) "fresh ring is empty" true (Spsc_ring.is_empty r);
  Alcotest.(check (option int)) "pop on empty" None (Spsc_ring.try_pop r);
  List.iter (fun i -> Alcotest.(check bool) "push" true (Spsc_ring.try_push r i)) [ 1; 2; 3; 4 ];
  Alcotest.(check int) "full length" 4 (Spsc_ring.length r);
  Alcotest.(check bool) "push on full fails" false (Spsc_ring.try_push r 5);
  Alcotest.(check (option int)) "FIFO head" (Some 1) (Spsc_ring.try_pop r);
  Alcotest.(check bool) "room again after pop" true (Spsc_ring.try_push r 5);
  List.iter
    (fun expect ->
      Alcotest.(check (option int)) "FIFO order" (Some expect) (Spsc_ring.try_pop r))
    [ 2; 3; 4; 5 ];
  Alcotest.(check bool) "drained" true (Spsc_ring.is_empty r)

let test_sequential_wraparound () =
  (* march the head/tail indices far past the capacity several times
     over, asserting FIFO at every step *)
  let r = Spsc_ring.create ~capacity:8 in
  let next_in = ref 0 and next_out = ref 0 in
  for round = 1 to 100 do
    let burst = 1 + (round mod 8) in
    for _ = 1 to burst do
      if Spsc_ring.try_push r !next_in then incr next_in
    done;
    for _ = 1 to burst do
      match Spsc_ring.try_pop r with
      | Some v ->
          Alcotest.(check int) "wraparound keeps FIFO" !next_out v;
          incr next_out
      | None -> ()
    done
  done;
  Alcotest.(check bool) "indices marched well past capacity" true (!next_in > 100);
  Alcotest.(check int) "conservation" !next_in (!next_out + Spsc_ring.length r)

let test_capacity_one () =
  let r = Spsc_ring.create ~capacity:1 in
  Alcotest.(check int) "capacity" 1 (Spsc_ring.capacity r);
  for i = 1 to 50 do
    Alcotest.(check bool) "push into the empty slot" true (Spsc_ring.try_push r i);
    Alcotest.(check bool) "one item fills it" false (Spsc_ring.try_push r (-i));
    Alcotest.(check int) "length 1" 1 (Spsc_ring.length r);
    Alcotest.(check (option int)) "pop returns it" (Some i) (Spsc_ring.try_pop r);
    Alcotest.(check (option int)) "then empty" None (Spsc_ring.try_pop r)
  done

(* A refused push must leave no trace: the rejected item never comes
   out, and the queued ones keep their order. *)
let test_refused_push_stores_nothing () =
  let r = Spsc_ring.create ~capacity:2 in
  ignore (Spsc_ring.try_push r "a");
  ignore (Spsc_ring.try_push r "b");
  List.iter
    (fun x -> Alcotest.(check bool) ("refuse " ^ x) false (Spsc_ring.try_push r x))
    [ "c"; "d"; "e" ];
  Alcotest.(check int) "length unchanged" 2 (Spsc_ring.length r);
  Alcotest.(check (list (option string)))
    "only the accepted items, in order"
    [ Some "a"; Some "b"; None ]
    (List.init 3 (fun _ -> Spsc_ring.try_pop r))

(* A popped slot drops its reference, so a drained ring keeps nothing
   alive; an item still queued stays reachable. *)
let test_pop_releases_reference () =
  let r = Spsc_ring.create ~capacity:4 in
  let w = Weak.create 2 in
  let[@inline never] push_fresh slot =
    let v = Bytes.make 64 (Char.chr (65 + slot)) in
    Weak.set w slot (Some v);
    if not (Spsc_ring.try_push r v) then Alcotest.fail "push refused"
  in
  push_fresh 0;
  push_fresh 1;
  ignore (Sys.opaque_identity (Spsc_ring.try_pop r));
  Gc.full_major ();
  Alcotest.(check bool) "popped item collected" false (Weak.check w 0);
  Alcotest.(check bool) "queued item retained" true (Weak.check w 1);
  Alcotest.(check (option string)) "queued item intact" (Some (String.make 64 'B'))
    (Option.map Bytes.to_string (Spsc_ring.try_pop r))

(* the upper bound is checked before anything is allocated *)
let test_capacity_too_large () =
  Alcotest.check_raises "capacity above 2^30 rejected"
    (Invalid_argument "Spsc_ring.create: capacity too large") (fun () ->
      ignore (Spsc_ring.create ~capacity:((1 lsl 30) + 1)))

(* Randomized model check: a Spsc_ring mirrors a Queue under any
   push/pop interleaving (single-threaded — the SPSC contract's
   degenerate case). *)
let prop_model =
  QCheck.Test.make
    ~count:(Qcheck_env.count 300)
    ~name:"spsc_ring = bounded queue (model)"
    QCheck.(pair (int_range 1 16) (small_list (option small_nat)))
    (fun (cap, script) ->
      let r = Spsc_ring.create ~capacity:cap in
      let q = Queue.create () in
      let cap = Spsc_ring.capacity r in
      List.for_all
        (fun step ->
          match step with
          | Some v ->
              let pushed = Spsc_ring.try_push r v in
              let fits = Queue.length q < cap in
              if fits then Queue.add v q;
              pushed = fits && Spsc_ring.length r = Queue.length q
          | None ->
              let popped = Spsc_ring.try_pop r in
              let expected = Queue.take_opt q in
              popped = expected && Spsc_ring.length r = Queue.length q)
        script)

(* Concurrent stress: producer and consumer on two worker domains (the
   slots of one executor fan-out), tiny capacity so the indices wrap
   thousands of times and every slot is reused under real parallelism.
   Runs only where the build has a domains backend: under the
   sequential executor the slots run one after the other, so a producer
   spinning on [try_push] against a full ring would never yield to the
   consumer. *)
let test_concurrent_wraparound () =
  if not Executor.domains_available then ()
  else begin
    (* this file must also build on 4.14, where [Domain] does not
       exist, so no cpu_relax; and on a single-core box two pure
       busy-spinners only hand off at OS timeslice granularity, so a
       blocked side briefly sleeps to yield the core *)
    let relax () = Unix.sleepf 0.0001 in
    let items = 20_000 in
    let r = Spsc_ring.create ~capacity:8 in
    let ex = Executor.create ~kind:Executor.Domains ~shards:2 () in
    let in_order =
      Fun.protect ~finally:(fun () -> Executor.close ex) @@ fun () ->
      Executor.run_all ex (fun slot ->
          if slot = 0 then begin
            for i = 0 to items - 1 do
              while not (Spsc_ring.try_push r i) do
                relax ()
              done
            done;
            true
          end
          else begin
            let expected = ref 0 and ok = ref true in
            while !expected < items do
              match Spsc_ring.try_pop r with
              | Some v ->
                  if v <> !expected then ok := false;
                  incr expected
              | None -> relax ()
            done;
            !ok
          end)
    in
    Alcotest.(check bool) "every item arrived in order" true in_order.(1);
    Alcotest.(check bool) "ring drained" true (Spsc_ring.is_empty r)
  end

let () =
  Alcotest.run "spsc_ring"
    [
      ( "units",
        [
          Alcotest.test_case "capacity rounding" `Quick test_capacity_rounding;
          Alcotest.test_case "FIFO and boundaries" `Quick test_fifo_and_boundaries;
          Alcotest.test_case "sequential wraparound" `Quick test_sequential_wraparound;
          Alcotest.test_case "capacity one" `Quick test_capacity_one;
          Alcotest.test_case "refused push stores nothing" `Quick test_refused_push_stores_nothing;
          Alcotest.test_case "pop releases the reference" `Quick test_pop_releases_reference;
          Alcotest.test_case "oversized capacity rejected" `Quick test_capacity_too_large;
        ] );
      ("model", [ QCheck_alcotest.to_alcotest prop_model ]);
      ( "concurrent",
        [ Alcotest.test_case "producer/consumer wraparound" `Quick test_concurrent_wraparound ]
      );
    ]
