(* rts-serve daemon core: frame codec round-trips, typed admission
   refusals, backpressure, supervised wedge recovery, and the
   single-server soak's (Rsoak with zero replicas) never-early /
   exactly-once guarantee on both a qcheck seed sweep and the pinned
   seeds (widened via RTS_SERVE_SEEDS). *)

open Rts_core
open Rts_workload
module Io = Rts_resilience.Io
module Wal = Rts_resilience.Wal
module Checkpoint = Rts_resilience.Checkpoint
module Vclock = Rts_net.Vclock
module Frame = Rts_serve.Frame
module Server = Rts_serve.Server
module Client = Rts_serve.Client
module Hub = Rts_serve.Hub
module Net_fault = Rts_net.Net_fault
module Cluster = Rts_replica.Cluster
module Rsoak = Rts_replica.Rsoak

let make ~dim = Dt_engine.make ~dim

(* ------------------------------------------------------------------ *)
(* Frame codec                                                         *)
(* ------------------------------------------------------------------ *)

let client_frame = Alcotest.testable Frame.pp_client ( = )
let server_frame = Alcotest.testable Frame.pp_server ( = )

let roundtrip_client ~dim f =
  match Frame.client_of_string ~dim (Frame.client_to_string f) with
  | Ok g -> Alcotest.check client_frame (Frame.client_to_string f) f g
  | Error e -> Alcotest.failf "client %S did not parse: %s" (Frame.client_to_string f) e

let roundtrip_server f =
  match Frame.server_of_string (Frame.server_to_string f) with
  | Ok g -> Alcotest.check server_frame (Frame.server_to_string f) f g
  | Error e -> Alcotest.failf "server %S did not parse: %s" (Frame.server_to_string f) e

let test_frame_units () =
  let gen = Generator.create ~dim:2 ~seed:7 () in
  List.iter (roundtrip_client ~dim:2)
    [
      Frame.Op { tenant = "t0"; op = Replay.Register (Generator.query gen ~id:3 ~threshold:9) };
      Frame.Op { tenant = "a_B-9."; op = Replay.Terminate 14 };
      Frame.Op { tenant = "t0"; op = Replay.Element (Generator.element gen) };
      Frame.Batch { tenant = "t1"; elems = Array.init 4 (fun _ -> Generator.element gen) };
      Frame.Subscribe { tenant = "watcher"; after = 0 };
      Frame.Stats;
      Frame.Shutdown;
    ];
  List.iter roundtrip_server
    [
      Frame.Accepted { tenant = "t0"; ops = 8 };
      Frame.Overloaded { tenant = "t0"; reason = Frame.Wal_lag };
      Frame.Retry_after { ticks = 3 };
      Frame.Rejected { message = "bad frame: \"quoted, with commas\"\n" };
      Frame.Matured { tenant = "t0"; ordinal = 512; ids = [ 1; 9; 40 ] };
      Frame.Stats_reply { body = "serve_accepted_total 12\n" };
      Frame.Bye;
    ];
  List.iter
    (fun r ->
      Alcotest.(check (option string))
        "reason round-trip" (Some (Frame.reason_to_string r))
        (Option.map Frame.reason_to_string (Frame.reason_of_string (Frame.reason_to_string r))))
    [ Frame.Tenants; Frame.Quota; Frame.Wal_lag; Frame.Disk_full ]

let test_frame_malformed () =
  let bad ~dim s =
    match Frame.client_of_string ~dim s with
    | Error _ -> ()
    | Ok f -> Alcotest.failf "%S should not parse (got %s)" s (Frame.client_to_string f)
  in
  bad ~dim:1 "bogus";
  bad ~dim:1 "op,t0";
  bad ~dim:1 "op,bad tenant!,T,3";
  bad ~dim:1 "op,,T,3";
  bad ~dim:2 "op,t0,E,1.0";
  (* dim mismatch *)
  bad ~dim:1 "batch,t0,";
  match Frame.server_of_string "accepted,t0,notanumber" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed server frame should not parse"

(* qcheck: every well-formed client frame survives the wire, for every
   dim the generator can draw *)
let prop_client_roundtrip =
  QCheck.Test.make
    ~count:(Qcheck_env.count 200)
    ~name:"client frame codec round-trip"
    QCheck.(pair (int_range 1 4) small_nat)
    (fun (dim, seed) ->
      let gen = Generator.create ~dim ~seed () in
      let rng = Rts_util.Prng.create ~seed:(seed + 1) in
      let frame =
        match Rts_util.Prng.int rng 5 with
        | 0 ->
            Frame.Op
              {
                tenant = "t0";
                op =
                  Replay.Register
                    (Generator.query gen ~id:(Rts_util.Prng.int rng 1000)
                       ~threshold:(1 + Rts_util.Prng.int rng 10_000));
              }
        | 1 -> Frame.Op { tenant = "t1"; op = Replay.Terminate (Rts_util.Prng.int rng 1000) }
        | 2 -> Frame.Op { tenant = "t2"; op = Replay.Element (Generator.element gen) }
        | 3 ->
            Frame.Batch
              {
                tenant = "t3";
                elems =
                  Array.init (1 + Rts_util.Prng.int rng 6) (fun _ -> Generator.element gen);
              }
        | _ -> Frame.Subscribe { tenant = "sub-0"; after = 0 }
      in
      Frame.client_of_string ~dim (Frame.client_to_string frame) = Ok frame)

(* ------------------------------------------------------------------ *)
(* Admission control & backpressure (direct Server.handle)             *)
(* ------------------------------------------------------------------ *)

(* a server whose replies land in a list, with one stable mem dir per
   tenant so restarts really recover *)
let direct_server config =
  let clock = Vclock.create () in
  let bases = Hashtbl.create 4 in
  let provider ~tenant ~incarnation:_ =
    match Hashtbl.find_opt bases tenant with
    | Some d -> d
    | None ->
        let d = Io.mem_dir () in
        Hashtbl.add bases tenant d;
        d
  in
  let replies = ref [] in
  let send ~dst:_ frame = replies := frame :: !replies in
  let server = Server.create ~config ~clock ~make ~provider ~send () in
  (server, clock, replies, bases)

let last replies =
  match !replies with [] -> Alcotest.fail "expected a reply" | r :: _ -> r

let gen_ops ~dim ~seed =
  let gen = Generator.create ~dim ~seed () in
  ( (fun ~id ~threshold -> Replay.Register (Generator.query gen ~id ~threshold)),
    fun () -> Replay.Element (Generator.element gen) )

let test_admission_tenants () =
  let config = { Server.default with Server.dim = 1; max_tenants = 1 } in
  let server, _, replies, _ = direct_server config in
  let register, _ = gen_ops ~dim:1 ~seed:3 in
  Server.handle server ~src:0 (Frame.Op { tenant = "a"; op = register ~id:0 ~threshold:5 });
  Alcotest.check server_frame "first tenant admitted"
    (Frame.Accepted { tenant = "a"; ops = 1 })
    (last replies);
  Server.handle server ~src:0 (Frame.Op { tenant = "b"; op = register ~id:0 ~threshold:5 });
  Alcotest.check server_frame "tenant table full"
    (Frame.Overloaded { tenant = "b"; reason = Frame.Tenants })
    (last replies)

let test_admission_quota () =
  let config = { Server.default with Server.dim = 1; query_quota = 2 } in
  let server, _, replies, _ = direct_server config in
  let register, _ = gen_ops ~dim:1 ~seed:4 in
  for id = 0 to 1 do
    Server.handle server ~src:0 (Frame.Op { tenant = "t"; op = register ~id ~threshold:9 })
  done;
  Server.handle server ~src:0 (Frame.Op { tenant = "t"; op = register ~id:2 ~threshold:9 });
  Alcotest.check server_frame "third registration over quota"
    (Frame.Overloaded { tenant = "t"; reason = Frame.Quota })
    (last replies);
  (* quota gates registrations only: elements still flow *)
  let _, element = gen_ops ~dim:1 ~seed:5 in
  Server.handle server ~src:0 (Frame.Op { tenant = "t"; op = element () });
  Alcotest.check server_frame "elements unaffected by quota"
    (Frame.Accepted { tenant = "t"; ops = 1 })
    (last replies)

let test_admission_wal_lag () =
  (* nothing drains (the clock never runs), so every accepted op counts
     toward the durability backlog until the limit trips *)
  let config =
    { Server.default with Server.dim = 1; wal_lag_limit = 4; queue_capacity = 64 }
  in
  let server, _, replies, _ = direct_server config in
  let _, element = gen_ops ~dim:1 ~seed:6 in
  for _ = 1 to 4 do
    Server.handle server ~src:0 (Frame.Op { tenant = "t"; op = element () })
  done;
  Alcotest.check server_frame "under the lag limit"
    (Frame.Accepted { tenant = "t"; ops = 1 })
    (last replies);
  Server.handle server ~src:0 (Frame.Op { tenant = "t"; op = element () });
  Alcotest.check server_frame "durability backlog over limit"
    (Frame.Overloaded { tenant = "t"; reason = Frame.Wal_lag })
    (last replies);
  Alcotest.(check int) "nothing admitted past the refusal" 4 (Server.accepted_ops server "t")

let test_backpressure_retry () =
  let config =
    {
      Server.default with
      Server.dim = 1;
      queue_capacity = 2;
      wal_lag_limit = 512;
      retry_after = 7;
    }
  in
  let server, clock, replies, _ = direct_server config in
  let _, element = gen_ops ~dim:1 ~seed:8 in
  for _ = 1 to 2 do
    Server.handle server ~src:0 (Frame.Op { tenant = "t"; op = element () })
  done;
  Server.handle server ~src:0 (Frame.Op { tenant = "t"; op = element () });
  Alcotest.check server_frame "ring full => typed backpressure"
    (Frame.Retry_after { ticks = 7 })
    (last replies);
  (* a batch is all-or-nothing: one slot free is not enough for two *)
  Vclock.run_until_idle clock;
  Alcotest.(check int) "queue drained by the paced task" 0 (Server.queue_depth server "t");
  Server.handle server ~src:0 (Frame.Op { tenant = "t"; op = element () });
  let gen = Generator.create ~dim:1 ~seed:9 () in
  Server.handle server ~src:0
    (Frame.Batch { tenant = "t"; elems = Array.init 2 (fun _ -> Generator.element gen) });
  Alcotest.check server_frame "batch refused whole"
    (Frame.Retry_after { ticks = 7 })
    (last replies)

let test_shutdown_rejects () =
  let server, _, replies, _ = direct_server { Server.default with Server.dim = 1 } in
  let _, element = gen_ops ~dim:1 ~seed:10 in
  Server.handle server ~src:0 (Frame.Op { tenant = "t"; op = element () });
  Server.handle server ~src:0 Frame.Shutdown;
  Alcotest.check server_frame "shutdown acknowledged" Frame.Bye (last replies);
  Alcotest.(check bool) "server reports shut down" true (Server.is_shutdown server);
  Server.handle server ~src:0 (Frame.Op { tenant = "t"; op = element () });
  (match last replies with
  | Frame.Rejected _ -> ()
  | f -> Alcotest.failf "expected Rejected after shutdown, got %s" (Frame.server_to_string f));
  Alcotest.(check int) "nothing queued post-shutdown" 0 (Server.queue_depth server "t")

(* ------------------------------------------------------------------ *)
(* Subscription watermark + stats gauges                               *)
(* ------------------------------------------------------------------ *)

let wq ~id ~threshold (lo, hi) = { Types.id; rect = Types.interval lo hi; threshold }
let wel v w = { Types.value = [| v |]; weight = w }

let matured_frames replies =
  List.filter_map
    (function Frame.Matured { ordinal; ids; _ } -> Some (ordinal, ids) | _ -> None)
    (List.rev !replies)

let test_subscribe_watermark_backfill () =
  let server, clock, replies, _ = direct_server { Server.default with Server.dim = 1 } in
  let op o = Server.handle server ~src:0 (Frame.Op { tenant = "t"; op = o }) in
  op (Replay.Register (wq ~id:1 ~threshold:2 (0., 10.)));
  op (Replay.Register (wq ~id:2 ~threshold:5 (0., 10.)));
  op (Replay.Element (wel 5. 2));
  (* ordinal 1: q1 matures *)
  op (Replay.Element (wel 5. 2));
  op (Replay.Element (wel 5. 2));
  (* ordinal 3: q2's consumed weight reaches 6 >= 5 *)
  Vclock.run_until_idle clock;
  Alcotest.(check (list (pair int int))) "server log" [ (1, 1); (3, 2) ]
    (Server.maturity_log server "t");
  (* a fresh subscriber (watermark 0) gets the whole backfill *)
  replies := [];
  Server.handle server ~src:7 (Frame.Subscribe { tenant = "t"; after = 0 });
  Alcotest.(check (list (pair int (list int)))) "full backfill" [ (1, [ 1 ]); (3, [ 2 ]) ]
    (matured_frames replies);
  (* a failover survivor that already consumed through ordinal 1 must
     not see it again: exactly-once across re-subscription *)
  replies := [];
  Server.handle server ~src:8 (Frame.Subscribe { tenant = "t"; after = 1 });
  Alcotest.(check (list (pair int (list int)))) "watermark excludes consumed ordinals"
    [ (3, [ 2 ]) ] (matured_frames replies);
  (* watermark at the log head: backfill is empty, not an error *)
  replies := [];
  Server.handle server ~src:9 (Frame.Subscribe { tenant = "t"; after = 3 });
  Alcotest.(check (list (pair int (list int)))) "nothing past the watermark" []
    (matured_frames replies)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_stats_tenant_gauges () =
  let config =
    { Server.default with Server.dim = 1; wal_lag_limit = 512; queue_capacity = 64 }
  in
  let server, clock, replies, _ = direct_server config in
  let _, element = gen_ops ~dim:1 ~seed:12 in
  for _ = 1 to 3 do
    Server.handle server ~src:0 (Frame.Op { tenant = "t"; op = element () })
  done;
  let stats_body () =
    Server.handle server ~src:0 Frame.Stats;
    match last replies with
    | Frame.Stats_reply { body } -> body
    | f -> Alcotest.failf "expected stats, got %s" (Frame.server_to_string f)
  in
  (* the clock has not run: three accepted ops are not yet durable, and
     the stats frame says so before any admission refusal would *)
  let body = stats_body () in
  Alcotest.(check bool) "backlog gauge reflects undrained ops" true
    (contains body "serve_wal_backlog_t 3");
  Alcotest.(check bool) "replica gauge present (zero without replication)" true
    (contains body "serve_replica_lag_t 0");
  Vclock.run_until_idle clock;
  let body = stats_body () in
  Alcotest.(check bool) "backlog drains to zero" true
    (contains body "serve_wal_backlog_t 0")

(* ------------------------------------------------------------------ *)
(* Durable floor: never ahead of what an fsync covered                 *)
(* ------------------------------------------------------------------ *)

(* A mem dir that counts the records appended to the WAL's active file
   (one [append] per record, across rotations) and remembers how many
   of them the last fsync covered. *)
let counting_dir () =
  let d = Io.mem_dir () in
  let appended = ref 0 and fsynced = ref 0 in
  let open_append name =
    let f = d.Io.open_append name in
    if name <> Wal.default_file then f
    else
      {
        Io.append =
          (fun s ->
            f.Io.append s;
            incr appended);
        sync =
          (fun () ->
            f.Io.sync ();
            fsynced := !appended);
        close = f.Io.close;
      }
  in
  ({ d with Io.open_append }, fsynced)

(* A replica acks [durable_position] as durable, and the primary
   releases parked maturity pushes on those acks, so the position must
   never count a record no fsync has covered — also when checkpoint and
   seal syncs shift the fsync cadence. *)
let test_durable_position_fsynced () =
  List.iter
    (fun (fsync_every, checkpoint_every) ->
      let label = Printf.sprintf "fsync_every %d, checkpoint_every %d" fsync_every checkpoint_every in
      let dir, fsynced = counting_dir () in
      let config =
        {
          Server.default with
          Server.dim = 1;
          queue_capacity = 256;
          durable = { Rts_resilience.Durable.fsync_every; checkpoint_every };
        }
      in
      let clock = Vclock.create () in
      let server =
        Server.create ~config ~clock ~make
          ~provider:(fun ~tenant:_ ~incarnation:_ -> dir)
          ~send:(fun ~dst:_ _ -> ())
          ()
      in
      let register, element = gen_ops ~dim:1 ~seed:31 in
      for i = 0 to 200 do
        let op = if i mod 10 = 0 then register ~id:i ~threshold:30 else element () in
        Server.handle server ~src:0 (Frame.Op { tenant = "t"; op })
      done;
      let steps = ref 0 in
      while Vclock.run_next clock do
        incr steps;
        let claimed = Server.durable_position server "t" in
        if claimed > !fsynced then
          Alcotest.failf "%s: step %d, applied %d: durable_position %d > fsynced %d" label
            !steps (Server.applied_ops server "t") claimed !fsynced
      done;
      Alcotest.(check int) (label ^ ": every op applied") 201 (Server.applied_ops server "t");
      Server.shutdown server;
      Alcotest.(check int) (label ^ ": shutdown syncs the rest") 201 !fsynced;
      Alcotest.(check int) (label ^ ": closed handle still reports it") 201
        (Server.durable_position server "t"))
    [ (5, 48); (7, 16); (4, 10); (5, 67); (1, 48) ]

(* ------------------------------------------------------------------ *)
(* Read-back: one interval per checkpoint, torn writes still caught    *)
(* ------------------------------------------------------------------ *)

(* What a server did to its store, in order. [Life n] marks the
   provider handing out incarnation [n]'s dir. *)
type io_event = Life of int | Read of string * int | Published of string * string

let is_segment name = Filename.check_suffix name ".seg"

(* [d], logging reads and atomic publications into [events]. *)
let logging_dir events (d : Io.dir) =
  let read_file name =
    let r = d.Io.read_file name in
    Option.iter (fun s -> events := Read (name, String.length s) :: !events) r;
    r
  in
  let write_atomic name contents =
    d.Io.write_atomic name contents;
    events := Published (name, contents) :: !events
  in
  { d with Io.read_file; write_atomic }

(* Op ordinal a published checkpoint image covers. *)
let checkpoint_ops name contents =
  let d = Io.mem_dir () in
  d.Io.write_atomic name contents;
  (fst (Checkpoint.load ~dir:d name)).Checkpoint.ops

(* [n] ops for tenant "t": a register every 20th op (threshold 600,
   about six hits), elements otherwise. *)
let stream ~dim ~seed n =
  let register, element = gen_ops ~dim ~seed in
  List.init n (fun i -> if i mod 20 = 0 then register ~id:i ~threshold:600 else element ())

(* One server over [provider]: the ops go in frames of 32, the clock
   runs to quiescence after each, then the server shuts down. *)
let drive ~config ~provider ops =
  let clock = Vclock.create () in
  let server =
    Server.create ~config ~clock ~make ~provider ~send:(fun ~dst:_ _ -> ()) ()
  in
  let rec go i = function
    | [] -> ()
    | op :: rest ->
        Server.handle server ~src:0 (Frame.Op { tenant = "t"; op });
        if i mod 32 = 31 then Vclock.run_until_idle clock;
        go (i + 1) rest
  in
  go 0 ops;
  Vclock.run_until_idle clock;
  Server.shutdown server;
  server

(* Bytes read since the previous checkpoint publication, at each
   checkpoint publication: what the read-back before it read. *)
let readback_bytes events =
  List.fold_left
    (fun (acc, windows) -> function
      | Read (_, n) -> (acc + n, windows)
      | Published (name, _) when Checkpoint.parse_filename name <> None -> (0, acc :: windows)
      | Published _ | Life _ -> (acc, windows))
    (0, []) events
  |> snd |> List.rev

(* Count gate: a checkpoint's read-back reads one interval whatever the
   stream's length, with and without pruning. The interval is the
   largest sealed segment; a read-back of the active file reads the
   same records behind a shorter header. With pruning on, the WAL left
   on disk stays within two intervals too; without it, it keeps the
   whole stream. *)
let test_readback_one_interval () =
  let run ~config n =
    let events = ref [] in
    let store = Io.mem_dir () in
    let dir = logging_dir events store in
    let server =
      drive ~config ~provider:(fun ~tenant:_ ~incarnation:_ -> dir) (stream ~dim:2 ~seed:41 n)
    in
    Alcotest.(check int) (Printf.sprintf "%d ops applied" n) n (Server.applied_ops server "t");
    let events = List.rev !events in
    let largest =
      List.fold_left
        (fun m -> function
          | Published (name, s) when is_segment name -> max m (String.length s)
          | _ -> m)
        0 events
    in
    let on_disk =
      List.filter (fun f -> is_segment f || f = Wal.default_file) (store.Io.list_files ())
      |> List.fold_left (fun n f -> n + String.length (Option.get (store.Io.read_file f))) 0
    in
    (readback_bytes events, largest, on_disk)
  in
  List.iter
    (fun prune_wal ->
      let label = Printf.sprintf "prune_wal %b" prune_wal in
      let config = { Server.default with Server.prune_wal } in
      let r1, seg1, disk1 = run ~config 3_000 and r10, seg10, disk10 = run ~config 30_000 in
      let interval = max seg1 seg10 in
      Alcotest.(check bool) (label ^ ": 1x: at least two checkpoints") true (List.length r1 >= 2);
      Alcotest.(check bool) (label ^ ": 10x: ten times as many") true
        (List.length r10 >= 10 * List.length r1 - 2);
      List.iteri
        (fun i r ->
          if r > interval then
            Alcotest.failf "%s: read-back %d read %d bytes, more than one interval (%d)" label i
              r interval)
        (r1 @ r10);
      let mean l = List.fold_left ( + ) 0 l / List.length l in
      if abs (mean r10 - mean r1) > interval then
        Alcotest.failf "%s: mean read-back %d bytes at 10x against %d at 1x (interval %d)" label
          (mean r10) (mean r1) interval;
      let within disk = disk <= 2 * interval in
      Alcotest.(check bool) (label ^ ": 10x WAL on disk within two intervals") prune_wal
        (within disk10);
      if prune_wal then
        Alcotest.(check bool) (label ^ ": 1x WAL on disk within two intervals") true (within disk1))
    [ false; true ]

(* A tenant whose first life writes through [first] (built over the
   logged store); later lives get the logged store itself. Returns the
   server, the ops and the event log. *)
let faulty_first_life ~prune_wal ~first ops =
  let store = Io.mem_dir () in
  let events = ref [] in
  let logged = logging_dir events store in
  let provider ~tenant:_ ~incarnation =
    events := Life incarnation :: !events;
    if incarnation = 0 then first logged else logged
  in
  let config =
    {
      Server.default with
      Server.dim = 1;
      durable = { Rts_resilience.Durable.fsync_every = 1; checkpoint_every = 20 };
      prune_wal;
    }
  in
  let server = drive ~config ~provider ops in
  (server, store, List.rev !events)

(* Whatever the first life lost, the tenant ends exact: every op on the
   WAL in order and the maturity log of an uninterrupted run. *)
let check_exact label server store ops =
  Alcotest.(check int) (label ^ ": every op applied") (List.length ops)
    (Server.applied_ops server "t");
  (* pruning removes what a checkpoint covers, so the chain may start late *)
  let chain = Wal.scan ~dim:1 ~dir:store () in
  Alcotest.(check bool) (label ^ ": the WAL holds the ops in order") true
    (chain.Wal.ops = List.filteri (fun i _ -> i >= chain.Wal.base) ops);
  let oracle = Replay.replay_ops (make ~dim:1) ops in
  Alcotest.(check bool) (label ^ ": the run has maturities") true (oracle.Replay.maturities <> []);
  Alcotest.(check bool) (label ^ ": maturity log = uninterrupted run") true
    (Server.maturity_log server "t" = oracle.Replay.maturities)

(* What the first life did to the store. *)
let first_life events =
  let rec go = function Life n :: _ when n > 0 -> [] | e :: rest -> e :: go rest | [] -> [] in
  go events

(* A silent short write at op [short_at] of the first life must be
   caught before a checkpoint covers it, and never sealed into a
   segment: the read-back before the next checkpoint refuses the WAL.
   The restart then repairs it from the replay queue. The first life
   has sealed at least once before the tear, so a read-back that
   catches it is incremental. *)
let test_readback_catches_torn_record () =
  List.iter
    (fun (prune_wal, short_at) ->
      let label = Printf.sprintf "prune_wal %b, short write at %d" prune_wal short_at in
      let ops = stream ~dim:1 ~seed:47 240 in
      let first d =
        Rts_resilience.Fault.wrap
          ~rng:(Rts_util.Prng.create ~seed:short_at)
          { Rts_resilience.Fault.no_crash with short_at_append = Some short_at }
          d
      in
      let server, store, events = faulty_first_life ~prune_wal ~first ops in
      Alcotest.(check int) (label ^ ": the tenant crashed once") 1 (Server.crashes server);
      let first = first_life events in
      let ckpts =
        List.filter_map
          (function
            | Published (name, s) when Checkpoint.parse_filename name <> None ->
                Some (checkpoint_ops name s)
            | _ -> None)
          first
      in
      Alcotest.(check bool) (label ^ ": the first life sealed before the tear") true
        (List.exists (fun v -> v > 0 && v < short_at) ckpts);
      List.iter
        (fun v ->
          if v >= short_at then
            Alcotest.failf "%s: the first life published a checkpoint at op %d" label v)
        ckpts;
      List.iter
        (function
          | Published (name, s) when is_segment name -> (
              match Wal.scan_segment_string ~dim:1 s with
              | Some (_, base, count, _) when base < short_at && short_at <= base + count ->
                  Alcotest.failf "%s: %s seals the torn op" label name
              | _ -> ())
          | _ -> ())
        first;
      check_exact label server store ops)
    [ (false, 50); (false, 91); (true, 52); (true, 93) ]

(* [d] with a crash at one step of its [seal]-th seal: [`Before_seal]
   fails the segment's publication (the checkpoint is published), and
   [`Before_reset] fails the active file's rewrite after it (the
   segment is published). Dead from then on, as a crashed machine. *)
let dying_at_seal ~seal ~point (d : Io.dir) =
  let seals = ref 0 and dead = ref false in
  let alive () = if !dead then raise (Rts_resilience.Fault.Crash "dead") in
  let die () =
    dead := true;
    raise (Rts_resilience.Fault.Crash "seal window")
  in
  let write_atomic name contents =
    alive ();
    if is_segment name then begin
      incr seals;
      if !seals = seal && point = `Before_seal then die ()
    end
    else if name = Wal.default_file && !seals = seal && point = `Before_reset then die ();
    d.Io.write_atomic name contents
  in
  let open_append name =
    alive ();
    let f = d.Io.open_append name in
    {
      Io.append = (fun s -> alive (); f.Io.append s);
      sync = (fun () -> alive (); f.Io.sync ());
      close = (fun () -> alive (); f.Io.close ());
    }
  in
  {
    Io.open_append;
    read_file = (fun n -> alive (); d.Io.read_file n);
    write_atomic;
    list_files = (fun () -> alive (); d.Io.list_files ());
    remove_file = (fun n -> alive (); d.Io.remove_file n);
    truncate_file = (fun n l -> alive (); d.Io.truncate_file n l);
  }

(* Crash sweep over the seal window: at the first three seals, both
   between the checkpoint and the seal and between the segment and the
   active file's rewrite, with and without pruning. Recovery must
   resume the exact maturity log. *)
let test_crash_in_seal_window () =
  List.iter
    (fun prune_wal ->
      for seal = 1 to 3 do
        List.iter
          (fun (point, pname) ->
            let label = Printf.sprintf "prune_wal %b, seal %d, %s" prune_wal seal pname in
            let ops = stream ~dim:1 ~seed:(53 + seal) 200 in
            let server, store, _ =
              faulty_first_life ~prune_wal ~first:(dying_at_seal ~seal ~point) ops
            in
            Alcotest.(check int) (label ^ ": crashed once") 1 (Server.crashes server);
            check_exact label server store ops)
          [ (`Before_seal, "before the seal"); (`Before_reset, "before the active rewrite") ]
      done)
    [ false; true ]

(* ------------------------------------------------------------------ *)
(* Supervision: injected wedge -> watchdog restart, nothing lost       *)
(* ------------------------------------------------------------------ *)

let test_wedge_restart () =
  let server_config =
    {
      Server.default with
      Server.dim = 1;
      queue_capacity = 8;
      drain_per_tick = 4;
      watchdog_interval = 5;
      wedge_timeout = 10;
    }
  in
  let bases = Hashtbl.create 4 in
  let provider ~tenant ~incarnation:_ =
    match Hashtbl.find_opt bases tenant with
    | Some d -> d
    | None ->
        let d = Io.mem_dir () in
        Hashtbl.add bases tenant d;
        d
  in
  let hub = Hub.create ~server_config ~clients:2 ~make ~provider () in
  let server = Hub.server hub in
  let feeder = Hub.client hub 0 in
  let watcher = Hub.client hub 1 in
  Client.enqueue watcher (Frame.Subscribe { tenant = "t0"; after = 0 });
  let gen = Generator.create ~dim:1 ~seed:21 () in
  for id = 0 to 14 do
    Client.enqueue feeder
      (Frame.Op
         { tenant = "t0"; op = Replay.Register (Generator.query gen ~id ~threshold:40) })
  done;
  for _ = 1 to 60 do
    Client.enqueue feeder
      (Frame.Op { tenant = "t0"; op = Replay.Element (Generator.element gen) })
  done;
  ignore
    (Vclock.schedule (Hub.clock hub) ~delay:15 (fun () -> Server.inject_wedge server "t0"));
  Hub.run hub;
  Server.shutdown server;
  Hub.run hub;
  Alcotest.(check bool) "watchdog restarted the wedged tenant" true
    (Server.restarts server "t0" >= 1);
  let scanned = Wal.scan ~dim:1 ~dir:(Hashtbl.find bases "t0") () in
  let oracle = Replay.replay_ops (make ~dim:1) scanned.Wal.ops in
  Alcotest.(check int) "every accepted op is on the WAL" (Server.applied_ops server "t0")
    scanned.Wal.records;
  Alcotest.(check bool) "server log == WAL oracle" true
    (Server.maturity_log server "t0" = oracle.Replay.maturities);
  Alcotest.(check bool) "subscriber saw the oracle stream" true
    (Client.matured watcher "t0" = oracle.Replay.maturities)

(* ------------------------------------------------------------------ *)
(* Single-server soak: Rsoak with zero replicas                        *)
(* ------------------------------------------------------------------ *)

(* One serving node, no pruning, no scenario fault: the unpruned,
   unreplicated Server path under combined storage + network faults and
   tenant wedges, at the parameters `make check` runs. *)
let serve_leg seed =
  let cluster = Rsoak.default.Rsoak.cluster in
  {
    Rsoak.default with
    Rsoak.tenants = 3;
    queries = 40;
    elements = 600;
    batch = 8;
    threshold = 2500;
    churn = 0.15;
    seed;
    faulty_incarnations = 4;
    crash_every = 150;
    wedges = 2;
    scenario = Rsoak.Clean;
    cluster =
      {
        cluster with
        Cluster.serving = 1;
        net = { Net_fault.none with drop = 0.1; duplicate = 0.05; reorder = 0.2 };
        server =
          {
            cluster.Cluster.server with
            Server.prune_wal = false;
            durable = { Rts_resilience.Durable.fsync_every = 7; checkpoint_every = 97 };
          };
      };
  }

let small_leg seed =
  {
    (serve_leg seed) with
    Rsoak.tenants = 2;
    queries = 12;
    elements = 160;
    batch = 5;
    threshold = 600;
    faulty_incarnations = 3;
    crash_every = 60;
    wedges = 1;
  }

(* for arbitrary seeds, a run under combined storage + network faults
   loses nothing — server log, subscriber stream and WAL oracle agree,
   maturities exactly once, never early *)
let prop_soak_never_early =
  QCheck.Test.make
    ~count:(Qcheck_env.count 6)
    ~name:"combined-fault soak: log == sub == oracle"
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let report = Rsoak.run ~make (small_leg seed) in
      if not report.Rsoak.ok then QCheck.Test.fail_reportf "seed %d:@\n%a" seed Rsoak.pp report;
      true)

(* the pinned seeds (RTS_SERVE_SEEDS widens them) — full config, so
   this leg also exercises 3 tenants, ENOSPC draws and heavier churn *)
let serve_seeds = Qcheck_env.seeds "RTS_SERVE_SEEDS" ~default:[ 3; 13; 29 ]

let test_pinned_seeds () =
  List.iter
    (fun seed ->
      let report = Rsoak.run ~make (serve_leg seed) in
      if not report.Rsoak.ok then
        Alcotest.failf "pinned seed %d failed:@\n%a" seed Rsoak.pp report;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d exercised crashes" seed)
        true
        (report.Rsoak.crashes_total > 0))
    serve_seeds

let () =
  Alcotest.run "serve"
    [
      ( "frames",
        [
          Alcotest.test_case "codec round-trips" `Quick test_frame_units;
          Alcotest.test_case "malformed frames rejected" `Quick test_frame_malformed;
          QCheck_alcotest.to_alcotest prop_client_roundtrip;
        ] );
      ( "admission",
        [
          Alcotest.test_case "tenant table full" `Quick test_admission_tenants;
          Alcotest.test_case "query quota" `Quick test_admission_quota;
          Alcotest.test_case "wal lag limit" `Quick test_admission_wal_lag;
          Alcotest.test_case "backpressure retry" `Quick test_backpressure_retry;
          Alcotest.test_case "shutdown rejects" `Quick test_shutdown_rejects;
          Alcotest.test_case "subscribe watermark backfill" `Quick
            test_subscribe_watermark_backfill;
          Alcotest.test_case "stats tenant gauges" `Quick test_stats_tenant_gauges;
        ] );
      ( "durability",
        [
          Alcotest.test_case "durable_position never ahead of fsync" `Quick
            test_durable_position_fsynced;
          Alcotest.test_case "read-back: one interval at 1x and 10x" `Quick
            test_readback_one_interval;
          Alcotest.test_case "read-back: torn record caught before checkpoint" `Quick
            test_readback_catches_torn_record;
          Alcotest.test_case "crash sweep: seal window" `Quick test_crash_in_seal_window;
        ] );
      ("supervision", [ Alcotest.test_case "wedge restart" `Quick test_wedge_restart ]);
      ( "soak",
        [
          QCheck_alcotest.to_alcotest prop_soak_never_early;
          Alcotest.test_case "pinned CI seeds" `Slow test_pinned_seeds;
        ] );
    ]
