(* Types: rectangle construction, the closed-bound infinitesimal trick,
   containment semantics, and validation errors. *)

open Rts_core

let test_rect_make () =
  let r = Types.rect_make [| (0., 1.); (2., 5.) |] in
  Alcotest.(check int) "dim" 2 (Types.dim_of_rect r);
  Alcotest.(check (float 0.)) "lo0" 0. r.lo.(0);
  Alcotest.(check (float 0.)) "hi1" 5. r.hi.(1)

let test_rect_make_empty_side () =
  Alcotest.check_raises "lo = hi"
    (Invalid_argument "Types.rect_make: requires lo < hi in every dimension") (fun () ->
      ignore (Types.rect_make [| (1., 1.) |]));
  Alcotest.check_raises "lo > hi"
    (Invalid_argument "Types.rect_make: requires lo < hi in every dimension") (fun () ->
      ignore (Types.rect_make [| (2., 1.) |]))

let test_rect_make_zero_dim () =
  Alcotest.check_raises "d=0" (Invalid_argument "Types.rect_make: zero-dimensional rectangle")
    (fun () -> ignore (Types.rect_make [||]))

let test_closed_trick () =
  (* [lo, hi] as [lo, succ hi): the closed upper bound itself is inside,
     but nothing beyond it. *)
  let r = Types.interval_closed 0. 10. in
  Alcotest.(check bool) "hi included" true (Types.rect_contains r [| 10. |]);
  Alcotest.(check bool) "just above excluded" false
    (Types.rect_contains r [| Float.succ 10. |]);
  Alcotest.(check bool) "lo included" true (Types.rect_contains r [| 0. |])

let test_half_open_contains () =
  let r = Types.interval 0. 10. in
  Alcotest.(check bool) "lo in" true (Types.rect_contains r [| 0. |]);
  Alcotest.(check bool) "mid in" true (Types.rect_contains r [| 5. |]);
  Alcotest.(check bool) "hi out" false (Types.rect_contains r [| 10. |]);
  Alcotest.(check bool) "below out" false (Types.rect_contains r [| -0.1 |])

let test_contains_2d () =
  let r = Types.rect_make [| (0., 1.); (0., 1.) |] in
  Alcotest.(check bool) "inside" true (Types.rect_contains r [| 0.5; 0.5 |]);
  Alcotest.(check bool) "one coord out" false (Types.rect_contains r [| 0.5; 1. |])

let test_contains_dim_mismatch () =
  let r = Types.interval 0. 1. in
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Types.rect_contains: dimensionality mismatch") (fun () ->
      ignore (Types.rect_contains r [| 0.; 0. |]))

let test_one_sided_ranges () =
  (* The paper's NASDAQ example: (-inf, 4600]. *)
  let r = Types.rect_closed [| (neg_infinity, 4600.) |] in
  Alcotest.(check bool) "deep negative in" true (Types.rect_contains r [| -1e12 |]);
  Alcotest.(check bool) "bound in" true (Types.rect_contains r [| 4600. |]);
  Alcotest.(check bool) "above out" false (Types.rect_contains r [| 4601. |]);
  let up = Types.rect_make [| (100., infinity) |] in
  Alcotest.(check bool) "unbounded above" true (Types.rect_contains up [| 1e12 |]);
  Alcotest.(check bool) "below lo out" false (Types.rect_contains up [| 99. |])

let test_validate_query () =
  Types.validate_query ~dim:1 { id = 1; rect = Types.interval 0. 1.; threshold = 1 };
  Alcotest.check_raises "bad dim" (Invalid_argument "query: dimensionality mismatch") (fun () ->
      Types.validate_query ~dim:2 { id = 1; rect = Types.interval 0. 1.; threshold = 1 });
  Alcotest.check_raises "bad threshold" (Invalid_argument "query: threshold < 1") (fun () ->
      Types.validate_query ~dim:1 { id = 1; rect = Types.interval 0. 1.; threshold = 0 })

let test_validate_elem () =
  Types.validate_elem ~dim:1 { value = [| 0.5 |]; weight = 1 };
  Alcotest.check_raises "bad weight" (Invalid_argument "element: weight < 1") (fun () ->
      Types.validate_elem ~dim:1 { value = [| 0.5 |]; weight = 0 });
  Alcotest.check_raises "nan" (Invalid_argument "element: NaN coordinate") (fun () ->
      Types.validate_elem ~dim:1 { value = [| Float.nan |]; weight = 1 });
  (* the CSV, frame and WAL decoders refuse these too: an engine that
     took one would have it logged in a record recovery cannot read *)
  List.iter
    (fun x ->
      Alcotest.check_raises "infinite" (Invalid_argument "element: infinite coordinate") (fun () ->
          Types.validate_elem ~dim:2 { value = [| 0.5; x |]; weight = 1 }))
    [ infinity; neg_infinity ];
  Alcotest.check_raises "bad dim" (Invalid_argument "element: dimensionality mismatch")
    (fun () -> Types.validate_elem ~dim:2 { value = [| 0.5 |]; weight = 1 })

let test_pp_smoke () =
  let r = Types.rect_make [| (0., 1.); (2., 3.) |] in
  let s = Format.asprintf "%a" Types.pp_rect r in
  Alcotest.(check string) "rect" "[0, 1) x [2, 3)" s;
  let e = { Types.value = [| 1.; 2. |]; weight = 7 } in
  Alcotest.(check string) "elem" "(1, 2)*7" (Format.asprintf "%a" Types.pp_elem e);
  let q = { Types.id = 3; rect = r; threshold = 5 } in
  Alcotest.(check string) "query" "q3: [0, 1) x [2, 3) >= 5" (Format.asprintf "%a" Types.pp_query q)

let prop_contains_matches_manual =
  QCheck.Test.make ~count:500 ~name:"rect_contains = manual check"
    QCheck.(
      pair
        (list_of_size (Gen.return 2) (pair (float_bound_exclusive 100.) (float_range 100.1 200.)))
        (list_of_size (Gen.return 2) (float_bound_exclusive 250.)))
    (fun (bounds, point) ->
      QCheck.assume (List.length bounds = 2 && List.length point = 2);
      let r = Types.rect_make (Array.of_list bounds) in
      let p = Array.of_list point in
      let manual =
        List.for_all2 (fun (lo, hi) x -> lo <= x && x < hi) bounds point
      in
      Types.rect_contains r p = manual)

let () =
  Alcotest.run "types"
    [
      ( "unit",
        [
          Alcotest.test_case "rect_make" `Quick test_rect_make;
          Alcotest.test_case "rect_make empty side" `Quick test_rect_make_empty_side;
          Alcotest.test_case "rect_make zero dim" `Quick test_rect_make_zero_dim;
          Alcotest.test_case "closed-bound trick" `Quick test_closed_trick;
          Alcotest.test_case "half-open contains" `Quick test_half_open_contains;
          Alcotest.test_case "2d contains" `Quick test_contains_2d;
          Alcotest.test_case "contains dim mismatch" `Quick test_contains_dim_mismatch;
          Alcotest.test_case "one-sided ranges" `Quick test_one_sided_ranges;
          Alcotest.test_case "validate query" `Quick test_validate_query;
          Alcotest.test_case "validate elem" `Quick test_validate_elem;
          Alcotest.test_case "pretty printers" `Quick test_pp_smoke;
        ] );
      ("property", [ QCheck_alcotest.to_alcotest prop_contains_matches_manual ]);
    ]
