type point = float array

type rect = { lo : float array; hi : float array }

type elem = { value : point; weight : int }

type query = { id : int; rect : rect; threshold : int }

let dim_of_rect r = Array.length r.lo

let rect_make bounds =
  let d = Array.length bounds in
  if d = 0 then invalid_arg "Types.rect_make: zero-dimensional rectangle";
  let lo = Array.make d 0. and hi = Array.make d 0. in
  Array.iteri
    (fun k (l, h) ->
      if not (l < h) then invalid_arg "Types.rect_make: requires lo < hi in every dimension";
      lo.(k) <- l;
      hi.(k) <- h)
    bounds;
  { lo; hi }

let rect_closed bounds =
  rect_make (Array.map (fun (l, h) -> (l, Float.succ h)) bounds)

let interval lo hi = rect_make [| (lo, hi) |]

let interval_closed lo hi = rect_closed [| (lo, hi) |]

let rect_contains r p =
  let d = dim_of_rect r in
  if Array.length p <> d then invalid_arg "Types.rect_contains: dimensionality mismatch";
  let rec go k = k = d || (r.lo.(k) <= p.(k) && p.(k) < r.hi.(k) && go (k + 1)) in
  go 0

let validate_query ~dim q =
  if dim_of_rect q.rect <> dim || Array.length q.rect.hi <> dim then
    invalid_arg "query: dimensionality mismatch";
  Array.iteri
    (fun k l -> if not (l < q.rect.hi.(k)) then invalid_arg "query: empty rectangle side")
    q.rect.lo;
  if q.threshold < 1 then invalid_arg "query: threshold < 1"

(* Hot-path validation: indexed loop, not [Array.iter] — the polymorphic
   iterator's closure receives each coordinate boxed, one minor-heap
   block per coordinate per element; the monomorphic indexed read stays
   unboxed (the comparison consumes the float directly). *)
let validate_elem ~dim e =
  if Array.length e.value <> dim then invalid_arg "element: dimensionality mismatch";
  let v = e.value in
  for k = 0 to dim - 1 do
    let x = Array.unsafe_get v k in
    if x <> x then invalid_arg "element: NaN coordinate";
    if Float.abs x = infinity then invalid_arg "element: infinite coordinate"
  done;
  if e.weight < 1 then invalid_arg "element: weight < 1"

let pp_rect ppf r =
  let d = dim_of_rect r in
  Format.fprintf ppf "@[<h>";
  for k = 0 to d - 1 do
    if k > 0 then Format.fprintf ppf " x ";
    Format.fprintf ppf "[%g, %g)" r.lo.(k) r.hi.(k)
  done;
  Format.fprintf ppf "@]"

let pp_elem ppf e =
  Format.fprintf ppf "@[<h>(";
  Array.iteri (fun k x -> Format.fprintf ppf (if k > 0 then ", %g" else "%g") x) e.value;
  Format.fprintf ppf ")*%d@]" e.weight

let pp_query ppf q = Format.fprintf ppf "@[<h>q%d: %a >= %d@]" q.id pp_rect q.rect q.threshold
