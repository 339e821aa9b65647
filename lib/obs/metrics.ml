type counter = { mutable c : int }

type gauge = { mutable g : float }

type histogram = {
  bounds : float array; (* ascending upper bounds; +inf overflow implicit *)
  counts : int array; (* per-bucket (non-cumulative) counts; last = overflow *)
  mutable hcount : int;
  mutable hsum : float;
}

type metric = C of counter | G of gauge | H of histogram

type t = { tbl : (string, metric) Hashtbl.t }

let create () = { tbl = Hashtbl.create 32 }

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

let register t name m =
  match Hashtbl.find_opt t.tbl name with
  | None ->
      Hashtbl.replace t.tbl name m;
      m
  | Some existing ->
      if kind_name existing <> kind_name m then
        invalid_arg
          (Printf.sprintf "Metrics: %S already registered as a %s" name (kind_name existing));
      existing

let counter t name =
  match register t name (C { c = 0 }) with C c -> c | _ -> assert false

let gauge t name =
  match register t name (G { g = 0. }) with G g -> g | _ -> assert false

let default_buckets = [| 1.; 10.; 100.; 1_000.; 10_000.; 100_000.; 1_000_000. |]

let histogram ?(buckets = default_buckets) t name =
  Array.iteri
    (fun i b -> if i > 0 && not (b > buckets.(i - 1)) then invalid_arg "Metrics.histogram: buckets not ascending")
    buckets;
  let fresh =
    H { bounds = Array.copy buckets; counts = Array.make (Array.length buckets + 1) 0; hcount = 0; hsum = 0. }
  in
  match register t name fresh with
  | H h ->
      if Array.length h.bounds <> Array.length buckets || not (Array.for_all2 ( = ) h.bounds buckets)
      then invalid_arg (Printf.sprintf "Metrics: %S already registered with different buckets" name);
      h
  | _ -> assert false

(* ---- hot path ---- *)

let incr c = c.c <- c.c + 1

let add c n =
  if n < 0 then invalid_arg "Metrics.add: negative delta";
  c.c <- c.c + n

let value c = c.c

let set g x = g.g <- x

let gauge_value g = g.g

let observe h x =
  (* first bucket whose bound >= x; binary search *)
  let n = Array.length h.bounds in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if h.bounds.(mid) >= x then hi := mid else lo := mid + 1
  done;
  h.counts.(!lo) <- h.counts.(!lo) + 1;
  h.hcount <- h.hcount + 1;
  h.hsum <- h.hsum +. x

(* ---- snapshots ---- *)

type histogram_summary = { count : int; sum : float; buckets : (float * int) array }

type value_snapshot = Counter of int | Gauge of float | Histogram of histogram_summary

type snapshot = (string * value_snapshot) list (* sorted by name *)

let snap_metric = function
  | C c -> Counter c.c
  | G g -> Gauge g.g
  | H h ->
      (* cumulative counts, +inf last *)
      let n = Array.length h.bounds in
      let cum = ref 0 in
      let buckets =
        Array.init (n + 1) (fun i ->
            cum := !cum + h.counts.(i);
            ((if i < n then h.bounds.(i) else infinity), !cum))
      in
      Histogram { count = h.hcount; sum = h.hsum; buckets }

let snapshot t =
  Hashtbl.fold (fun name m acc -> (name, snap_metric m) :: acc) t.tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let empty = []

let of_assoc kvs =
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) kvs in
  let rec check = function
    | (a, _) :: ((b, _) :: _ as rest) ->
        if a = b then invalid_arg (Printf.sprintf "Metrics.of_assoc: duplicate name %S" a);
        check rest
    | _ -> ()
  in
  check sorted;
  sorted

let get s name = List.assoc_opt name s

let counter_value s name = match get s name with Some (Counter n) -> n | _ -> 0

let diff ~before ~after =
  List.filter_map
    (fun (name, v_after) ->
      match (List.assoc_opt name before, v_after) with
      | None, v -> Some (name, v)
      | Some (Counter b), Counter a -> Some (name, Counter (a - b))
      | Some (Gauge _), Gauge a -> Some (name, Gauge a)
      | Some (Histogram b), Histogram a ->
          let buckets =
            Array.mapi
              (fun i (bound, c) ->
                let prev = if i < Array.length b.buckets then snd b.buckets.(i) else 0 in
                (bound, c - prev))
              a.buckets
          in
          Some (name, Histogram { count = a.count - b.count; sum = a.sum -. b.sum; buckets })
      | Some _, v ->
          (* kind changed between snapshots: pass the new value through *)
          Some (name, v))
    after

let merge a b =
  let names =
    List.sort_uniq compare (List.map fst a @ List.map fst b)
  in
  List.map
    (fun name ->
      match (List.assoc_opt name a, List.assoc_opt name b) with
      | Some v, None | None, Some v -> (name, v)
      | Some (Counter x), Some (Counter y) -> (name, Counter (x + y))
      | Some (Gauge _), Some (Gauge y) -> (name, Gauge y)
      | Some (Histogram x), Some (Histogram y) when Array.length x.buckets = Array.length y.buckets
        ->
          let buckets = Array.mapi (fun i (bound, c) -> (bound, c + snd y.buckets.(i))) x.buckets in
          (name, Histogram { count = x.count + y.count; sum = x.sum +. y.sum; buckets })
      | _ -> invalid_arg (Printf.sprintf "Metrics.merge: kind mismatch for %S" name)
    )
    names

let merge_all snaps = List.fold_left merge empty snaps

let is_monotone ~before ~after =
  List.for_all
    (fun (name, v) ->
      match (v, List.assoc_opt name after) with
      | Counter b, Some (Counter a) -> a >= b
      | _ -> true)
    before

(* ---- rendering ---- *)

let bucket_label b = if b = infinity then "inf" else Json.(to_string (Num b))

let to_json s =
  Json.Obj
    (List.map
       (fun (name, v) ->
         ( name,
           match v with
           | Counter n -> Json.int n
           | Gauge x -> Json.Num x
           | Histogram h ->
               Json.Obj
                 [
                   ("count", Json.int h.count);
                   ("sum", Json.Num h.sum);
                   ( "buckets",
                     Json.Obj
                       (Array.to_list
                          (Array.map (fun (b, c) -> ("le_" ^ bucket_label b, Json.int c)) h.buckets))
                   );
                 ] ))
       s)

let to_prometheus ?(prefix = "") s =
  let buf = Buffer.create 256 in
  List.iter
    (fun (name, v) ->
      let name = prefix ^ name in
      match v with
      | Counter n ->
          Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n%s %d\n" name name n)
      | Gauge x -> Buffer.add_string buf (Printf.sprintf "# TYPE %s gauge\n%s %g\n" name name x)
      | Histogram h ->
          Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" name);
          Array.iter
            (fun (b, c) ->
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" name
                   (if b = infinity then "+Inf" else bucket_label b)
                   c))
            h.buckets;
          Buffer.add_string buf (Printf.sprintf "%s_sum %g\n" name h.sum);
          Buffer.add_string buf (Printf.sprintf "%s_count %d\n" name h.count))
    s;
  Buffer.contents buf

let pp ppf s =
  List.iter
    (fun (name, v) ->
      match v with
      | Counter n -> Format.fprintf ppf "%-32s %d@." name n
      | Gauge x -> Format.fprintf ppf "%-32s %g@." name x
      | Histogram h ->
          Format.fprintf ppf "%-32s count=%d sum=%g mean=%g@." name h.count h.sum
            (if h.count = 0 then 0. else h.sum /. float_of_int h.count))
    s
