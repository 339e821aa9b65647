type node = Coordinator | Site of int

type payload = App of { body : string } | Ack of { ack : int }

type t = { src : node; dst : node; seq : int; epoch : int; payload : payload }

let node_id = function Coordinator -> -1 | Site i -> i

let pp_node ppf = function
  | Coordinator -> Format.pp_print_string ppf "co"
  | Site i -> Format.fprintf ppf "s%d" i

(* The site endpoint of a link: the topology is a star, so every
   message travels on exactly one coordinator<->site link. *)
let site_of t =
  match (t.src, t.dst) with
  | Site i, _ | _, Site i -> i
  | Coordinator, Coordinator -> invalid_arg "Envelope.site_of: co->co message"

let kind = function App _ -> "app" | Ack _ -> "ack"

let kinds = [ "app"; "ack" ]

let pp_payload ppf = function
  | App { body } -> Format.fprintf ppf "App{%S}" body
  | Ack { ack } -> Format.fprintf ppf "Ack{%d}" ack

let pp ppf t =
  if t.epoch = 0 then
    Format.fprintf ppf "%a->%a #%d %a" pp_node t.src pp_node t.dst t.seq pp_payload t.payload
  else
    Format.fprintf ppf "%a->%a #%d e%d %a" pp_node t.src pp_node t.dst t.seq t.epoch pp_payload
      t.payload
