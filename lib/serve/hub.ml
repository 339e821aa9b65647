module Vclock = Rts_net.Vclock
module Envelope = Rts_net.Envelope
module Reliable = Rts_net.Reliable
module Net_fault = Rts_net.Net_fault
module Prng = Rts_util.Prng

type t = {
  clock : Vclock.t;
  server : Server.t;
  clients : Client.t array;
  fabric : Reliable.t;
}

let create ?(server_config = Server.default) ?(reliable = Reliable.default) ~clients ~make
    ~provider () =
  if clients < 1 then invalid_arg "Hub.create: need at least one client";
  let clock = Vclock.create () in
  let rng = Prng.create ~seed:1 (* only retransmission jitter draws from it *) in
  (* Tie the knots (server/clients need the fabric to send, the fabric
     needs them to deliver) through forward references. *)
  let fabric_ref = ref None in
  let server_ref = ref None in
  let clients_ref = ref [||] in
  let fabric_send ~src ~dst body =
    match !fabric_ref with
    | Some fabric -> Reliable.send fabric ~src ~dst (Envelope.App { body })
    | None -> assert false
  in
  let deliver (env : Envelope.t) =
    match env.payload with
    | Envelope.App { body } -> (
        match env.dst with
        | Envelope.Coordinator -> (
            let server = match !server_ref with Some s -> s | None -> assert false in
            match Frame.client_of_string ~dim:server_config.Server.dim body with
            | Ok frame -> Server.handle server ~src:(Envelope.node_id env.src) frame
            | Error message ->
                (* a daemon never crashes on wire garbage *)
                fabric_send ~src:Envelope.Coordinator ~dst:env.src
                  (Frame.server_to_string (Frame.Rejected { message })))
        | Envelope.Site i -> (
            match Frame.server_of_string body with
            | Ok frame -> Client.deliver !clients_ref.(i) frame
            | Error msg -> failwith ("Hub: bad server frame on the wire: " ^ msg)))
    | Envelope.Ack _ -> ()
  in
  let fabric =
    Reliable.create ~config:reliable ~clock ~rng ~spec:Net_fault.none ~deliver
      ()
  in
  fabric_ref := Some fabric;
  let server =
    Server.create ~config:server_config ~clock ~make ~provider
      ~send:(fun ~dst frame ->
        fabric_send ~src:Envelope.Coordinator ~dst:(Envelope.Site dst)
          (Frame.server_to_string frame))
      ()
  in
  server_ref := Some server;
  let client_arr =
    Array.init clients (fun i ->
        Client.create ~site:i ~clock
          ~send:(fun frame ->
            fabric_send ~src:(Envelope.Site i) ~dst:Envelope.Coordinator
              (Frame.client_to_string frame))
          ())
  in
  clients_ref := client_arr;
  { clock; server; clients = client_arr; fabric }

let clock t = t.clock

let server t = t.server

let client t i =
  if i < 0 || i >= Array.length t.clients then invalid_arg "Hub.client: index out of range";
  t.clients.(i)

let run ?max_steps t = Vclock.run_until_idle ?max_steps t.clock

let net_metrics t = Reliable.metrics t.fabric
