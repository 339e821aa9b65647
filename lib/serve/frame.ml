open Rts_workload

type client =
  | Op of { tenant : string; op : Replay.op }
  | Batch of { tenant : string; elems : Rts_core.Types.elem array }
  | Subscribe of { tenant : string; after : int }
  | Stats
  | Shutdown

type reason = Tenants | Quota | Wal_lag | Disk_full

type server =
  | Accepted of { tenant : string; ops : int }
  | Overloaded of { tenant : string; reason : reason }
  | Retry_after of { ticks : int }
  | Rejected of { message : string }
  | Matured of { tenant : string; ordinal : int; ids : int list }
  | Stats_reply of { body : string }
  | Bye

let tenant_ok name =
  name <> ""
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       name

let reason_to_string = function
  | Tenants -> "tenants"
  | Quota -> "quota"
  | Wal_lag -> "wal_lag"
  | Disk_full -> "disk_full"

let reason_of_string = function
  | "tenants" -> Some Tenants
  | "quota" -> Some Quota
  | "wal_lag" -> Some Wal_lag
  | "disk_full" -> Some Disk_full
  | _ -> None

(* Split [s] at the first [','], or [None] if there is none. Frame
   payloads that themselves contain commas (op lines) always ride in the
   last position, so parsing only ever cuts a bounded prefix. *)
let cut s =
  match String.index_opt s ',' with
  | None -> None
  | Some i -> Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let client_to_string = function
  | Op { tenant; op } -> Printf.sprintf "op,%s,%s" tenant (Replay.op_to_line op)
  | Batch { tenant; elems } ->
      Printf.sprintf "batch,%s,%s" tenant
        (String.concat ";"
           (Array.to_list (Array.map (fun e -> Csv_io.element_to_line e) elems)))
  | Subscribe { tenant; after } ->
      if after = 0 then "sub," ^ tenant else Printf.sprintf "sub,%s,%d" tenant after
  | Stats -> "stats"
  | Shutdown -> "shutdown"

let with_tenant rest k =
  match cut rest with
  | Some (tenant, payload) when tenant_ok tenant -> k tenant payload
  | _ -> Error "bad tenant field"

let client_of_string ~dim line =
  let line = String.trim line in
  match cut line with
  | None -> (
      match line with
      | "stats" -> Ok Stats
      | "shutdown" -> Ok Shutdown
      | _ -> Error (Printf.sprintf "unknown frame %S" line))
  | Some ("sub", rest) -> (
      (* [sub,<tenant>] subscribes from genesis; [sub,<tenant>,<after>]
         resumes past the element-ordinal watermark [after] — the
         re-subscribe form a client uses after failing over to a new
         primary, so maturities it already consumed are not re-pushed. *)
      match cut rest with
      | None ->
          if tenant_ok rest then Ok (Subscribe { tenant = rest; after = 0 })
          else Error "bad tenant field"
      | Some (tenant, aft) ->
          if not (tenant_ok tenant) then Error "bad tenant field"
          else (
            match int_of_string_opt aft with
            | Some after when after >= 0 -> Ok (Subscribe { tenant; after })
            | _ -> Error ("bad watermark " ^ aft)))
  | Some ("op", rest) ->
      with_tenant rest (fun tenant payload ->
          match Replay.parse_op ~dim ~line_no:0 payload with
          | op -> Ok (Op { tenant; op })
          | exception Csv_io.Parse_error msg -> Error msg)
  | Some ("batch", rest) ->
      with_tenant rest (fun tenant payload ->
          match
            String.split_on_char ';' payload
            |> List.map (fun l -> Csv_io.parse_element ~dim ~line_no:0 l)
          with
          | elems -> Ok (Batch { tenant; elems = Array.of_list elems })
          | exception Csv_io.Parse_error msg -> Error msg)
  | Some (verb, _) -> Error (Printf.sprintf "unknown frame verb %S" verb)

let server_to_string = function
  | Accepted { tenant; ops } -> Printf.sprintf "accepted,%s,%d" tenant ops
  | Overloaded { tenant; reason } ->
      Printf.sprintf "overloaded,%s,%s" tenant (reason_to_string reason)
  | Retry_after { ticks } -> Printf.sprintf "retry,%d" ticks
  | Rejected { message } -> Printf.sprintf "rejected,%S" message
  | Matured { tenant; ordinal; ids } ->
      Printf.sprintf "matured,%s,%d,%s" tenant ordinal
        (String.concat ";" (List.map string_of_int ids))
  | Stats_reply { body } -> Printf.sprintf "stats,%S" body
  | Bye -> "bye"

let int_of s = match int_of_string_opt s with Some n -> Ok n | None -> Error ("bad int " ^ s)

let unescape s =
  match Scanf.sscanf s "%S%!" (fun x -> x) with
  | x -> Ok x
  | exception _ -> Error "bad escaped string"

let server_of_string line =
  let line = String.trim line in
  let ( let* ) = Result.bind in
  match cut line with
  | None -> if line = "bye" then Ok Bye else Error (Printf.sprintf "unknown frame %S" line)
  | Some ("accepted", rest) ->
      with_tenant rest (fun tenant n ->
          let* ops = int_of n in
          Ok (Accepted { tenant; ops }))
  | Some ("overloaded", rest) ->
      with_tenant rest (fun tenant r ->
          match reason_of_string r with
          | Some reason -> Ok (Overloaded { tenant; reason })
          | None -> Error ("unknown overload reason " ^ r))
  | Some ("retry", n) ->
      let* ticks = int_of n in
      Ok (Retry_after { ticks })
  | Some ("rejected", rest) ->
      let* message = unescape rest in
      Ok (Rejected { message })
  | Some ("matured", rest) ->
      with_tenant rest (fun tenant payload ->
          match cut payload with
          | None -> Error "matured: missing ids"
          | Some (ord, ids) ->
              let* ordinal = int_of ord in
              let* ids =
                List.fold_right
                  (fun s acc ->
                    let* acc = acc in
                    let* i = int_of s in
                    Ok (i :: acc))
                  (if ids = "" then [] else String.split_on_char ';' ids)
                  (Ok [])
              in
              Ok (Matured { tenant; ordinal; ids }))
  | Some ("stats", rest) ->
      let* body = unescape rest in
      Ok (Stats_reply { body })
  | Some (verb, _) -> Error (Printf.sprintf "unknown frame verb %S" verb)

let pp_client ppf f = Format.pp_print_string ppf (client_to_string f)
let pp_server ppf f = Format.pp_print_string ppf (server_to_string f)
