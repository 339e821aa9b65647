(* Shared helpers: scale qcheck case counts and pinned seed lists from
   the environment.

   CI's nightly deep sweep runs the same suites with QCHECK_COUNT=2000
   and widened RTS_<SUITE>_SEEDS lists; the default PR gate keeps each
   suite's own (fast) defaults. Invalid or unset values never silently
   weaken a run to zero cases or zero seeds. *)

let count default =
  match Sys.getenv_opt "QCHECK_COUNT" with
  | None | Some "" -> default
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n > 0 -> n
      | _ ->
          Printf.eprintf "qcheck_env: ignoring invalid QCHECK_COUNT=%S (using %d)\n%!" s default;
          default)

(* A comma-separated seed list. Unset or blank means [default]; entries
   are trimmed; an entry that is not an integer (an empty one included,
   as in "7,") is an error naming [var], so a typo cannot quietly drop
   a pinned seed. *)
let parse_seeds ~var ~default = function
  | None -> Ok default
  | Some s when String.trim s = "" -> Ok default
  | Some s -> (
      let entries = List.map String.trim (String.split_on_char ',' s) in
      match List.find_opt (fun x -> int_of_string_opt x = None) entries with
      | Some bad ->
          Error (Printf.sprintf "%s=%S: %S is not an integer seed (expected a,b,c)" var s bad)
      | None -> Ok (List.map int_of_string entries))

(* The suite's seed list from [var], printed so the run's log names the
   seeds it swept; exits 2 with the parse error. *)
let seeds var ~default =
  match parse_seeds ~var ~default (Sys.getenv_opt var) with
  | Ok l ->
      Printf.printf "pinned seeds: %s=%s\n%!" var (String.concat "," (List.map string_of_int l));
      l
  | Error msg ->
      prerr_endline msg;
      exit 2
