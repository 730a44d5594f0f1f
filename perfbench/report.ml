(* What one run reports, and the JSON line it ends with. *)

type t = {
  attempted : int;  (** Operations attempted (schedules, for the explorer). *)
  failed : int;
  errors : string list;  (** Failed output checks; empty = correct. *)
  e2e : (string * float * string) list;  (** (name, value, unit). *)
  layers : (string * float * string) list;  (** Traced run only. *)
}

(* Every digit of a float; JSON has no nan/inf, so those become null
   and the caller's check fails the run. *)
let num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let json ~trace r =
  let metrics = if trace then r.layers else r.e2e in
  let m =
    String.concat ", "
      (List.map
         (fun (name, v, u) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) u)
         metrics)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.errors = []) r.attempted r.failed m
