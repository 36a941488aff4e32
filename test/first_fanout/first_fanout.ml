(* A process whose first work is a parallel fan-out of fuzz rounds:
   eight worker domains run their first schedules together and record
   the schedule counters together.  A metric handle created on first use
   (a module-level [lazy]) could be forced by two domains at once, and
   the second raised [CamlinternalLazy.Undefined].  So the fan-out must
   not register any metric family that module initialisation (in the
   main domain) did not; this program exits non-zero if it does or if
   any round raises.  The dune rule runs it many times, one process
   after another, because the race itself shows only now and then. *)

open Kondo_core
module Registry = Kondo_obs.Registry

let families () =
  String.split_on_char '\n' (Registry.expose Registry.default)
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' line with
         | [ "#"; "TYPE"; name; _ ] -> Some name
         | _ -> None)

let () =
  let before = families () in
  let p = Kondo_workload.Stencils.ldc2d ~n:48 () in
  let config =
    Config.with_jobs { Config.default with Config.seed = 7; max_iter = 10; stop_iter = 10 } 8
  in
  ignore (Schedule.run_rounds ~config p ~first_round:1 ~rounds:16);
  match List.filter (fun name -> not (List.mem name before)) (families ()) with
  | [] -> ()
  | late ->
    prerr_endline ("registered during the fan-out: " ^ String.concat ", " late);
    exit 1
