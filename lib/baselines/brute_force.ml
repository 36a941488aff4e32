open Kondo_dataarray
open Kondo_workload

type result = { indices : Index_set.t; evaluations : int; exhausted : bool; elapsed : float }

exception Out_of_budget

let run ?time_budget ?max_evals p =
  let t0 = Kondo_obs.Clock.(now real) in
  let indices = Index_set.create p.Program.shape in
  let evaluations = ref 0 in
  let exhausted = ref true in
  (try
     Program.iter_param_space p (fun v ->
         (match max_evals with
         | Some m when !evaluations >= m ->
           exhausted := false;
           raise Out_of_budget
         | _ -> ());
         (match time_budget with
         | Some budget when !evaluations land 63 = 0 && Kondo_obs.Clock.(now real) -. t0 > budget ->
           exhausted := false;
           raise Out_of_budget
         | _ -> ());
         incr evaluations;
         List.iter (fun slab -> Index_set.add_slab indices slab) (p.Program.plan v))
   with Out_of_budget -> ());
  { indices; evaluations = !evaluations; exhausted = !exhausted; elapsed = Kondo_obs.Clock.(now real) -. t0 }
