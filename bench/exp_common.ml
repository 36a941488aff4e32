(* Shared helpers for the experiment drivers. *)

open Kondo_workload
open Kondo_core

let mean l =
  match l with [] -> 0.0 | _ -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let std l =
  match l with
  | [] | [ _ ] -> 0.0
  | _ ->
    let m = mean l in
    sqrt (mean (List.map (fun x -> (x -. m) ** 2.0) l))

let header id title =
  Printf.printf "\n==================================================================\n";
  Printf.printf "%s — %s\n" id title;
  Printf.printf "==================================================================\n%!"

let row fmt = Printf.printf fmt

let pct x = 100.0 *. x

(* The paper's budget methodology (§V-C): per program, the budget is what
   Kondo needs to reach (at least 97% of) its eventual recall — here
   expressed as a debloat-test count, the honest cost unit of a system
   whose per-test price is dominated by the audited execution. *)
let kondo_reference_budget ?(config = Config.default) p =
  let r = Schedule.run ~config:(Config.with_seed config 1) p in
  max 200 r.Schedule.evaluations

let kondo_run ~seed ~budget p =
  let config =
    { Config.default with Config.seed; max_iter = budget; stop_iter = budget }
  in
  Pipeline.approximate ~config p

let accuracy_vs truth approx = Metrics.accuracy ~truth ~approx

(* Average Kondo accuracy over [seeds] runs at a fixed budget. *)
let kondo_avg ?(seeds = 10) ~budget p =
  let truth = Program.ground_truth p in
  let accs =
    List.init seeds (fun s ->
        let r = kondo_run ~seed:(s + 1) ~budget p in
        accuracy_vs truth r.Pipeline.approx)
  in
  let recalls = List.map (fun (a : Metrics.accuracy) -> a.Metrics.recall) accs in
  let precisions = List.map (fun (a : Metrics.accuracy) -> a.Metrics.precision) accs in
  let bloats = List.map (fun (a : Metrics.accuracy) -> a.Metrics.bloat) accs in
  ( (mean recalls, std recalls),
    (mean precisions, std precisions),
    (mean bloats, std bloats) )

let group_by_family programs =
  let groups = [ "CS"; "PRL"; "LDC"; "RDC" ] in
  List.map
    (fun g -> (g, List.filter (fun p -> Suite.micro_group p = g) programs))
    groups

let recall_of p set = Metrics.recall ~truth:(Program.ground_truth p) ~approx:set

let precision_of p set = Metrics.precision ~truth:(Program.ground_truth p) ~approx:set

(* Wall clock for every experiment driver, via the observability clock
   so bench timing and production instrumentation share one source. *)
let now () = Kondo_obs.Clock.now Kondo_obs.Clock.real

(* Per-phase wall time: a driver runs its workload under [with_phases],
   wraps each phase in [phase] (an ambient span named ["phase." ^ name]),
   and embeds the returned [phase_timings] object — the phase spans'
   totals, by name — into its BENCH_*.json doc. *)
let phase_prefix = "phase."

let phase name f = Kondo_obs.Obs.(span (section (phase_prefix ^ name))) f

let with_phases f =
  let tr = Kondo_obs.Trace.create () in
  Kondo_obs.Obs.set_tracer (Some tr);
  let v = Fun.protect ~finally:(fun () -> Kondo_obs.Obs.set_tracer None) f in
  let n = String.length phase_prefix in
  ( v,
    Report.Json.Obj
      (List.filter_map
         (fun (name, s, _) ->
           if String.starts_with ~prefix:phase_prefix name then
             Some (String.sub name n (String.length name - n), Report.Json.Float s)
           else None)
         (Kondo_obs.Trace.span_totals tr)) )
