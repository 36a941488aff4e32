open Kondo_dataarray
open Kondo_workload
open Kondo_core

type result = {
  kondo : Pipeline.report;
  afl_extra : int;
  approx : Index_set.t;
  elapsed : float;
}

let run ~config ?afl_budget p =
  let t0 = Kondo_obs.Clock.(now real) in
  let kondo = Pipeline.approximate ~config p in
  let budget =
    Option.value afl_budget ~default:(4 * kondo.Pipeline.fuzz.Schedule.evaluations)
  in
  let afl = Afl.run ~seed:config.Config.seed ~max_execs:budget p in
  let observed = Index_set.copy kondo.Pipeline.fuzz.Schedule.indices in
  let before = Index_set.cardinal observed in
  Index_set.union_into observed afl.Afl.indices;
  let afl_extra = Index_set.cardinal observed - before in
  let approx =
    if afl_extra = 0 then kondo.Pipeline.approx
    else begin
      let carve = Carver.carve ~config observed in
      let approx = Carver.rasterize p.Program.shape carve.Carver.hulls in
      Index_set.union_into approx observed;
      approx
    end
  in
  { kondo; afl_extra; approx; elapsed = Kondo_obs.Clock.(now real) -. t0 }
