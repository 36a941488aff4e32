open Kondo_dataarray
open Kondo_workload
open Kondo_core

type result = {
  fuzz : Schedule.result;
  approx : Index_set.t;
  hull_vertices : int;
  elapsed : float;
}

let run ~config p =
  let t0 = Kondo_obs.Clock.(now real) in
  let fuzz = Schedule.run ~config p in
  let approx, hull_vertices =
    match Carver.single_hull fuzz.Schedule.indices with
    | None -> (Index_set.create p.Program.shape, 0)
    | Some hull ->
      let approx = Carver.rasterize p.Program.shape [ hull ] in
      Index_set.union_into approx fuzz.Schedule.indices;
      (approx, List.length (Kondo_geometry.Hull.vertices hull))
  in
  { fuzz; approx; hull_vertices; elapsed = Kondo_obs.Clock.(now real) -. t0 }
