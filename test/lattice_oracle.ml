(* The per-point lattice walk that row rasterization replaced: one
   [Hull.contains ~eps:1e-6] per integer point of the hull's bounding box.
   Row-based [Hull.iter_lattice] and [Carver.rasterize] must agree with it
   exactly. *)

open Kondo_dataarray
open Kondo_geometry

let iter_lattice h f =
  Bbox.iter_lattice (Hull.bbox h) (fun ip ->
      if Hull.contains ~eps:1e-6 h (Vec.of_int_point ip) then f ip)

let lattice_points h =
  let acc = ref [] in
  iter_lattice h (fun ip -> acc := Array.copy ip :: !acc);
  List.rev !acc

let rasterize shape hulls =
  let out = Index_set.create shape in
  List.iter (fun h -> iter_lattice h (fun ip -> ignore (Index_set.add_if_in_bounds out ip))) hulls;
  out
