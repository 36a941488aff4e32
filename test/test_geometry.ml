(* Unit and property tests for the convex-hull geometry layer. *)

open Kondo_geometry

let pt2 x y = [| float_of_int x; float_of_int y |]
let pt3 x y z = [| float_of_int x; float_of_int y; float_of_int z |]

(* ---------------- Vec ---------------- *)

let test_vec_ops () =
  let a = [| 1.0; 2.0; 3.0 |] and b = [| 4.0; 6.0; 8.0 |] in
  Alcotest.(check (array (float 1e-9))) "add" [| 5.0; 8.0; 11.0 |] (Vec.add a b);
  Alcotest.(check (array (float 1e-9))) "sub" [| 3.0; 4.0; 5.0 |] (Vec.sub b a);
  Alcotest.(check (float 1e-9)) "dot" 40.0 (Vec.dot a b);
  Alcotest.(check (float 1e-9)) "dist" (sqrt 50.0) (Vec.dist a b);
  Alcotest.(check (array (float 1e-9))) "lerp midpoint" [| 2.5; 4.0; 5.5 |] (Vec.lerp a b 0.5)

let test_vec_cross2 () =
  Alcotest.(check bool) "ccw positive" true (Vec.cross2 (pt2 0 0) (pt2 1 0) (pt2 0 1) > 0.0);
  Alcotest.(check bool) "cw negative" true (Vec.cross2 (pt2 0 0) (pt2 0 1) (pt2 1 0) < 0.0);
  Alcotest.(check (float 1e-9)) "collinear zero" 0.0 (Vec.cross2 (pt2 0 0) (pt2 1 1) (pt2 2 2))

let test_vec_cross3 () =
  Alcotest.(check (array (float 1e-9))) "x cross y = z" [| 0.0; 0.0; 1.0 |]
    (Vec.cross3 [| 1.0; 0.0; 0.0 |] [| 0.0; 1.0; 0.0 |])

let test_vec_centroid () =
  Alcotest.(check (array (float 1e-9))) "centroid" [| 1.0; 1.0 |]
    (Vec.centroid [ pt2 0 0; pt2 2 0; pt2 2 2; pt2 0 2 ])

(* ---------------- Bbox ---------------- *)

let test_bbox_of_points () =
  let b = Bbox.of_points [ pt2 3 1; pt2 0 5; pt2 2 2 ] in
  Alcotest.(check (array (float 1e-9))) "lo" [| 0.0; 1.0 |] (Bbox.lo b);
  Alcotest.(check (array (float 1e-9))) "hi" [| 3.0; 5.0 |] (Bbox.hi b)

let test_bbox_contains () =
  let b = Bbox.make [| 0.0; 0.0 |] [| 2.0; 2.0 |] in
  Alcotest.(check bool) "inside" true (Bbox.contains b [| 1.0; 1.0 |]);
  Alcotest.(check bool) "boundary" true (Bbox.contains b [| 2.0; 0.0 |]);
  Alcotest.(check bool) "outside" false (Bbox.contains b [| 2.1; 0.0 |])

let test_bbox_lattice () =
  let b = Bbox.make [| 0.0; 0.0 |] [| 2.0; 3.0 |] in
  Alcotest.(check int) "count" 12 (Bbox.lattice_count b);
  let n = ref 0 in
  Bbox.iter_lattice b (fun _ -> incr n);
  Alcotest.(check int) "iter matches count" 12 !n

let test_bbox_lattice_fractional () =
  let b = Bbox.make [| 0.5 |] [| 3.5 |] in
  Alcotest.(check int) "1..3" 3 (Bbox.lattice_count b)

let test_bbox_min_dist () =
  let a = Bbox.make [| 0.0; 0.0 |] [| 1.0; 1.0 |] in
  let b = Bbox.make [| 4.0; 1.0 |] [| 5.0; 2.0 |] in
  Alcotest.(check (float 1e-9)) "axis gap" 3.0 (Bbox.min_dist a b);
  Alcotest.(check (float 1e-9)) "overlap is zero" 0.0 (Bbox.min_dist a a)

let test_bbox_volume_union () =
  let a = Bbox.make [| 0.0; 0.0 |] [| 2.0; 3.0 |] in
  Alcotest.(check (float 1e-9)) "volume" 6.0 (Bbox.volume a);
  let b = Bbox.make [| -1.0; 1.0 |] [| 1.0; 5.0 |] in
  let u = Bbox.union a b in
  Alcotest.(check (array (float 1e-9))) "union lo" [| -1.0; 0.0 |] (Bbox.lo u);
  Alcotest.(check (array (float 1e-9))) "union hi" [| 2.0; 5.0 |] (Bbox.hi u)

(* ---------------- Hull2d ---------------- *)

let test_hull2d_square () =
  let h = Hull2d.of_points [ pt2 0 0; pt2 4 0; pt2 4 4; pt2 0 4; pt2 2 2; pt2 1 1 ] in
  Alcotest.(check int) "4 vertices" 4 (List.length (Hull2d.vertices h));
  Alcotest.(check (float 1e-9)) "area" 16.0 (Hull2d.area h);
  Alcotest.(check bool) "interior" true (Hull2d.contains h (pt2 2 3));
  Alcotest.(check bool) "edge" true (Hull2d.contains h (pt2 4 2));
  Alcotest.(check bool) "vertex" true (Hull2d.contains h (pt2 0 4));
  Alcotest.(check bool) "outside" false (Hull2d.contains h (pt2 5 2))

let test_hull2d_ccw () =
  let h = Hull2d.of_points [ pt2 0 0; pt2 3 0; pt2 0 3 ] in
  let v = Array.of_list (Hull2d.vertices h) in
  let area2 = ref 0.0 in
  let n = Array.length v in
  for i = 0 to n - 1 do
    let a = v.(i) and b = v.((i + 1) mod n) in
    area2 := !area2 +. ((a.(0) *. b.(1)) -. (b.(0) *. a.(1)))
  done;
  Alcotest.(check bool) "counter-clockwise orientation" true (!area2 > 0.0)

let test_hull2d_collinear_raises () =
  Alcotest.check_raises "collinear input" Hull2d.Degenerate (fun () ->
      ignore (Hull2d.of_points [ pt2 0 0; pt2 1 1; pt2 2 2; pt2 3 3 ]))

let test_hull2d_too_small_raises () =
  Alcotest.check_raises "two points" Hull2d.Degenerate (fun () ->
      ignore (Hull2d.of_points [ pt2 0 0; pt2 1 1 ]))

let test_hull2d_duplicates () =
  let h = Hull2d.of_points [ pt2 0 0; pt2 0 0; pt2 2 0; pt2 2 0; pt2 1 2 ] in
  Alcotest.(check int) "triangle" 3 (List.length (Hull2d.vertices h))

let test_hull2d_collinear_interior_dropped () =
  let h = Hull2d.of_points [ pt2 0 0; pt2 2 0; pt2 4 0; pt2 4 4; pt2 0 4 ] in
  (* (2,0) lies on an edge; it must not be a vertex *)
  Alcotest.(check int) "4 vertices" 4 (List.length (Hull2d.vertices h))

(* ---------------- Hull3d ---------------- *)

let cube_points =
  [ pt3 0 0 0; pt3 2 0 0; pt3 0 2 0; pt3 0 0 2; pt3 2 2 0; pt3 2 0 2; pt3 0 2 2; pt3 2 2 2 ]

let test_hull3d_cube () =
  let h = Hull3d.of_points (pt3 1 1 1 :: cube_points) in
  Alcotest.(check int) "8 extreme vertices" 8 (List.length (Hull3d.vertices h));
  Alcotest.(check (float 1e-6)) "volume" 8.0 (Hull3d.volume h);
  Alcotest.(check bool) "interior point" true (Hull3d.contains h (pt3 1 1 1));
  Alcotest.(check bool) "face point" true (Hull3d.contains h [| 1.0; 1.0; 0.0 |]);
  Alcotest.(check bool) "outside" false (Hull3d.contains h (pt3 3 1 1))

let test_hull3d_tetra () =
  let h = Hull3d.of_points [ pt3 0 0 0; pt3 6 0 0; pt3 0 6 0; pt3 0 0 6 ] in
  Alcotest.(check int) "4 faces" 4 (List.length (Hull3d.faces h));
  Alcotest.(check (float 1e-6)) "volume" 36.0 (Hull3d.volume h)

let test_hull3d_coplanar_raises () =
  Alcotest.check_raises "coplanar" Hull3d.Degenerate (fun () ->
      ignore (Hull3d.of_points [ pt3 0 0 1; pt3 3 0 1; pt3 0 3 1; pt3 3 3 1 ]))

let test_hull3d_outward_normals () =
  let h = Hull3d.of_points cube_points in
  let c = Hull3d.centroid h in
  List.iter
    (fun (a, b, cc) ->
      let n = Vec.cross3 (Vec.sub b a) (Vec.sub cc a) in
      Alcotest.(check bool) "normal points away from centroid" true
        (Vec.dot n (Vec.sub a c) > 0.0))
    (Hull3d.faces h)

(* ---------------- Hull (generic) ---------------- *)

let test_hull_point () =
  let h = Hull.of_int_points [ [| 3; 4 |]; [| 3; 4 |] ] in
  Alcotest.(check int) "affine dim 0" 0 (Hull.affine_dim h);
  Alcotest.(check int) "lattice" 1 (Hull.lattice_count h);
  Alcotest.(check bool) "contains itself" true (Hull.contains_int h [| 3; 4 |]);
  Alcotest.(check bool) "not neighbour" false (Hull.contains_int h [| 3; 5 |])

let test_hull_segment () =
  let h = Hull.of_int_points [ [| 0; 0 |]; [| 6; 3 |]; [| 2; 1 |] ] in
  Alcotest.(check int) "affine dim 1" 1 (Hull.affine_dim h);
  Alcotest.(check bool) "midpoint on segment" true (Hull.contains_int h [| 4; 2 |]);
  Alcotest.(check bool) "off segment" false (Hull.contains_int h [| 4; 3 |]);
  Alcotest.(check int) "lattice points on segment" 4 (Hull.lattice_count h)

let test_hull_1d () =
  let h = Hull.of_int_points [ [| 2 |]; [| 9 |]; [| 5 |] ] in
  Alcotest.(check int) "segment" 1 (Hull.affine_dim h);
  Alcotest.(check int) "8 lattice points" 8 (Hull.lattice_count h);
  Alcotest.(check (float 1e-9)) "length" 7.0 (Hull.measure h)

let test_hull_flat3 () =
  let h = Hull.of_int_points [ [| 0; 0; 2 |]; [| 4; 0; 2 |]; [| 0; 4; 2 |]; [| 4; 4; 2 |] ] in
  Alcotest.(check int) "planar polygon" 2 (Hull.affine_dim h);
  Alcotest.(check int) "5x5 lattice" 25 (Hull.lattice_count h);
  Alcotest.(check bool) "in-plane interior" true (Hull.contains_int h [| 2; 2; 2 |]);
  Alcotest.(check bool) "off-plane" false (Hull.contains_int h [| 2; 2; 3 |]);
  Alcotest.(check (float 1e-6)) "area" 16.0 (Hull.measure h)

let test_hull_tilted_flat3 () =
  (* plane x + y + z = 4 *)
  let pts = [ [| 4; 0; 0 |]; [| 0; 4; 0 |]; [| 0; 0; 4 |] ] in
  let h = Hull.of_int_points pts in
  Alcotest.(check int) "planar" 2 (Hull.affine_dim h);
  Alcotest.(check bool) "lattice point in plane" true (Hull.contains_int h [| 1; 1; 2 |]);
  Alcotest.(check bool) "off plane" false (Hull.contains_int h [| 1; 1; 1 |])

let test_hull_centroid_and_distances () =
  let a = Hull.of_int_points [ [| 0; 0 |]; [| 2; 0 |]; [| 2; 2 |]; [| 0; 2 |] ] in
  let b = Hull.of_int_points [ [| 6; 0 |]; [| 8; 0 |]; [| 8; 2 |]; [| 6; 2 |] ] in
  Alcotest.(check (array (float 1e-9))) "centroid" [| 1.0; 1.0 |] (Hull.centroid a);
  Alcotest.(check (float 1e-9)) "center distance" 6.0 (Hull.center_distance a b);
  Alcotest.(check (float 1e-9)) "boundary distance" 4.0 (Hull.boundary_distance a b)

let test_hull_merge_covers_both () =
  let a = Hull.of_int_points [ [| 0; 0 |]; [| 1; 0 |]; [| 0; 1 |] ] in
  let b = Hull.of_int_points [ [| 5; 5 |]; [| 6; 5 |]; [| 5; 6 |] ] in
  let m = Hull.merge a b in
  List.iter
    (fun h ->
      List.iter
        (fun v -> Alcotest.(check bool) "merge contains operand vertices" true (Hull.contains m v))
        (Hull.vertices h))
    [ a; b ]

let test_hull_merge_point_into_polygon () =
  let a = Hull.of_int_points [ [| 0; 0 |] ] in
  let b = Hull.of_int_points [ [| 4; 0 |]; [| 4; 4 |]; [| 0; 4 |] ] in
  let m = Hull.merge a b in
  Alcotest.(check int) "full polygon" 2 (Hull.affine_dim m);
  Alcotest.(check bool) "interior of combined hull" true (Hull.contains_int m [| 2; 2 |])

(* property: hull of random int points contains every input point *)
let arb_points_2d =
  QCheck.(list_of_size (Gen.int_range 1 40) (pair (int_range 0 30) (int_range 0 30)))

let qcheck_hull2_contains_inputs =
  QCheck.Test.make ~name:"2D hull contains all inputs" ~count:300 arb_points_2d (fun pts ->
      QCheck.assume (pts <> []);
      let points = List.map (fun (x, y) -> [| x; y |]) pts in
      let h = Hull.of_int_points points in
      List.for_all (fun p -> Hull.contains_int h p) points)

let arb_points_3d =
  QCheck.(list_of_size (Gen.int_range 1 30) (triple (int_range 0 12) (int_range 0 12) (int_range 0 12)))

let qcheck_hull3_contains_inputs =
  QCheck.Test.make ~name:"3D hull contains all inputs" ~count:300 arb_points_3d (fun pts ->
      QCheck.assume (pts <> []);
      let points = List.map (fun (x, y, z) -> [| x; y; z |]) pts in
      let h = Hull.of_int_points points in
      List.for_all (fun p -> Hull.contains_int h p) points)

let qcheck_merge_superset =
  QCheck.Test.make ~name:"merged hull contains both hulls' lattices" ~count:100
    QCheck.(pair arb_points_2d arb_points_2d)
    (fun (p1, p2) ->
      QCheck.assume (p1 <> [] && p2 <> []);
      let mk pts = Hull.of_int_points (List.map (fun (x, y) -> [| x; y |]) pts) in
      let a = mk p1 and b = mk p2 in
      let m = Hull.merge a b in
      let ok = ref true in
      Hull.iter_lattice a (fun p -> if not (Hull.contains_int m p) then ok := false);
      Hull.iter_lattice b (fun p -> if not (Hull.contains_int m p) then ok := false);
      !ok)

let qcheck_lattice_within_bbox =
  QCheck.Test.make ~name:"hull lattice is within its bbox" ~count:200 arb_points_2d (fun pts ->
      QCheck.assume (pts <> []);
      let h = Hull.of_int_points (List.map (fun (x, y) -> [| x; y |]) pts) in
      let b = Hull.bbox h in
      let ok = ref true in
      Hull.iter_lattice h (fun p ->
          if not (Bbox.contains b (Array.map float_of_int p)) then ok := false);
      !ok)

let qcheck_hull_measure_le_bbox =
  QCheck.Test.make ~name:"hull measure bounded by bbox volume" ~count:200 arb_points_2d
    (fun pts ->
      QCheck.assume (List.length pts >= 3);
      let h = Hull.of_int_points (List.map (fun (x, y) -> [| x; y |]) pts) in
      (* Repeated points can leave a segment, whose measure is a length:
         bound it by the box's diagonal, not its area. *)
      let b = Hull.bbox h in
      let bound =
        if Hull.affine_dim h = 1 then Vec.dist (Bbox.lo b) (Bbox.hi b) else Bbox.volume b
      in
      Hull.measure h <= bound +. 1e-6)

(* ---------------- Row rasterization vs the per-point oracle ---------------- *)

open Kondo_dataarray

type raster_case = { dims : int array; clouds : int array list list; hull : Hull.t }

(* Random hulls of every kind, clipped to a random shape that they may
   overhang: points, segments, polygons, planar polygons and polytopes,
   plus merges — among them merges of two clouds on one tilted plane,
   whose [Flat] vertices are re-lifted non-integer floats. *)
let gen_raster_case st =
  let open QCheck.Gen in
  let d = if bool st then 2 else 3 in
  let dims = Array.init d (fun _ -> int_range 1 (if d = 2 then 40 else 14) st) in
  let point () = Array.init d (fun k -> int_range (-3) (dims.(k) + 2) st) in
  let dir () = Array.init d (fun _ -> int_range (-3) 3 st) in
  (* lattice points a + s*u (+ t*v), s and t in [-4, 4] *)
  let on_span a dirs n =
    List.init n (fun _ ->
        List.fold_left
          (fun p u ->
            let s = int_range (-4) 4 st in
            Array.mapi (fun k x -> x + (s * u.(k))) p)
          a dirs)
  in
  let cloud () =
    match int_bound 3 st with
    | 0 -> [ point () ]
    | 1 -> on_span (point ()) [ dir () ] (int_range 2 6 st)
    | 2 -> on_span (point ()) [ dir (); dir () ] (int_range 3 10 st)
    | _ -> List.init (int_range 1 12 st) (fun _ -> point ())
  in
  let clouds =
    match int_bound 2 st with
    | 0 -> [ cloud () ]
    | 1 -> [ cloud (); cloud () ]
    | _ ->
      let a = point () and u = dir () and v = dir () in
      [ on_span a [ u; v ] (int_range 3 8 st); on_span a [ u; v ] (int_range 3 8 st) ]
  in
  let hulls = List.map Hull.of_int_points clouds in
  { dims; clouds; hull = List.fold_left Hull.merge (List.hd hulls) (List.tl hulls) }

let arb_raster_case =
  let print c =
    Printf.sprintf "dims %s, clouds %s, %s"
      (QCheck.Print.(array int) c.dims)
      (QCheck.Print.(list (list (array int))) c.clouds)
      (Format.asprintf "%a" Hull.pp c.hull)
  in
  QCheck.make ~print gen_raster_case

let row_points h =
  let acc = ref [] in
  Hull.iter_lattice h (fun ip -> acc := Array.copy ip :: !acc);
  List.rev !acc

let qcheck_rows_match_oracle =
  QCheck.Test.make ~name:"row rasterize equals the per-point oracle" ~count:600 arb_raster_case
    (fun c ->
      let shape = Shape.create c.dims in
      let oracle = Lattice_oracle.lattice_points c.hull in
      row_points c.hull = oracle
      && Hull.lattice_count c.hull = List.length oracle
      && Index_set.equal
           (Kondo_core.Carver.rasterize shape [ c.hull ])
           (Lattice_oracle.rasterize shape [ c.hull ]))

(* An edge almost along the row axis: its relaxed bound overshoots the
   member run by ~20 lattice units, which [contains] walks back. *)
let test_rows_grazing_edge () =
  let h = Hull.of_int_points [ [| 0; 0 |]; [| 1; 20000 |]; [| 0; 20000 |] ] in
  let shape = Shape.create [| 2; 20001 |] in
  let scan = Hull.iter_rows h (fun _ _ _ -> ()) in
  Alcotest.(check bool) "ends walked more than one step" true
    (scan.Hull.contains_calls > 2 * scan.Hull.rows + 2);
  Alcotest.(check bool) "same raster" true
    (Index_set.equal (Kondo_core.Carver.rasterize shape [ h ]) (Lattice_oracle.rasterize shape [ h ]))

let test_rows_merged_flat_float_vertices () =
  (* two clouds on the plane through (5,5,5) spanned by (1,2,0), (0,1,3) *)
  let plane s t = [| 5 + s; 5 + (2 * s) + t; 5 + (3 * t) |] in
  let a = Hull.of_int_points [ plane 0 0; plane 3 0; plane 0 2 ] in
  let b = Hull.of_int_points [ plane (-2) 1; plane 1 (-1); plane 2 2; plane (-1) (-1) ] in
  let m = Hull.merge a b in
  Alcotest.(check int) "planar" 2 (Hull.affine_dim m);
  Alcotest.(check bool) "re-lifted vertices are not integers" true
    (List.exists (Array.exists (fun x -> not (Float.is_integer x))) (Hull.vertices m));
  let shape = Shape.create [| 12; 12; 16 |] in
  Alcotest.(check bool) "same lattice" true (row_points m = Lattice_oracle.lattice_points m);
  Alcotest.(check bool) "same raster" true
    (Index_set.equal (Kondo_core.Carver.rasterize shape [ m ]) (Lattice_oracle.rasterize shape [ m ]))

(* ---------------- Hull3d and CLOSE vs the pre-flat-array oracle ---------------- *)

module Oracle = Hull3d_oracle

(* Same outcome, same vertices (same order) and same faces (same
   triangles, orientation and order), or [Degenerate] from both. *)
let same_hull3d pts =
  let run f = try Ok (f pts) with Hull3d.Degenerate | Oracle.Degenerate -> Error () in
  match (run Hull3d.of_points, run Oracle.of_points) with
  | Ok h, Ok o -> Hull3d.vertices h = Oracle.vertices o && Hull3d.faces h = Oracle.faces o
  | Error (), Error () -> true
  | Ok _, Error () | Error (), Ok _ -> false

let shuffle st l =
  let tagged = List.map (fun x -> (QCheck.Gen.int_bound 1_000_000 st, x)) l in
  List.map snd (List.stable_sort (fun (a, _) (b, _) -> compare a b) tagged)

(* Lattice clouds with coordinates in [0, 2048]: uniform clouds, dense
   cubes and slabs (full of coplanar and collinear points) in row-major or
   shuffled order, and small boxes crowded with duplicates. *)
let gen_lattice_cloud st =
  let open QCheck.Gen in
  let pt lo hi = [| float_of_int (int_range lo hi st); float_of_int (int_range lo hi st);
                    float_of_int (int_range lo hi st) |] in
  let grid ex ey ez step =
    let o = Array.init 3 (fun _ -> int_range 0 (2048 - (step * 9)) st) in
    let acc = ref [] in
    for x = 0 to ex - 1 do
      for y = 0 to ey - 1 do
        for z = 0 to ez - 1 do
          acc := [| float_of_int (o.(0) + (step * x)); float_of_int (o.(1) + (step * y));
                    float_of_int (o.(2) + (step * z)) |] :: !acc
        done
      done
    done;
    let pts = List.rev !acc in
    if bool st then pts else shuffle st pts
  in
  match int_bound 4 st with
  | 0 -> List.init (int_range 4 120 st) (fun _ -> pt 0 2048)
  | 1 ->
    let k = int_range 2 8 st in
    grid k k k (if bool st then 1 else int_range 1 200 st)
  | 2 -> grid (int_range 2 9 st) (int_range 2 9 st) (int_range 1 2 st) (int_range 1 3 st)
  | 3 ->
    (* a slab plus a few points off it *)
    grid (int_range 2 8 st) (int_range 2 8 st) 1 1 @ List.init (int_range 0 3 st) (fun _ -> pt 0 12)
  | _ -> List.init (int_range 4 60 st) (fun _ -> pt 0 4)

let print_cloud = QCheck.Print.(list (array float))

let qcheck_hull3d_lattice_oracle =
  QCheck.Test.make ~name:"hull3d equals the oracle on lattice clouds" ~count:400
    (QCheck.make ~print:print_cloud gen_lattice_cloud)
    same_hull3d

(* A cube's corners, then points on one of its facets pushed off it by
   about the visibility threshold (1e-9 in distance): whether the build
   sees each of them, and which facet faces it may leave out of the
   visibility test, both turn on the last digits, so this catches a
   sealing margin that lets a face go untested while a point can see
   it. *)
let gen_tolerance_cloud st =
  let open QCheck.Gen in
  let s = float_of_int (int_range 1 2048 st) in
  let corners =
    List.concat_map
      (fun x -> List.concat_map (fun y -> List.map (fun z -> [| x; y; z |]) [ 0.0; s ]) [ 0.0; s ])
      [ 0.0; s ]
  in
  let axis = int_bound 2 st and side = if bool st then s else 0.0 in
  let out = if side = 0.0 then -1.0 else 1.0 in
  let scale = oneofl [ 4e-10; 1.2e-9; 1.4e-9; 2e-9; 1e-8; 1e-6 ] st in
  let near () =
    let push = out *. float_range (-0.2) 1.0 st *. scale in
    Array.init 3 (fun k -> if k = axis then side +. push else float_range 0.0 s st)
  in
  corners @ List.init (int_range 1 40 st) (fun _ -> near ())

let qcheck_hull3d_tolerance_oracle =
  QCheck.Test.make ~name:"hull3d equals the oracle at the visibility tolerance" ~count:400
    (QCheck.make ~print:print_cloud gen_tolerance_cloud)
    same_hull3d

(* A [Flat] hull's re-lifted float vertices merged with a [Poly3]'s. *)
let gen_float_cloud st =
  let open QCheck.Gen in
  let plane a u v s t = Array.init 3 (fun k -> a.(k) + (s * u.(k)) + (t * v.(k))) in
  let flat =
    let a = Array.init 3 (fun _ -> int_range 0 40 st) in
    let u = Array.init 3 (fun _ -> int_range (-3) 3 st)
    and v = Array.init 3 (fun _ -> int_range (-3) 3 st) in
    Hull.of_int_points
      (List.init (int_range 3 12 st) (fun _ ->
           plane a u v (int_range (-5) 5 st) (int_range (-5) 5 st)))
  in
  let poly =
    Hull.of_int_points
      (List.init (int_range 4 30 st) (fun _ -> Array.init 3 (fun _ -> int_range 0 40 st)))
  in
  if bool st then Hull.vertices flat @ Hull.vertices poly
  else Hull.vertices poly @ Hull.vertices flat

let qcheck_hull3d_float_oracle =
  QCheck.Test.make ~name:"hull3d equals the oracle on flat + polytope vertices" ~count:300
    (QCheck.make ~print:print_cloud gen_float_cloud)
    same_hull3d

(* Clouds of every affine dimension in 3D, merged left to right. *)
let gen_merge_chain st =
  let open QCheck.Gen in
  let cloud () =
    let a = Array.init 3 (fun _ -> int_range 0 60 st) in
    let dir () = Array.init 3 (fun _ -> int_range (-4) 4 st) in
    let span dirs n =
      List.init n (fun _ ->
          List.fold_left
            (fun p u ->
              let s = int_range (-5) 5 st in
              Array.mapi (fun k x -> x + (s * u.(k))) p)
            a dirs)
    in
    match int_bound 3 st with
    | 0 -> [ a ]
    | 1 -> span [ dir () ] (int_range 2 5 st)
    | 2 -> span [ dir (); dir () ] (int_range 3 10 st)
    | _ -> span [ dir (); dir (); dir () ] (int_range 4 25 st)
  in
  List.init (int_range 2 7 st) (fun _ -> cloud ())

let halfspaces_of_faces faces =
  List.map
    (fun (a, b, c) ->
      let normal = Vec.cross3 (Vec.sub b a) (Vec.sub c a) in
      (normal, Vec.dot normal a))
    faces

let qcheck_merge_chain_oracle =
  QCheck.Test.make ~name:"Hull.merge chains match the oracle hull" ~count:300
    (QCheck.make ~print:QCheck.Print.(list (list (array int))) gen_merge_chain)
    (fun clouds ->
      let hulls = List.map Hull.of_int_points clouds in
      let step acc h =
        let m = Hull.merge acc h in
        let input = Oracle.dedup (Hull.vertices acc @ Hull.vertices h) in
        let same =
          Hull.affine_dim m < 3
          ||
          let o = Oracle.of_points input in
          Hull.vertices m = Oracle.vertices o
          && List.map (fun h -> (h.Hull.coeffs, h.Hull.rhs)) (Hull.halfspaces m)
             = halfspaces_of_faces (Oracle.faces o)
        in
        if not same then QCheck.Test.fail_report "merge differs from the oracle";
        m
      in
      ignore (List.fold_left step (List.hd hulls) (List.tl hulls));
      true)

(* Clouds with repeated points, -0. next to 0. among them: [Hull.of_points]
   must drop the same repeats as the [float list]-keyed table did. *)
let qcheck_dedup_oracle =
  let coord = QCheck.Gen.oneofl [ -0.0; 0.0; 1.0; 2.0; 3.0; 0.5 ] in
  let gen = QCheck.Gen.(list_size (int_range 1 40) (array_size (return 3) coord)) in
  QCheck.Test.make ~name:"Hull.of_points drops repeats like the oracle" ~count:400
    (QCheck.make ~print:print_cloud gen)
    (fun pts ->
      let h = Hull.of_points pts and input = Oracle.dedup pts in
      if Hull.affine_dim h = 3 then
        let o = Oracle.of_points input in
        Hull.vertices h = Oracle.vertices o
        && List.map (fun h -> (h.Hull.coeffs, h.Hull.rhs)) (Hull.halfspaces h)
           = halfspaces_of_faces (Oracle.faces o)
      else Hull.affine_dim h > 0 || Hull.vertices h = [ List.hd input ])

(* CLOSE as it was: centroids folded from fresh vertex lists, then the
   all-pairs boundary distance. *)
let old_close (cfg : Kondo_core.Config.t) a b =
  let open Kondo_core.Config in
  let center_ok () =
    Vec.dist (Vec.centroid (Hull.vertices a)) (Vec.centroid (Hull.vertices b))
    <= cfg.center_d_thresh
  in
  let boundary_ok () =
    Oracle.boundary_distance (Hull.vertices a) (Hull.vertices b) <= cfg.bound_d_thresh
  in
  match cfg.merge_policy with
  | Either -> center_ok () || boundary_ok ()
  | Both -> center_ok () && boundary_ok ()
  | Center_only -> center_ok ()
  | Boundary_only -> boundary_ok ()

(* Two hulls of one ambient dimension, each a point, segment, polygon,
   planar polygon or polytope, plus thresholds that are random or sit
   exactly on the bbox gap, the boundary distance or the center distance. *)
let gen_close_case st =
  let open QCheck.Gen in
  let d = if bool st then 2 else 3 in
  let hull () =
    let a = Array.init d (fun _ -> int_range 0 80 st) in
    let dir () = Array.init d (fun _ -> int_range (-5) 5 st) in
    let span dirs n =
      List.init n (fun _ ->
          List.fold_left
            (fun p u ->
              let s = int_range (-4) 4 st in
              Array.mapi (fun k x -> x + (s * u.(k))) p)
            a dirs)
    in
    Hull.of_int_points
      (match int_bound 3 st with
      | 0 -> [ a ]
      | 1 -> span [ dir () ] (int_range 2 5 st)
      | 2 -> span [ dir (); dir () ] (int_range 3 10 st)
      | _ -> span (List.init d (fun _ -> dir ())) (int_range 4 20 st))
  in
  let a = hull () and b = hull () in
  let pick () =
    match int_bound 5 st with
    | 0 -> Bbox.min_dist (Hull.bbox a) (Hull.bbox b)
    | 1 -> Float.pred (Bbox.min_dist (Hull.bbox a) (Hull.bbox b))
    | 2 -> Oracle.boundary_distance (Hull.vertices a) (Hull.vertices b)
    | 3 -> Hull.center_distance a b
    | _ -> float_of_int (int_range 0 60 st)
  in
  let merge_policy =
    oneofl Kondo_core.Config.[ Either; Both; Center_only; Boundary_only ] st
  in
  let center_d_thresh = pick () and bound_d_thresh = pick () in
  (a, b, { Kondo_core.Config.default with center_d_thresh; bound_d_thresh; merge_policy })

let qcheck_close_oracle =
  let print (a, b, (c : Kondo_core.Config.t)) =
    Format.asprintf "%a %a center %h bound %h" Hull.pp a Hull.pp b c.center_d_thresh
      c.bound_d_thresh
  in
  QCheck.Test.make ~name:"CLOSE equals the all-pairs decision" ~count:1500
    (QCheck.make ~print gen_close_case)
    (fun (a, b, config) -> Kondo_core.Carver.close ~config a b = old_close config a b)

(* The incremental build keeps coplanar boundary points as vertices: a
   faster hull (e.g. Quickhull, 8 vertices here) must change this on
   purpose, because centroids and so CLOSE and the output bytes move with
   it. *)
let test_lattice_cube_keeps_boundary_points () =
  let pts = ref [] in
  for x = 7 downto 0 do
    for y = 7 downto 0 do
      for z = 7 downto 0 do
        pts := [| x; y; z |] :: !pts
      done
    done
  done;
  let h = Hull.of_int_points !pts in
  Alcotest.(check int) "polytope" 3 (Hull.affine_dim h);
  Alcotest.(check int) "vertices of an 8^3 lattice cube" 130 (List.length (Hull.vertices h))

let suite =
  ( "geometry",
    [ Alcotest.test_case "vec ops" `Quick test_vec_ops;
      Alcotest.test_case "vec cross2" `Quick test_vec_cross2;
      Alcotest.test_case "vec cross3" `Quick test_vec_cross3;
      Alcotest.test_case "vec centroid" `Quick test_vec_centroid;
      Alcotest.test_case "bbox of points" `Quick test_bbox_of_points;
      Alcotest.test_case "bbox contains" `Quick test_bbox_contains;
      Alcotest.test_case "bbox lattice" `Quick test_bbox_lattice;
      Alcotest.test_case "bbox lattice fractional bounds" `Quick test_bbox_lattice_fractional;
      Alcotest.test_case "bbox min dist" `Quick test_bbox_min_dist;
      Alcotest.test_case "bbox volume and union" `Quick test_bbox_volume_union;
      Alcotest.test_case "hull2d square" `Quick test_hull2d_square;
      Alcotest.test_case "hull2d ccw orientation" `Quick test_hull2d_ccw;
      Alcotest.test_case "hull2d collinear raises" `Quick test_hull2d_collinear_raises;
      Alcotest.test_case "hull2d too small raises" `Quick test_hull2d_too_small_raises;
      Alcotest.test_case "hull2d duplicates" `Quick test_hull2d_duplicates;
      Alcotest.test_case "hull2d drops edge-interior vertices" `Quick
        test_hull2d_collinear_interior_dropped;
      Alcotest.test_case "hull3d cube" `Quick test_hull3d_cube;
      Alcotest.test_case "hull3d tetra" `Quick test_hull3d_tetra;
      Alcotest.test_case "hull3d coplanar raises" `Quick test_hull3d_coplanar_raises;
      Alcotest.test_case "hull3d outward normals" `Quick test_hull3d_outward_normals;
      Alcotest.test_case "hull point" `Quick test_hull_point;
      Alcotest.test_case "hull segment" `Quick test_hull_segment;
      Alcotest.test_case "hull 1d" `Quick test_hull_1d;
      Alcotest.test_case "hull planar in 3d" `Quick test_hull_flat3;
      Alcotest.test_case "hull tilted plane in 3d" `Quick test_hull_tilted_flat3;
      Alcotest.test_case "hull centroid and distances" `Quick test_hull_centroid_and_distances;
      Alcotest.test_case "hull merge covers both" `Quick test_hull_merge_covers_both;
      Alcotest.test_case "hull merge point into polygon" `Quick test_hull_merge_point_into_polygon;
      QCheck_alcotest.to_alcotest qcheck_hull2_contains_inputs;
      QCheck_alcotest.to_alcotest qcheck_hull3_contains_inputs;
      QCheck_alcotest.to_alcotest qcheck_merge_superset;
      QCheck_alcotest.to_alcotest qcheck_lattice_within_bbox;
      QCheck_alcotest.to_alcotest qcheck_hull_measure_le_bbox;
      QCheck_alcotest.to_alcotest qcheck_rows_match_oracle;
      Alcotest.test_case "rows: merged flat with float vertices" `Quick
        test_rows_merged_flat_float_vertices;
      Alcotest.test_case "rows: grazing edge" `Quick test_rows_grazing_edge;
      QCheck_alcotest.to_alcotest qcheck_hull3d_lattice_oracle;
      QCheck_alcotest.to_alcotest qcheck_hull3d_float_oracle;
      QCheck_alcotest.to_alcotest qcheck_hull3d_tolerance_oracle;
      QCheck_alcotest.to_alcotest qcheck_merge_chain_oracle;
      QCheck_alcotest.to_alcotest qcheck_dedup_oracle;
      QCheck_alcotest.to_alcotest qcheck_close_oracle;
      Alcotest.test_case "hull: 8^3 lattice cube keeps 130 vertices" `Quick
        test_lattice_cube_keeps_boundary_points ] )
