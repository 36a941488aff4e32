open Kondo_dataarray
open Kondo_geometry

type result = { hulls : Hull.t list; initial_cells : int; merge_rounds : int; merges : int }

module Carve_obs = struct
  open Kondo_obs

  let runs =
    Registry.counter ~help:"Carver invocations" Registry.default "kondo_carve_runs_total"

  let cells =
    Registry.counter ~help:"Grid cells hulled (SPLIT output)" Registry.default
      "kondo_carve_cells_total"

  let merges =
    Registry.counter ~help:"Hull merges performed by the bottom-up sweeps"
      Registry.default "kondo_carve_merges_total"

  let hulls =
    Registry.counter ~help:"Hulls remaining after the merge fixpoint" Registry.default
      "kondo_carve_hulls_total"

  let vertices =
    Registry.counter ~help:"Vertices across the final merged hulls" Registry.default
      "kondo_carve_vertices_total"

  let raster_rows =
    Registry.counter ~help:"Lattice rows scanned by rasterize" Registry.default
      "kondo_rasterize_rows_total"

  let raster_contains =
    Registry.counter ~help:"Hull containment tests made by rasterize" Registry.default
      "kondo_rasterize_contains_total"

  let points_section = Obs.section ~cat:"carve" "carve.points"
  let cells_section = Obs.section ~cat:"carve" "carve.cells"
  let merge_section = Obs.section ~cat:"carve" "carve.merge"
end

let close ~config h1 h2 =
  let cfg : Config.t = config in
  let center_ok () = Hull.center_distance h1 h2 <= cfg.Config.center_d_thresh in
  let boundary_ok () = Hull.boundary_within h1 h2 cfg.Config.bound_d_thresh in
  match cfg.Config.merge_policy with
  | Config.Either -> center_ok () || boundary_ok ()
  | Config.Both -> center_ok () && boundary_ok ()
  | Config.Center_only -> center_ok ()
  | Config.Boundary_only -> boundary_ok ()

(* SPLIT: partition points into grid cells of edge [cell].  Oversized
   cells are stride-sampled but always keep their per-axis extreme
   points, which are the only hull-relevant ones. *)
let split_cells ~cell ~cap points =
  let table : (int list, int array list ref * int ref) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun idx ->
      let key = Array.to_list (Array.map (fun x -> x / cell) idx) in
      match Hashtbl.find_opt table key with
      | Some (pts, n) ->
        incr n;
        pts := idx :: !pts
      | None -> Hashtbl.add table key (ref [ idx ], ref 1))
    points;
  Hashtbl.fold
    (fun _ (pts, n) acc ->
      let pts = !pts in
      let selected =
        if !n <= cap then pts
        else begin
          let stride = (!n + cap - 1) / cap in
          let sampled = List.filteri (fun i _ -> i mod stride = 0) pts in
          (* Support points along every direction in {-1,0,1}^d \ {0}:
             axis extremes plus diagonal corners, so the sampled hull
             keeps the cell's true extreme vertices. *)
          let d = Array.length (List.hd pts) in
          let dirs = ref [] in
          let dir = Array.make d 0 in
          let rec gen k =
            if k = d then begin
              if Array.exists (fun x -> x <> 0) dir then dirs := Array.copy dir :: !dirs
            end
            else
              List.iter
                (fun s ->
                  dir.(k) <- s;
                  gen (k + 1))
                [ -1; 0; 1 ]
          in
          gen 0;
          let score dir q =
            let s = ref 0 in
            Array.iteri (fun k w -> s := !s + (w * q.(k))) dir;
            !s
          in
          let supports =
            List.map
              (fun dir ->
                List.fold_left
                  (fun best q -> if score dir q > score dir best then q else best)
                  (List.hd pts) pts)
              !dirs
          in
          supports @ sampled
        end
      in
      selected :: acc)
    table []

(* Agglomerative sweeps: in each sweep, every hull absorbs all hulls
   still close to it; sweeps repeat until one makes no merge, i.e. until
   no two hulls are CLOSE — the fixpoint of the paper's merge loop,
   reached without restarting the O(n^2) scan per merge. *)
let merge_all ~config hulls =
  let arr = ref (Array.of_list hulls) in
  let rounds = ref 0 and merges = ref 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    incr rounds;
    let n = Array.length !arr in
    let used = Array.make n false in
    let out = ref [] in
    for i = 0 to n - 1 do
      if not used.(i) then begin
        let acc = ref !arr.(i) in
        for j = i + 1 to n - 1 do
          if (not used.(j)) && close ~config !acc !arr.(j) then begin
            acc := Hull.merge !acc !arr.(j);
            used.(j) <- true;
            incr merges;
            changed := true
          end
        done;
        out := !acc :: !out
      end
    done;
    arr := Array.of_list (List.rev !out)
  done;
  (Array.to_list !arr, !rounds, !merges)

let carve_points ~config ~dims points =
  match points with
  | [] -> { hulls = []; initial_cells = 0; merge_rounds = 0; merges = 0 }
  | _ ->
    let cfg : Config.t = config in
    (* Merge thresholds track the index-space extent (Config.autoscale). *)
    let cfg =
      let extent = float_of_int (Array.fold_left max 1 dims) in
      let s = Config.scale_for cfg extent in
      { cfg with
        Config.center_d_thresh = cfg.Config.center_d_thresh *. s;
        bound_d_thresh = cfg.Config.bound_d_thresh *. s }
    in
    let config = cfg in
    let cell = Config.auto_cell_size cfg dims in
    let hulls =
      Kondo_obs.Obs.span Carve_obs.cells_section
        ~result_args:(fun hulls -> [ ("cells", string_of_int (List.length hulls)) ])
        (fun () ->
          let cells = split_cells ~cell ~cap:cfg.Config.max_cell_points points in
          (* Per-cell hulls are independent; the pool preserves cell order, so
             the (order-sensitive) bottom-up merge below sees the same input
             as a sequential run and stays bit-identical for any jobs count. *)
          let pool = Kondo_parallel.Pool.create ~jobs:cfg.Config.jobs in
          Kondo_parallel.Pool.map_list pool Hull.of_int_points cells)
    in
    let initial_cells = List.length hulls in
    let merged, merge_rounds, merges =
      Kondo_obs.Obs.span Carve_obs.merge_section
        ~args:[ ("cells", string_of_int initial_cells) ]
        ~result_args:(fun (merged, sweeps, merges) ->
          [ ("hulls", string_of_int (List.length merged));
            ("sweeps", string_of_int sweeps);
            ("merges", string_of_int merges) ])
        (fun () -> merge_all ~config hulls)
    in
    let final_vertices =
      List.fold_left (fun acc h -> acc + List.length (Hull.vertices h)) 0 merged
    in
    let open Kondo_obs in
    Registry.inc Carve_obs.runs;
    Registry.inc ~by:initial_cells Carve_obs.cells;
    Registry.inc ~by:merges Carve_obs.merges;
    Registry.inc ~by:(List.length merged) Carve_obs.hulls;
    Registry.inc ~by:final_vertices Carve_obs.vertices;
    { hulls = merged; initial_cells; merge_rounds; merges }

let carve ~config is =
  let points =
    Kondo_obs.Obs.span Carve_obs.points_section
      ~args:[ ("points", string_of_int (Index_set.cardinal is)) ]
      (fun () ->
        let points = ref [] in
        Index_set.iter is (fun idx -> points := Array.copy idx :: !points);
        !points)
  in
  carve_points ~config ~dims:(Shape.dims (Index_set.shape is)) points

let single_hull is =
  if Index_set.is_empty is then None
  else begin
    let points = ref [] in
    Index_set.iter is (fun idx -> points := Array.copy idx :: !points);
    Some (Hull.of_int_points !points)
  end

let rasterize shape hulls =
  let out = Index_set.create shape in
  let dims = Shape.dims shape in
  let rows = ref 0 and calls = ref 0 in
  List.iter
    (fun h ->
      let s = Hull.iter_rows ~dims h (fun idx lo hi -> Index_set.add_run out idx (hi - lo + 1)) in
      rows := !rows + s.Hull.rows;
      calls := !calls + s.Hull.contains_calls)
    hulls;
  let open Kondo_obs in
  Registry.inc ~by:!rows Carve_obs.raster_rows;
  Registry.inc ~by:!calls Carve_obs.raster_contains;
  out
