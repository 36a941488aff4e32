(* The incremental 3D hull as it stood before faces moved into flat
   arrays: every insertion partitions a face list and rebuilds an
   [EdgeMap] horizon.  [Hull3d.of_points] must return the same vertices
   and the same faces, in the same order; test_geometry checks it against
   this copy.  [dedup], [centroid] and [boundary_distance] are the
   matching pre-cache [Hull] helpers behind the CLOSE oracle. *)

open Kondo_geometry

type face = { a : int; b : int; c : int; normal : float array; offset : float }
(* Outward-oriented triangle over point indices: x is outside when
   dot normal x > offset. *)

type t = { points : float array array; face_list : face list; vertex_ids : int list }

exception Degenerate

let eps = 1e-9

let make_face points a b c =
  let pa = points.(a) and pb = points.(b) and pc = points.(c) in
  let normal = Vec.cross3 (Vec.sub pb pa) (Vec.sub pc pa) in
  { a; b; c; normal; offset = Vec.dot normal pa }

let orient_away points f interior =
  (* Flip the face if the interior reference point is on its positive side. *)
  if Vec.dot f.normal interior > f.offset +. eps then make_face points f.b f.a f.c else f

let signed_dist f p = Vec.dot f.normal p -. f.offset

let face_tolerance f = eps *. (1.0 +. Vec.norm f.normal)

(* Pick four affinely independent seed points, favouring spread. *)
let initial_tetrahedron points =
  let n = Array.length points in
  if n < 4 then raise Degenerate;
  let p0 = 0 in
  let far_from i j_excl =
    let best = ref (-1) and best_d = ref 0.0 in
    for j = 0 to n - 1 do
      if not (List.mem j j_excl) then begin
        let d = Vec.dist_sq points.(i) points.(j) in
        if d > !best_d then begin
          best := j;
          best_d := d
        end
      end
    done;
    if !best_d <= eps then raise Degenerate;
    !best
  in
  let p1 = far_from p0 [ p0 ] in
  (* Farthest from the line p0-p1. *)
  let dir = Vec.sub points.(p1) points.(p0) in
  let line_dist q =
    let v = Vec.sub q points.(p0) in
    Vec.norm (Vec.cross3 dir v)
  in
  let p2 = ref (-1) and best = ref eps in
  for j = 0 to n - 1 do
    let d = line_dist points.(j) in
    if d > !best then begin
      p2 := j;
      best := d
    end
  done;
  if !p2 < 0 then raise Degenerate;
  let p2 = !p2 in
  (* Farthest from the plane p0-p1-p2. *)
  let normal = Vec.cross3 dir (Vec.sub points.(p2) points.(p0)) in
  let nn = Vec.norm normal in
  let p3 = ref (-1) and best = ref (eps *. (1.0 +. nn)) in
  for j = 0 to n - 1 do
    let d = Float.abs (Vec.dot normal (Vec.sub points.(j) points.(p0))) in
    if d > !best then begin
      p3 := j;
      best := d
    end
  done;
  if !p3 < 0 then raise Degenerate;
  (p0, p1, p2, !p3)

module Edge = struct
  type t = int * int

  let undirected (a, b) = if a < b then (a, b) else (b, a)

  let compare x y = compare (undirected x) (undirected y)
end

module EdgeMap = Map.Make (Edge)

let of_points input =
  List.iter (fun p -> assert (Array.length p = 3)) input;
  let points = Array.of_list input in
  let n = Array.length points in
  let i0, i1, i2, i3 = initial_tetrahedron points in
  let interior =
    Vec.centroid [ points.(i0); points.(i1); points.(i2); points.(i3) ]
  in
  let faces =
    ref
      (List.map
         (fun (a, b, c) -> orient_away points (make_face points a b c) interior)
         [ (i0, i1, i2); (i0, i1, i3); (i0, i2, i3); (i1, i2, i3) ])
  in
  for p = 0 to n - 1 do
    if p <> i0 && p <> i1 && p <> i2 && p <> i3 then begin
      let pt = points.(p) in
      let visible, hidden =
        List.partition (fun f -> signed_dist f pt > face_tolerance f) !faces
      in
      if visible <> [] then begin
        (* Horizon edges: appear in exactly one visible face. *)
        let count =
          List.fold_left
            (fun m f ->
              let bump e m =
                EdgeMap.update e (function None -> Some (1, e) | Some (k, e0) -> Some (k + 1, e0)) m
              in
              bump (f.a, f.b) (bump (f.b, f.c) (bump (f.c, f.a) m)))
            EdgeMap.empty visible
        in
        let horizon =
          EdgeMap.fold (fun _ (k, e) acc -> if k = 1 then e :: acc else acc) count []
        in
        let fresh =
          List.map (fun (a, b) -> orient_away points (make_face points a b p) interior) horizon
        in
        faces := List.rev_append fresh hidden
      end
    end
  done;
  let vertex_ids =
    List.sort_uniq compare (List.concat_map (fun f -> [ f.a; f.b; f.c ]) !faces)
  in
  { points; face_list = !faces; vertex_ids }

let vertices t = List.map (fun i -> t.points.(i)) t.vertex_ids

let faces t = List.map (fun f -> (t.points.(f.a), t.points.(f.b), t.points.(f.c))) t.face_list

let contains ?(eps = 1e-7) t p =
  List.for_all (fun f -> signed_dist f p <= eps *. (1.0 +. Vec.norm f.normal)) t.face_list

let centroid t = Vec.centroid (vertices t)

let volume t =
  let c = centroid t in
  List.fold_left
    (fun acc f ->
      let pa = Vec.sub t.points.(f.a) c
      and pb = Vec.sub t.points.(f.b) c
      and pc = Vec.sub t.points.(f.c) c in
      acc +. Float.abs (Vec.dot pa (Vec.cross3 pb pc)) /. 6.0)
    0.0 t.face_list

(* [Hull.dedup] keyed on [float list]. *)
let dedup points =
  let tbl = Hashtbl.create 64 in
  List.filter
    (fun p ->
      let key = Array.to_list p in
      if Hashtbl.mem tbl key then false
      else begin
        Hashtbl.add tbl key ();
        true
      end)
    points

(* [Hull.boundary_distance] over fresh vertex lists, all pairs. *)
let boundary_distance va vb =
  List.fold_left
    (fun acc p -> List.fold_left (fun acc q -> Float.min acc (Vec.dist p q)) acc vb)
    infinity va
