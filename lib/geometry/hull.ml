type flat = {
  origin : float array;  (* a point on the carrier plane *)
  basis_u : float array; (* orthonormal in-plane basis *)
  basis_v : float array;
  plane_normal : float array; (* unit normal *)
  poly : Hull2d.t;             (* hull in (u, v) coordinates *)
  lifted : float array list;   (* polygon vertices back in ambient space *)
}

type shape =
  | Point of float array
  | Segment of float array * float array
  | Poly2 of Hull2d.t
  | Flat of flat
  | Poly3 of Hull3d.t

type t = { dim : int; shape : shape }

let geom_eps = 1e-7

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

let normalize v =
  let n = Vec.norm v in
  if n <= geom_eps then invalid_arg "Hull: cannot normalize null vector";
  Vec.scale (1.0 /. n) v

(* Distance from [q] to the line through [a] with unit direction [u]. *)
let line_dist a u q =
  let w = Vec.sub q a in
  let t = Vec.dot w u in
  Vec.dist w (Vec.scale t u)

let farthest_from p points =
  List.fold_left
    (fun (best, best_d) q ->
      let d = Vec.dist_sq p q in
      if d > best_d then (q, d) else (best, best_d))
    (p, 0.0) points

(* Extreme pair along unit direction [u] starting at [a]. *)
let segment_extremes a u points =
  let proj q = Vec.dot (Vec.sub q a) u in
  let lo, hi =
    List.fold_left
      (fun (lo, hi) q ->
        let t = proj q in
        let lo = if t < proj lo then q else lo in
        let hi = if t > proj hi then q else hi in
        (lo, hi))
      (a, a) points
  in
  (lo, hi)

let plane_basis u normal =
  let v = normalize (Vec.cross3 normal u) in
  (u, v)

let project2 origin bu bv q =
  let w = Vec.sub q origin in
  [| Vec.dot w bu; Vec.dot w bv |]

let lift origin bu bv p2 =
  Vec.add origin (Vec.add (Vec.scale p2.(0) bu) (Vec.scale p2.(1) bv))

let of_points points =
  let points = dedup points in
  (match points with [] -> invalid_arg "Hull.of_points: empty" | _ -> ());
  let p0 = List.hd points in
  let dim = Array.length p0 in
  assert (dim >= 1 && dim <= 3);
  let shape =
    let p1, d01 = farthest_from p0 points in
    if d01 <= geom_eps then Point p0
    else begin
      let u = normalize (Vec.sub p1 p0) in
      let off_line, _ =
        List.fold_left
          (fun (best, best_d) q ->
            let d = line_dist p0 u q in
            if d > best_d then (q, d) else (best, best_d))
          (p0, geom_eps) points
      in
      let collinear = Vec.equal ~eps:geom_eps off_line p0 in
      if collinear then begin
        let a, b = segment_extremes p0 u points in
        Segment (a, b)
      end
      else if dim = 1 then assert false
      else if dim = 2 then Poly2 (Hull2d.of_points points)
      else begin
        (* 3D: coplanar sets drop to an embedded polygon. *)
        let normal = normalize (Vec.cross3 (Vec.sub p1 p0) (Vec.sub off_line p0)) in
        let coplanar =
          List.for_all (fun q -> Float.abs (Vec.dot normal (Vec.sub q p0)) <= geom_eps *. 10.0) points
        in
        if coplanar then begin
          let bu, bv = plane_basis u normal in
          let projected = List.map (project2 p0 bu bv) points in
          let poly = Hull2d.of_points projected in
          let lifted = List.map (lift p0 bu bv) (Hull2d.vertices poly) in
          Flat { origin = p0; basis_u = bu; basis_v = bv; plane_normal = normal; poly; lifted }
        end
        else Poly3 (Hull3d.of_points points)
      end
    end
  in
  { dim; shape }

let of_int_points pts = of_points (List.map Vec.of_int_point pts)

let dim t = t.dim

let affine_dim t =
  match t.shape with
  | Point _ -> 0
  | Segment _ -> 1
  | Poly2 _ | Flat _ -> 2
  | Poly3 _ -> 3

let vertices t =
  match t.shape with
  | Point p -> [ p ]
  | Segment (a, b) -> [ a; b ]
  | Poly2 h -> Hull2d.vertices h
  | Flat f -> f.lifted
  | Poly3 h -> Hull3d.vertices h

let segment_contains eps a b p =
  let ab = Vec.sub b a in
  let len2 = Vec.dot ab ab in
  let t = if len2 <= 0.0 then 0.0 else Float.max 0.0 (Float.min 1.0 (Vec.dot (Vec.sub p a) ab /. len2)) in
  Vec.dist p (Vec.add a (Vec.scale t ab)) <= eps

let contains ?(eps = geom_eps) t p =
  match t.shape with
  | Point q -> Vec.dist q p <= eps
  | Segment (a, b) -> segment_contains eps a b p
  | Poly2 h -> Hull2d.contains ~eps h p
  | Flat f ->
    Float.abs (Vec.dot f.plane_normal (Vec.sub p f.origin)) <= eps *. 10.0
    && Hull2d.contains ~eps f.poly (project2 f.origin f.basis_u f.basis_v p)
  | Poly3 h -> Hull3d.contains ~eps h p

let contains_int ?eps t p = contains ?eps t (Vec.of_int_point p)

let centroid t = Vec.centroid (vertices t)

let bbox t = Bbox.of_points (vertices t)

let center_distance a b = Vec.dist (centroid a) (centroid b)

let boundary_distance a b =
  let va = vertices a and vb = vertices b in
  List.fold_left
    (fun acc p -> List.fold_left (fun acc q -> Float.min acc (Vec.dist p q)) acc vb)
    infinity va

let merge a b = of_points (vertices a @ vertices b)

let measure t =
  match t.shape with
  | Point _ -> 0.0
  | Segment (a, b) -> Vec.dist a b
  | Poly2 h -> Hull2d.area h
  | Flat f -> Hull2d.area f.poly
  | Poly3 h -> Hull3d.volume h

type halfspace = { coeffs : float array; equality : bool; rhs : float }

let le coeffs rhs = { coeffs; equality = false; rhs }
let eq coeffs rhs = { coeffs; equality = true; rhs }

let axis d k v =
  let a = Array.make d 0.0 in
  a.(k) <- v;
  a

(* Extent bounds of points projected on direction [u] anchored at [a]. *)
let direction_bounds a u points =
  let lo, hi =
    List.fold_left
      (fun (lo, hi) q ->
        let t = Vec.dot (Vec.sub q a) u in
        (Float.min lo t, Float.max hi t))
      (0.0, 0.0) points
  in
  [ le (Vec.scale (-1.0) u) (-.lo -. Vec.dot u a); le u (hi +. Vec.dot u a) ]

(* Line equalities: for every coordinate pair (i, j), points on the line
   through [a] with direction [d] satisfy d_j*(x_i - a_i) = d_i*(x_j - a_j).
   Pairs where both components vanish give trivial constraints and are
   dropped. *)
let line_equalities a d =
  let n = Array.length a in
  let out = ref [] in
  for i = 0 to n - 2 do
    for j = i + 1 to n - 1 do
      if Float.abs d.(i) > geom_eps || Float.abs d.(j) > geom_eps then begin
        let coeffs = Array.make n 0.0 in
        coeffs.(i) <- d.(j);
        coeffs.(j) <- -.d.(i);
        out := eq coeffs ((d.(j) *. a.(i)) -. (d.(i) *. a.(j))) :: !out
      end
    done
  done;
  !out

let halfspaces t =
  match t.shape with
  | Point p -> List.init t.dim (fun k -> eq (axis t.dim k 1.0) p.(k))
  | Segment (a, b) ->
    let d = Vec.sub b a in
    let u = normalize d in
    line_equalities a d @ direction_bounds a u [ a; b ]
  | Poly2 h ->
    let v = Array.of_list (Hull2d.vertices h) in
    let n = Array.length v in
    List.init n (fun i ->
        let a = v.(i) and b = v.((i + 1) mod n) in
        (* inside (ccw) means cross2 a b x >= 0, i.e.
           (b1-a1)*x0 + (a0-b0)*x1 <= a0*b1 - a1*b0 *)
        let coeffs = [| b.(1) -. a.(1); a.(0) -. b.(0) |] in
        le coeffs ((a.(0) *. b.(1)) -. (a.(1) *. b.(0))))
  | Flat f ->
    let plane = eq f.plane_normal (Vec.dot f.plane_normal f.origin) in
    let v = Array.of_list (Hull2d.vertices f.poly) in
    let n = Array.length v in
    let lifted_edges =
      List.init n (fun i ->
          let a = v.(i) and b = v.((i + 1) mod n) in
          let alpha = b.(1) -. a.(1) and beta = a.(0) -. b.(0) in
          let c = (a.(0) *. b.(1)) -. (a.(1) *. b.(0)) in
          (* u-coordinate of x is bu·(x - origin), v-coordinate bv·(x - origin) *)
          let coeffs = Vec.add (Vec.scale alpha f.basis_u) (Vec.scale beta f.basis_v) in
          le coeffs (c +. Vec.dot coeffs f.origin))
    in
    plane :: lifted_edges
  | Poly3 h ->
    List.map
      (fun (a, b, c) ->
        let normal = Vec.cross3 (Vec.sub b a) (Vec.sub c a) in
        le normal (Vec.dot normal a))
      (Hull3d.faces h)

let satisfies_halfspaces ?(eps = geom_eps) constraints p =
  List.for_all
    (fun h ->
      let v = Vec.dot h.coeffs p -. h.rhs in
      let tol = eps *. (1.0 +. Vec.norm h.coeffs) in
      if h.equality then Float.abs v <= tol *. 10.0 else v <= tol)
    constraints

(* Lattice membership is [contains ~eps:lattice_eps]. *)
let lattice_eps = 1e-6

(* Row candidates relax every halfspace by [row_slack * max 1 |c|_1].
   [contains ~eps:lattice_eps] accepts a violation of at most
   [10 * lattice_eps * max 1 |c|_1] on every hull kind (the factor 10 is
   the plane test of [Flat]), so a relaxed row covers all of its member
   lattice points, with two orders of magnitude to spare for rounding. *)
let row_slack = 1e-3

type scan = { rows : int; contains_calls : int }

let iter_rows ?dims t f =
  let d = t.dim and last = t.dim - 1 in
  let lo, hi = Bbox.lattice_bounds (bbox t) in
  (match dims with
  | None -> ()
  | Some dims ->
    if Array.length dims <> d then invalid_arg "Hull.iter_rows: rank mismatch";
    for k = 0 to last do
      lo.(k) <- max lo.(k) 0;
      hi.(k) <- min hi.(k) (dims.(k) - 1)
    done);
  let hs = Array.of_list (halfspaces t) in
  let slack =
    Array.map
      (fun h -> row_slack *. Float.max 1.0 (Array.fold_left (fun a c -> a +. Float.abs c) 0.0 h.coeffs))
      hs
  in
  let idx = Array.copy lo and p = Array.map float_of_int lo in
  let rows = ref 0 and calls = ref 0 in
  let mem v =
    incr calls;
    p.(last) <- float_of_int v;
    contains ~eps:lattice_eps t p
  in
  (* Each hull kind is convex, so a row's members form one interval inside
     the relaxed candidate; [contains] moves each end onto it exactly. *)
  let scan_row () =
    incr rows;
    let tlo = ref (float_of_int lo.(last)) and thi = ref (float_of_int hi.(last)) in
    for i = 0 to Array.length hs - 1 do
      let h = hs.(i) and r = slack.(i) in
      let s = ref h.rhs in
      for k = 0 to last - 1 do
        s := !s -. (h.coeffs.(k) *. p.(k))
      done;
      let a = h.coeffs.(last) in
      (* a*t <= s + r, and for an equality also a*t >= s - r *)
      if a = 0.0 then begin
        if !s +. r < 0.0 || (h.equality && !s -. r > 0.0) then tlo := infinity
      end
      else begin
        let up = (!s +. r) /. a in
        let down = if h.equality then (!s -. r) /. a else if a > 0.0 then neg_infinity else infinity in
        let b_lo = if a > 0.0 then down else up and b_hi = if a > 0.0 then up else down in
        if b_lo > !tlo then tlo := b_lo;
        if b_hi < !thi then thi := b_hi
      end
    done;
    if !tlo <= !thi then begin
      let l = ref (int_of_float (Float.ceil !tlo)) and h = ref (int_of_float (Float.floor !thi)) in
      while !l <= !h && not (mem !l) do
        incr l
      done;
      while !h > !l && not (mem !h) do
        decr h
      done;
      if !l <= !h then begin
        idx.(last) <- !l;
        f idx !l !h
      end
    end
  in
  let rec walk axis =
    if axis = last then scan_row ()
    else
      for v = lo.(axis) to hi.(axis) do
        idx.(axis) <- v;
        p.(axis) <- float_of_int v;
        walk (axis + 1)
      done
  in
  if Array.for_all2 ( <= ) lo hi then walk 0;
  { rows = !rows; contains_calls = !calls }

let iter_lattice t f =
  let last = t.dim - 1 in
  ignore
    (iter_rows t (fun idx l h ->
         for v = l to h do
           idx.(last) <- v;
           f idx
         done))

let lattice_count t =
  let n = ref 0 in
  ignore (iter_rows t (fun _ l h -> n := !n + (h - l + 1)));
  !n

let pp fmt t =
  let kind =
    match t.shape with
    | Point _ -> "point"
    | Segment _ -> "segment"
    | Poly2 _ -> "polygon"
    | Flat _ -> "planar-polygon"
    | Poly3 _ -> "polytope"
  in
  Format.fprintf fmt "@[<h>hull(%s, %d vertices, center %s)@]" kind
    (List.length (vertices t))
    (Vec.to_string (centroid t))
