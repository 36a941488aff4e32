(* Faces in list order: face [f] is the outward-oriented triangle
   [corner.(3f)], [corner.(3f+1)], [corner.(3f+2)] over point indices, with
   [normal.x; normal.y; normal.z; offset; |normal|] at [geo.(5f) ..]; x is
   outside when dot normal x > offset. *)
type t = {
  points : float array array;
  nfaces : int;
  geo : float array;
  corner : int array;
  vertex_ids : int list;
}

exception Degenerate

let eps = 1e-9

(* Pick four affinely independent seed points, favouring spread: the
   [Vec.dist_sq], [Vec.cross3], [Vec.norm] and [Vec.dot] expressions over
   the coordinate arrays. *)
let initial_tetrahedron xs ys zs =
  let n = Array.length xs in
  if n < 4 then raise Degenerate;
  let p0 = 0 in
  let x0 = xs.(p0) and y0 = ys.(p0) and z0 = zs.(p0) in
  let p1 = ref (-1) and best_d = ref 0.0 in
  for j = 0 to n - 1 do
    if j <> p0 then begin
      let dx = x0 -. xs.(j) and dy = y0 -. ys.(j) and dz = z0 -. zs.(j) in
      let d = (dx *. dx) +. (dy *. dy) +. (dz *. dz) in
      if d > !best_d then begin
        p1 := j;
        best_d := d
      end
    end
  done;
  if !best_d <= eps then raise Degenerate;
  let p1 = !p1 in
  (* Farthest from the line p0-p1. *)
  let ux = xs.(p1) -. x0 and uy = ys.(p1) -. y0 and uz = zs.(p1) -. z0 in
  let p2 = ref (-1) and best = ref eps in
  for j = 0 to n - 1 do
    let vx = xs.(j) -. x0 and vy = ys.(j) -. y0 and vz = zs.(j) -. z0 in
    let cx = (uy *. vz) -. (uz *. vy)
    and cy = (uz *. vx) -. (ux *. vz)
    and cz = (ux *. vy) -. (uy *. vx) in
    let d = sqrt ((cx *. cx) +. (cy *. cy) +. (cz *. cz)) in
    if d > !best then begin
      p2 := j;
      best := d
    end
  done;
  if !p2 < 0 then raise Degenerate;
  let p2 = !p2 in
  (* Farthest from the plane p0-p1-p2. *)
  let vx = xs.(p2) -. x0 and vy = ys.(p2) -. y0 and vz = zs.(p2) -. z0 in
  let nx = (uy *. vz) -. (uz *. vy)
  and ny = (uz *. vx) -. (ux *. vz)
  and nz = (ux *. vy) -. (uy *. vx) in
  let nn = sqrt ((nx *. nx) +. (ny *. ny) +. (nz *. nz)) in
  let p3 = ref (-1) and best = ref (eps *. (1.0 +. nn)) in
  for j = 0 to n - 1 do
    let d =
      Float.abs ((nx *. (xs.(j) -. x0)) +. (ny *. (ys.(j) -. y0)) +. (nz *. (zs.(j) -. z0)))
    in
    if d > !best then begin
      p3 := j;
      best := d
    end
  done;
  if !p3 < 0 then raise Degenerate;
  (p0, p1, p2, !p3)

(* Faces under construction live in two pools of the same layout: face
   [i] keeps [normal.x; normal.y; normal.z; offset; tol] at
   [geo.(5i) ..], with [tol = eps * (1 + |normal|)], its corners at
   [corner.(3i) ..] and its creation number at [seq.(i)].  The [scan] pool
   holds the faces each new point is tested against, packed (a removed
   face is replaced by the last one).  The [sealed] pool holds faces no
   input point can see (see [sealed_face]); they are never tested and
   never removed.  Listing every face by descending creation number gives
   the order of the list the insertion-by-insertion build maintains:
   newest insertion first, its faces by ascending horizon edge. *)
type pool = {
  mutable geo : float array;
  mutable corner : int array;
  mutable seq : int array;
  mutable len : int;
}

let pool () = { geo = Array.make 160 0.0; corner = Array.make 96 0; seq = Array.make 32 0; len = 0 }

(* Room for face [p.len]. *)
let reserve p =
  if p.len = Array.length p.seq then begin
    let extend a k =
      let b = Array.make (2 * Array.length a) a.(0) in
      Array.blit a 0 b 0 (k * p.len);
      b
    in
    p.geo <- extend p.geo 5;
    p.corner <- extend p.corner 3;
    p.seq <- extend p.seq 1
  end

(* Copy face [i] of [src] to face [j] of [dst]. *)
let copy_face src i dst j =
  Array.blit src.geo (5 * i) dst.geo (5 * j) 5;
  Array.blit src.corner (3 * i) dst.corner (3 * j) 3;
  dst.seq.(j) <- src.seq.(i)

let remove p i =
  p.len <- p.len - 1;
  if i < p.len then copy_face p p.len p i

type build = {
  xs : float array;
  ys : float array;
  zs : float array;
  interior : float array;
  lo : float array; (* bounding box of the input *)
  hi : float array;
  scan : pool;
  sealed : pool;
  mutable next_seq : int;
}

(* Face [i] of the scan pool as triangle (a, b, c): the float expressions
   of [Vec.cross3], [Vec.dot] and [Vec.norm] on
   [normal = (pb - pa) x (pc - pa)], over the coordinate arrays. *)
let set_face h i a b c =
  let xs = h.xs and ys = h.ys and zs = h.zs in
  let ax = xs.(a) and ay = ys.(a) and az = zs.(a) in
  let ux = xs.(b) -. ax and uy = ys.(b) -. ay and uz = zs.(b) -. az in
  let vx = xs.(c) -. ax and vy = ys.(c) -. ay and vz = zs.(c) -. az in
  let nx = (uy *. vz) -. (uz *. vy)
  and ny = (uz *. vx) -. (ux *. vz)
  and nz = (ux *. vy) -. (uy *. vx) in
  let g = h.scan.geo and o = 5 * i in
  g.(o) <- nx;
  g.(o + 1) <- ny;
  g.(o + 2) <- nz;
  g.(o + 3) <- 0.0 +. (nx *. ax) +. (ny *. ay) +. (nz *. az);
  g.(o + 4) <- eps *. (1.0 +. sqrt (0.0 +. (nx *. nx) +. (ny *. ny) +. (nz *. nz)));
  let c3 = h.scan.corner in
  c3.(3 * i) <- a;
  c3.((3 * i) + 1) <- b;
  c3.((3 * i) + 2) <- c

(* Whether no input point can see face [i] of the scan pool, so that it
   never needs testing.  Every input point x lies in the input box, where
   n.x - offset is at most [top - offset].  The scan's float value of
   n.x - offset, like the float [top - offset], is within 4 roundings
   (relative 2^-51) of the real one over terms bounded by
   [size = |offset| + sum of |n_k| max |x_k|], far below [1e-14 * size].  So
   [top - offset <= tol / 2] and [1e-14 * size <= tol / 4] make the scan's
   test [d > tol] fail for every input point: sealing the face changes
   no visible set. *)
let sealed_face h i =
  let g = h.scan.geo and o = 5 * i in
  let top = ref 0.0 and size = ref (Float.abs g.(o + 3)) in
  for k = 0 to 2 do
    let c = g.(o + k) in
    top := !top +. Float.max (c *. h.lo.(k)) (c *. h.hi.(k));
    size := !size +. (Float.abs c *. Float.max (Float.abs h.lo.(k)) (Float.abs h.hi.(k)))
  done;
  let tol = g.(o + 4) in
  !top -. g.(o + 3) <= 0.5 *. tol && 1e-14 *. !size <= 0.25 *. tol

(* Add triangle (a, b, c), flipped when needed so that [interior] lies on
   its inner side, to the scan pool, or to the sealed pool when no input
   point can see it. *)
let add_face h a b c =
  let p = h.scan in
  reserve p;
  let i = p.len in
  set_face h i a b c;
  let g = p.geo and o = 5 * i and q = h.interior in
  if 0.0 +. (g.(o) *. q.(0)) +. (g.(o + 1) *. q.(1)) +. (g.(o + 2) *. q.(2)) > g.(o + 3) +. eps
  then set_face h i b a c;
  p.seq.(i) <- h.next_seq;
  h.next_seq <- h.next_seq + 1;
  if sealed_face h i then begin
    reserve h.sealed;
    copy_face p i h.sealed h.sealed.len;
    h.sealed.len <- h.sealed.len + 1
  end
  else p.len <- i + 1

(* Sort [a.(0) .. a.(len - 1)] ascending: insertion sort for the few
   edges of a typical insertion. *)
let sort_prefix a len =
  if len > 32 then begin
    let b = Array.sub a 0 len in
    Array.sort Int.compare b;
    Array.blit b 0 a 0 len
  end
  else
    for i = 1 to len - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done

let of_points input =
  List.iter (fun p -> assert (Array.length p = 3)) input;
  let points = Array.of_list input in
  let n = Array.length points in
  let xs = Array.map (fun p -> p.(0)) points
  and ys = Array.map (fun p -> p.(1)) points
  and zs = Array.map (fun p -> p.(2)) points in
  let i0, i1, i2, i3 = initial_tetrahedron xs ys zs in
  let box = Bbox.of_points input in
  let h =
    { xs;
      ys;
      zs;
      interior = Vec.centroid [ points.(i0); points.(i1); points.(i2); points.(i3) ];
      lo = Bbox.lo box;
      hi = Bbox.hi box;
      scan = pool ();
      sealed = pool ();
      next_seq = 0 }
  in
  let scan = h.scan in
  (* The seed faces, listed (i0 i1 i2), (i0 i1 i3), (i0 i2 i3), (i1 i2 i3). *)
  List.iter
    (fun (a, b, c) -> add_face h a b c)
    [ (i1, i2, i3); (i0, i2, i3); (i0, i1, i3); (i0, i1, i2) ];
  let visible = ref (Array.make 64 0) and edges = ref (Array.make 192 0) in
  for p = 0 to n - 1 do
    if p <> i0 && p <> i1 && p <> i2 && p <> i3 then begin
      let px = xs.(p) and py = ys.(p) and pz = zs.(p) in
      if Array.length !visible < scan.len then visible := Array.make (Array.length scan.seq) 0;
      let vis = !visible and g = scan.geo in
      let nvis = ref 0 and o = ref 0 and stop = 5 * scan.len in
      while !o < stop do
        let o' = !o in
        let d =
          (Array.unsafe_get g o' *. px)
          +. (Array.unsafe_get g (o' + 1) *. py)
          +. (Array.unsafe_get g (o' + 2) *. pz)
          -. Array.unsafe_get g (o' + 3)
        in
        if d > Array.unsafe_get g (o' + 4) then begin
          Array.unsafe_set vis !nvis (o' / 5);
          incr nvis
        end;
        o := o' + 5
      done;
      if !nvis > 0 then begin
        (* Edge u-v of a visible face is coded [2 (min n + max) + (u > v)]:
           sorted codes group each undirected edge, ordered by its
           (min, max) pair. *)
        let ne = 3 * !nvis in
        if Array.length !edges < ne then edges := Array.make (2 * ne) 0;
        let e = !edges and corner = scan.corner in
        for i = 0 to !nvis - 1 do
          let f = vis.(i) in
          for k = 0 to 2 do
            let u = corner.((3 * f) + k) and v = corner.((3 * f) + ((k + 1) mod 3)) in
            e.((3 * i) + k) <- (if u < v then 2 * ((u * n) + v) else (2 * ((v * n) + u)) + 1)
          done
        done;
        (* [vis] ascends, so removing from the back never moves a visible
           face that is still to be removed. *)
        for i = !nvis - 1 downto 0 do
          remove scan vis.(i)
        done;
        sort_prefix e ne;
        (* Horizon edges are those of exactly one visible face.  Creating
           their faces from the last edge to the first lists them, by
           descending creation number, in ascending edge order. *)
        let j = ref (ne - 1) in
        while !j >= 0 do
          let i = ref !j in
          while !i > 0 && e.(!i - 1) lsr 1 = e.(!j) lsr 1 do
            decr i
          done;
          if !i = !j then begin
            let code = e.(!j) in
            let lo = (code lsr 1) / n and hi = (code lsr 1) mod n in
            if code land 1 = 0 then add_face h lo hi p else add_face h hi lo p
          end;
          j := !i - 1
        done
      end
    end
  done;
  (* Both pools by descending creation number, as flat face arrays. *)
  let nfaces = scan.len + h.sealed.len in
  let by_seq = Array.make h.next_seq (-1) in
  for i = 0 to scan.len - 1 do
    by_seq.(scan.seq.(i)) <- i
  done;
  for i = 0 to h.sealed.len - 1 do
    by_seq.(h.sealed.seq.(i)) <- scan.len + i
  done;
  let geo = Array.make (5 * nfaces) 0.0 and corner = Array.make (3 * nfaces) 0 in
  let on_hull = Array.make n false in
  let f = ref 0 in
  for q = h.next_seq - 1 downto 0 do
    let j = by_seq.(q) in
    if j >= 0 then begin
      let src, i = if j < scan.len then (scan, j) else (h.sealed, j - scan.len) in
      let o = 5 * !f in
      Array.blit src.geo (5 * i) geo o 4;
      let nx = geo.(o) and ny = geo.(o + 1) and nz = geo.(o + 2) in
      geo.(o + 4) <- sqrt ((nx *. nx) +. (ny *. ny) +. (nz *. nz));
      for k = 0 to 2 do
        let v = src.corner.((3 * i) + k) in
        corner.((3 * !f) + k) <- v;
        on_hull.(v) <- true
      done;
      incr f
    end
  done;
  let vertex_ids = ref [] in
  for i = n - 1 downto 0 do
    if on_hull.(i) then vertex_ids := i :: !vertex_ids
  done;
  { points; nfaces; geo; corner; vertex_ids = !vertex_ids }

let vertices (t : t) = List.map (fun i -> t.points.(i)) t.vertex_ids

let corner (t : t) f k = t.points.(t.corner.((3 * f) + k))

let faces (t : t) = List.init t.nfaces (fun f -> (corner t f 0, corner t f 1, corner t f 2))

let contains ?(eps = 1e-7) (t : t) p =
  let g = t.geo in
  let inside = ref true and f = ref 0 in
  while !inside && !f < t.nfaces do
    let o = 5 * !f in
    let d = (g.(o) *. p.(0)) +. (g.(o + 1) *. p.(1)) +. (g.(o + 2) *. p.(2)) -. g.(o + 3) in
    if not (d <= eps *. (1.0 +. g.(o + 4))) then inside := false;
    incr f
  done;
  !inside

let centroid t = Vec.centroid (vertices t)

let volume (t : t) =
  let c = centroid t in
  let v = ref 0.0 in
  for f = 0 to t.nfaces - 1 do
    let pa = Vec.sub (corner t f 0) c
    and pb = Vec.sub (corner t f 1) c
    and pc = Vec.sub (corner t f 2) c in
    v := !v +. (Float.abs (Vec.dot pa (Vec.cross3 pb pc)) /. 6.0)
  done;
  !v
