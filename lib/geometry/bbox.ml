type t = { lo : float array; hi : float array }

let make lo hi =
  assert (Array.length lo = Array.length hi);
  Array.iteri (fun i l -> assert (l <= hi.(i))) lo;
  { lo; hi }

let of_points = function
  | [] -> invalid_arg "Bbox.of_points: empty"
  | p :: rest ->
    let lo = Array.copy p and hi = Array.copy p in
    List.iter
      (fun q ->
        for i = 0 to Array.length p - 1 do
          if q.(i) < lo.(i) then lo.(i) <- q.(i);
          if q.(i) > hi.(i) then hi.(i) <- q.(i)
        done)
      rest;
    { lo; hi }

let dim b = Array.length b.lo
let lo b = b.lo
let hi b = b.hi

let contains ?(eps = 1e-9) b p =
  let ok = ref true in
  for i = 0 to dim b - 1 do
    if p.(i) < b.lo.(i) -. eps || p.(i) > b.hi.(i) +. eps then ok := false
  done;
  !ok

let union a b =
  { lo = Array.init (dim a) (fun i -> Float.min a.lo.(i) b.lo.(i));
    hi = Array.init (dim a) (fun i -> Float.max a.hi.(i) b.hi.(i)) }

let volume b =
  let v = ref 1.0 in
  for i = 0 to dim b - 1 do
    v := !v *. Float.max 0.0 (b.hi.(i) -. b.lo.(i))
  done;
  !v

let min_dist a b =
  let s = ref 0.0 in
  for i = 0 to dim a - 1 do
    let gap = Float.max 0.0 (Float.max (a.lo.(i) -. b.hi.(i)) (b.lo.(i) -. a.hi.(i))) in
    s := !s +. (gap *. gap)
  done;
  sqrt !s

let lattice_bounds b =
  let d = dim b in
  let lo = Array.init d (fun i -> int_of_float (Float.ceil (b.lo.(i) -. 1e-9))) in
  let hi = Array.init d (fun i -> int_of_float (Float.floor (b.hi.(i) +. 1e-9))) in
  (lo, hi)

let iter_lattice b f =
  let lo, hi = lattice_bounds b in
  let d = dim b in
  let feasible = ref true in
  for i = 0 to d - 1 do
    if lo.(i) > hi.(i) then feasible := false
  done;
  if !feasible then begin
    let cur = Array.copy lo in
    let rec walk axis = if axis = d then f cur
      else
        for v = lo.(axis) to hi.(axis) do
          cur.(axis) <- v;
          walk (axis + 1)
        done
    in
    walk 0
  end

let lattice_count b =
  let lo, hi = lattice_bounds b in
  let n = ref 1 in
  Array.iteri (fun i l -> n := !n * max 0 (hi.(i) - l + 1)) lo;
  !n
