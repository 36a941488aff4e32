type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  (* MurmurHash3-style avalanche finalizer used by SplitMix64. *)
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = mix64 (Int64.of_int seed) }

let copy t = { state = t.state }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let s = bits64 t in
  { state = s }

let split_at seed i =
  if i < 1 then invalid_arg "Rng.split_at: i must be >= 1";
  (* The parent's state after [i] draws is mix64(seed) + i·γ (a Weyl
     sequence), so the i-th child is computable in O(1) without the
     parent: exactly what a worker needs to seed itself from its index. *)
  { state = mix64 (Int64.add (mix64 (Int64.of_int seed)) (Int64.mul (Int64.of_int i) golden_gamma)) }

let int t bound =
  assert (bound > 0);
  (* Rejection sampling over the low 62 bits keeps the draw unbiased. *)
  let mask = 0x3FFF_FFFF_FFFF_FFFF in
  let rec draw () =
    let r = Int64.to_int (bits64 t) land mask in
    let v = r mod bound in
    if r - v + (bound - 1) < 0 then draw () else v
  in
  draw ()

let int_in t lo hi =
  assert (lo <= hi);
  if lo = hi then lo else lo + int t (hi - lo + 1)

let float t bound =
  (* 53 uniform mantissa bits. *)
  let r = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  float_of_int r /. 9007199254740992.0 *. bound

let float_in t lo hi =
  assert (lo <= hi);
  lo +. float t (hi -. lo)

let bernoulli t p = float t 1.0 < p

let gaussian t =
  let rec nonzero () =
    let u = float t 1.0 in
    if u > 0.0 then u else nonzero ()
  in
  let u1 = nonzero () and u2 = float t 1.0 in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let pick t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let byte t = Char.chr (int t 256)
