type t = { shape : Shape.t; bits : Bitset.t }

let create shape = { shape; bits = Bitset.create (Shape.nelems shape) }

let shape t = t.shape

let add t idx =
  if not (Shape.in_bounds t.shape idx) then invalid_arg "Index_set.add: out of bounds";
  Bitset.set t.bits (Shape.linearize t.shape idx)

let add_if_in_bounds t idx =
  if Shape.in_bounds t.shape idx then begin
    Bitset.set t.bits (Shape.linearize t.shape idx);
    true
  end
  else false

let add_run t start len =
  let last = Shape.rank t.shape - 1 in
  if len < 0 || not (Shape.in_bounds t.shape start)
     || start.(last) + len > (Shape.dims t.shape).(last)
  then invalid_arg "Index_set.add_run: out of bounds";
  let base = Shape.linearize t.shape start in
  Bitset.set_range t.bits base (base + len)

let add_slab ?(clip = true) t slab =
  if clip then Hyperslab.iter ~clip:t.shape slab (fun idx -> add t idx)
  else Hyperslab.iter slab (fun idx -> add t idx)

let mem t idx = Shape.in_bounds t.shape idx && Bitset.mem t.bits (Shape.linearize t.shape idx)

let cardinal t = Bitset.cardinal t.bits
let is_empty t = Bitset.is_empty t.bits
let copy t = { shape = t.shape; bits = Bitset.copy t.bits }

let same_shape a b =
  if not (Shape.equal a.shape b.shape) then invalid_arg "Index_set: shape mismatch"

let union_into dst src =
  same_shape dst src;
  Bitset.union_into dst.bits src.bits

let inter_cardinal a b =
  same_shape a b;
  Bitset.inter_cardinal a.bits b.bits

let diff_cardinal a b =
  same_shape a b;
  Bitset.diff_cardinal a.bits b.bits

let subset a b =
  same_shape a b;
  Bitset.subset a.bits b.bits

let equal a b = Shape.equal a.shape b.shape && Bitset.equal a.bits b.bits

let iter t f = Bitset.iter t.bits (fun lin -> f (Shape.delinearize t.shape lin))

let to_list t =
  let acc = ref [] in
  iter t (fun idx -> acc := idx :: !acc);
  List.rev !acc

let of_list shape l =
  let t = create shape in
  List.iter (add t) l;
  t

let fraction t = float_of_int (cardinal t) /. float_of_int (Shape.nelems t.shape)

let to_bytes t =
  let dims = Shape.dims t.shape in
  let rank = Array.length dims in
  let bits_len = (Shape.nelems t.shape + 7) / 8 in
  let out = Bytes.make (4 + (4 * rank) + bits_len) '\000' in
  Bytes.set_int32_le out 0 (Int32.of_int rank);
  Array.iteri (fun k d -> Bytes.set_int32_le out (4 + (4 * k)) (Int32.of_int d)) dims;
  let pos = ref (4 + (4 * rank)) in
  (* pack via iteration to avoid exposing Bitset internals *)
  Bitset.iter t.bits (fun lin ->
      let b = !pos + (lin lsr 3) in
      Bytes.set_uint8 out b (Bytes.get_uint8 out b lor (1 lsl (lin land 7))));
  out

let of_bytes buf =
  if Bytes.length buf < 4 then invalid_arg "Index_set.of_bytes: truncated";
  let rank = Int32.to_int (Bytes.get_int32_le buf 0) in
  if rank < 1 || rank > 8 || Bytes.length buf < 4 + (4 * rank) then
    invalid_arg "Index_set.of_bytes: bad rank";
  let dims = Array.init rank (fun k -> Int32.to_int (Bytes.get_int32_le buf (4 + (4 * k)))) in
  Array.iter (fun d -> if d <= 0 then invalid_arg "Index_set.of_bytes: bad dims") dims;
  let shape = Shape.create dims in
  let bits_len = (Shape.nelems shape + 7) / 8 in
  let base = 4 + (4 * rank) in
  if Bytes.length buf <> base + bits_len then invalid_arg "Index_set.of_bytes: bad length";
  let t = create shape in
  for lin = 0 to Shape.nelems shape - 1 do
    if Bytes.get_uint8 buf (base + (lin lsr 3)) land (1 lsl (lin land 7)) <> 0 then
      Bitset.set t.bits lin
  done;
  t

let random_member t rng =
  let n = cardinal t in
  if n = 0 then None
  else begin
    let target = Kondo_prng.Rng.int rng n in
    let seen = ref 0 and found = ref None in
    (try
       Bitset.iter t.bits (fun lin ->
           if !seen = target then begin
             found := Some (Shape.delinearize t.shape lin);
             raise Exit
           end;
           incr seen)
     with Exit -> ());
    !found
  end
