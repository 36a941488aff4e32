type t = { buf : Bytes.t; capacity : int; mutable cardinal : int }

let create n =
  if n < 0 then invalid_arg "Bitset.create";
  { buf = Bytes.make ((n + 7) / 8) '\000'; capacity = n; cardinal = 0 }

let capacity t = t.capacity

let check t i = if i < 0 || i >= t.capacity then invalid_arg "Bitset: out of range"

let get_byte t i = Char.code (Bytes.unsafe_get t.buf (i lsr 3))

let mem t i =
  check t i;
  get_byte t i land (1 lsl (i land 7)) <> 0

let set t i =
  check t i;
  let b = get_byte t i and bit = 1 lsl (i land 7) in
  if b land bit = 0 then begin
    Bytes.unsafe_set t.buf (i lsr 3) (Char.unsafe_chr (b lor bit));
    t.cardinal <- t.cardinal + 1
  end

let clear t i =
  check t i;
  let b = get_byte t i and bit = 1 lsl (i land 7) in
  if b land bit <> 0 then begin
    Bytes.unsafe_set t.buf (i lsr 3) (Char.unsafe_chr (b land lnot bit));
    t.cardinal <- t.cardinal - 1
  end

let cardinal t = t.cardinal

let copy t = { buf = Bytes.copy t.buf; capacity = t.capacity; cardinal = t.cardinal }

let popcount_byte =
  let table = Array.make 256 0 in
  for i = 1 to 255 do
    table.(i) <- table.(i lsr 1) + (i land 1)
  done;
  fun b -> table.(b)

let set_range t lo hi =
  if lo < 0 || hi > t.capacity || lo > hi then invalid_arg "Bitset.set_range: out of range";
  let added = ref 0 and i = ref lo in
  while !i < hi do
    let j = !i lsr 3 in
    let upto = min 8 (hi - (j lsl 3)) in
    let mask = ((1 lsl upto) - 1) land lnot ((1 lsl (!i land 7)) - 1) in
    let b = Char.code (Bytes.unsafe_get t.buf j) in
    added := !added + popcount_byte (mask land lnot b);
    Bytes.unsafe_set t.buf j (Char.unsafe_chr (b lor mask));
    i := (j + 1) lsl 3
  done;
  t.cardinal <- t.cardinal + !added

let union_into dst src =
  if dst.capacity <> src.capacity then invalid_arg "Bitset.union_into: capacity mismatch";
  let n = Bytes.length dst.buf in
  let card = ref 0 in
  for i = 0 to n - 1 do
    let d = Char.code (Bytes.unsafe_get dst.buf i) and s = Char.code (Bytes.unsafe_get src.buf i) in
    let u = d lor s in
    Bytes.unsafe_set dst.buf i (Char.unsafe_chr u);
    card := !card + popcount_byte u
  done;
  dst.cardinal <- !card

let inter_cardinal a b =
  if a.capacity <> b.capacity then invalid_arg "Bitset.inter_cardinal: capacity mismatch";
  let n = Bytes.length a.buf in
  let card = ref 0 in
  for i = 0 to n - 1 do
    card :=
      !card
      + popcount_byte (Char.code (Bytes.unsafe_get a.buf i) land Char.code (Bytes.unsafe_get b.buf i))
  done;
  !card

let diff_cardinal a b =
  if a.capacity <> b.capacity then invalid_arg "Bitset.diff_cardinal: capacity mismatch";
  let n = Bytes.length a.buf in
  let card = ref 0 in
  for i = 0 to n - 1 do
    card :=
      !card
      + popcount_byte
          (Char.code (Bytes.unsafe_get a.buf i) land lnot (Char.code (Bytes.unsafe_get b.buf i)) land 0xFF)
  done;
  !card

let iter t f =
  for i = 0 to t.capacity - 1 do
    if get_byte t i land (1 lsl (i land 7)) <> 0 then f i
  done

let is_empty t = t.cardinal = 0

let equal a b = a.capacity = b.capacity && Bytes.equal a.buf b.buf

let subset a b =
  a.capacity = b.capacity
  &&
  let n = Bytes.length a.buf in
  let ok = ref true in
  for i = 0 to n - 1 do
    let x = Char.code (Bytes.unsafe_get a.buf i) and y = Char.code (Bytes.unsafe_get b.buf i) in
    if x land lnot y land 0xFF <> 0 then ok := false
  done;
  !ok
