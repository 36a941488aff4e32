(* FNV-1a, 64-bit. *)
let offset_basis = 0xCBF29CE484222325L
let prime = 0x100000001B3L

let byte h b = Int64.mul (Int64.logxor h (Int64.of_int b)) prime

let hash_region buf off len =
  if off < 0 || len < 0 || off > Bytes.length buf - len then invalid_arg "Fnv.hash_region";
  let h = ref offset_basis in
  for i = off to off + len - 1 do
    h := byte !h (Char.code (Bytes.unsafe_get buf i))
  done;
  !h

let hash_bytes buf = hash_region buf 0 (Bytes.length buf)

let hash_pair a b = byte (Int64.logxor (Int64.mul a 0x9E3779B97F4A7C15L) b) 0x5B
