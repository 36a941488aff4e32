type chunk = { offset : int; length : int; hash : int64 }

(* FNV-1a, 64-bit. *)
let fnv_offset = 0xCBF29CE484222325L
let fnv_prime = 0x100000001B3L

let fnv_byte h b = Int64.mul (Int64.logxor h (Int64.of_int b)) fnv_prime

let hash_region buf off len =
  if off < 0 || len < 0 || off > Bytes.length buf - len then invalid_arg "Merkle.hash_region";
  let h = ref fnv_offset in
  for i = off to off + len - 1 do
    h := fnv_byte !h (Char.code (Bytes.unsafe_get buf i))
  done;
  !h

let hash_pair a b = fnv_byte (Int64.logxor (Int64.mul a 0x9E3779B97F4A7C15L) b) 0x5B

let hash_bytes buf = hash_region buf 0 (Bytes.length buf)

(* Sliding-window polynomial rolling hash.  The boundary decision depends
   only on the last [window] bytes, so a local edit re-synchronizes chunk
   boundaries within one window — the property that makes content-defined
   dedup survive edits. *)
let window = 48
let roll_mod = 0xFFFFFF

let window_pow =
  (* 31^window mod 2^24 *)
  let p = ref 1 in
  for _ = 1 to window do
    p := !p * 31 land roll_mod
  done;
  !p

let chunk_bytes ?(avg_bits = 12) ?(min_len = 256) ?(max_len = 65536) buf =
  if min_len < 1 || max_len < min_len then invalid_arg "Merkle.chunk_bytes: bad bounds";
  let mask = (1 lsl avg_bits) - 1 in
  let n = Bytes.length buf in
  let chunks = ref [] in
  let start = ref 0 in
  let cut stop =
    if stop > !start then
      chunks :=
        { offset = !start; length = stop - !start; hash = hash_region buf !start (stop - !start) }
        :: !chunks;
    start := stop
  in
  let roll = ref 0 in
  for i = 0 to n - 1 do
    let incoming = Char.code (Bytes.unsafe_get buf i) in
    let outgoing = if i >= window then Char.code (Bytes.unsafe_get buf (i - window)) else 0 in
    roll := ((!roll * 31) + incoming - (outgoing * window_pow)) land roll_mod;
    let len = i - !start + 1 in
    if len >= max_len || (len >= min_len && !roll land mask = mask) then cut (i + 1)
  done;
  cut n;
  List.rev !chunks

type node = Leaf of chunk | Node of { hash : int64; left : node; right : node }

type t = { root : node option; chunk_list : chunk list; total : int }

let node_hash = function Leaf c -> c.hash | Node n -> n.hash

let rec pair_up = function
  | [] -> []
  | [ x ] -> [ x ]
  | a :: b :: rest -> Node { hash = hash_pair (node_hash a) (node_hash b); left = a; right = b } :: pair_up rest

let build ?avg_bits buf =
  let chunk_list = chunk_bytes ?avg_bits buf in
  let rec up = function
    | [] -> None
    | [ x ] -> Some x
    | nodes -> up (pair_up nodes)
  in
  { root = up (List.map (fun c -> Leaf c) chunk_list); chunk_list; total = Bytes.length buf }

let root_hash t = match t.root with None -> fnv_offset | Some n -> node_hash n

let chunks t = t.chunk_list
let total_bytes t = t.total

module HashSet = Set.Make (Int64)

let chunk_hash_set t = HashSet.of_list (List.map (fun c -> c.hash) t.chunk_list)

let transfer_size ~have t =
  List.fold_left
    (fun acc c -> if HashSet.mem c.hash have then acc else acc + c.length)
    0 t.chunk_list

let diff_summary ~old_tree ~new_tree =
  let have = chunk_hash_set old_tree in
  let transferred = transfer_size ~have new_tree in
  (total_bytes new_tree - transferred, transferred)
