module Fnv = Kondo_faults.Fnv

type id = int64

let digest = Fnv.hash_bytes

let default_size = 4096

type manifest = {
  name : string;
  chunk_size : int;
  total_len : int;
  ids : id array;
  root : id;
}

let split ?(chunk_size = default_size) buf =
  if chunk_size < 1 then invalid_arg "Chunk.split: chunk_size < 1";
  let n = Bytes.length buf in
  let count = (n + chunk_size - 1) / chunk_size in
  List.init count (fun i ->
      let off = i * chunk_size in
      (i, Bytes.sub buf off (min chunk_size (n - off))))

(* The FNV offset basis doubles as the empty root. *)
let empty_root = Fnv.hash_bytes Bytes.empty

let root_of_ids ids = Array.fold_left Fnv.hash_pair empty_root ids

let manifest_of_bytes ?(chunk_size = default_size) ~name buf =
  if chunk_size < 1 then invalid_arg "Chunk.manifest_of_bytes: chunk_size < 1";
  let n = Bytes.length buf in
  let ids =
    Array.init ((n + chunk_size - 1) / chunk_size) (fun i ->
        let off = i * chunk_size in
        Fnv.hash_region buf off (min chunk_size (n - off)))
  in
  { name; chunk_size; total_len = n; ids; root = root_of_ids ids }

let chunk_count m = Array.length m.ids

let chunk_of_offset m off =
  if off < 0 || off >= m.total_len then
    invalid_arg
      (Printf.sprintf "Chunk.chunk_of_offset: offset %d outside blob of %d bytes" off
         m.total_len);
  off / m.chunk_size

let chunk_span m i =
  if i < 0 || i >= Array.length m.ids then
    invalid_arg (Printf.sprintf "Chunk.chunk_span: chunk %d of %d" i (Array.length m.ids));
  let off = i * m.chunk_size in
  (off, min m.chunk_size (m.total_len - off))

let verify m i payload =
  i >= 0
  && i < Array.length m.ids
  && Bytes.length payload = snd (chunk_span m i)
  && Int64.equal (digest payload) m.ids.(i)

let encode m =
  let b = Buffer.create (32 + String.length m.name + (8 * Array.length m.ids)) in
  let u32 v =
    let s = Bytes.create 4 in
    Bytes.set_int32_le s 0 (Int32.of_int v);
    Buffer.add_bytes b s
  in
  let u64 v =
    let s = Bytes.create 8 in
    Bytes.set_int64_le s 0 v;
    Buffer.add_bytes b s
  in
  u32 (String.length m.name);
  Buffer.add_string b m.name;
  u32 m.chunk_size;
  u32 m.total_len;
  u32 (Array.length m.ids);
  Array.iter u64 m.ids;
  u64 m.root;
  Buffer.contents b

let decode s =
  let buf = Bytes.unsafe_of_string s in
  let n = Bytes.length buf in
  let pos = ref 0 in
  let fail msg = raise (Invalid_argument msg) in
  let u32 () =
    if !pos + 4 > n then fail "truncated manifest";
    let v = Int32.to_int (Bytes.get_int32_le buf !pos) in
    pos := !pos + 4;
    v
  in
  let u64 () =
    if !pos + 8 > n then fail "truncated manifest";
    let v = Bytes.get_int64_le buf !pos in
    pos := !pos + 8;
    v
  in
  match
    let name_len = u32 () in
    if name_len < 0 || !pos + name_len > n then fail "bad manifest name";
    let name = Bytes.sub_string buf !pos name_len in
    pos := !pos + name_len;
    let chunk_size = u32 () in
    if chunk_size < 1 then fail "bad chunk size";
    let total_len = u32 () in
    if total_len < 0 then fail "bad total length";
    let count = u32 () in
    if count < 0 || count <> (total_len + chunk_size - 1) / chunk_size then
      fail "chunk count does not tile the blob";
    if !pos + (8 * count) + 8 > n then fail "truncated manifest ids";
    let ids = Array.init count (fun _ -> u64 ()) in
    let root = u64 () in
    if !pos <> n then fail "trailing manifest bytes";
    if not (Int64.equal root (root_of_ids ids)) then fail "manifest root mismatch";
    { name; chunk_size; total_len; ids; root }
  with
  | m -> Ok m
  | exception Invalid_argument msg -> Error msg
