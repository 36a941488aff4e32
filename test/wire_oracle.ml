(* The wire codecs that the exact-size encoders and the slicing-by-8
   CRC replaced, kept verbatim as oracles: [Buffer]-grown protocol
   encoders with a fresh 4- or 8-byte temporary per integer and a final
   [Buffer.contents] copy, and the byte-at-a-time CRC-32 loop.
   [Kondo_store.Proto] must encode every message byte for byte as these
   do, and [Kondo_faults.Frame.crc32] must return the same values. *)

open Kondo_store

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32_sub buf pos len =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code (Bytes.unsafe_get buf i)) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let add_u32 b v =
  let s = Bytes.create 4 in
  Bytes.set_int32_le s 0 (Int32.of_int v);
  Buffer.add_bytes b s

let add_u64 b v =
  let s = Bytes.create 8 in
  Bytes.set_int64_le s 0 v;
  Buffer.add_bytes b s

let add_str b s =
  add_u32 b (String.length s);
  Buffer.add_string b s

let encode_request req =
  let b = Buffer.create 32 in
  (match req with
  | Proto.Get id ->
    Buffer.add_char b 'G';
    add_u64 b id
  | Proto.Put (id, payload) ->
    Buffer.add_char b 'P';
    add_u64 b id;
    add_str b payload
  | Proto.Stat -> Buffer.add_char b 'S'
  | Proto.Batch ids ->
    Buffer.add_char b 'B';
    add_u32 b (List.length ids);
    List.iter (add_u64 b) ids
  | Proto.Manifest_req name ->
    Buffer.add_char b 'M';
    add_str b name
  | Proto.Scrape -> Buffer.add_char b 'T');
  Buffer.contents b

let encode_response resp =
  let b = Buffer.create 64 in
  (match resp with
  | Proto.Blob payload ->
    Buffer.add_char b 'b';
    add_str b payload
  | Proto.Not_found id ->
    Buffer.add_char b 'n';
    add_u64 b id
  | Proto.Stored fresh ->
    Buffer.add_char b 'p';
    Buffer.add_char b (if fresh then '\x01' else '\x00')
  | Proto.Stats i ->
    Buffer.add_char b 's';
    List.iter (add_u32 b)
      [ i.Proto.chunks; i.Proto.store_bytes; i.Proto.manifests; i.Proto.cache_hits;
        i.Proto.cache_misses; i.Proto.cache_evictions; i.Proto.cache_coalesced;
        i.Proto.cache_bytes ]
  | Proto.Blobs entries ->
    Buffer.add_char b 'B';
    add_u32 b (List.length entries);
    List.iter
      (fun (id, payload) ->
        add_u64 b id;
        match payload with
        | Some p ->
          Buffer.add_char b '\x01';
          add_str b p
        | None -> Buffer.add_char b '\x00')
      entries
  | Proto.Manifest_resp m ->
    Buffer.add_char b 'm';
    add_str b (Chunk.encode m)
  | Proto.Metrics text ->
    Buffer.add_char b 't';
    add_str b text
  | Proto.Err msg ->
    Buffer.add_char b 'e';
    add_str b msg);
  Buffer.contents b
