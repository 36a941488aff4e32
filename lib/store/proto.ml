open Kondo_faults

type stat_info = {
  chunks : int;
  store_bytes : int;
  manifests : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  cache_coalesced : int;
  cache_bytes : int;
}

type request =
  | Get of Chunk.id
  | Put of Chunk.id * string
  | Stat
  | Batch of Chunk.id list
  | Manifest_req of string
  | Scrape

type response =
  | Blob of string
  | Not_found of Chunk.id
  | Stored of bool
  | Stats of stat_info
  | Blobs of (Chunk.id * string option) list
  | Manifest_resp of Chunk.manifest
  | Metrics of string
  | Err of string

let max_message = 64 * 1024 * 1024

(* ---- body encoding ---- *)

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

exception Bad of string

type cursor = { buf : bytes; mutable pos : int }

let need c n = if c.pos + n > Bytes.length c.buf then raise (Bad "truncated message")

let r_u8 c =
  need c 1;
  let v = Bytes.get_uint8 c.buf c.pos in
  c.pos <- c.pos + 1;
  v

let r_u32 c =
  need c 4;
  let v = Int32.to_int (Bytes.get_int32_le c.buf c.pos) in
  c.pos <- c.pos + 4;
  if v < 0 then raise (Bad "negative length");
  v

let r_u64 c =
  need c 8;
  let v = Bytes.get_int64_le c.buf c.pos in
  c.pos <- c.pos + 8;
  v

let r_str c =
  let n = r_u32 c in
  need c n;
  let s = Bytes.sub_string c.buf c.pos n in
  c.pos <- c.pos + n;
  s

let finish c v = if c.pos <> Bytes.length c.buf then raise (Bad "trailing bytes") else v

let decoding s f =
  let c = { buf = Bytes.unsafe_of_string s; pos = 0 } in
  match finish c (f c) with v -> Ok v | exception Bad msg -> Error msg

let encode_request req =
  let b = Buffer.create 32 in
  (match req with
  | Get id ->
    Buffer.add_char b 'G';
    add_u64 b id
  | Put (id, payload) ->
    Buffer.add_char b 'P';
    add_u64 b id;
    add_str b payload
  | Stat -> Buffer.add_char b 'S'
  | Batch ids ->
    Buffer.add_char b 'B';
    add_u32 b (List.length ids);
    List.iter (add_u64 b) ids
  | Manifest_req name ->
    Buffer.add_char b 'M';
    add_str b name
  | Scrape -> Buffer.add_char b 'T');
  Buffer.contents b

let decode_request s =
  decoding s (fun c ->
      match Char.chr (r_u8 c) with
      | 'G' -> Get (r_u64 c)
      | 'P' ->
        let id = r_u64 c in
        Put (id, r_str c)
      | 'S' -> Stat
      | 'B' ->
        let n = r_u32 c in
        if n * 8 > Bytes.length c.buf then raise (Bad "batch count too large");
        Batch (List.init n (fun _ -> r_u64 c))
      | 'M' -> Manifest_req (r_str c)
      | 'T' -> Scrape
      | _ -> raise (Bad "unknown request tag"))

let encode_response resp =
  let b = Buffer.create 64 in
  (match resp with
  | Blob payload ->
    Buffer.add_char b 'b';
    add_str b payload
  | Not_found id ->
    Buffer.add_char b 'n';
    add_u64 b id
  | Stored fresh ->
    Buffer.add_char b 'p';
    Buffer.add_char b (if fresh then '\x01' else '\x00')
  | Stats i ->
    Buffer.add_char b 's';
    List.iter (add_u32 b)
      [ i.chunks; i.store_bytes; i.manifests; i.cache_hits; i.cache_misses;
        i.cache_evictions; i.cache_coalesced; i.cache_bytes ]
  | Blobs entries ->
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
  | Manifest_resp m ->
    Buffer.add_char b 'm';
    add_str b (Chunk.encode m)
  | Metrics text ->
    Buffer.add_char b 't';
    add_str b text
  | Err msg ->
    Buffer.add_char b 'e';
    add_str b msg);
  Buffer.contents b

let decode_response s =
  decoding s (fun c ->
      match Char.chr (r_u8 c) with
      | 'b' -> Blob (r_str c)
      | 'n' -> Not_found (r_u64 c)
      | 'p' -> (
        match r_u8 c with
        | 0 -> Stored false
        | 1 -> Stored true
        | _ -> raise (Bad "bad stored flag"))
      | 's' ->
        let chunks = r_u32 c in
        let store_bytes = r_u32 c in
        let manifests = r_u32 c in
        let cache_hits = r_u32 c in
        let cache_misses = r_u32 c in
        let cache_evictions = r_u32 c in
        let cache_coalesced = r_u32 c in
        let cache_bytes = r_u32 c in
        Stats
          { chunks; store_bytes; manifests; cache_hits; cache_misses; cache_evictions;
            cache_coalesced; cache_bytes }
      | 'B' ->
        let n = r_u32 c in
        if n * 9 > Bytes.length c.buf then raise (Bad "blobs count too large");
        Blobs
          (List.init n (fun _ ->
               let id = r_u64 c in
               match r_u8 c with
               | 0 -> (id, None)
               | 1 -> (id, Some (r_str c))
               | _ -> raise (Bad "bad presence flag")))
      | 'm' -> (
        match Chunk.decode (r_str c) with
        | Ok m -> Manifest_resp m
        | Error msg -> raise (Bad ("bad manifest: " ^ msg)))
      | 't' -> Metrics (r_str c)
      | 'e' -> Err (r_str c)
      | _ -> raise (Bad "unknown response tag"))

(* ---- channel framing ---- *)

let write_message oc body =
  if String.length body > max_message then invalid_arg "Proto.write_message: oversized";
  Frame.write oc body

let read_message ic = Frame.input ic ~max_len:max_message
