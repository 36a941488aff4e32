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

(* An encoder computes its message's exact length, then fills one
   buffer of that length: each payload is copied once, into the
   message. *)
type writer = { out : bytes; mutable at : int }

let w_char w c =
  Bytes.set w.out w.at c;
  w.at <- w.at + 1

(* A message of [len] bytes, its tag written. *)
let message len tag =
  let w = { out = Bytes.create len; at = 0 } in
  w_char w tag;
  w

let contents w =
  assert (w.at = Bytes.length w.out);
  Bytes.unsafe_to_string w.out

let w_u32 w v =
  Bytes.set_int32_le w.out w.at (Int32.of_int v);
  w.at <- w.at + 4

let w_u64 w v =
  Bytes.set_int64_le w.out w.at v;
  w.at <- w.at + 8

let w_str w s =
  let n = String.length s in
  w_u32 w n;
  Bytes.blit_string s 0 w.out w.at n;
  w.at <- w.at + n

(* Encoded length of a [w_str] field. *)
let str_len s = 4 + String.length s

(* A message that is a tag and one string field. *)
let tagged tag s =
  let w = message (1 + str_len s) tag in
  w_str w s;
  contents w

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
  match req with
  | Get id ->
    let w = message 9 'G' in
    w_u64 w id;
    contents w
  | Put (id, payload) ->
    let w = message (9 + str_len payload) 'P' in
    w_u64 w id;
    w_str w payload;
    contents w
  | Stat -> "S"
  | Batch ids ->
    let n = List.length ids in
    let w = message (5 + (8 * n)) 'B' in
    w_u32 w n;
    List.iter (w_u64 w) ids;
    contents w
  | Manifest_req name -> tagged 'M' name
  | Scrape -> "T"

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

let blob_entry_len (_, payload) =
  9 + match payload with Some p -> str_len p | None -> 0

let encode_response resp =
  match resp with
  | Blob payload -> tagged 'b' payload
  | Not_found id ->
    let w = message 9 'n' in
    w_u64 w id;
    contents w
  | Stored fresh -> if fresh then "p\x01" else "p\x00"
  | Stats i ->
    let w = message 33 's' in
    List.iter (w_u32 w)
      [ i.chunks; i.store_bytes; i.manifests; i.cache_hits; i.cache_misses;
        i.cache_evictions; i.cache_coalesced; i.cache_bytes ];
    contents w
  | Blobs entries ->
    let w = message (List.fold_left (fun acc e -> acc + blob_entry_len e) 5 entries) 'B' in
    w_u32 w (List.length entries);
    List.iter
      (fun (id, payload) ->
        w_u64 w id;
        match payload with
        | Some p ->
          w_char w '\x01';
          w_str w p
        | None -> w_char w '\x00')
      entries;
    contents w
  | Manifest_resp m -> tagged 'm' (Chunk.encode m)
  | Metrics text -> tagged 't' text
  | Err msg -> tagged 'e' msg

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
