(* Tests for the content-addressed block store subsystem: chunking,
   protocol roundtrips, crash-safe persistence, the byte-budgeted
   single-flight cache, the serve/fetch client, and the runtime
   integration. *)

open Kondo_store
open Kondo_faults
open Kondo_container
open Kondo_workload

let bytes_of_seed seed len =
  Bytes.init len (fun i -> Char.chr ((seed * 131 + i * 31 + (i * i mod 97)) land 0xFF))

let string_of_seed seed len = Bytes.to_string (bytes_of_seed seed len)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec at i = i + nl <= hl && (String.sub haystack i nl = needle || at (i + 1)) in
  nl = 0 || at 0

(* ---- Chunk ---- *)

(* The indexer's tiles are contiguous, each verifies as its own chunk,
   and an index over any reader of the same bytes is the same manifest. *)
let test_chunk_index_tiles () =
  let blob = bytes_of_seed 3 1000 in
  let m = Chunk.manifest_of_bytes ~chunk_size:64 ~name:"b" blob in
  Alcotest.(check int) "chunk count" 16 (Chunk.chunk_count m);
  let rebuilt = Buffer.create 1000 in
  Array.iteri
    (fun i _ ->
      let off, len = Chunk.chunk_span m i in
      Alcotest.(check int) "tiles are contiguous" (Buffer.length rebuilt) off;
      let payload = Bytes.sub blob off len in
      Buffer.add_bytes rebuilt payload;
      Alcotest.(check bool) "payload verifies" true (Chunk.verify m i payload);
      Alcotest.(check bool) "wrong payload rejected" false
        (Chunk.verify m i (Bytes.cat payload (Bytes.make 1 'x'))))
    m.Chunk.ids;
  Alcotest.(check string) "tiles concatenate to the blob" (Bytes.to_string blob)
    (Buffer.contents rebuilt);
  let spans = ref [] in
  let copied =
    Chunk.index ~chunk_size:64 ~name:"b" ~total_len:1000 (fun ~offset ~length ->
        spans := (offset, length) :: !spans;
        Chunk.digest (Bytes.sub blob offset length))
  in
  Alcotest.(check bool) "same manifest from copied tiles" true (copied = m);
  Alcotest.(check (list (pair int int))) "one call per tile, in order"
    (List.init 16 (Chunk.chunk_span m)) (List.rev !spans)

let test_chunk_manifest_roundtrip () =
  let blob = bytes_of_seed 9 777 in
  let m = Chunk.manifest_of_bytes ~chunk_size:100 ~name:"data#x" blob in
  (match Chunk.decode (Chunk.encode m) with
  | Error e -> Alcotest.fail ("decode failed: " ^ e)
  | Ok m' ->
    Alcotest.(check string) "name" m.Chunk.name m'.Chunk.name;
    Alcotest.(check int) "total_len" m.Chunk.total_len m'.Chunk.total_len;
    Alcotest.(check bool) "ids" true (m.Chunk.ids = m'.Chunk.ids);
    Alcotest.(check int64) "root" m.Chunk.root m'.Chunk.root);
  (* a tampered root must be rejected *)
  let bad = { m with Chunk.root = Int64.add m.Chunk.root 1L } in
  match Chunk.decode (Chunk.encode bad) with
  | Ok _ -> Alcotest.fail "tampered root accepted"
  | Error _ -> ()

let qcheck_chunk_offsets =
  QCheck.Test.make ~name:"chunk_of_offset and chunk_span agree on every offset" ~count:100
    QCheck.(pair (int_range 1 500) (int_range 1 64))
    (fun (len, chunk_size) ->
      let blob = bytes_of_seed len len in
      let m = Chunk.manifest_of_bytes ~chunk_size ~name:"q" blob in
      let ok = ref true in
      for off = 0 to len - 1 do
        let i = Chunk.chunk_of_offset m off in
        let coff, clen = Chunk.chunk_span m i in
        if not (coff <= off && off < coff + clen) then ok := false
      done;
      !ok && Chunk.chunk_count m = (len + chunk_size - 1) / chunk_size)

(* ---- Proto ---- *)

let test_proto_request_roundtrip () =
  let reqs =
    [ Proto.Get 42L;
      Proto.Put (7L, "payload");
      Proto.Stat;
      Proto.Batch [ 1L; 2L; 3L ];
      Proto.Manifest_req "file#ds" ]
  in
  List.iter
    (fun req ->
      match Proto.decode_request (Proto.encode_request req) with
      | Ok req' -> Alcotest.(check bool) "request roundtrips" true (req = req')
      | Error e -> Alcotest.fail ("decode failed: " ^ e))
    reqs;
  (* truncation must be detected, not crash *)
  let enc = Proto.encode_request (Proto.Put (7L, "payload")) in
  match Proto.decode_request (String.sub enc 0 (String.length enc - 1)) with
  | Ok _ -> Alcotest.fail "truncated request accepted"
  | Error _ -> ()

(* A body with bytes after a whole message is an [Error] for the
   decoders and an [Err] reply from the server, not an exception that
   kills the accept loop. *)
let test_proto_trailing_bytes () =
  let check what = function
    | Error msg -> Alcotest.(check string) what "trailing bytes" msg
    | Ok _ -> Alcotest.fail (what ^ ": trailing bytes accepted")
  in
  check "request" (Proto.decode_request (Proto.encode_request Proto.Stat ^ "X"));
  check "response" (Proto.decode_response (Proto.encode_response (Proto.Stored true) ^ "X"));
  let server = Server.create ~store:(Block_store.create ()) () in
  match Proto.decode_response (Server.handle server "SX") with
  | Ok (Proto.Err msg) -> Alcotest.(check string) "server reply" "bad request: trailing bytes" msg
  | _ -> Alcotest.fail "server did not answer with Err"

let test_proto_response_roundtrip () =
  let m = Chunk.manifest_of_bytes ~chunk_size:16 ~name:"r" (bytes_of_seed 1 50) in
  let resps =
    [ Proto.Blob "chunk bytes";
      Proto.Not_found 9L;
      Proto.Stored true;
      Proto.Stored false;
      Proto.Stats
        { Proto.chunks = 1; store_bytes = 2; manifests = 3; cache_hits = 4;
          cache_misses = 5; cache_evictions = 6; cache_coalesced = 7; cache_bytes = 8 };
      Proto.Blobs [ (1L, Some "a"); (2L, None) ];
      Proto.Manifest_resp m;
      Proto.Err "boom" ]
  in
  List.iter
    (fun resp ->
      match Proto.decode_response (Proto.encode_response resp) with
      | Ok resp' -> Alcotest.(check bool) "response roundtrips" true (resp = resp')
      | Error e -> Alcotest.fail ("decode failed: " ^ e))
    resps

(* The exact-size encoders write every message byte for byte as the
   [Buffer] encoders they replaced did, and decode back to it. *)
let qcheck_wire_matches_oracle =
  let open QCheck.Gen in
  let id = ui64 in
  let payload = string_size (0 -- 8192) in
  let short = string_size (0 -- 64) in
  let request =
    oneof
      [ map (fun id -> Proto.Get id) id;
        map2 (fun id p -> Proto.Put (id, p)) id payload;
        return Proto.Stat;
        map (fun ids -> Proto.Batch ids) (list_size (0 -- 64) id);
        map (fun name -> Proto.Manifest_req name) short;
        return Proto.Scrape ]
  in
  let stats =
    map
      (function
        | [ chunks; store_bytes; manifests; cache_hits; cache_misses; cache_evictions;
            cache_coalesced; cache_bytes ] ->
          Proto.Stats
            { Proto.chunks; store_bytes; manifests; cache_hits; cache_misses;
              cache_evictions; cache_coalesced; cache_bytes }
        | _ -> assert false)
      (list_repeat 8 nat)
  in
  let manifest =
    map3
      (fun len chunk_size name ->
        Proto.Manifest_resp (Chunk.manifest_of_bytes ~chunk_size ~name (bytes_of_seed len len)))
      (0 -- 2000) (1 -- 300) short
  in
  let response =
    oneof
      [ map (fun p -> Proto.Blob p) payload;
        map (fun id -> Proto.Not_found id) id;
        map (fun b -> Proto.Stored b) bool;
        stats;
        map (fun es -> Proto.Blobs es) (list_size (0 -- 8) (pair id (opt payload)));
        manifest;
        map (fun text -> Proto.Metrics text) (string_size (0 -- 512));
        map (fun msg -> Proto.Err msg) short ]
  in
  QCheck.Test.make ~name:"every message encodes byte for byte as the Buffer oracle"
    ~count:300
    (QCheck.make (pair request response))
    (fun (req, resp) ->
      let req_wire = Proto.encode_request req and resp_wire = Proto.encode_response resp in
      req_wire = Wire_oracle.encode_request req
      && resp_wire = Wire_oracle.encode_response resp
      && Proto.decode_request req_wire = Ok req
      && Proto.decode_response resp_wire = Ok resp)

(* ---- Block_store ---- *)

let test_block_store_basics () =
  let bs = Block_store.create () in
  let c1 = bytes_of_seed 1 40 and c2 = bytes_of_seed 2 60 in
  let id1 = Chunk.digest c1 and id2 = Chunk.digest c2 in
  Alcotest.(check bool) "first put is new" true (Block_store.put bs id1 (Bytes.to_string c1));
  Alcotest.(check bool) "second put dedups" false (Block_store.put bs id1 (Bytes.to_string c1));
  Alcotest.(check bool) "other chunk is new" true (Block_store.put bs id2 (Bytes.to_string c2));
  Alcotest.(check int) "count" 2 (Block_store.count bs);
  Alcotest.(check int) "stored bytes" 100 (Block_store.stored_bytes bs);
  Alcotest.(check bool) "get returns content" true (Block_store.get bs id1 = Some (Bytes.to_string c1));
  Alcotest.(check bool) "hashes sorted" true
    (let hs = Block_store.hashes bs in
     hs = List.sort Int64.compare hs && List.length hs = 2);
  Alcotest.(check int) "remove reclaims" 40 (Block_store.remove bs id1);
  Alcotest.(check bool) "removed chunk gone" true (Block_store.get bs id1 = None);
  Block_store.close bs

let test_block_store_persistence () =
  let path = Filename.temp_file "kondo_bs" ".dat" in
  let bs = Block_store.create ~path () in
  let chunks = List.init 5 (fun i -> bytes_of_seed (i + 10) (20 + (7 * i))) in
  List.iter (fun c -> ignore (Block_store.put bs (Chunk.digest c) (Bytes.to_string c))) chunks;
  Block_store.close bs;
  let bs2 = Block_store.create ~path () in
  let salvaged, intact = Block_store.load_report bs2 in
  Alcotest.(check int) "all chunks reloaded" 5 salvaged;
  Alcotest.(check bool) "file intact" true intact;
  List.iter
    (fun c ->
      Alcotest.(check bool) "content survives restart" true
        (Block_store.get bs2 (Chunk.digest c) = Some (Bytes.to_string c)))
    chunks;
  Block_store.close bs2;
  Sys.remove path

(* Truncate the backing file at every byte: every prefix must salvage
   cleanly into some valid chunk prefix, and appending after a salvage
   must produce a loadable file again. *)
let test_block_store_salvage_every_truncation () =
  let path = Filename.temp_file "kondo_bs" ".dat" in
  let bs = Block_store.create ~path () in
  let chunks = [ bytes_of_seed 1 5; bytes_of_seed 2 7; bytes_of_seed 3 9 ] in
  List.iter (fun c -> ignore (Block_store.put bs (Chunk.digest c) (Bytes.to_string c))) chunks;
  Block_store.close bs;
  let ic = open_in_bin path in
  let full = Bytes.create (in_channel_length ic) in
  really_input ic full 0 (Bytes.length full);
  close_in ic;
  (* frame layout: [Frame header][u64 id][chunk]; a cut is clean exactly
     on a frame boundary *)
  let boundaries =
    List.rev
      (snd
         (List.fold_left
            (fun (off, acc) c ->
              let off = off + Frame.header_len + 8 + Bytes.length c in
              (off, off :: acc))
            (0, []) chunks))
  in
  Alcotest.(check int) "boundaries reach the file end" (Bytes.length full)
    (List.nth boundaries 2);
  let torn = Filename.temp_file "kondo_bs_torn" ".dat" in
  for cut = 0 to Bytes.length full do
    let oc = open_out_bin torn in
    output_bytes oc (Bytes.sub full 0 cut);
    close_out oc;
    let bs = Block_store.create ~path:torn () in
    let salvaged, intact = Block_store.load_report bs in
    Alcotest.(check int)
      (Printf.sprintf "salvage at cut %d is the longest valid prefix" cut)
      (List.length (List.filter (fun b -> b <= cut) boundaries))
      salvaged;
    Alcotest.(check bool)
      (Printf.sprintf "intact flag at cut %d" cut)
      (cut = 0 || List.mem cut boundaries)
      intact;
    (* every salvaged chunk must carry its exact content *)
    List.iteri
      (fun i c ->
        if i < salvaged then
          Alcotest.(check bool)
            (Printf.sprintf "chunk %d verifies after cut %d" i cut)
            true
            (Block_store.get bs (Chunk.digest c) = Some (Bytes.to_string c)))
      chunks;
    (* the store must accept appends after truncating the torn tail *)
    let extra = bytes_of_seed (100 + cut) 11 in
    ignore (Block_store.put bs (Chunk.digest extra) (Bytes.to_string extra));
    Block_store.close bs;
    let bs2 = Block_store.create ~path:torn () in
    let salvaged2, intact2 = Block_store.load_report bs2 in
    Alcotest.(check int)
      (Printf.sprintf "append after cut %d persists" cut)
      (salvaged + 1) salvaged2;
    Alcotest.(check bool) "appended file intact" true intact2;
    Block_store.close bs2
  done;
  Sys.remove torn;
  Sys.remove path

let test_block_store_compact () =
  let path = Filename.temp_file "kondo_bs" ".dat" in
  let bs = Block_store.create ~path () in
  let keep = bytes_of_seed 1 50 and drop = bytes_of_seed 2 70 in
  ignore (Block_store.put bs (Chunk.digest keep) (Bytes.to_string keep));
  ignore (Block_store.put bs (Chunk.digest drop) (Bytes.to_string drop));
  ignore (Block_store.remove bs (Chunk.digest drop));
  let size_before = (Unix.stat path).Unix.st_size in
  Block_store.compact bs;
  let size_after = (Unix.stat path).Unix.st_size in
  Alcotest.(check bool) "compaction shrinks the file" true (size_after < size_before);
  Alcotest.(check bool) "live chunk survives compaction" true
    (Block_store.get bs (Chunk.digest keep) = Some (Bytes.to_string keep));
  Block_store.close bs;
  let bs2 = Block_store.create ~path () in
  Alcotest.(check bool) "compacted file reloads" true
    (Block_store.get bs2 (Chunk.digest keep) = Some (Bytes.to_string keep));
  Block_store.close bs2;
  Sys.remove path

(* Four domains, started together, put overlapping id sets into one
   backed store, each its set three times over: every id is new exactly
   once across them, the index counts each chunk once, and the file
   holds exactly one frame per chunk. *)
let test_block_store_concurrent_puts () =
  let path = Filename.temp_file "kondo_bs" ".dat" in
  let bs = Block_store.create ~path () in
  let span = 1536 in
  let n = 2 * span in
  let chunks =
    Array.init n (fun i -> Bytes.of_string (Printf.sprintf "chunk %d%s" i (String.make (i mod 32) '.')))
  in
  let ids = Array.map Chunk.digest chunks in
  let ready = Atomic.make 0 in
  (* domain d puts ids [d * span/3, d * span/3 + span): the middle third
     of the range is put by three domains *)
  let worker d () =
    Atomic.incr ready;
    while Atomic.get ready < 4 do Domain.cpu_relax () done;
    List.concat
      (List.init 3 (fun _ ->
           List.init span (fun k ->
               let i = (d * span / 3) + k in
               (i, Block_store.put bs ids.(i) (Bytes.to_string chunks.(i))))))
  in
  let domains = List.init 4 (fun d -> Domain.spawn (worker d)) in
  let fresh = Array.make n 0 in
  List.iter
    (fun d -> List.iter (fun (i, is_new) -> if is_new then fresh.(i) <- fresh.(i) + 1) (Domain.join d))
    domains;
  Alcotest.(check (array int)) "each id new exactly once" (Array.make n 1) fresh;
  let total = Array.fold_left (fun acc c -> acc + Bytes.length c) 0 chunks in
  let sorted_ids = List.sort Int64.compare (Array.to_list ids) in
  Alcotest.(check int) "count" n (Block_store.count bs);
  Alcotest.(check int) "stored bytes" total (Block_store.stored_bytes bs);
  Alcotest.(check bool) "hashes" true (Block_store.hashes bs = sorted_ids);
  Block_store.close bs;
  let bs2 = Block_store.create ~path () in
  Alcotest.(check (pair int bool)) "reopen salvages every chunk once" (n, true)
    (Block_store.load_report bs2);
  Alcotest.(check int) "reopened count" n (Block_store.count bs2);
  Alcotest.(check int) "reopened bytes" total (Block_store.stored_bytes bs2);
  Alcotest.(check bool) "reopened hashes" true (Block_store.hashes bs2 = sorted_ids);
  Array.iteri
    (fun i c ->
      Alcotest.(check bool) "content survives" true (Block_store.get bs2 ids.(i) = Some (Bytes.to_string c)))
    chunks;
  Block_store.close bs2;
  Sys.remove path

(* ---- Cache ---- *)

let qcheck_cache_budget =
  QCheck.Test.make ~name:"cache never exceeds its byte budget" ~count:100
    QCheck.(pair (int_range 0 2000) (list_of_size Gen.(0 -- 60) (int_range 0 200)))
    (fun (budget, sizes) ->
      let cache = Cache.create ~budget_bytes:budget () in
      List.iteri (fun i len -> Cache.put cache (Int64.of_int i) (string_of_seed i len)) sizes;
      let s = Cache.stats cache in
      s.Cache.current_bytes <= budget && Cache.budget cache = budget)

let qcheck_cache_bookkeeping =
  QCheck.Test.make ~name:"hit/miss/eviction bookkeeping balances" ~count:100
    QCheck.(pair (int_range 0 1000) (list_of_size Gen.(0 -- 60) (int_range 0 120)))
    (fun (budget, sizes) ->
      let cache = Cache.create ~budget_bytes:budget () in
      (* unique keys: every put is either an insertion or a rejection *)
      List.iteri (fun i len -> Cache.put cache (Int64.of_int i) (string_of_seed i len)) sizes;
      List.iteri (fun i _ -> ignore (Cache.get cache (Int64.of_int i))) sizes;
      let s = Cache.stats cache in
      s.Cache.insertions + s.Cache.rejections = List.length sizes
      && s.Cache.entries = s.Cache.insertions - s.Cache.evictions
      && s.Cache.hits + s.Cache.misses = List.length sizes
      && s.Cache.hits = s.Cache.entries (* live entries hit, evicted/rejected ones miss *)
      && s.Cache.current_bytes <= budget)

(* Capacity is the whole budget, whatever the ids: a 16 KiB cache keeps
   four 4 KiB chunks, including ids that differ only in their low bits
   or only in their high bits. *)
let test_cache_capacity_ignores_ids () =
  let size = Chunk.default_size in
  let cache = Cache.create ~budget_bytes:(4 * size) () in
  let ids = [ 0L; 8L; 16L; 0x7fff_ffff_ffff_fff8L ] in
  List.iteri (fun i id -> Cache.put cache id (string_of_seed i size)) ids;
  let s = Cache.stats cache in
  Alcotest.(check (list int)) "insertions, rejections, evictions, entries, bytes"
    [ 4; 0; 0; 4; 4 * size ]
    [ s.Cache.insertions; s.Cache.rejections; s.Cache.evictions; s.Cache.entries;
      s.Cache.current_bytes ];
  List.iteri
    (fun i id ->
      Alcotest.(check bool) "every chunk kept" true
        (Cache.get cache id = Some (string_of_seed i size)))
    ids;
  (* a fifth chunk evicts the least recently used: the first id, whose
     get above came first *)
  Cache.put cache 24L (string_of_seed 4 size);
  Alcotest.(check bool) "LRU entry evicted" true (Cache.get cache 0L = None);
  Alcotest.(check int) "the rest kept" 4
    (List.length (List.filter (fun id -> Cache.get cache id <> None) (List.tl ids @ [ 24L ])))

(* A budget of k equal chunks keeps exactly the k most recently used,
   for arbitrary ids and any sequence of puts and gets: a model MRU list
   predicts every hit and the final contents. *)
let qcheck_cache_keeps_k_most_recent =
  QCheck.Test.make ~name:"a k-chunk budget keeps the k most recently used" ~count:100
    QCheck.(
      triple (int_range 1 8)
        (array_of_size (Gen.return 12) int64)
        (list_of_size Gen.(0 -- 80) (pair bool (int_range 0 11))))
    (fun (k, pool, ops) ->
      let size = 4096 in
      let data id = string_of_seed (Int64.to_int id land 0xFFFF) size in
      let cache = Cache.create ~budget_bytes:(k * size) () in
      let touch id mru = List.filteri (fun i _ -> i < k) (id :: List.filter (( <> ) id) mru) in
      let step (mru, ok) (is_put, slot) =
        let id = pool.(slot) in
        if is_put then begin
          Cache.put cache id (data id);
          (touch id mru, ok)
        end
        else
          let hit = List.mem id mru in
          let expect = if hit then Some (data id) else None in
          ((if hit then touch id mru else mru), ok && Cache.get cache id = expect)
      in
      let mru, ok = List.fold_left step ([], true) ops in
      ok
      && (Cache.stats cache).Cache.entries = List.length mru
      && List.for_all (fun id -> Cache.get cache id = Some (data id)) mru)

let test_cache_coalesces_concurrent_gets () =
  let cache = Cache.create ~budget_bytes:(1024 * 1024) () in
  let payload = bytes_of_seed 7 100 in
  let id = Chunk.digest payload in
  let upstream_calls = Atomic.make 0 in
  let fetch () =
    Atomic.incr upstream_calls;
    Unix.sleepf 0.03;
    Ok (Bytes.to_string payload)
  in
  let domains =
    Array.init 4 (fun _ -> Domain.spawn (fun () -> Cache.get_or_fetch cache id ~fetch))
  in
  let results = Array.map Domain.join domains in
  Array.iter
    (function
      | Ok b -> Alcotest.(check bool) "identical bytes" true (b = Bytes.to_string payload)
      | Error e -> Alcotest.fail ("coalesced get failed: " ^ Fault.to_string e))
    results;
  Alcotest.(check int) "exactly one upstream fetch" 1 (Atomic.get upstream_calls);
  let s = Cache.stats cache in
  Alcotest.(check int) "one single-flight" 1 s.Cache.single_flights;
  Alcotest.(check int) "every other caller coalesced or hit" 3
    (s.Cache.coalesced + s.Cache.hits)

let test_cache_never_caches_errors () =
  let cache = Cache.create ~budget_bytes:4096 () in
  let failing () = Error (Fault.Transient "upstream down") in
  (match Cache.get_or_fetch cache 5L ~fetch:failing with
  | Ok _ -> Alcotest.fail "error fetch returned Ok"
  | Error _ -> ());
  Alcotest.(check bool) "error not cached" true (Cache.get cache 5L = None);
  (match Cache.get_or_fetch cache 5L ~fetch:(fun () -> Ok "good") with
  | Ok b -> Alcotest.(check string) "later fetch serves" "good" b
  | Error e -> Alcotest.fail (Fault.to_string e));
  let s = Cache.stats cache in
  Alcotest.(check int) "both fetches ran upstream" 2 s.Cache.single_flights

(* A zero-budget cache admits nothing: every fetch is a counted miss,
   single flight and rejection, and the fetched chunk is handed back
   as it is, uncopied. *)
let test_cache_zero_budget_copies_nothing () =
  let cache = Cache.create ~budget_bytes:0 () in
  let chunk = string_of_seed 11 Chunk.default_size in
  let upstream = ref 0 in
  let fetch () =
    incr upstream;
    Ok chunk
  in
  let served = ref true in
  let before = Gc.allocated_bytes () in
  for i = 0 to 99 do
    match Cache.get_or_fetch cache (Int64.of_int (i mod 10)) ~fetch with
    | Ok b -> if not (String.equal b chunk) then served := false
    | Error _ -> served := false
  done;
  let allocated = Gc.allocated_bytes () -. before in
  Alcotest.(check bool) "correct bytes" true !served;
  Alcotest.(check int) "every fetch ran upstream" 100 !upstream;
  let s = Cache.stats cache in
  Alcotest.(check (list int)) "hits, misses, single flights, rejections, insertions"
    [ 0; 100; 100; 100; 0 ]
    [ s.Cache.hits; s.Cache.misses; s.Cache.single_flights; s.Cache.rejections;
      s.Cache.insertions ];
  Alcotest.(check (list int)) "nothing held" [ 0; 0; 0; 0 ]
    [ s.Cache.entries; s.Cache.current_bytes; s.Cache.evictions; s.Cache.coalesced ];
  Alcotest.(check bool)
    (Printf.sprintf "no chunk copied (%.0f bytes allocated)" allocated)
    true
    (allocated < float_of_int (100 * Chunk.default_size / 4))

(* ---- Server + Client over loopback ---- *)

let loopback_pair ?(jobs = 1) ?(cache_bytes = 1024 * 1024) () =
  let server = Server.create ~cache_bytes ~jobs ~store:(Block_store.create ()) () in
  (server, Transport.loopback ~handle:(Server.handle server))

let test_cache_read_into_copies_slice () =
  let cache = Cache.create ~budget_bytes:4096 () in
  let twin = Cache.create ~budget_bytes:4096 () in
  let chunk = string_of_seed 3 256 in
  Cache.put cache 1L chunk;
  Cache.put twin 1L chunk;
  let dst = Bytes.make 32 'x' in
  Alcotest.(check bool) "hit" true (Cache.read_into cache 1L ~src_off:100 dst ~dst_off:8 ~len:16);
  ignore (Cache.get twin 1L);
  Alcotest.(check string) "only the slice is copied"
    (String.make 8 'x' ^ String.sub chunk 100 16 ^ String.make 8 'x')
    (Bytes.to_string dst);
  Alcotest.(check bool) "miss" false (Cache.read_into cache 2L ~src_off:0 dst ~dst_off:0 ~len:1);
  ignore (Cache.get twin 2L);
  (match Cache.read_into cache 1L ~src_off:250 dst ~dst_off:0 ~len:16 with
  | _ -> Alcotest.fail "slice past the chunk accepted"
  | exception Invalid_argument _ -> ignore (Cache.get twin 1L));
  (* the caller owns its copy: scribbling on it leaves the cache intact *)
  Bytes.fill dst 0 32 '\000';
  ignore (Cache.read_into cache 1L ~src_off:0 dst ~dst_off:0 ~len:32);
  ignore (Cache.get twin 1L);
  Alcotest.(check string) "cached chunk unchanged" (String.sub chunk 0 32)
    (Bytes.to_string dst);
  Alcotest.(check bool) "same accounting as get" true (Cache.stats cache = Cache.stats twin)

(* The chunk-copying read path [Client.read_bytes] had before slices were
   copied out of the cache: a [Cache.get] per chunk, then one range GET
   per run of misses.  The client's cache hits it would have counted are
   added to [hits]. *)
let read_via_get client cache m ~hits ~offset ~length =
  let c0 = Chunk.chunk_of_offset m offset in
  let n = Chunk.chunk_of_offset m (offset + length - 1) - c0 + 1 in
  let chunks = Array.init n (fun i -> Cache.get cache m.Chunk.ids.(c0 + i)) in
  Array.iter (fun c -> if c <> None then incr hits) chunks;
  let i = ref 0 in
  while !i < n do
    if chunks.(!i) <> None then incr i
    else begin
      let j = ref !i in
      while !j < n && chunks.(!j) = None do
        incr j
      done;
      (match Client.fetch_chunks client m ~first:(c0 + !i) ~count:(!j - !i) with
      | Error e -> Alcotest.fail (Fault.to_string e)
      | Ok fetched ->
        Array.iteri
          (fun k b ->
            chunks.(!i + k) <- Some b;
            Cache.put cache m.Chunk.ids.(c0 + !i + k) b)
          fetched);
      i := !j
    end
  done;
  let out = Bytes.create length in
  Array.iteri
    (fun i c ->
      let coff, clen = Chunk.chunk_span m (c0 + i) in
      let lo = max offset coff and hi = min (offset + length) (coff + clen) in
      Bytes.blit_string (Option.get c) (lo - coff) out (lo - offset) (hi - lo))
    chunks;
  out

let test_client_slice_reads_match_chunk_copies () =
  let blob = bytes_of_seed 41 4000 in
  let setup () =
    let server, conn = loopback_pair () in
    let m = Server.add_blob server ~chunk_size:64 ~name:"blob" blob in
    (* room for 8 of the 63 chunks, so the sequence evicts *)
    let cache = Cache.create ~budget_bytes:512 () in
    (m, cache, Client.connect ~cache conn)
  in
  let m, cache, client = setup () in
  let m', cache', client' = setup () in
  let hits' = ref 0 in
  let rng = Kondo_prng.Rng.create 9 in
  for _ = 1 to 400 do
    let offset = Kondo_prng.Rng.int rng 4000 in
    let length = 1 + Kondo_prng.Rng.int rng (min 200 (4000 - offset)) in
    let expect = Bytes.sub blob offset length in
    (match Client.read_bytes client m ~offset ~length with
    | Ok b -> Alcotest.(check bool) "served bytes" true (b = expect)
    | Error e -> Alcotest.fail (Fault.to_string e));
    Alcotest.(check bool) "oracle bytes" true
      (read_via_get client' cache' m' ~hits:hits' ~offset ~length = expect)
  done;
  let oracle = Client.stats client' in
  Alcotest.(check bool) "client stats unchanged" true
    (Client.stats client = { oracle with Client.cache_hits = oracle.Client.cache_hits + !hits' });
  Alcotest.(check bool) "cache stats unchanged" true (Cache.stats cache = Cache.stats cache');
  Alcotest.(check bool) "some reads hit the cache" true ((Client.stats client).Client.cache_hits > 0)

let test_client_reads_blob () =
  let server, conn = loopback_pair () in
  let blob = bytes_of_seed 11 5000 in
  let m = Server.add_blob server ~chunk_size:256 ~name:"blob" blob in
  let client = Client.connect conn in
  (match Client.manifest client ~name:"blob" with
  | Error e -> Alcotest.fail (Fault.to_string e)
  | Ok m' -> Alcotest.(check int64) "manifest root" m.Chunk.root m'.Chunk.root);
  (* whole blob, and an unaligned interior slice *)
  (match Client.read_bytes client m ~offset:0 ~length:5000 with
  | Ok b -> Alcotest.(check bool) "whole blob matches" true (b = blob)
  | Error e -> Alcotest.fail (Fault.to_string e));
  (match Client.read_bytes client m ~offset:777 ~length:1001 with
  | Ok b ->
    Alcotest.(check bool) "interior slice matches" true (b = Bytes.sub blob 777 1001)
  | Error e -> Alcotest.fail (Fault.to_string e));
  Client.close client

let test_client_batch_parallel_server () =
  let blob = bytes_of_seed 21 8192 in
  let read_all jobs =
    let server, conn = loopback_pair ~jobs () in
    let m = Server.add_blob server ~chunk_size:128 ~name:"blob" blob in
    let client = Client.connect conn in
    match Client.read_bytes client m ~offset:0 ~length:8192 with
    | Ok b -> b
    | Error e -> Alcotest.fail (Fault.to_string e)
  in
  Alcotest.(check bool) "jobs=1 and jobs=4 serve identical bytes" true
    (read_all 1 = read_all 4 && read_all 4 = blob)

let test_client_cache_and_server_cache_hits () =
  let server, conn = loopback_pair () in
  let blob = bytes_of_seed 31 2048 in
  let m = Server.add_blob server ~chunk_size:64 ~name:"blob" blob in
  let client = Client.connect ~cache:(Cache.create ~budget_bytes:65536 ()) conn in
  (match Client.read_bytes client m ~offset:0 ~length:2048 with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Fault.to_string e));
  let first_gets = (Client.stats client).Client.range_gets in
  Alcotest.(check bool) "first read fetched" true (first_gets > 0);
  (match Client.read_bytes client m ~offset:0 ~length:2048 with
  | Ok b -> Alcotest.(check bool) "second read identical" true (b = blob)
  | Error e -> Alcotest.fail (Fault.to_string e));
  Alcotest.(check int) "second read fully client-cached" first_gets
    (Client.stats client).Client.range_gets;
  Alcotest.(check bool) "client cache hits counted" true
    ((Client.stats client).Client.cache_hits > 0);
  (* a second, cache-less client hits the server-side cache instead *)
  let client2 = Client.connect (Transport.loopback ~handle:(Server.handle server)) in
  (match Client.read_bytes client2 m ~offset:0 ~length:2048 with
  | Ok b -> Alcotest.(check bool) "server-cached bytes identical" true (b = blob)
  | Error e -> Alcotest.fail (Fault.to_string e));
  Alcotest.(check bool) "server cache hits counted" true
    ((Cache.stats (Server.cache server)).Cache.hits > 0)

(* Satellite: a digest mismatch on a fetched chunk must be counted as a
   corrupt fetch and must travel the retry path — the client never
   returns corrupt bytes as a success. *)
let test_client_corrupt_chunk_retried () =
  let server, _ = loopback_pair () in
  let blob = bytes_of_seed 41 512 in
  let m = Server.add_blob server ~chunk_size:64 ~name:"blob" blob in
  (* mangle the first BATCH response: flip the last payload byte, which
     decodes fine but fails digest verification *)
  let mangled = ref false in
  let handle body =
    let resp = Server.handle server body in
    if (not !mangled) && String.length resp > 0 && resp.[0] = 'B' then begin
      mangled := true;
      let b = Bytes.of_string resp in
      let last = Bytes.length b - 1 in
      Bytes.set_uint8 b last (Bytes.get_uint8 b last lxor 0xFF);
      Bytes.unsafe_to_string b
    end
    else resp
  in
  let client = Client.connect (Transport.loopback ~handle) in
  (match Client.read_bytes client m ~offset:0 ~length:512 with
  | Ok b -> Alcotest.(check bool) "bytes correct after retry" true (b = blob)
  | Error e -> Alcotest.fail (Fault.to_string e));
  let s = Client.stats client in
  Alcotest.(check int) "digest mismatch counted corrupt" 1 s.Client.corrupt_fetches;
  Alcotest.(check bool) "went through the retry path" true (s.Client.retries >= 1);
  Alcotest.(check bool) "mangler fired" true !mangled

let test_client_corrupt_fault_plan_retried () =
  let server, _ = loopback_pair () in
  let blob = bytes_of_seed 51 256 in
  let m = Server.add_blob server ~chunk_size:64 ~name:"blob" blob in
  let plan =
    match Fault_plan.of_string "seed=5,corrupt=0.5" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let retry = { Retry.default with Retry.max_attempts = 10; deadline_ms = 1e9 } in
  let client =
    Client.connect ~retry ~faults:plan (Transport.loopback ~handle:(Server.handle server))
  in
  (* no client cache, so every read refetches: enough rounds that the
     deterministic plan corrupts at least one of them *)
  let ok_reads = ref 0 in
  for _ = 1 to 10 do
    match Client.read_bytes client m ~offset:0 ~length:256 with
    | Ok b -> if b = blob then incr ok_reads
    | Error _ -> ()
  done;
  Alcotest.(check bool) "reads succeed under corruption" true (!ok_reads > 0);
  Alcotest.(check bool) "injected corruption forced retries" true
    ((Client.stats client).Client.retries > 0)

let test_server_put_and_stat () =
  let _, conn = loopback_pair () in
  let client = Client.connect conn in
  let payload = bytes_of_seed 61 90 in
  (match Client.put client payload with
  | Ok (id, fresh) ->
    Alcotest.(check int64) "content-addressed id" (Chunk.digest payload) id;
    Alcotest.(check bool) "first put fresh" true fresh
  | Error e -> Alcotest.fail (Fault.to_string e));
  (match Client.put client payload with
  | Ok (_, fresh) -> Alcotest.(check bool) "second put dedups" false fresh
  | Error e -> Alcotest.fail (Fault.to_string e));
  match Client.stat client with
  | Ok i ->
    Alcotest.(check int) "one chunk stored" 1 i.Proto.chunks;
    Alcotest.(check int) "stored bytes" 90 i.Proto.store_bytes
  | Error e -> Alcotest.fail (Fault.to_string e)

(* A chunk is shared from the store to the wire, so every byte a caller
   hands in is copied on admission and every buffer handed out is the
   caller's own: scribbling on either afterwards never changes what a
   later GET or BATCH serves.  ([Cache.get] and [Block_store.get] hand
   out strings, which cannot be scribbled on.) *)
let test_served_chunks_never_alias_caller_bytes () =
  let server, conn = loopback_pair () in
  let client = Client.connect ~cache:(Cache.create ~budget_bytes:65536 ()) conn in
  let raw = Transport.loopback ~handle:(Server.handle server) in
  let ask req =
    raw.Transport.send (Proto.encode_request req);
    match Result.bind (raw.Transport.recv ()) Proto.decode_response with
    | Ok resp -> resp
    | Error e -> Alcotest.fail e
  in
  let served what id expect =
    Alcotest.(check bool) (what ^ ": GET") true (ask (Proto.Get id) = Proto.Blob expect);
    Alcotest.(check bool) (what ^ ": BATCH") true
      (ask (Proto.Batch [ id ]) = Proto.Blobs [ (id, Some expect) ])
  in
  let scribble b = Bytes.fill b 0 (Bytes.length b) '\xAA' in
  (* [Server.add_blob]: a blob that is one whole chunk, one shorter than
     a chunk, and one of several chunks *)
  List.iter
    (fun (seed, len) ->
      let blob = bytes_of_seed seed len in
      let before = Bytes.to_string blob in
      let m = Server.add_blob server ~chunk_size:64 ~name:(string_of_int seed) blob in
      scribble blob;
      Array.iteri
        (fun i id ->
          let off, n = Chunk.chunk_span m i in
          served "add_blob" id (String.sub before off n))
        m.Chunk.ids)
    [ (1, 64); (2, 40); (3, 300) ];
  (* [Client.put] *)
  let payload = bytes_of_seed 4 100 in
  let before = Bytes.to_string payload in
  let id =
    match Client.put client payload with
    | Ok (id, _) -> id
    | Error e -> Alcotest.fail (Fault.to_string e)
  in
  scribble payload;
  served "Client.put" id before;
  (* [Cache.put] into the server's cache: the GET is a cache hit *)
  let chunk = bytes_of_seed 5 64 in
  let before = Bytes.to_string chunk in
  let id = Chunk.digest chunk in
  Cache.put (Server.cache server) id (Bytes.to_string chunk);
  scribble chunk;
  let hits = (Cache.stats (Server.cache server)).Cache.hits in
  served "Cache.put" id before;
  Alcotest.(check int) "served from the server cache" (hits + 2)
    (Cache.stats (Server.cache server)).Cache.hits;
  (* a [Client.read_bytes] buffer: the same read again is a client cache
     hit, and the server serves the chunk unchanged *)
  let blob = bytes_of_seed 6 64 in
  let m = Server.add_blob server ~chunk_size:64 ~name:"read" blob in
  let read () =
    match Client.read_bytes client m ~offset:0 ~length:64 with
    | Ok b -> b
    | Error e -> Alcotest.fail (Fault.to_string e)
  in
  scribble (read ());
  Alcotest.(check bool) "read_bytes again, from the client cache" true (read () = blob);
  Alcotest.(check int) "one range GET" 1 (Client.stats client).Client.range_gets;
  served "read_bytes" m.Chunk.ids.(0) (Bytes.to_string blob)

(* Bytes allocated by one call of [f], averaged over ten calls after a
   warm-up call.  [prepare] runs outside the count.  Each call starts on
   an empty minor heap, so no minor collection inside the count promotes
   (and subtracts) an object allocated before it. *)
let allocated_per_call ~prepare f =
  let n = 10 in
  ignore (Sys.opaque_identity (f (prepare 0)));
  let total = ref 0.0 in
  for i = 1 to n do
    let x = prepare i in
    Gc.minor ();
    let before = Gc.allocated_bytes () in
    let r = f x in
    total := !total +. (Gc.allocated_bytes () -. before);
    ignore (Sys.opaque_identity r)
  done;
  !total /. float_of_int n

let check_allocation what ~bound allocated =
  Alcotest.(check bool)
    (Printf.sprintf "%s allocates %.0f B (bound %d B)" what allocated bound)
    true
    (allocated <= float_of_int bound)

(* A served chunk is copied once, into the response message, and a
   fetched chunk once more, out of it; ingest copies each chunk once.
   The bounds leave room for the messages' headers and bookkeeping, and
   none of them for a second copy of the payload. *)
let test_chunk_path_allocation_bounds () =
  let size = Chunk.default_size in
  let server, conn = loopback_pair () in
  let m = Server.add_blob server ~name:"blob" (bytes_of_seed 81 (64 * size)) in
  let batch = Proto.encode_request (Proto.Batch (List.init 8 (fun i -> m.Chunk.ids.(i)))) in
  ignore (Server.handle server batch);
  check_allocation "a warm BATCH of 8 chunks in Server.handle" ~bound:(40 * 1024)
    (allocated_per_call ~prepare:ignore (fun () -> Server.handle server batch));
  let client = Client.connect conn in
  check_allocation "Client.fetch_chunks of 8" ~bound:(80 * 1024)
    (allocated_per_call ~prepare:ignore (fun () -> Client.fetch_chunks client m ~first:0 ~count:8));
  check_allocation "a 4 KiB Client.put round trip" ~bound:(10 * 1024)
    (allocated_per_call
       ~prepare:(fun i -> bytes_of_seed (1000 + i) size)
       (fun payload -> Client.put client payload));
  let blob = bytes_of_seed 82 (256 * 1024) in
  check_allocation "Server.add_blob of 256 KiB" ~bound:(Bytes.length blob * 5 / 4)
    (allocated_per_call
       ~prepare:(fun _ -> Server.create ~store:(Block_store.create ()) ())
       (fun server -> Server.add_blob server ~name:"big" blob))

(* Stats and metrics replies carry no digest: injected corruption must
   fail their decoding (and be retried), never decode into wrong
   counters or mangled exposition text. *)
let test_replies_under_corruption_exact_or_error () =
  let server, conn = loopback_pair () in
  let blob = bytes_of_seed 71 300 in
  let m = Server.add_blob server ~chunk_size:64 ~name:"blob" blob in
  let warm = Client.connect conn in
  for _ = 1 to 2 do
    ignore (Client.read_bytes warm m ~offset:0 ~length:300)
  done;
  let exact =
    match Client.stat warm with Ok i -> i | Error e -> Alcotest.fail (Fault.to_string e)
  in
  Alcotest.(check bool) "server cache counters are non-zero" true
    (exact.Proto.cache_hits > 0 && exact.Proto.cache_misses > 0);
  let retry = { Retry.default with Retry.max_attempts = 4; deadline_ms = 1e9 } in
  let served = ref 0 in
  List.iter
    (fun (corrupt, seed) ->
      let faults = Fault_plan.create ~corrupt ~seed () in
      let client =
        Client.connect ~retry ~faults (Transport.loopback ~handle:(Server.handle server))
      in
      for _ = 1 to 5 do
        (match Client.stat client with
        | Ok i ->
          incr served;
          Alcotest.(check bool) "stats exact" true (i = exact)
        | Error _ -> ());
        match Client.scrape client with
        | Ok text ->
          incr served;
          Alcotest.(check bool) "metrics text intact" true
            (String.for_all (fun c -> Char.code c < 128) text
            && String.length text > 0 && text.[0] = '#')
        | Error _ -> ()
      done)
    [ (1.0, 1); (1.0, 2); (0.5, 3); (0.5, 4) ];
  Alcotest.(check bool) "some replies served through retries" true (!served > 0)

(* ---- Runtime over the store ---- *)

let fresh_dir prefix =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  dir

(* A dense LDC2D source file and a debloated copy that keeps nothing, so
   every read misses: [(p, src, mounts)], the copy mounted at "/data". *)
let build_hollow ?(n = 16) () =
  let p = Stencils.ldc2d ~n () in
  let src = Filename.temp_file "kondo_store_src" ".kh5" in
  Datafile.write_for ~path:src p;
  let deb = Filename.concat (fresh_dir "kondo_store_deb") "data.kh5" in
  at_exit (fun () -> try Sys.remove deb with Sys_error _ -> ());
  let f = Kondo_h5.File.open_file src in
  Kondo_h5.Writer.write_debloated deb ~source:f
    ~keep:(fun _ -> Kondo_interval.Interval_set.empty);
  Kondo_h5.File.close f;
  (p, src, [ ("/data", deb) ])

let test_runtime_reads_through_store () =
  let p, src, mounts = build_hollow () in
  let server, conn = loopback_pair () in
  ignore (Server.add_kh5 server ~chunk_size:128 ~name:(Filename.basename src) src);
  let client = Client.connect ~cache:(Cache.create ~budget_bytes:65536 ()) conn in
  let store = Source.of_client ~mounts client in
  Alcotest.(check string) "source named after the peer" "loopback" store.Runtime.source_name;
  let rt = Runtime.of_files ~store mounts in
  for i = 0 to 15 do
    for j = 0 to 15 do
      let v = Runtime.read_element rt ~dst:"/data" ~dataset:p.Program.dataset [| i; j |] in
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "element (%d,%d) served from the store" i j)
        (Datafile.fill [| i; j |])
        v
    done
  done;
  let s = Runtime.stats rt in
  Alcotest.(check int) "every read missed locally" 256 s.Runtime.misses;
  Alcotest.(check int) "every miss store-served" 256 s.Runtime.store_fetches;
  Alcotest.(check int) "store bytes accounted"
    (256 * Kondo_dataarray.Dtype.size p.Program.dtype)
    s.Runtime.store_bytes;
  Alcotest.(check int) "nothing degraded" 0 s.Runtime.degraded_reads;
  let cs = Client.stats client in
  Alcotest.(check int) "one manifest request" 1 (cs.Client.requests - cs.Client.range_gets);
  Alcotest.(check int) "the section's one block fetched once" 1 (Runtime.fetched_blocks rt);
  Alcotest.(check int) "its 128-byte chunks in one range GET" 1 cs.Client.range_gets;
  Runtime.shutdown rt;
  Client.close client;
  Sys.remove src

(* ---- Untraced spans ---- *)

let span_count name =
  Kondo_obs.Registry.histogram_count
    (Kondo_obs.Registry.histogram ~labels:[ ("span", name) ] Kondo_obs.Registry.default
       "kondo_span_seconds")

let test_untraced_spans_count () =
  Alcotest.(check bool) "no tracer installed" true (Kondo_obs.Obs.tracer () = None);
  let names = [ "server.handle"; "client.exchange"; "runtime.fetch" ] in
  let step label expected f =
    let before = List.map span_count names in
    f ();
    Alcotest.(check (list int)) label expected
      (List.map2 ( - ) (List.map span_count names) before)
  in
  let p, src, mounts = build_hollow () in
  let server, conn = loopback_pair () in
  step "one Server.handle" [ 1; 0; 0 ] (fun () ->
      ignore (Server.handle server (Proto.encode_request Proto.Stat)));
  let client = Client.connect conn in
  step "one client exchange, one round trip" [ 1; 1; 0 ] (fun () ->
      match Client.stat client with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Kondo_faults.Fault.to_string e));
  let store =
    { Runtime.source_name = "zeros";
      store_fetch = (fun ~dst:_ ~dataset:_ ~offset:_ ~length -> Ok (Bytes.make length '\000')) }
  in
  let rt = Runtime.of_files ~store mounts in
  let read idx = ignore (Runtime.read_element rt ~dst:"/data" ~dataset:p.Program.dataset idx) in
  step "one runtime block fetch" [ 0; 0; 1 ] (fun () -> read [| 0; 0 |]);
  step "an overlay hit fetches nothing" [ 0; 0; 0 ] (fun () -> read [| 0; 1 |]);
  Runtime.shutdown rt;
  Client.close client;
  Sys.remove src

(* The [--remote] source over [src], serving the mount at "/data". *)
let remote_source ?faults ?retry ?cache ~mounts src =
  match Source.of_files ?faults ?retry ?cache ~mounts ~sources:[ ("/data", src) ] () with
  | Ok r -> r
  | Error e -> Alcotest.fail e

(* One BATCH over every chunk of one remote source: the loopback server
   serves each chunk's bytes from the file it opened at creation. *)
let test_remote_batch_over_one_source () =
  let p, src, mounts = build_hollow ~n:64 () in
  let client, store = remote_source ~mounts src in
  let f = Kondo_h5.File.open_file src in
  let len = Kondo_h5.Dataset.logical_bytes (Kondo_h5.File.find f p.Program.dataset) in
  let want =
    Kondo_h5.File.read_raw f p.Program.dataset (Kondo_interval.Interval.make 0 len)
  in
  Kondo_h5.File.close f;
  let chunks = (len + Chunk.default_size - 1) / Chunk.default_size in
  Alcotest.(check bool) "many chunks" true (chunks >= 16);
  (match store.Runtime.store_fetch ~dst:"/data" ~dataset:p.Program.dataset ~offset:0 ~length:len with
  | Ok b -> Alcotest.(check bool) "every chunk's bytes" true (Bytes.equal b want)
  | Error e -> Alcotest.fail (Fault.to_string e));
  Alcotest.(check (list (pair string int))) "client stats"
    [ ("requests", 2); ("range_gets", 1); ("fetched_chunks", chunks); ("fetched_bytes", len);
      ("corrupt_fetches", 0); ("retries", 0); ("breaker_rejections", 0); ("cache_hits", 0) ]
    (Client.stats_fields (Client.stats client));
  Client.close client;
  Sys.remove src

(* A [--remote] source file replaced by rename after the first miss,
   with a file of the same length and other values: the source keeps
   serving the file it opened, so every later miss reads the original
   value and no fetched chunk mismatches its id. *)
let test_remote_source_replaced_by_rename () =
  let p, src, mounts = build_hollow ~n:64 () in
  let client, store = remote_source ~mounts src in
  let rt = Runtime.of_files ~store mounts in
  let read idx =
    match Runtime.try_read_element rt ~dst:"/data" ~dataset:p.Program.dataset idx with
    | Ok v -> Alcotest.(check (float 1e-9)) "original value" (Datafile.fill idx) v
    | Error exn -> Alcotest.fail ("read failed: " ^ Printexc.to_string exn)
  in
  read [| 0; 0 |];
  let other = src ^ ".new" in
  let f = Kondo_h5.File.open_file src in
  let ds = Kondo_h5.File.find f p.Program.dataset in
  Kondo_h5.File.close f;
  Kondo_h5.Writer.write other [ (ds, fun idx -> -1.0 -. Datafile.fill idx) ];
  Alcotest.(check int) "same length" (Unix.stat src).Unix.st_size (Unix.stat other).Unix.st_size;
  Unix.rename other src;
  (* every row of a 64x64 float64 array is 512 bytes: rows 8 apart are
     in distinct blocks, none fetched yet *)
  List.iter (fun i -> read [| i; 5 |]) [ 8; 16; 32; 63 ];
  let cs = Client.stats client in
  Alcotest.(check int) "no corrupt fetch" 0 cs.Client.corrupt_fetches;
  Alcotest.(check int) "no retry" 0 cs.Client.retries;
  Alcotest.(check int) "one block per distinct miss" 5 (Runtime.fetched_blocks rt);
  Alcotest.(check int) "nothing degraded" 0 (Runtime.stats rt).Runtime.degraded_reads;
  Runtime.shutdown rt;
  Client.close client;
  Sys.remove src

let test_runtime_store_failure_falls_back_to_file () =
  let p, src, mounts = build_hollow () in
  let broken_calls = ref 0 in
  let broken =
    { Runtime.source_name = "broken";
      store_fetch =
        (fun ~dst:_ ~dataset:_ ~offset:_ ~length:_ ->
          incr broken_calls;
          Error (Fault.Transient "down")) }
  in
  (* with the file fallback: served, the store tried first *)
  let file_client, file_source = remote_source ~mounts src in
  let store = Source.first [ broken; file_source ] in
  Alcotest.(check string) "order in the name" "broken, then remote" store.Runtime.source_name;
  let rt = Runtime.of_files ~store mounts in
  let v = Runtime.read_element rt ~dst:"/data" ~dataset:p.Program.dataset [| 2; 3 |] in
  Alcotest.(check (float 1e-9)) "file fallback value" (Datafile.fill [| 2; 3 |]) v;
  Alcotest.(check int) "store tried first" 1 !broken_calls;
  Alcotest.(check int) "served by the file path" 1
    (Client.stats file_client).Client.fetched_chunks;
  Alcotest.(check int) "one miss served" 1 (Runtime.stats rt).Runtime.store_fetches;
  Runtime.shutdown rt;
  (* a working store is preferred: the file source is never asked *)
  let server, conn = loopback_pair () in
  ignore (Server.add_kh5 server ~name:(Filename.basename src) src);
  let store_client = Client.connect conn in
  let file_client, file_source = remote_source ~mounts src in
  let store = Source.first [ Source.of_client ~mounts store_client; file_source ] in
  let rt = Runtime.of_files ~store mounts in
  let v = Runtime.read_element rt ~dst:"/data" ~dataset:p.Program.dataset [| 2; 3 |] in
  Alcotest.(check (float 1e-9)) "store value" (Datafile.fill [| 2; 3 |]) v;
  Alcotest.(check int) "served by the store" 1
    (Client.stats store_client).Client.fetched_chunks;
  Alcotest.(check int) "file source untouched" 0 (Client.stats file_client).Client.requests;
  Runtime.shutdown rt;
  (* without the file fallback: a structured degrade, not a crash *)
  let rt = Runtime.of_files ~store:broken mounts in
  (match Runtime.try_read_element rt ~dst:"/data" ~dataset:p.Program.dataset [| 2; 3 |] with
  | Error (Runtime.Degraded { cause = Fault.Transient "down"; _ }) -> ()
  | Ok _ -> Alcotest.fail "read served with no working source"
  | Error exn -> Alcotest.fail ("unexpected error: " ^ Printexc.to_string exn));
  Alcotest.(check int) "degrade accounted" 1 (Runtime.stats rt).Runtime.degraded_reads;
  Runtime.shutdown rt;
  Sys.remove src

(* A store serving a smaller file whose dataset has the same name: every
   miss is a structured permanent degrade — not an escaping
   Invalid_argument, and not a value read from the wrong file. *)
let test_smaller_same_named_file_degrades () =
  let p, src, mounts = build_hollow () in
  let small_src = Filename.temp_file "kondo_store_small" ".kh5" in
  Datafile.write_for ~path:small_src (Stencils.ldc2d ~n:8 ());
  let server, conn = loopback_pair () in
  ignore (Server.add_kh5 server ~name:"small.kh5" small_src);
  let client = Client.connect conn in
  let store = Source.of_client ~mounts client in
  let permanent = function
    | Error (Fault.Permanent _) -> true
    | _ -> false
  in
  let rt = Runtime.of_files ~store mounts in
  List.iter
    (fun idx ->
      match Runtime.try_read_element rt ~dst:"/data" ~dataset:p.Program.dataset idx with
      | Error (Runtime.Degraded { cause; _ }) ->
        Alcotest.(check bool) "permanent cause" true (permanent (Error cause))
      | Ok _ -> Alcotest.fail "served from the wrong file"
      | Error exn -> Alcotest.fail ("unexpected error: " ^ Printexc.to_string exn))
    [ [| 0; 0 |]; [| 15; 15 |] ];
  Alcotest.(check int) "both degraded" 2 (Runtime.stats rt).Runtime.degraded_reads;
  Runtime.shutdown rt;
  (* a range outside the manifest is an error value, not an exception *)
  let server, conn = loopback_pair () in
  ignore (Server.add_kh5 server ~name:"full.kh5" src);
  let store = Source.of_client ~mounts (Client.connect conn) in
  Alcotest.(check bool) "past the end: permanent" true
    (permanent
       (store.Runtime.store_fetch ~dst:"/data" ~dataset:p.Program.dataset ~offset:(1 lsl 20)
          ~length:8));
  (* a local file removed since the runtime opened it: the length check
     cannot read its header, so the miss is a permanent degrade, not an
     escaping Sys_error *)
  let server, conn = loopback_pair () in
  ignore (Server.add_kh5 server ~name:"full.kh5" src);
  let store = Source.of_client ~mounts (Client.connect conn) in
  let rt = Runtime.of_files ~store mounts in
  Sys.remove (List.assoc "/data" mounts);
  (match Runtime.try_read_element rt ~dst:"/data" ~dataset:p.Program.dataset [| 0; 0 |] with
  | Error (Runtime.Degraded { cause; _ }) ->
    Alcotest.(check bool) "removed local file: permanent" true (permanent (Error cause))
  | Ok _ -> Alcotest.fail "served without the length check"
  | Error exn -> Alcotest.fail ("unexpected error: " ^ Printexc.to_string exn));
  Runtime.shutdown rt;
  Client.close client;
  Sys.remove small_src;
  Sys.remove src

(* A block is one default chunk, so a block fetch is one range GET. *)
let test_block_is_one_chunk () =
  Alcotest.(check int) "Runtime.block_size" Chunk.default_size Runtime.block_size;
  let p, src, mounts = build_hollow ~n:64 () in
  let server, conn = loopback_pair () in
  ignore (Server.add_kh5 server ~name:(Filename.basename src) src);
  let client = Client.connect conn in
  let store = Source.of_client ~mounts client in
  let rt = Runtime.of_files ~store mounts in
  for _ = 1 to 2 do
    for i = 0 to 63 do
      for j = 0 to 63 do
        Alcotest.(check (float 1e-9)) "served" (Datafile.fill [| i; j |])
          (Runtime.read_element rt ~dst:"/data" ~dataset:p.Program.dataset [| i; j |])
      done
    done
  done;
  let blocks = 64 * 64 * Kondo_dataarray.Dtype.size p.Program.dtype / Chunk.default_size in
  let cs = Client.stats client in
  Alcotest.(check int) "each block fetched once" blocks (Runtime.fetched_blocks rt);
  Alcotest.(check int) "one range GET per block" blocks cs.Client.range_gets;
  Alcotest.(check int) "one chunk per block" blocks cs.Client.fetched_chunks;
  Alcotest.(check int) "every read served" (2 * 64 * 64) (Runtime.stats rt).Runtime.store_fetches;
  Runtime.shutdown rt;
  Client.close client;
  Sys.remove src

(* A remote source that cannot be opened is named once in the error. *)
let test_remote_open_error_names_path_once () =
  let _, src, mounts = build_hollow () in
  let dir = fresh_dir "kondo_rtd" in
  let missing = Filename.concat dir "missing.kh5" in
  List.iter
    (fun (path, reason) ->
      match Source.of_files ~mounts ~sources:[ ("/data", path) ] () with
      | Ok _ -> Alcotest.fail (path ^ " served")
      | Error msg ->
        Alcotest.(check string) path
          (Printf.sprintf "cannot serve remote source %s: %s" path reason)
          msg)
    [ (dir, "Is a directory"); (missing, "No such file or directory") ];
  Unix.rmdir dir;
  Sys.remove src

(* ---- One scrape tells the client and server caches apart ---- *)

let cache_families =
  [ "hits"; "misses"; "evictions"; "insertions"; "rejections"; "single_flights";
    "coalesced_waits" ]

(* The process-wide [kondo_store_cache_*] series of one owner, in the
   order of [cache_counts]. *)
let cache_series owner =
  List.map
    (fun name ->
      Kondo_obs.Registry.counter_value
        (Kondo_obs.Registry.counter ~labels:[ ("owner", owner) ] Kondo_obs.Registry.default
           ("kondo_store_cache_" ^ name ^ "_total")))
    cache_families

let cache_counts (s : Cache.stats) =
  [ s.Cache.hits; s.misses; s.evictions; s.insertions; s.rejections; s.single_flights;
    s.coalesced ]

let test_one_scrape_tells_caches_apart () =
  let p, src, mounts = build_hollow () in
  (* two runtimes, as two runs would boot: the second one's overlay
     starts empty, so its misses reach the client again *)
  let read_twice store =
    for _ = 1 to 2 do
      let rt = Runtime.of_files ~store mounts in
      for i = 0 to 15 do
        for j = 0 to 15 do
          Alcotest.(check (float 1e-9)) "served" (Datafile.fill [| i; j |])
            (Runtime.read_element rt ~dst:"/data" ~dataset:p.Program.dataset [| i; j |])
        done
      done;
      Runtime.shutdown rt
    done
  in
  let delta before owner = List.map2 ( - ) (cache_series owner) before in
  (* --remote: a client cache in front of the loopback server over the
     source file, whose own cache has no budget *)
  let client0 = cache_series "client" and server0 = cache_series "server" in
  let client_cache = Cache.create ~budget_bytes:65536 () in
  let client, remote =
    remote_source ~cache:client_cache ~mounts src
  in
  read_twice remote;
  let fetched = (Client.stats client).Client.fetched_chunks in
  Alcotest.(check (list int)) "client series: the client cache's counts"
    (cache_counts (Cache.stats client_cache)) (delta client0 "client");
  Alcotest.(check (list int)) "server series: every fetched chunk missed, none retained"
    [ 0; fetched; 0; 0; fetched; fetched; 0 ] (delta server0 "server");
  Alcotest.(check bool) "the client cache hit" true ((Cache.stats client_cache).Cache.hits > 0);
  (* --remote-store: a server cache behind a cacheless client *)
  let client0 = cache_series "client" and server0 = cache_series "server" in
  let server, conn = loopback_pair () in
  ignore (Server.add_kh5 server ~chunk_size:128 ~name:(Filename.basename src) src);
  read_twice (Source.of_client ~mounts (Client.connect conn));
  let server_cache = Cache.stats (Server.cache server) in
  Alcotest.(check (list int)) "server series: the server cache's counts"
    (cache_counts server_cache) (delta server0 "server");
  Alcotest.(check (list int)) "client series untouched" [ 0; 0; 0; 0; 0; 0; 0 ]
    (delta client0 "client");
  Alcotest.(check bool) "the server cache hit" true (server_cache.Cache.hits > 0);
  (* one scrape shows both series, each at its total *)
  let text = Kondo_obs.Registry.expose Kondo_obs.Registry.default in
  List.iter
    (fun owner ->
      let line =
        Printf.sprintf "kondo_store_cache_hits_total{owner=\"%s\"} %d\n" owner
          (List.hd (cache_series owner))
      in
      Alcotest.(check bool) (String.trim line) true (contains text line))
    [ "client"; "server" ];
  Sys.remove src

(* ---- Property: both sources serve every valuation's reads ---- *)

(* A weakly debloated 32x32 CS1 or PRL2D file, built once per program:
   a tiny fuzz budget leaves many in-truth offsets carved away. *)
let weak_fixture =
  let build p =
    lazy
      (let src = Filename.temp_file "kondo_store_weak" ".kh5" in
       at_exit (fun () -> try Sys.remove src with Sys_error _ -> ());
       Datafile.write_for ~path:src p;
       let deb = Filename.temp_file "kondo_store_weak_deb" ".kh5" in
       at_exit (fun () -> try Sys.remove deb with Sys_error _ -> ());
       let weak =
         { Kondo_core.Config.default with
           Kondo_core.Config.seed = 3; max_iter = 8; stop_iter = 8; n_init = 2 }
       in
       ignore (Kondo_core.Pipeline.debloat_file ~config:weak p ~src ~dst:deb);
       (p, src, [ ("/data", deb) ]))
  in
  let cs1 = build (Stencils.cs ~n:32 1) and prl2d = build (Stencils.prl2d ~n:32 ()) in
  fun use_prl -> Lazy.force (if use_prl then prl2d else cs1)

(* Read the valuations through both sources over the same fixture, each
   with its own fresh plan: the file source ([--remote]) and a store
   client over the source file ([--remote-store]).  [ok] judges every
   read; [verdict] the runtime stats and client of each source. *)
let check_sources ~plan (p, src, mounts) vs ~ok ~verdict =
  let retry = { Retry.default with Retry.max_attempts = 48; deadline_ms = 1e9 } in
  let server, conn = loopback_pair () in
  ignore (Server.add_kh5 server ~name:(Filename.basename src) src);
  let store_client = Client.connect ~faults:(plan ()) ~retry conn in
  List.for_all
    (fun (client, store) ->
      let rt = Runtime.of_files ~store mounts in
      let good = ref true in
      List.iter
        (fun v ->
          Program.iter_access p v (fun idx ->
              good :=
                ok idx (Runtime.try_read_element rt ~dst:"/data" ~dataset:p.Program.dataset idx)
                && !good))
        vs;
      let s = Runtime.stats rt in
      Runtime.shutdown rt;
      Client.close client;
      !good && verdict s client)
    [ remote_source ~faults:(plan ()) ~retry ~mounts src;
      (store_client, Source.of_client ~mounts store_client) ]

let valuation_gen = QCheck.(triple bool (int_bound 100_000) (int_bound 100_000))

(* Four random useful valuations (about half of CS1's and PRL2D's
   space reads nothing), so misses accumulate past the breaker's
   threshold. *)
let valuations p seed =
  let rng = Kondo_prng.Rng.create seed in
  let rec draw () =
    let v =
      Program.clamp_params p
        (Array.map (fun (lo, hi) -> Kondo_prng.Rng.float_in rng lo hi) p.Program.param_space)
    in
    if Program.is_useful p v then v else draw ()
  in
  List.init 4 (fun _ -> draw ())

let qcheck_retryable_faults_serve_every_read =
  QCheck.Test.make ~count:30
    ~name:"retryable-only faults: file and store sources serve every read exactly"
    QCheck.(pair valuation_gen (quad (int_bound 15) (int_bound 10) (int_bound 15) (int_bound 5)))
    (fun ((use_prl, vseed, fseed), (tr, to_, co, sh)) ->
      let ((p, _, _) as fixture) = weak_fixture use_prl in
      let pct x = float_of_int x /. 100.0 in
      let plan () =
        Fault_plan.create ~transient:(pct tr) ~timeout:(pct to_) ~corrupt:(pct co)
          ~short_read:(pct sh) ~seed:fseed ()
      in
      check_sources ~plan fixture (valuations p vseed)
        ~ok:(fun idx -> function Ok x -> Float.equal x (Datafile.fill idx) | Error _ -> false)
        ~verdict:(fun s _ ->
          s.Runtime.degraded_reads = 0 && s.Runtime.store_fetches = s.Runtime.misses))

let qcheck_permanent_faults_degrade =
  QCheck.Test.make ~count:30
    ~name:"permanent faults: every miss degrades and the breaker opens"
    valuation_gen
    (fun (use_prl, vseed, fseed) ->
      let ((p, _, _) as fixture) = weak_fixture use_prl in
      let plan () = Fault_plan.create ~permanent:1.0 ~seed:fseed () in
      check_sources ~plan fixture (valuations p vseed)
        ~ok:(fun idx -> function
          | Ok x -> Float.equal x (Datafile.fill idx)
          | Error (Runtime.Degraded _) -> true
          | Error _ -> false)
        ~verdict:(fun s client ->
          (* the breaker trips after 5 consecutive failed exchanges *)
          s.Runtime.degraded_reads = s.Runtime.misses
          && (s.Runtime.misses < 5 || Client.breaker_state client <> Breaker.Closed)))

(* The process-wide series a runtime or client stats field is counted
   in: a client's breaker rejections are its breaker's. *)
let series_of prefix field =
  if field = "breaker_rejections" then "kondo_breaker_rejections_total"
  else prefix ^ field ^ "_total"

let reconciled_series =
  List.map (series_of "kondo_runtime_")
    [ "reads"; "misses"; "store_fetches"; "store_bytes"; "degraded_reads" ]
  @ List.map (series_of "kondo_store_client_")
      [ "requests"; "range_gets"; "fetched_chunks"; "fetched_bytes"; "corrupt_fetches";
        "retries"; "breaker_rejections"; "cache_hits" ]

let series_values () =
  List.map
    (fun name ->
      Kondo_obs.Registry.counter_value
        (Kondo_obs.Registry.counter Kondo_obs.Registry.default name))
    reconciled_series

let qcheck_series_sum_instances =
  QCheck.Test.make ~count:10
    ~name:"retryable faults: runtime, client and breaker series sum their instances"
    QCheck.(pair valuation_gen (quad (int_bound 15) (int_bound 10) (int_bound 15) (int_bound 5)))
    (fun ((use_prl, vseed, fseed), (tr, to_, co, sh)) ->
      let ((p, _, _) as fixture) = weak_fixture use_prl in
      let pct x = float_of_int x /. 100.0 in
      let plan () =
        Fault_plan.create ~transient:(pct tr) ~timeout:(pct to_) ~corrupt:(pct co)
          ~short_read:(pct sh) ~seed:fseed ()
      in
      let before = series_values () in
      let fields = ref [] in
      ignore
        (check_sources ~plan fixture (valuations p vseed)
           ~ok:(fun _ _ -> true)
           ~verdict:(fun s client ->
             let tag prefix = List.map (fun (k, v) -> (series_of prefix k, v)) in
             fields :=
               tag "kondo_runtime_" (Runtime.stats_fields s)
               @ tag "kondo_store_client_" (Client.stats_fields (Client.stats client))
               @ !fields;
             true));
      let expected =
        List.map
          (fun name ->
            List.fold_left (fun acc (k, v) -> if k = name then acc + v else acc) 0 !fields)
          reconciled_series
      in
      List.for_all (fun (k, _) -> List.mem k reconciled_series) !fields
      && List.map2 ( - ) (series_values ()) before = expected)

let test_runtime_stats_rendering () =
  let _, src, mounts = build_hollow () in
  let rt = Runtime.of_files mounts in
  let s = Runtime.stats rt in
  let json = Runtime.stats_to_json ~extra:[ ("client_cache_hits", 3) ] s in
  Alcotest.(check bool) "json has stats fields" true
    (String.length json > 0
    && json.[0] = '{'
    && json.[String.length json - 1] = '}');
  List.iter
    (fun needle -> Alcotest.(check bool) (needle ^ " in json") true (contains json needle))
    [ "\"degraded_reads\": 0"; "\"client_cache_hits\": 3" ];
  Runtime.shutdown rt;
  Sys.remove src

(* ---- Unix-domain socket transport ---- *)

(* Run [f socket] against [server] serving a fresh Unix socket in
   another domain, then stop the accept loop: flip the flag, then wake
   it with a connection. *)
let with_unix_server server f =
  let socket = Filename.concat (fresh_dir "kondo_sock") "store.sock" in
  let stop = Atomic.make false in
  let srv =
    Domain.spawn (fun () ->
        Server.serve_unix server ~socket ~stop:(fun () -> Atomic.get stop) ())
  in
  let rec wait_socket n =
    if Sys.file_exists socket then ()
    else if n = 0 then Alcotest.fail "socket never appeared"
    else begin
      Unix.sleepf 0.05;
      wait_socket (n - 1)
    end
  in
  wait_socket 100;
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      (try
         let wake = Transport.unix_connect socket in
         wake.Transport.close ()
       with Unix.Unix_error _ -> ());
      Domain.join srv)
    (fun () -> f socket)

let test_unix_socket_serving () =
  let server, _ = loopback_pair () in
  let blob = bytes_of_seed 71 3000 in
  let m = Server.add_blob server ~chunk_size:100 ~name:"blob" blob in
  with_unix_server server (fun socket ->
      let client = Client.connect (Transport.unix_connect socket) in
      (match Client.manifest client ~name:"" with
      | Ok m' -> Alcotest.(check int64) "manifest over the socket" m.Chunk.root m'.Chunk.root
      | Error e -> Alcotest.fail (Fault.to_string e));
      (match Client.read_bytes client m ~offset:123 ~length:1717 with
      | Ok b ->
        Alcotest.(check bool) "socket-served slice matches" true (b = Bytes.sub blob 123 1717)
      | Error e -> Alcotest.fail (Fault.to_string e));
      Client.close client)

(* A client that sends a request and hangs up without reading the
   response costs only its own connection: the next client is served. *)
let test_unix_server_survives_hangup () =
  let server, _ = loopback_pair () in
  let m = Server.add_blob server ~chunk_size:100 ~name:"blob" (bytes_of_seed 72 1000) in
  with_unix_server server (fun socket ->
      for _ = 1 to 3 do
        let rude = Transport.unix_connect socket in
        rude.Transport.send (Proto.encode_request Proto.Scrape);
        rude.Transport.close ()
      done;
      let client = Client.connect (Transport.unix_connect socket) in
      (match Client.manifest client ~name:"blob" with
      | Ok m' -> Alcotest.(check int64) "served after hang-ups" m.Chunk.root m'.Chunk.root
      | Error e -> Alcotest.fail (Fault.to_string e));
      Client.close client)

(* A peer that accepts the connection and hangs up: the client's failed
   sends and reads are retryable errors, never a dead process (SIGPIPE)
   or an escaped exception. *)
let test_unix_client_vanished_peer () =
  let socket = Filename.concat (fresh_dir "kondo_sock") "gone.sock" in
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close listener;
      Sys.remove socket)
    (fun () ->
      Unix.bind listener (Unix.ADDR_UNIX socket);
      Unix.listen listener 4;
      let conn = Transport.unix_connect socket in
      (* the connection is queued: accept it and hang up before any send *)
      let fd, _ = Unix.accept listener in
      Unix.close fd;
      let client = Client.connect ~retry:{ Retry.default with Retry.max_attempts = 3 } conn in
      (match Client.manifest client ~name:"blob" with
      | Ok _ -> Alcotest.fail "manifest from a vanished peer"
      | Error e -> Alcotest.(check bool) "retryable" true (Fault.is_retryable e));
      Alcotest.(check int) "every attempt made" 3 (Client.stats client).Client.requests;
      Client.close client)

let suite =
  ( "store",
    [ Alcotest.test_case "chunk index tiles and verifies" `Quick test_chunk_index_tiles;
      Alcotest.test_case "chunk manifest roundtrips" `Quick test_chunk_manifest_roundtrip;
      QCheck_alcotest.to_alcotest qcheck_chunk_offsets;
      Alcotest.test_case "proto request roundtrips" `Quick test_proto_request_roundtrip;
      Alcotest.test_case "proto response roundtrips" `Quick test_proto_response_roundtrip;
      Alcotest.test_case "proto rejects trailing bytes" `Quick test_proto_trailing_bytes;
      QCheck_alcotest.to_alcotest qcheck_wire_matches_oracle;
      Alcotest.test_case "block store basics" `Quick test_block_store_basics;
      Alcotest.test_case "block store persists across restarts" `Quick
        test_block_store_persistence;
      Alcotest.test_case "block store salvages every truncation" `Quick
        test_block_store_salvage_every_truncation;
      Alcotest.test_case "block store compaction" `Quick test_block_store_compact;
      Alcotest.test_case "block store concurrent puts" `Quick test_block_store_concurrent_puts;
      QCheck_alcotest.to_alcotest qcheck_cache_budget;
      QCheck_alcotest.to_alcotest qcheck_cache_bookkeeping;
      Alcotest.test_case "cache capacity ignores ids" `Quick test_cache_capacity_ignores_ids;
      QCheck_alcotest.to_alcotest qcheck_cache_keeps_k_most_recent;
      Alcotest.test_case "cache coalesces concurrent gets" `Quick
        test_cache_coalesces_concurrent_gets;
      Alcotest.test_case "cache never caches errors" `Quick test_cache_never_caches_errors;
      Alcotest.test_case "cache read_into copies only the slice" `Quick
        test_cache_read_into_copies_slice;
      Alcotest.test_case "zero-budget cache copies nothing" `Quick
        test_cache_zero_budget_copies_nothing;
      Alcotest.test_case "slice reads match chunk copies" `Quick
        test_client_slice_reads_match_chunk_copies;
      Alcotest.test_case "client reads blobs over loopback" `Quick test_client_reads_blob;
      Alcotest.test_case "batch fan-out is jobs-invariant" `Quick
        test_client_batch_parallel_server;
      Alcotest.test_case "client and server caches hit" `Quick
        test_client_cache_and_server_cache_hits;
      Alcotest.test_case "corrupt chunk counted and retried" `Quick
        test_client_corrupt_chunk_retried;
      Alcotest.test_case "corrupt fault plan retried" `Quick
        test_client_corrupt_fault_plan_retried;
      Alcotest.test_case "put and stat" `Quick test_server_put_and_stat;
      Alcotest.test_case "served chunks never alias caller bytes" `Quick
        test_served_chunks_never_alias_caller_bytes;
      Alcotest.test_case "chunk path allocation bounds" `Quick
        test_chunk_path_allocation_bounds;
      Alcotest.test_case "stats and metrics under corruption" `Quick
        test_replies_under_corruption_exact_or_error;
      Alcotest.test_case "runtime reads through the store" `Quick
        test_runtime_reads_through_store;
      Alcotest.test_case "untraced spans count each section once" `Quick
        test_untraced_spans_count;
      Alcotest.test_case "remote batch over one source" `Quick
        test_remote_batch_over_one_source;
      Alcotest.test_case "remote source replaced by rename serves the original" `Quick
        test_remote_source_replaced_by_rename;
      Alcotest.test_case "store failure falls back to the file" `Quick
        test_runtime_store_failure_falls_back_to_file;
      Alcotest.test_case "smaller same-named store file degrades" `Quick
        test_smaller_same_named_file_degrades;
      Alcotest.test_case "a runtime block is one chunk" `Quick test_block_is_one_chunk;
      Alcotest.test_case "remote open error names the path once" `Quick
        test_remote_open_error_names_path_once;
      QCheck_alcotest.to_alcotest qcheck_retryable_faults_serve_every_read;
      QCheck_alcotest.to_alcotest qcheck_permanent_faults_degrade;
      QCheck_alcotest.to_alcotest qcheck_series_sum_instances;
      Alcotest.test_case "one scrape tells the caches apart" `Quick
        test_one_scrape_tells_caches_apart;
      Alcotest.test_case "runtime stats render" `Quick test_runtime_stats_rendering;
      Alcotest.test_case "unix socket serving" `Quick test_unix_socket_serving;
      Alcotest.test_case "unix server survives a hang-up" `Quick
        test_unix_server_survives_hangup;
      Alcotest.test_case "unix client survives a vanished peer" `Quick
        test_unix_client_vanished_peer ] )
