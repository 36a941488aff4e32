open Kondo_faults
module Registry = Kondo_obs.Registry

type stats = {
  requests : int;
  range_gets : int;
  fetched_chunks : int;
  fetched_bytes : int;
  corrupt_fetches : int;
  retries : int;
  breaker_rejections : int;
  cache_hits : int;
}

let stats_fields s =
  [ ("requests", s.requests);
    ("range_gets", s.range_gets);
    ("fetched_chunks", s.fetched_chunks);
    ("fetched_bytes", s.fetched_bytes);
    ("corrupt_fetches", s.corrupt_fetches);
    ("retries", s.retries);
    ("breaker_rejections", s.breaker_rejections);
    ("cache_hits", s.cache_hits) ]

(* The client's counters, linked to the process-wide
   [kondo_store_client_*] series.  Breaker rejections are the breaker's
   own count. *)
type counters = {
  requests : Registry.counter;
  range_gets : Registry.counter;
  fetched_chunks : Registry.counter;
  fetched_bytes : Registry.counter;
  corrupt_fetches : Registry.counter;
  retries : Registry.counter;
  cache_hits : Registry.counter;
}

let counters () =
  let c name help = Registry.instance ~help Registry.default name in
  { requests = c "kondo_store_client_requests_total" "Protocol rounds attempted";
    range_gets = c "kondo_store_client_range_gets_total" "BATCH requests issued";
    fetched_chunks = c "kondo_store_client_fetched_chunks_total" "Verified chunks received";
    fetched_bytes = c "kondo_store_client_fetched_bytes_total" "Verified chunk bytes received";
    corrupt_fetches =
      c "kondo_store_client_corrupt_fetches_total" "Digest mismatches detected (then retried)";
    retries = c "kondo_store_client_retries_total" "Exchange retries";
    cache_hits = c "kondo_store_client_cache_hits_total" "Chunks served from the local cache" }

let exchange_section = Kondo_obs.Obs.section ~cat:"store" "client.exchange"

let batch_size =
  Registry.histogram ~help:"Chunk ids per BATCH range GET"
    ~buckets:[| 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0; 128.0 |]
    Registry.default "kondo_store_client_batch_size"

type t = {
  conn : Transport.conn;
  retry : Retry.policy;
  breaker : Breaker.t;
  faults : Fault_plan.t;
  cache : Cache.t option;
  rng : Kondo_prng.Rng.t;
  site : string;
  mutable now_ms : float;
  n : counters;
}

let connect ?(retry = Retry.default) ?(breaker = Breaker.default)
    ?(faults = Fault_plan.none) ?cache conn =
  Retry.validate retry;
  { conn;
    retry;
    breaker = Breaker.create ~config:breaker ();
    faults;
    cache;
    rng = Kondo_prng.Rng.create (Fault_plan.seed faults);
    site = "store:" ^ conn.Transport.peer;
    now_ms = 0.0;
    n = counters () }

let close t = t.conn.Transport.close ()

let stats t : stats =
  let v = Registry.counter_value in
  { requests = v t.n.requests;
    range_gets = v t.n.range_gets;
    fetched_chunks = v t.n.fetched_chunks;
    fetched_bytes = v t.n.fetched_bytes;
    corrupt_fetches = v t.n.corrupt_fetches;
    retries = v t.n.retries;
    breaker_rejections = (Breaker.stats t.breaker).Breaker.rejections;
    cache_hits = v t.n.cache_hits }

let peer t = t.conn.Transport.peer
let breaker_state t = Breaker.state t.breaker

(* One protocol round under the fault plan: the injected short-read and
   corrupt mutations mangle the raw response body, which decoding (or
   digest verification downstream) then rejects as a retryable fault.
   Corruption flips a range GET's chunk payloads (its back half), which
   the digest check catches, and any other reply's tag byte. *)
let round_once t req =
  Registry.inc t.n.requests;
  let attempt =
    Fault_plan.wrap t.faults ~site:t.site
      ~shorten:(fun body -> String.sub body 0 (max 0 (String.length body - 1)))
      ~corrupt:(fun body ->
        if body = "" then body
        else begin
          let b = Bytes.of_string body in
          let len = Bytes.length b in
          let first, last = match req with Proto.Batch _ -> (len / 2, len - 1) | _ -> (0, 0) in
          for i = first to last do
            Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor 0xFF)
          done;
          Bytes.unsafe_to_string b
        end)
      (fun () ->
        t.conn.Transport.send (Proto.encode_request req);
        match t.conn.Transport.recv () with
        | Ok body -> Ok body
        | Error msg -> Error (Fault.Transient msg))
  in
  match attempt with
  | Error _ as e -> e
  | Ok body -> (
    match Proto.decode_response body with
    | Ok resp -> Ok resp
    | Error msg -> Error (Fault.Corrupt ("undecodable response: " ^ msg)))

(* Breaker-gated, retried exchange.  [check] classifies a decoded
   response: Ok payload, or an error (retryable or not). *)
let exchange t req ~check =
  if not (Breaker.allow t.breaker ~now_ms:t.now_ms) then
    Error (Fault.Permanent "store circuit breaker open")
  else begin
    let outcome =
      Kondo_obs.Obs.span exchange_section (fun () ->
          Retry.run t.retry ~rng:t.rng (fun ~attempt:_ ->
              match round_once t req with
              | Error _ as e -> e
              | Ok resp -> check resp))
    in
    t.now_ms <- t.now_ms +. outcome.Retry.elapsed_ms +. 1.0;
    Registry.inc ~by:(Retry.retries outcome) t.n.retries;
    (match outcome.Retry.result with
    | Ok _ -> Breaker.record_success t.breaker
    | Error _ -> Breaker.record_failure t.breaker ~now_ms:t.now_ms);
    outcome.Retry.result
  end

let unexpected resp =
  Error
    (Fault.Corrupt
       ("unexpected response: "
       ^
       match resp with
       | Proto.Blob _ -> "blob"
       | Proto.Not_found _ -> "not-found"
       | Proto.Stored _ -> "stored"
       | Proto.Stats _ -> "stats"
       | Proto.Blobs _ -> "blobs"
       | Proto.Manifest_resp _ -> "manifest"
       | Proto.Metrics _ -> "metrics"
       | Proto.Err msg -> "error: " ^ msg))

let manifest t ~name =
  exchange t (Proto.Manifest_req name) ~check:(function
    | Proto.Manifest_resp m -> Ok m
    | Proto.Err msg -> Error (Fault.Permanent msg)
    | resp -> unexpected resp)

let stat t =
  exchange t Proto.Stat ~check:(function
    | Proto.Stats i -> Ok i
    | resp -> unexpected resp)

let scrape t =
  exchange t Proto.Scrape ~check:(function
    | Proto.Metrics text -> Ok text
    | Proto.Err msg -> Error (Fault.Permanent msg)
    | resp -> unexpected resp)

(* The payload is lent, not copied: the request encoder's copy is the
   one that leaves, and nothing keeps the request after [exchange]. *)
let put t payload =
  let id = Chunk.digest payload in
  exchange t
    (Proto.Put (id, Bytes.unsafe_to_string payload))
    ~check:(function
      | Proto.Stored fresh -> Ok (id, fresh)
      | Proto.Err msg -> Error (Fault.Permanent msg)
      | resp -> unexpected resp)

(* Verify one fetched chunk against the manifest; a mismatch is the
   client-side CRC story of the store path: count it corrupt and hand
   the retry machinery a retryable error — never a silent success. *)
let verified t m i payload =
  if Chunk.verify m i (Bytes.unsafe_of_string payload) then begin
    Registry.inc t.n.fetched_chunks;
    Registry.inc ~by:(String.length payload) t.n.fetched_bytes;
    Ok payload
  end
  else begin
    Registry.inc t.n.corrupt_fetches;
    Error (Fault.Corrupt (Printf.sprintf "chunk %d of %s failed digest verification" i m.Chunk.name))
  end

let fetch_chunks t m ~first ~count =
  if count < 0 || first < 0 || first + count > Chunk.chunk_count m then
    invalid_arg "Client.fetch_chunks: chunk range outside manifest";
  if count = 0 then Ok [||]
  else begin
    let ids = List.init count (fun i -> m.Chunk.ids.(first + i)) in
    Registry.inc t.n.range_gets;
    Registry.observe batch_size (float_of_int count);
    exchange t (Proto.Batch ids) ~check:(function
      | Proto.Blobs entries ->
        if List.length entries <> count then
          Error (Fault.Corrupt "range GET returned a different chunk count")
        else begin
          let rec collect i acc = function
            | [] -> Ok (Array.of_list (List.rev acc))
            | (id, payload) :: rest ->
              if not (Int64.equal id m.Chunk.ids.(first + i)) then
                Error (Fault.Corrupt "range GET returned chunks out of order")
              else (
                match payload with
                | None ->
                  Error
                    (Fault.Permanent
                       (Printf.sprintf "chunk %d of %s missing at the store" (first + i)
                          m.Chunk.name))
                | Some p -> (
                  match verified t m (first + i) p with
                  | Ok b -> collect (i + 1) (b :: acc) rest
                  | Error err -> Error err))
          in
          collect 0 [] entries
        end
      | Proto.Err msg -> Error (Fault.Permanent msg)
      | resp -> unexpected resp)
  end

let read_bytes t m ~offset ~length =
  if offset < 0 || length < 0 || offset + length > m.Chunk.total_len then
    invalid_arg
      (Printf.sprintf "Client.read_bytes: [%d, %d) outside %s (%d bytes)" offset
         (offset + length) m.Chunk.name m.Chunk.total_len);
  if length = 0 then Ok Bytes.empty
  else begin
    let c0 = Chunk.chunk_of_offset m offset in
    let c1 = Chunk.chunk_of_offset m (offset + length - 1) in
    let n = c1 - c0 + 1 in
    let out = Bytes.create length in
    (* (offset in the chunk, offset in [out], length) of chunk [c0 + i]'s
       part of the request *)
    let slice i =
      let coff, clen = Chunk.chunk_span m (c0 + i) in
      let lo = max offset coff and hi = min (offset + length) (coff + clen) in
      (lo - coff, lo - offset, hi - lo)
    in
    let have = Array.make n false in
    (* consult the local chunk cache first, copying only the slice *)
    (match t.cache with
    | None -> ()
    | Some cache ->
      for i = 0 to n - 1 do
        let src_off, dst_off, len = slice i in
        if Cache.read_into cache m.Chunk.ids.(c0 + i) ~src_off out ~dst_off ~len then begin
          Registry.inc t.n.cache_hits;
          have.(i) <- true
        end
      done);
    (* one range GET per contiguous run of misses: adjacent-offset
       misses travel in a single BATCH message *)
    let rec fill i =
      if i >= n then Ok ()
      else if have.(i) then fill (i + 1)
      else begin
        let j = ref i in
        while !j < n && not have.(!j) do
          incr j
        done;
        match fetch_chunks t m ~first:(c0 + i) ~count:(!j - i) with
        | Error err -> Error err
        | Ok fetched ->
          Array.iteri
            (fun k b ->
              let src_off, dst_off, len = slice (i + k) in
              Bytes.blit_string b src_off out dst_off len;
              match t.cache with
              | Some cache -> Cache.put cache m.Chunk.ids.(c0 + i + k) b
              | None -> ())
            fetched;
          fill !j
      end
    in
    match fill 0 with Error err -> Error err | Ok () -> Ok out
  end
