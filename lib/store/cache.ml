open Kondo_faults
module Registry = Kondo_obs.Registry

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  insertions : int;
  rejections : int;
  single_flights : int;
  coalesced : int;
  current_bytes : int;
  entries : int;
}

(* Intrusive doubly-linked LRU node; [prev] points toward the MRU end. *)
type node = {
  key : Chunk.id;
  data : bytes;
  mutable prev : node option;
  mutable next : node option;
}

type flight = {
  mutable outcome : (bytes, Fault.error) result option;
}

type shard = {
  lock : Mutex.t;
  cond : Condition.t;
  tbl : (Chunk.id, node) Hashtbl.t;
  inflight : (Chunk.id, flight) Hashtbl.t;
  budget : int;
  mutable head : node option; (* MRU *)
  mutable tail : node option; (* LRU *)
  mutable bytes : int;
}

(* The cache's counters, one per counted [stats] field, linked to the
   process-wide [kondo_store_cache_*] series of its owner. *)
type counters = {
  hits : Registry.counter;
  misses : Registry.counter;
  evictions : Registry.counter;
  insertions : Registry.counter;
  rejections : Registry.counter;
  single_flights : Registry.counter;
  coalesced : Registry.counter;
}

type t = { shards : shard array; n : counters }

let counters owner =
  let labels = [ ("owner", match owner with `Client -> "client" | `Server -> "server") ] in
  let c name help = Registry.instance ~help ~labels Registry.default name in
  { hits = c "kondo_store_cache_hits_total" "Cache lookups served from memory";
    misses = c "kondo_store_cache_misses_total" "Cache lookups that missed";
    evictions = c "kondo_store_cache_evictions_total" "LRU evictions";
    insertions = c "kondo_store_cache_insertions_total" "Entries inserted";
    rejections = c "kondo_store_cache_rejections_total" "Oversized entries refused";
    single_flights =
      c "kondo_store_cache_single_flights_total" "Upstream fetches led by one caller";
    coalesced =
      c "kondo_store_cache_coalesced_waits_total" "Callers that waited on an in-flight fetch" }

let create ?(shards = 8) ?(owner = `Client) ~budget_bytes () =
  if budget_bytes < 0 then invalid_arg "Cache.create: negative budget";
  let n = max 1 (min 256 shards) in
  let base = budget_bytes / n and rem = budget_bytes mod n in
  { shards =
      Array.init n (fun i ->
          { lock = Mutex.create ();
            cond = Condition.create ();
            tbl = Hashtbl.create 64;
            inflight = Hashtbl.create 8;
            budget = base + (if i < rem then 1 else 0);
            head = None;
            tail = None;
            bytes = 0 });
    n = counters owner }

let budget t = Array.fold_left (fun acc s -> acc + s.budget) 0 t.shards
let shard_count t = Array.length t.shards

let shard_of t id =
  let h = Int64.to_int (Int64.logxor id (Int64.shift_right_logical id 17)) land max_int in
  t.shards.(h mod Array.length t.shards)

(* ---- DLL plumbing (shard lock held) ---- *)

let unlink s n =
  (match n.prev with Some p -> p.next <- n.next | None -> s.head <- n.next);
  (match n.next with Some x -> x.prev <- n.prev | None -> s.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front s n =
  n.prev <- None;
  n.next <- s.head;
  (match s.head with Some h -> h.prev <- Some n | None -> s.tail <- Some n);
  s.head <- Some n

let drop_entry s n =
  unlink s n;
  Hashtbl.remove s.tbl n.key;
  s.bytes <- s.bytes - Bytes.length n.data

let evict_to_budget t s =
  while s.bytes > s.budget do
    match s.tail with
    | Some n ->
      drop_entry s n;
      Registry.inc t.n.evictions
    | None -> s.bytes <- 0 (* unreachable: bytes > 0 implies a tail *)
  done

(* [data] stays the caller's: it is copied only once admitted, so a
   rejected entry costs no copy. *)
let insert t s id data =
  (match Hashtbl.find_opt s.tbl id with Some old -> drop_entry s old | None -> ());
  if Bytes.length data > s.budget then Registry.inc t.n.rejections
  else begin
    let n = { key = id; data = Bytes.copy data; prev = None; next = None } in
    push_front s n;
    Hashtbl.add s.tbl id n;
    s.bytes <- s.bytes + Bytes.length data;
    Registry.inc t.n.insertions;
    evict_to_budget t s
  end

(* The LRU touch and hit/miss accounting of one lookup.  The cached
   bytes are shared: callers copy what they hand out, under the lock. *)
let lookup t s id =
  match Hashtbl.find_opt s.tbl id with
  | Some n ->
    unlink s n;
    push_front s n;
    Registry.inc t.n.hits;
    Some n.data
  | None ->
    Registry.inc t.n.misses;
    None

let locked lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let get t id =
  let s = shard_of t id in
  locked s.lock (fun () -> Option.map Bytes.copy (lookup t s id))

let read_into t id ~src_off dst ~dst_off ~len =
  let s = shard_of t id in
  locked s.lock (fun () ->
      match lookup t s id with
      | Some data ->
        Bytes.blit data src_off dst dst_off len;
        true
      | None -> false)

let put t id data =
  let s = shard_of t id in
  locked s.lock (fun () -> insert t s id data)

let get_or_fetch t id ~fetch =
  let s = shard_of t id in
  Mutex.lock s.lock;
  match lookup t s id with
  | Some data ->
    let data = Bytes.copy data in
    Mutex.unlock s.lock;
    Ok data
  | None -> (
    match Hashtbl.find_opt s.inflight id with
    | Some fl ->
      (* coalesce onto the in-flight fetch *)
      Registry.inc t.n.coalesced;
      let rec wait () =
        match fl.outcome with
        | Some r -> r
        | None ->
          Condition.wait s.cond s.lock;
          wait ()
      in
      let r = wait () in
      Mutex.unlock s.lock;
      (match r with Ok b -> Ok (Bytes.copy b) | Error _ as e -> e)
    | None ->
      (* leader: run the upstream fetch outside the shard lock *)
      let fl = { outcome = None } in
      Hashtbl.add s.inflight id fl;
      Registry.inc t.n.single_flights;
      Mutex.unlock s.lock;
      let r =
        match fetch () with
        | r -> r
        | exception exn -> Error (Fault.of_exn exn)
      in
      Mutex.lock s.lock;
      (match r with Ok b -> insert t s id b | Error _ -> ());
      fl.outcome <- Some r;
      Hashtbl.remove s.inflight id;
      Condition.broadcast s.cond;
      Mutex.unlock s.lock;
      r)

let stats t : stats =
  let bytes, entries =
    Array.fold_left
      (fun (bytes, entries) s ->
        locked s.lock (fun () -> (bytes + s.bytes, entries + Hashtbl.length s.tbl)))
      (0, 0) t.shards
  in
  let v = Registry.counter_value in
  { hits = v t.n.hits;
    misses = v t.n.misses;
    evictions = v t.n.evictions;
    insertions = v t.n.insertions;
    rejections = v t.n.rejections;
    single_flights = v t.n.single_flights;
    coalesced = v t.n.coalesced;
    current_bytes = bytes;
    entries }

let clear t =
  Array.iter
    (fun s ->
      locked s.lock (fun () ->
          Hashtbl.reset s.tbl;
          s.head <- None;
          s.tail <- None;
          s.bytes <- 0))
    t.shards
