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

type t = {
  lock : Mutex.t;
  cond : Condition.t;
  tbl : (Chunk.id, node) Hashtbl.t;
  inflight : (Chunk.id, flight) Hashtbl.t;
  budget : int;
  mutable head : node option; (* MRU *)
  mutable tail : node option; (* LRU *)
  mutable bytes : int;
  n : counters;
}

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

let create ?(owner = `Client) ~budget_bytes () =
  if budget_bytes < 0 then invalid_arg "Cache.create: negative budget";
  { lock = Mutex.create ();
    cond = Condition.create ();
    tbl = Hashtbl.create 64;
    inflight = Hashtbl.create 8;
    budget = budget_bytes;
    head = None;
    tail = None;
    bytes = 0;
    n = counters owner }

let budget t = t.budget

(* ---- DLL plumbing (lock held) ---- *)

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some x -> x.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.prev <- None;
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let drop_entry t n =
  unlink t n;
  Hashtbl.remove t.tbl n.key;
  t.bytes <- t.bytes - Bytes.length n.data

let evict_to_budget t =
  while t.bytes > t.budget do
    match t.tail with
    | Some n ->
      drop_entry t n;
      Registry.inc t.n.evictions
    | None -> t.bytes <- 0 (* unreachable: bytes > 0 implies a tail *)
  done

(* [data] stays the caller's: it is copied only once admitted, so a
   rejected entry costs no copy. *)
let insert t id data =
  (match Hashtbl.find_opt t.tbl id with Some old -> drop_entry t old | None -> ());
  if Bytes.length data > t.budget then Registry.inc t.n.rejections
  else begin
    let n = { key = id; data = Bytes.copy data; prev = None; next = None } in
    push_front t n;
    Hashtbl.add t.tbl id n;
    t.bytes <- t.bytes + Bytes.length data;
    Registry.inc t.n.insertions;
    evict_to_budget t
  end

(* The LRU touch and hit/miss accounting of one lookup.  The cached
   bytes are shared: callers copy what they hand out, under the lock. *)
let lookup t id =
  match Hashtbl.find_opt t.tbl id with
  | Some n ->
    unlink t n;
    push_front t n;
    Registry.inc t.n.hits;
    Some n.data
  | None ->
    Registry.inc t.n.misses;
    None

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let get t id = locked t (fun () -> Option.map Bytes.copy (lookup t id))

let read_into t id ~src_off dst ~dst_off ~len =
  locked t (fun () ->
      match lookup t id with
      | Some data ->
        Bytes.blit data src_off dst dst_off len;
        true
      | None -> false)

let put t id data = locked t (fun () -> insert t id data)

let get_or_fetch t id ~fetch =
  Mutex.lock t.lock;
  match lookup t id with
  | Some data ->
    let data = Bytes.copy data in
    Mutex.unlock t.lock;
    Ok data
  | None -> (
    match Hashtbl.find_opt t.inflight id with
    | Some fl ->
      (* coalesce onto the in-flight fetch *)
      Registry.inc t.n.coalesced;
      let rec wait () =
        match fl.outcome with
        | Some r -> r
        | None ->
          Condition.wait t.cond t.lock;
          wait ()
      in
      let r = wait () in
      Mutex.unlock t.lock;
      (match r with Ok b -> Ok (Bytes.copy b) | Error _ as e -> e)
    | None ->
      (* leader: run the upstream fetch outside the lock *)
      let fl = { outcome = None } in
      Hashtbl.add t.inflight id fl;
      Registry.inc t.n.single_flights;
      Mutex.unlock t.lock;
      let r =
        match fetch () with
        | r -> r
        | exception exn -> Error (Fault.of_exn exn)
      in
      Mutex.lock t.lock;
      (match r with Ok b -> insert t id b | Error _ -> ());
      fl.outcome <- Some r;
      Hashtbl.remove t.inflight id;
      Condition.broadcast t.cond;
      Mutex.unlock t.lock;
      r)

let stats t : stats =
  let bytes, entries = locked t (fun () -> (t.bytes, Hashtbl.length t.tbl)) in
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
  locked t (fun () ->
      Hashtbl.reset t.tbl;
      t.head <- None;
      t.tail <- None;
      t.bytes <- 0)
