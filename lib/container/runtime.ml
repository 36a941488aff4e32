open Kondo_dataarray
open Kondo_faults
module Kfile = Kondo_h5.File
module Registry = Kondo_obs.Registry

type stats = {
  reads : int;
  misses : int;
  store_fetches : int;
  store_bytes : int;
  degraded_reads : int;
}

let stats_fields s =
  [ ("reads", s.reads);
    ("misses", s.misses);
    ("store_fetches", s.store_fetches);
    ("store_bytes", s.store_bytes);
    ("degraded_reads", s.degraded_reads) ]

let stats_to_json ?(extra = []) s =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %d" k v) (stats_fields s @ extra))
  ^ "}"

(* The runtime's counters, one per [stats] field, linked to the
   process-wide [kondo_runtime_*] series.  Retry, breaker and
   corrupt-chunk counts live with the store client that does that work. *)
type counters = {
  reads : Registry.counter;
  misses : Registry.counter;
  store_fetches : Registry.counter;
  store_bytes : Registry.counter;
  degraded_reads : Registry.counter;
}

let counters () =
  let c name help = Registry.instance ~help Registry.default name in
  { reads = c "kondo_runtime_reads_total" "Element reads issued to the runtime";
    misses = c "kondo_runtime_misses_total" "Reads that missed the local debloated file";
    store_fetches = c "kondo_runtime_store_fetches_total" "Misses served by the store source";
    store_bytes = c "kondo_runtime_store_bytes_total" "Bytes fetched from the store source";
    degraded_reads = c "kondo_runtime_degraded_reads_total" "Reads that degraded" }

let fetch_seconds =
  lazy
    (Registry.histogram ~help:"Latency of serving one miss from the store source"
       Registry.default "kondo_runtime_fetch_seconds")

type store_source = {
  source_name : string;
  store_fetch :
    dst:string -> dataset:string -> offset:int -> length:int ->
    (bytes, Fault.error) result;
}

type mount = { dst : string; local : Kfile.t }

exception Degraded of { missing : Kfile.missing; cause : Fault.error }

let () =
  Printexc.register_printer (function
    | Degraded { missing; cause } ->
      Some
        (Printf.sprintf "Runtime.Degraded(%s:%s at offset %d: %s)" missing.Kfile.path
           missing.Kfile.dataset missing.Kfile.offset (Fault.to_string cause))
    | _ -> None)

type t = {
  mounts : mount list;
  store : store_source option;
  n : counters;
  mutable last : mount option; (* the mount read last: a run repeats its [dst] *)
  mutable last_dst : string;
    (* the caller's [dst] string that found [last], compared by address:
       a caller that builds [dst] once per run hits from its second read
       on, and a hit neither scans, compares text nor writes [t] *)
}

let boot ?tracer ?store ~image ~dir () =
  let mounts =
    List.map
      (fun (dst, path) -> { dst; local = Kfile.open_file ?tracer path })
      (Image.materialize image ~dir)
  in
  { mounts; store; n = counters (); last = None; last_dst = "" }

let mount t dst =
  match t.last with
  | Some m when t.last_dst == dst -> m
  | _ -> (
    match List.find_opt (fun m -> String.equal m.dst dst) t.mounts with
    | Some m ->
      t.last <- Some m;
      t.last_dst <- dst;
      m
    | None ->
      invalid_arg
        (Printf.sprintf "Runtime.mount: no mount at %S (mounted: %s)" dst
           (match t.mounts with
           | [] -> "none"
           | ms -> String.concat ", " (List.map (fun m -> m.dst) ms))))

let file t ~dst = (mount t dst).local

(* Serve a miss from the store source: one element's bytes at the miss
   offset of the dataset's logical data section.  A store failure (or a
   wrong-sized payload) degrades to a structured [Degraded]. *)
let fetch_store t m ~dataset (miss : Kfile.missing) s =
  let dt = (Kfile.find m.local dataset).Kondo_h5.Dataset.dtype in
  let esz = Dtype.size dt in
  let outcome =
    match s.store_fetch ~dst:m.dst ~dataset ~offset:miss.Kfile.offset ~length:esz with
    | Ok b when Bytes.length b = esz -> Ok b
    | Ok b ->
      Error
        (Fault.Corrupt
           (Printf.sprintf "store %s returned %d bytes, wanted %d" s.source_name
              (Bytes.length b) esz))
    | Error e -> Error e
  in
  match outcome with
  | Ok b ->
    Registry.inc t.n.store_fetches;
    Registry.inc ~by:esz t.n.store_bytes;
    Ok (Dtype.decode dt b 0)
  | Error cause ->
    Registry.inc t.n.degraded_reads;
    Error (Degraded { missing = miss; cause })

let try_read_element t ~dst ~dataset idx =
  let m = mount t dst in
  Registry.inc t.n.reads;
  match Kfile.read_element m.local dataset idx with
  | v -> Ok v
  | exception Kfile.Data_missing miss -> (
    Registry.inc t.n.misses;
    match t.store with
    | None -> Error (Kfile.Data_missing miss)
    | Some s ->
      let t0 = Kondo_obs.Clock.now Kondo_obs.Clock.real in
      let result = fetch_store t m ~dataset miss s in
      Registry.observe (Lazy.force fetch_seconds)
        (Float.max 0.0 (Kondo_obs.Clock.now Kondo_obs.Clock.real -. t0));
      result)

let read_element t ~dst ~dataset idx =
  match try_read_element t ~dst ~dataset idx with Ok v -> v | Error exn -> raise exn

let read_slab t ~dst ~dataset slab f =
  let m = mount t dst in
  let shape = (Kfile.find m.local dataset).Kondo_h5.Dataset.shape in
  Hyperslab.iter ~clip:shape slab (fun idx -> f idx (read_element t ~dst ~dataset idx))

let stats t : stats =
  let v = Registry.counter_value in
  { reads = v t.n.reads;
    misses = v t.n.misses;
    store_fetches = v t.n.store_fetches;
    store_bytes = v t.n.store_bytes;
    degraded_reads = v t.n.degraded_reads }

let shutdown t = List.iter (fun m -> Kfile.close m.local) t.mounts
