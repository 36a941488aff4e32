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

(* The runtime's counters, one per [stats] field plus [fetched_blocks],
   linked to the process-wide [kondo_runtime_*] series.  Retry, breaker
   and corrupt-chunk counts live with the store client that does that
   work. *)
type counters = {
  reads : Registry.counter;
  misses : Registry.counter;
  store_fetches : Registry.counter;
  store_bytes : Registry.counter;
  degraded_reads : Registry.counter;
  fetched_blocks : Registry.counter;
}

let counters () =
  let c name help = Registry.instance ~help Registry.default name in
  { reads = c "kondo_runtime_reads_total" "Element reads issued to the runtime";
    misses = c "kondo_runtime_misses_total" "Reads that missed the local debloated file";
    store_fetches = c "kondo_runtime_store_fetches_total" "Misses served by the store source";
    store_bytes = c "kondo_runtime_store_bytes_total" "Element bytes of the misses served";
    degraded_reads = c "kondo_runtime_degraded_reads_total" "Reads that degraded";
    fetched_blocks =
      c "kondo_runtime_fetched_blocks_total" "Blocks fetched from the store source into an overlay" }

(* One block fetch from the store source; overlay hits are not spans. *)
let fetch_section = Kondo_obs.Obs.section ~cat:"runtime" "runtime.fetch"

let block_size = 4096

type store_source = {
  source_name : string;
  store_fetch :
    dst:string -> dataset:string -> offset:int -> length:int ->
    (bytes, Fault.error) result;
}

(* The verified blocks of one dataset of a mount, by block index.  Only
   blocks missed into are held, each allocated when its fetch succeeds. *)
type overlay = { dtype : Dtype.t; section : int; blocks : (int, bytes) Hashtbl.t }

type mount = { dst : string; local : Kfile.t; overlays : (string, overlay) Hashtbl.t }

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

let of_files ?tracer ?store files =
  let mounts =
    List.map
      (fun (dst, path) ->
        { dst; local = Kfile.open_file ?tracer path; overlays = Hashtbl.create 2 })
      files
  in
  { mounts; store; n = counters (); last = None; last_dst = "" }

let boot ?tracer ?store ~image ~dir () = of_files ?tracer ?store (Image.materialize image ~dir)

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

let overlay m dataset =
  match Hashtbl.find_opt m.overlays dataset with
  | Some o -> o
  | None ->
    let ds = Kfile.find m.local dataset in
    let o =
      { dtype = ds.Kondo_h5.Dataset.dtype;
        section = Kondo_h5.Dataset.logical_bytes ds;
        blocks = Hashtbl.create 16 }
    in
    Hashtbl.add m.overlays dataset o;
    o

(* The block at index [b] of [o]: from the overlay, or fetched whole from
   the store source and kept only when it has exactly the asked length.
   A failure caches nothing, so the next miss into the block asks again. *)
let block t m ~dataset o b s =
  match Hashtbl.find_opt o.blocks b with
  | Some blk -> Ok blk
  | None ->
    let offset = b * block_size in
    let length = min block_size (o.section - offset) in
    Kondo_obs.Obs.span fetch_section (fun () ->
        match s.store_fetch ~dst:m.dst ~dataset ~offset ~length with
        | Ok blk when Bytes.length blk = length ->
          Hashtbl.add o.blocks b blk;
          Registry.inc t.n.fetched_blocks;
          Ok blk
        | Ok blk ->
          Error
            (Fault.Corrupt
               (Printf.sprintf "store %s returned %d bytes, wanted %d" s.source_name
                  (Bytes.length blk) length))
        | Error e -> Error e)

(* Serve a miss from the block that holds its offset.  Every element size
   divides [block_size] and element offsets are multiples of the element
   size, so an element never straddles two blocks. *)
let serve_miss t m ~dataset (miss : Kfile.missing) s =
  let o = overlay m dataset in
  let b = miss.Kfile.offset / block_size in
  match block t m ~dataset o b s with
  | Ok blk ->
    Registry.inc t.n.store_fetches;
    Registry.inc ~by:(Dtype.size o.dtype) t.n.store_bytes;
    Ok (Dtype.decode o.dtype blk (miss.Kfile.offset - (b * block_size)))
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
    | Some s -> serve_miss t m ~dataset miss s)

let read_element t ~dst ~dataset idx =
  match try_read_element t ~dst ~dataset idx with Ok v -> v | Error exn -> raise exn

let stats t : stats =
  let v = Registry.counter_value in
  { reads = v t.n.reads;
    misses = v t.n.misses;
    store_fetches = v t.n.store_fetches;
    store_bytes = v t.n.store_bytes;
    degraded_reads = v t.n.degraded_reads }

let fetched_blocks t = Registry.counter_value t.n.fetched_blocks

let shutdown t =
  List.iter
    (fun m ->
      Kfile.close m.local;
      Hashtbl.reset m.overlays)
    t.mounts
