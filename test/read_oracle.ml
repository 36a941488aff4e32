(* The per-element read path that the mapped file port, the
   allocation-free offsets, the flat run table and the memoized dataset
   entry and mount replaced, kept verbatim: a channel port with
   [in_channel_length] on every [pread], tuple run tables searched into
   an option, a [Hashtbl] lookup of the dataset and a mount list scan
   per read.  [Kondo_h5.File] and [Kondo_container.Runtime] must agree
   with it read for read: the same values bit for bit, the same
   [Data_missing] records, the same [Degraded] causes, counts and
   [pread] calls. *)

open Kondo_dataarray
open Kondo_interval
open Kondo_audit
module Binio = Kondo_h5.Binio
module Dataset = Kondo_h5.Dataset
module Kfile = Kondo_h5.File
module Runtime = Kondo_container.Runtime

let port_of_file path =
  let ic = open_in_bin path in
  { Io_port.path;
    size = (fun () -> in_channel_length ic);
    pread =
      (fun off len ->
        if off < 0 || len < 0 || off + len > in_channel_length ic then
          invalid_arg "Io_port.pread: out of range";
        seek_in ic off;
        let buf = Bytes.create len in
        really_input ic buf 0 len;
        buf);
    close = (fun () -> close_in ic) }

type entry = {
  ds : Dataset.t;
  data_off : int; (* absolute file offset of the stored data section *)
  runs : (int * int * int) array; (* (logical lo, logical hi, packed pos); empty when dense *)
  stored_len : int;
  crc : int; (* CRC-32 of the stored section, from the header *)
}

type t = { port : Io_port.t; order : string list; entries : (string, entry) Hashtbl.t }

let parse_header port =
  if port.Io_port.size () < 12 then raise (Binio.Corrupt "truncated superblock");
  let head = port.Io_port.pread 0 12 in
  if Bytes.sub_string head 0 4 <> "KH5\x01" then raise (Binio.Corrupt "bad magic");
  let c = Binio.cursor (Bytes.sub head 4 8) in
  let header_len = Binio.read_u32 c in
  let n = Binio.read_u32 c in
  if header_len < 12 then raise (Binio.Corrupt "bad header length");
  if header_len > port.Io_port.size () then raise (Binio.Corrupt "truncated header");
  let rest = port.Io_port.pread 12 (header_len - 12) in
  (n, Binio.cursor rest)

let parse_entry c =
  let name = Binio.read_str16 c in
  let dtype =
    match Dtype.of_code (Binio.read_u8 c) with
    | Some dt -> dt
    | None -> raise (Binio.Corrupt "bad dtype")
  in
  let rank = Binio.read_u8 c in
  if rank = 0 || rank > 8 then raise (Binio.Corrupt "bad rank");
  let dims = Array.init rank (fun _ -> Binio.read_u32 c) in
  let layout =
    match Binio.read_u8 c with
    | 0 -> Layout.Contiguous
    | 1 -> Layout.Chunked (Array.init rank (fun _ -> Binio.read_u32 c))
    | _ -> raise (Binio.Corrupt "bad layout tag")
  in
  let storage_tag = Binio.read_u8 c in
  let data_off = Binio.read_u64 c in
  let stored_len = Binio.read_u64 c in
  let shape = Shape.create dims in
  Layout.validate layout shape;
  let storage, runs =
    match storage_tag with
    | 0 -> (Dataset.Dense, [||])
    | 1 ->
      let nruns = Binio.read_u32 c in
      if nruns * 16 > Binio.remaining c then raise (Binio.Corrupt "bad run count");
      let esz = Dtype.size dtype in
      let limit = Layout.storage_nelems layout shape * esz in
      let packed = ref 0 and prev_hi = ref 0 in
      let runs =
        Array.init nruns (fun _ ->
            let lo = Binio.read_u64 c in
            let hi = Binio.read_u64 c in
            if hi <= lo then raise (Binio.Corrupt "empty run");
            if lo < !prev_hi then raise (Binio.Corrupt "unsorted or overlapping runs");
            if lo mod esz <> 0 || hi mod esz <> 0 then raise (Binio.Corrupt "misaligned run");
            if hi > limit then raise (Binio.Corrupt "run outside the dataset");
            let r = (lo, hi, !packed) in
            packed := !packed + (hi - lo);
            prev_hi := hi;
            r)
      in
      if !packed <> stored_len then raise (Binio.Corrupt "runs do not fill the stored section");
      let keep =
        Interval_set.of_sorted
          (Array.to_list (Array.map (fun (lo, hi, _) -> Interval.make lo hi) runs))
      in
      (Dataset.Sparse keep, runs)
    | _ -> raise (Binio.Corrupt "bad storage tag")
  in
  let n_attrs = Binio.read_u16 c in
  let attrs =
    List.init n_attrs (fun _ ->
        let aname = Binio.read_str16 c in
        match Binio.read_u8 c with
        | 0 -> (aname, Dataset.Str (Binio.read_str16 c))
        | 1 -> (aname, Dataset.Num (Binio.read_f64 c))
        | _ -> raise (Binio.Corrupt "bad attribute tag"))
  in
  let crc = Binio.read_u32 c in
  let ds = { Dataset.name; dtype; shape; layout; storage; attrs } in
  { ds; data_off; runs; stored_len; crc }

let open_port port =
  let n, c = parse_header port in
  if n * 8 > Binio.remaining c + 8 then raise (Binio.Corrupt "bad dataset count");
  let entries = Hashtbl.create (max 4 (min n 65536)) in
  let order = ref [] in
  for _ = 1 to n do
    let e = parse_entry c in
    if Hashtbl.mem entries e.ds.Dataset.name then raise (Binio.Corrupt "duplicate dataset name");
    Hashtbl.add entries e.ds.Dataset.name e;
    order := e.ds.Dataset.name :: !order
  done;
  { port; order = List.rev !order; entries }

let open_file ?tracer ?(pid = 1) path =
  let port = port_of_file path in
  let port = match tracer with None -> port | Some t -> Tracer.wrap t ~pid port in
  open_port port

let close t = t.port.Io_port.close ()

let path t = t.port.Io_port.path

let entry t name =
  match Hashtbl.find_opt t.entries name with Some e -> e | None -> raise Not_found

let find t name = (entry t name).ds

let layout_element_offset t shape dt idx =
  let esz = Dtype.size dt in
  match t with
  | Layout.Contiguous -> Shape.linearize shape idx * esz
  | Layout.Chunked cdims ->
    let rank = Array.length cdims in
    let grid = Layout.chunk_grid t shape in
    let grid_shape = Shape.create grid and chunk_shape = Shape.create cdims in
    let chunk_idx = Array.init rank (fun k -> idx.(k) / cdims.(k)) in
    let within = Array.init rank (fun k -> idx.(k) mod cdims.(k)) in
    let chunk_rank = Shape.linearize grid_shape chunk_idx in
    let chunk_nelems = Array.fold_left ( * ) 1 cdims in
    ((chunk_rank * chunk_nelems) + Shape.linearize chunk_shape within) * esz

let element_offset ds idx =
  if not (Shape.in_bounds ds.Dataset.shape idx) then
    invalid_arg "Dataset.element_offset: out of bounds";
  layout_element_offset ds.Dataset.layout ds.Dataset.shape ds.Dataset.dtype idx

let sparse_locate e eoff len =
  let runs = e.runs in
  let n = Array.length runs in
  let rec search lo hi =
    if lo > hi then None
    else begin
      let mid = (lo + hi) / 2 in
      let rlo, rhi, packed = runs.(mid) in
      if eoff < rlo then search lo (mid - 1)
      else if eoff >= rhi then search (mid + 1) hi
      else if eoff + len <= rhi then Some (packed + (eoff - rlo))
      else None
    end
  in
  search 0 (n - 1)

let read_element_bytes t e idx =
  let ds = e.ds in
  let esz = Dtype.size ds.Dataset.dtype in
  let eoff = element_offset ds idx in
  match ds.Dataset.storage with
  | Dataset.Dense -> t.port.Io_port.pread (e.data_off + eoff) esz
  | Dataset.Sparse _ -> (
    match sparse_locate e eoff esz with
    | Some packed -> t.port.Io_port.pread (e.data_off + packed) esz
    | None ->
      raise
        (Kfile.Data_missing
           { Kfile.path = path t; dataset = ds.Dataset.name; index = Array.copy idx; offset = eoff }))

let read_element t name idx =
  let e = entry t name in
  let buf = read_element_bytes t e idx in
  Dtype.decode e.ds.Dataset.dtype buf 0

(* ---- the runtime's per-element path, counters as plain fields ---- *)

type mount = { dst : string; local : t }

type runtime = {
  mounts : mount list;
  store : Runtime.store_source option;
  mutable reads : int;
  mutable misses : int;
  mutable store_fetches : int;
  mutable store_bytes : int;
  mutable degraded_reads : int;
}

let boot ?tracer ?store mounts =
  { mounts = List.map (fun (dst, path) -> { dst; local = open_file ?tracer path }) mounts;
    store;
    reads = 0;
    misses = 0;
    store_fetches = 0;
    store_bytes = 0;
    degraded_reads = 0 }

let mount rt dst =
  match List.find_opt (fun m -> String.equal m.dst dst) rt.mounts with
  | Some m -> m
  | None -> invalid_arg "Runtime.mount: no mount"

let fetch_store rt m ~dataset (miss : Kfile.missing) s =
  let dt = (find m.local dataset).Dataset.dtype in
  let esz = Dtype.size dt in
  let outcome =
    match s.Runtime.store_fetch ~dst:m.dst ~dataset ~offset:miss.Kfile.offset ~length:esz with
    | Ok b when Bytes.length b = esz -> Ok b
    | Ok b ->
      Error
        (Kondo_faults.Fault.Corrupt
           (Printf.sprintf "store %s returned %d bytes, wanted %d" s.Runtime.source_name
              (Bytes.length b) esz))
    | Error e -> Error e
  in
  match outcome with
  | Ok b ->
    rt.store_fetches <- rt.store_fetches + 1;
    rt.store_bytes <- rt.store_bytes + esz;
    Ok (Dtype.decode dt b 0)
  | Error cause ->
    rt.degraded_reads <- rt.degraded_reads + 1;
    Error (Runtime.Degraded { missing = miss; cause })

let try_read_element rt ~dst ~dataset idx =
  let m = mount rt dst in
  rt.reads <- rt.reads + 1;
  match read_element m.local dataset idx with
  | v -> Ok v
  | exception Kfile.Data_missing miss -> (
    rt.misses <- rt.misses + 1;
    match rt.store with
    | None -> Error (Kfile.Data_missing miss)
    | Some s -> fetch_store rt m ~dataset miss s)

let stats rt =
  { Runtime.reads = rt.reads;
    misses = rt.misses;
    store_fetches = rt.store_fetches;
    store_bytes = rt.store_bytes;
    degraded_reads = rt.degraded_reads }

let shutdown rt = List.iter (fun m -> close m.local) rt.mounts
