open Kondo_dataarray
open Kondo_interval
open Kondo_audit

type entry = {
  ds : Dataset.t;
  addr : Layout.addressing; (* the element offsets of [ds] *)
  esz : int;
  data_off : int; (* absolute file offset of the stored data section *)
  runs : int array;
    (* (logical lo, logical hi, packed pos) of each run, flattened; empty
       when dense *)
  stored_len : int;
  crc : int; (* CRC-32 of the stored section, from the header *)
  mutable hint : int; (* index in [runs] of the run found last *)
}

type t = {
  port : Io_port.t;
  order : string list;
  entries : (string, entry) Hashtbl.t;
  mutable last : entry option; (* the entry read last: readers repeat a name *)
}

type missing = { path : string; dataset : string; index : int array; offset : int }

exception Data_missing of missing

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
      (* each run needs 16 header bytes: reject counts the header cannot hold
         before allocating *)
      if nruns * 16 > Binio.remaining c then raise (Binio.Corrupt "bad run count");
      (* Runs are non-empty, ascending, disjoint, element-aligned, inside
         the logical section, and pack exactly [stored_len] bytes, or a
         shifted run would serve its neighbours' bytes silently. *)
      let esz = Dtype.size dtype in
      let limit = Layout.storage_nelems layout shape * esz in
      let packed = ref 0 and prev_hi = ref 0 in
      let runs = Array.make (3 * nruns) 0 in
      for r = 0 to nruns - 1 do
        let lo = Binio.read_u64 c in
        let hi = Binio.read_u64 c in
        if hi <= lo then raise (Binio.Corrupt "empty run");
        if lo < !prev_hi then raise (Binio.Corrupt "unsorted or overlapping runs");
        if lo mod esz <> 0 || hi mod esz <> 0 then raise (Binio.Corrupt "misaligned run");
        if hi > limit then raise (Binio.Corrupt "run outside the dataset");
        runs.(3 * r) <- lo;
        runs.((3 * r) + 1) <- hi;
        runs.((3 * r) + 2) <- !packed;
        packed := !packed + (hi - lo);
        prev_hi := hi
      done;
      if !packed <> stored_len then raise (Binio.Corrupt "runs do not fill the stored section");
      let keep =
        Interval_set.of_sorted
          (List.init nruns (fun r -> Interval.make runs.(3 * r) runs.((3 * r) + 1)))
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
  { ds;
    addr = Layout.addressing layout shape dtype;
    esz = Dtype.size dtype;
    data_off;
    runs;
    stored_len;
    crc;
    hint = 0 }

let open_port port =
  let n, c = parse_header port in
  (* every dataset entry needs at least 8 header bytes: reject counts the
     header cannot hold before allocating the table *)
  if n * 8 > Binio.remaining c + 8 then raise (Binio.Corrupt "bad dataset count");
  let entries = Hashtbl.create (max 4 (min n 65536)) in
  let order = ref [] in
  for _ = 1 to n do
    let e = parse_entry c in
    if Hashtbl.mem entries e.ds.Dataset.name then raise (Binio.Corrupt "duplicate dataset name");
    Hashtbl.add entries e.ds.Dataset.name e;
    order := e.ds.Dataset.name :: !order
  done;
  { port; order = List.rev !order; entries; last = None }

let open_file ?tracer ?(pid = 1) path =
  let port = Io_port.of_file path in
  let port = match tracer with None -> port | Some t -> Tracer.wrap t ~pid port in
  (* a malformed header must not leak the descriptor *)
  match open_port port with
  | t -> t
  | exception e ->
    port.Io_port.close ();
    raise e

let close t = t.port.Io_port.close ()

let path t = t.port.Io_port.path

let datasets t = List.map (fun name -> (Hashtbl.find t.entries name).ds) t.order

let entry t name =
  match t.last with
  | Some e when String.equal e.ds.Dataset.name name -> e
  | _ -> (
    match Hashtbl.find_opt t.entries name with
    | Some e ->
      t.last <- Some e;
      e
    | None -> raise Not_found)

let find t name = (entry t name).ds

(* Packed position of a logical byte range [eoff, eoff+len) of a sparse
   dataset, or -1 when it is not fully materialized.  Reads walk the runs
   in order, so the run found last is tried before a binary search. *)
let sparse_locate e eoff len =
  let runs = e.runs in
  let r =
    let h = e.hint in
    if h < Array.length runs && runs.(h) <= eoff && eoff < runs.(h + 1) then h
    else begin
      let lo = ref 0 and hi = ref ((Array.length runs / 3) - 1) and found = ref (-1) in
      while !lo <= !hi do
        let mid = (!lo + !hi) / 2 in
        if eoff < runs.(3 * mid) then hi := mid - 1
        else if eoff >= runs.((3 * mid) + 1) then lo := mid + 1
        else begin
          found := 3 * mid;
          lo := !hi + 1
        end
      done;
      if !found >= 0 then e.hint <- !found;
      !found
    end
  in
  if r < 0 || eoff + len > runs.(r + 1) then -1 else runs.(r + 2) + (eoff - runs.(r))

let element_offset e idx =
  match Layout.offset e.addr idx with
  | -1 -> invalid_arg "Dataset.element_offset: out of bounds"
  | eoff -> eoff

let read_element_bytes t e idx =
  let eoff = element_offset e idx in
  match e.ds.Dataset.storage with
  | Dataset.Dense -> t.port.Io_port.pread (e.data_off + eoff) e.esz
  | Dataset.Sparse _ -> (
    match sparse_locate e eoff e.esz with
    | -1 ->
      raise
        (Data_missing
           { path = path t; dataset = e.ds.Dataset.name; index = Array.copy idx; offset = eoff })
    | packed -> t.port.Io_port.pread (e.data_off + packed) e.esz)

let read_element t name idx =
  let e = entry t name in
  let buf = read_element_bytes t e idx in
  Dtype.decode e.ds.Dataset.dtype buf 0

let read_slab t name slab f =
  let e = entry t name in
  let ds = e.ds in
  let esz = Dtype.size ds.Dataset.dtype in
  match ds.Dataset.storage with
  | Dataset.Sparse _ ->
    Hyperslab.iter ~clip:ds.Dataset.shape slab (fun idx ->
        let buf = read_element_bytes t e idx in
        f idx (Dtype.decode ds.Dataset.dtype buf 0))
  | Dataset.Dense ->
    (* Batch byte-adjacent elements into one pread each, the way an
       application reads nbytes at startoff (Fig. 2b). *)
    let start = ref (-1) in
    let indices = ref [] in
    let count = ref 0 in
    let flush () =
      if !count > 0 then begin
        let buf = t.port.Io_port.pread (e.data_off + !start) (!count * esz) in
        List.iteri
          (fun i idx ->
            let pos = (!count - 1 - i) * esz in
            f idx (Dtype.decode ds.Dataset.dtype buf pos))
          !indices;
        start := -1;
        indices := [];
        count := 0
      end
    in
    Hyperslab.iter ~clip:ds.Dataset.shape slab (fun idx ->
        let eoff = element_offset e idx in
        if !count > 0 && eoff = !start + (!count * esz) then begin
          indices := Array.copy idx :: !indices;
          incr count
        end
        else begin
          flush ();
          start := eoff;
          indices := [ Array.copy idx ];
          count := 1
        end);
    flush ()

let mean_slab t name slab =
  let sum = ref 0.0 and n = ref 0 in
  read_slab t name slab (fun _ v ->
      sum := !sum +. v;
      incr n);
  if !n = 0 then 0.0 else !sum /. float_of_int !n

let read_raw t name iv =
  let e = entry t name in
  if Dataset.is_sparse e.ds then invalid_arg "File.read_raw: sparse dataset";
  let len = Interval.length iv in
  if iv.Interval.lo < 0 || iv.Interval.hi > Dataset.logical_bytes e.ds then
    invalid_arg "File.read_raw: out of section";
  t.port.Io_port.pread (e.data_off + iv.Interval.lo) len

let file_size t = t.port.Io_port.size ()

let verify t name =
  let e = entry t name in
  e.stored_len = 0
  || Kondo_faults.Frame.crc32 (t.port.Io_port.pread e.data_off e.stored_len) = e.crc

let verify_all t = List.for_all (fun name -> verify t name) t.order
