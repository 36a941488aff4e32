open Kondo_dataarray
open Kondo_interval

let magic = "KH5\x01"

type pending = {
  ds : Dataset.t;
  runs : (int * int) list; (* logical byte ranges, for sparse *)
  stored_len : int;
  mutable data_off : int;
  mutable crc : int; (* CRC-32 of the stored data section *)
}

let header_bytes pendings =
  let b = Buffer.create 256 in
  Buffer.add_string b magic;
  Binio.u32 b 0 (* header_len placeholder; width is fixed *) ;
  Binio.u32 b (List.length pendings);
  List.iter
    (fun p ->
      let ds = p.ds in
      Binio.str16 b ds.Dataset.name;
      Binio.u8 b (Dtype.code ds.Dataset.dtype);
      let dims = Shape.dims ds.Dataset.shape in
      Binio.u8 b (Array.length dims);
      Array.iter (Binio.u32 b) dims;
      (match ds.Dataset.layout with
      | Layout.Contiguous -> Binio.u8 b 0
      | Layout.Chunked cdims ->
        Binio.u8 b 1;
        Array.iter (Binio.u32 b) cdims);
      (match ds.Dataset.storage with
      | Dataset.Dense ->
        Binio.u8 b 0;
        Binio.u64 b p.data_off;
        Binio.u64 b p.stored_len
      | Dataset.Sparse _ ->
        Binio.u8 b 1;
        Binio.u64 b p.data_off;
        Binio.u64 b p.stored_len;
        Binio.u32 b (List.length p.runs);
        List.iter
          (fun (lo, hi) ->
            Binio.u64 b lo;
            Binio.u64 b hi)
          p.runs);
      Binio.u16 b (List.length ds.Dataset.attrs);
      List.iter
        (fun (name, attr) ->
          Binio.str16 b name;
          match attr with
          | Dataset.Str v ->
            Binio.u8 b 0;
            Binio.str16 b v
          | Dataset.Num v ->
            Binio.u8 b 1;
            Binio.f64 b v)
        ds.Dataset.attrs;
      Binio.u32 b p.crc)
    pendings;
  let out = Buffer.to_bytes b in
  (* Patch header_len (bytes 4..8). *)
  Bytes.set_int32_le out 4 (Int32.of_int (Bytes.length out));
  out

let layout_offsets pendings =
  (* First pass fixes the header length (it does not depend on the offset
     values, which have fixed width); second pass assigns data offsets. *)
  let hlen = Bytes.length (header_bytes pendings) in
  let off = ref hlen in
  List.iter
    (fun p ->
      p.data_off <- !off;
      off := !off + p.stored_len)
    pendings

let dense_section ds fill =
  let nbytes = Dataset.logical_bytes ds in
  let buf = Bytes.make nbytes '\000' in
  let esz = Dtype.size ds.Dataset.dtype in
  let nslots = nbytes / esz in
  for slot = 0 to nslots - 1 do
    match Dataset.index_of_offset ds (slot * esz) with
    | Some idx -> Dtype.encode ds.Dataset.dtype (fill idx) buf (slot * esz)
    | None -> () (* chunk padding stays zero *)
  done;
  buf

let check_distinct datasets =
  let names = List.map (fun (ds, _) -> ds.Dataset.name) datasets in
  if List.length (List.sort_uniq compare names) <> List.length names then
    invalid_arg "Writer.write: duplicate dataset names"

let to_bytes_with sections pendings =
  let header = header_bytes pendings in
  let total = List.fold_left (fun acc p -> acc + p.stored_len) (Bytes.length header) pendings in
  let out = Bytes.create total in
  Bytes.blit header 0 out 0 (Bytes.length header);
  List.iter2 (fun p sec -> Bytes.blit sec 0 out p.data_off (Bytes.length sec)) pendings sections;
  out

let write_bytes datasets =
  check_distinct datasets;
  List.iter
    (fun (ds, _) ->
      if Dataset.is_sparse ds then invalid_arg "Writer.write: sparse dataset in dense write")
    datasets;
  let pendings =
    List.map
      (fun (ds, _) -> { ds; runs = []; stored_len = Dataset.logical_bytes ds; data_off = 0; crc = 0 })
      datasets
  in
  layout_offsets pendings;
  let sections = List.map (fun (ds, fill) -> dense_section ds fill) datasets in
  List.iter2 (fun p sec -> p.crc <- Kondo_faults.Frame.crc32 sec) pendings sections;
  to_bytes_with sections pendings

let output_file path bytes =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_bytes oc bytes)

let write path datasets = output_file path (write_bytes datasets)

let align_keep ds keep =
  let esz = Dtype.size ds.Dataset.dtype in
  let limit = Dataset.logical_bytes ds in
  List.fold_left
    (fun acc iv ->
      let lo = max 0 iv.Interval.lo and hi = min limit iv.Interval.hi in
      if lo >= hi then acc
      else begin
        let lo = lo / esz * esz in
        let hi = (hi + esz - 1) / esz * esz in
        Interval_set.add acc (Interval.make lo (min limit hi))
      end)
    Interval_set.empty (Interval_set.to_list keep)

let write_debloated path ~source ~keep =
  let pendings_and_sections =
    List.map
      (fun ds ->
        if Dataset.is_sparse ds then invalid_arg "Writer.write_debloated: source already sparse";
        let aligned = align_keep ds (keep ds.Dataset.name) in
        let runs = List.map (fun iv -> (iv.Interval.lo, iv.Interval.hi)) (Interval_set.to_list aligned) in
        let stored_len = Interval_set.total_length aligned in
        let sparse_ds = { ds with Dataset.storage = Dataset.Sparse aligned } in
        let section = Bytes.create stored_len in
        let pos = ref 0 in
        List.iter
          (fun (lo, hi) ->
            let chunk = File.read_raw source ds.Dataset.name (Interval.make lo hi) in
            Bytes.blit chunk 0 section !pos (hi - lo);
            pos := !pos + (hi - lo))
          runs;
        let crc = Kondo_faults.Frame.crc32 section in
        ({ ds = sparse_ds; runs; stored_len; data_off = 0; crc }, section))
      (File.datasets source)
  in
  let pendings = List.map fst pendings_and_sections in
  let sections = List.map snd pendings_and_sections in
  layout_offsets pendings;
  output_file path (to_bytes_with sections pendings)
