open Kondo_dataarray
open Kondo_audit

type nc_type = Nc_int | Nc_float | Nc_double

type dim = { dim_name : string; size : int }

type var = { var_name : string; dim_ids : int array; nc_type : nc_type; begin_ : int }

type t = { port : Io_port.t; dim_list : dim list; var_list : var list }

let nc_type_size = function Nc_int | Nc_float -> 4 | Nc_double -> 8

let nc_type_code = function Nc_int -> 4 | Nc_float -> 5 | Nc_double -> 6

let nc_type_of_code = function
  | 4 -> Some Nc_int
  | 5 -> Some Nc_float
  | 6 -> Some Nc_double
  | _ -> None

(* NetCDF classic is big-endian, with names and data padded to 4-byte
   boundaries. *)
let pad4 n = (n + 3) / 4 * 4

let put_u32 b v =
  Buffer.add_uint8 b ((v lsr 24) land 0xFF);
  Buffer.add_uint8 b ((v lsr 16) land 0xFF);
  Buffer.add_uint8 b ((v lsr 8) land 0xFF);
  Buffer.add_uint8 b (v land 0xFF)

let put_name b s =
  put_u32 b (String.length s);
  Buffer.add_string b s;
  for _ = String.length s + 1 to pad4 (String.length s) do
    Buffer.add_char b '\000'
  done

let nc_dimension = 0x0A
let nc_variable = 0x0B

let encode_value ty v buf off =
  match ty with
  | Nc_int ->
    let x = Int32.of_float v in
    Bytes.set_int32_be buf off x
  | Nc_float -> Bytes.set_int32_be buf off (Int32.bits_of_float v)
  | Nc_double -> Bytes.set_int64_be buf off (Int64.bits_of_float v)

let decode_value ty buf off =
  match ty with
  | Nc_int -> Int32.to_float (Bytes.get_int32_be buf off)
  | Nc_float -> Int32.float_of_bits (Bytes.get_int32_be buf off)
  | Nc_double -> Int64.float_of_bits (Bytes.get_int64_be buf off)

let header_bytes ~dims ~vars ~begins =
  let b = Buffer.create 256 in
  Buffer.add_string b "CDF\x01";
  put_u32 b 0 (* numrecs: no record dimension *) ;
  (* dimension list *)
  if dims = [] then begin
    put_u32 b 0;
    put_u32 b 0
  end
  else begin
    put_u32 b nc_dimension;
    put_u32 b (List.length dims);
    List.iter
      (fun d ->
        put_name b d.dim_name;
        put_u32 b d.size)
      dims
  end;
  (* global attribute list: absent *)
  put_u32 b 0;
  put_u32 b 0;
  (* variable list *)
  if vars = [] then begin
    put_u32 b 0;
    put_u32 b 0
  end
  else begin
    put_u32 b nc_variable;
    put_u32 b (List.length vars);
    List.iter2
      (fun (name, dim_ids, ty, _) begin_ ->
        put_name b name;
        put_u32 b (Array.length dim_ids);
        Array.iter (put_u32 b) dim_ids;
        (* variable attribute list: absent *)
        put_u32 b 0;
        put_u32 b 0;
        put_u32 b (nc_type_code ty);
        let nelems =
          Array.fold_left (fun acc id -> acc * (List.nth dims id).size) 1 dim_ids
        in
        put_u32 b (pad4 (nelems * nc_type_size ty)) (* vsize *) ;
        put_u32 b begin_)
      vars begins
  end;
  Buffer.to_bytes b

let write path ~dims ~vars =
  let names = List.map (fun (n, _, _, _) -> n) vars in
  if List.length (List.sort_uniq compare names) <> List.length names then
    invalid_arg "Netcdf.write: duplicate variable names";
  let ndims = List.length dims in
  List.iter
    (fun (_, dim_ids, _, _) ->
      Array.iter (fun id -> if id < 0 || id >= ndims then invalid_arg "Netcdf.write: bad dim id") dim_ids)
    vars;
  (* two-pass: header size is independent of the begin values' width *)
  let var_size (_, dim_ids, ty, _) =
    let nelems = Array.fold_left (fun acc id -> acc * (List.nth dims id).size) 1 dim_ids in
    pad4 (nelems * nc_type_size ty)
  in
  let dummy = List.map (fun _ -> 0) vars in
  let hlen = Bytes.length (header_bytes ~dims ~vars ~begins:dummy) in
  let begins =
    let off = ref hlen in
    List.map
      (fun v ->
        let b = !off in
        off := !off + var_size v;
        b)
      vars
  in
  let header = header_bytes ~dims ~vars ~begins in
  Kondo_faults.Frame.atomic_write path (fun oc ->
      output_bytes oc header;
      List.iter
        (fun ((_, dim_ids, ty, fill) as v) ->
          let shape_dims = Array.map (fun id -> (List.nth dims id).size) dim_ids in
          let buf = Bytes.make (var_size v) '\000' in
          if Array.length shape_dims = 0 then encode_value ty (fill [||]) buf 0
          else begin
            let shape = Shape.create shape_dims in
            Shape.iter shape (fun idx ->
                encode_value ty (fill idx) buf (Shape.linearize shape idx * nc_type_size ty))
          end;
          output_bytes oc buf)
        vars)

(* ---------------- reading ---------------- *)

type cursor = { mutable pos : int; port : Io_port.t }

let need c n =
  if c.pos + n > c.port.Io_port.size () then raise (Binio.Corrupt "netcdf: truncated")

let read_bytes c n =
  need c n;
  let b = c.port.Io_port.pread c.pos n in
  c.pos <- c.pos + n;
  b

let read_u32 c =
  let b = read_bytes c 4 in
  let v =
    (Bytes.get_uint8 b 0 lsl 24)
    lor (Bytes.get_uint8 b 1 lsl 16)
    lor (Bytes.get_uint8 b 2 lsl 8)
    lor Bytes.get_uint8 b 3
  in
  v

let read_name c =
  let n = read_u32 c in
  if n > 0xFFFF then raise (Binio.Corrupt "netcdf: absurd name length");
  let b = read_bytes c (pad4 n) in
  Bytes.sub_string b 0 n

let skip_attributes c =
  let tag = read_u32 c in
  let count = read_u32 c in
  if tag <> 0x0C && not (tag = 0 && count = 0) then raise (Binio.Corrupt "netcdf: bad attr tag");
  if count <> 0 then raise (Binio.Corrupt "netcdf: attributes unsupported")

let open_port port =
  let c = { pos = 0; port } in
  let magic = read_bytes c 4 in
  if Bytes.sub_string magic 0 3 <> "CDF" || Bytes.get magic 3 <> '\x01' then
    raise (Binio.Corrupt "netcdf: bad magic");
  let numrecs = read_u32 c in
  if numrecs <> 0 then raise (Binio.Corrupt "netcdf: record dimension unsupported");
  let dim_tag = read_u32 c in
  let ndims = read_u32 c in
  if dim_tag <> nc_dimension && not (dim_tag = 0 && ndims = 0) then
    raise (Binio.Corrupt "netcdf: bad dim tag");
  let dim_list =
    List.init ndims (fun _ ->
        let dim_name = read_name c in
        let size = read_u32 c in
        if size = 0 then raise (Binio.Corrupt "netcdf: record dimension unsupported");
        { dim_name; size })
  in
  skip_attributes c;
  let var_tag = read_u32 c in
  let nvars = read_u32 c in
  if var_tag <> nc_variable && not (var_tag = 0 && nvars = 0) then
    raise (Binio.Corrupt "netcdf: bad var tag");
  let var_list =
    List.init nvars (fun _ ->
        let var_name = read_name c in
        let rank = read_u32 c in
        if rank > 8 then raise (Binio.Corrupt "netcdf: absurd rank");
        let dim_ids =
          Array.init rank (fun _ ->
              let id = read_u32 c in
              if id >= ndims then raise (Binio.Corrupt "netcdf: bad dim id");
              id)
        in
        skip_attributes c;
        let ty =
          match nc_type_of_code (read_u32 c) with
          | Some ty -> ty
          | None -> raise (Binio.Corrupt "netcdf: unsupported type")
        in
        let _vsize = read_u32 c in
        let begin_ = read_u32 c in
        { var_name; dim_ids; nc_type = ty; begin_ })
  in
  { port; dim_list; var_list }

let open_file ?tracer ?(pid = 1) path =
  let port = Io_port.of_file path in
  let port = match tracer with None -> port | Some t -> Tracer.wrap t ~pid port in
  (* a malformed header must not leak the descriptor *)
  match open_port port with
  | t -> t
  | exception e ->
    port.Io_port.close ();
    raise e

let close (t : t) = t.port.Io_port.close ()

let dims t = t.dim_list
let vars t = t.var_list

let find_var t name =
  match List.find_opt (fun v -> String.equal v.var_name name) t.var_list with
  | Some v -> v
  | None -> raise Not_found

let shape_of_var t v =
  if Array.length v.dim_ids = 0 then Shape.create [| 1 |]
  else Shape.create (Array.map (fun id -> (List.nth t.dim_list id).size) v.dim_ids)

let read_element t name idx =
  let v = find_var t name in
  let shape = shape_of_var t v in
  if not (Shape.in_bounds shape idx) then invalid_arg "Netcdf.read_element: out of bounds";
  let esz = nc_type_size v.nc_type in
  let off = v.begin_ + (Shape.linearize shape idx * esz) in
  decode_value v.nc_type (t.port.Io_port.pread off esz) 0

let read_slab t name slab f =
  let v = find_var t name in
  let shape = shape_of_var t v in
  Hyperslab.iter ~clip:shape slab (fun idx -> f idx (read_element t name idx))

let to_kh5 t path =
  let datasets =
    List.map
      (fun v ->
        let shape = shape_of_var t v in
        let dtype = match v.nc_type with Nc_int -> Dtype.Int32 | Nc_float | Nc_double -> Dtype.Float64 in
        let ds = Dataset.dense ~name:v.var_name ~dtype ~shape () in
        (ds, fun idx -> read_element t v.var_name idx))
      t.var_list
  in
  Writer.write path datasets
