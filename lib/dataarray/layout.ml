type t = Contiguous | Chunked of int array

let validate t shape =
  match t with
  | Contiguous -> ()
  | Chunked cdims ->
    if Array.length cdims <> Shape.rank shape then
      invalid_arg "Layout: chunk rank mismatch";
    Array.iter (fun d -> if d <= 0 then invalid_arg "Layout: non-positive chunk dim") cdims

let ceil_div a b = (a + b - 1) / b

let chunk_grid t shape =
  match t with
  | Contiguous -> Array.map (fun _ -> 1) (Shape.dims shape)
  | Chunked cdims ->
    let dims = Shape.dims shape in
    Array.init (Array.length dims) (fun k -> ceil_div dims.(k) cdims.(k))

let chunk_nelems = function
  | Contiguous -> invalid_arg "Layout.chunk_nelems: contiguous"
  | Chunked cdims -> Array.fold_left ( * ) 1 cdims

let storage_nelems t shape =
  match t with
  | Contiguous -> Shape.nelems shape
  | Chunked _ ->
    let grid = chunk_grid t shape in
    Array.fold_left ( * ) 1 grid * chunk_nelems t

type addressing = {
  dims : int array;
  strides : int array; (* row-major element strides of the array, or of one chunk *)
  chunk : int array; (* chunk dims; [||] when contiguous *)
  grid_strides : int array; (* row-major strides of the chunk grid; [||] when contiguous *)
  per_chunk : int;
  esz : int;
}

let row_major_strides dims =
  let s = Array.make (Array.length dims) 1 in
  for k = Array.length dims - 2 downto 0 do
    s.(k) <- s.(k + 1) * dims.(k + 1)
  done;
  s

let addressing t shape dt =
  let dims = Shape.dims shape and esz = Dtype.size dt in
  match t with
  | Contiguous ->
    { dims; strides = row_major_strides dims; chunk = [||]; grid_strides = [||]; per_chunk = 0; esz }
  | Chunked cdims ->
    { dims;
      strides = row_major_strides cdims;
      chunk = Array.copy cdims;
      grid_strides = row_major_strides (chunk_grid t shape);
      per_chunk = chunk_nelems t;
      esz }

(* Every axis is summed even past an out-of-bounds one: rank is at most
   a handful, and a flag keeps the loop free of exception handlers. *)
let offset a idx =
  let rank = Array.length a.dims in
  if Array.length idx <> rank then -1
  else if Array.length a.chunk = 0 then begin
    let bad = ref false and lin = ref 0 in
    for k = 0 to rank - 1 do
      let i = idx.(k) in
      if i < 0 || i >= a.dims.(k) then bad := true;
      lin := !lin + (i * a.strides.(k))
    done;
    if !bad then -1 else !lin * a.esz
  end
  else begin
    let bad = ref false and chunk_rank = ref 0 and within = ref 0 in
    for k = 0 to rank - 1 do
      let i = idx.(k) and c = a.chunk.(k) in
      if i < 0 || i >= a.dims.(k) then bad := true;
      chunk_rank := !chunk_rank + (i / c * a.grid_strides.(k));
      within := !within + (i mod c * a.strides.(k))
    done;
    if !bad then -1 else ((!chunk_rank * a.per_chunk) + !within) * a.esz
  end

let element_offset t shape dt idx = offset (addressing t shape dt) idx

let index_of_offset t shape dt off =
  let esz = Dtype.size dt in
  if off mod esz <> 0 then None
  else begin
    let lin = off / esz in
    match t with
    | Contiguous -> if lin < Shape.nelems shape then Some (Shape.delinearize shape lin) else None
    | Chunked cdims ->
      let rank = Array.length cdims in
      let grid = chunk_grid t shape in
      let grid_shape = Shape.create grid and chunk_shape = Shape.create cdims in
      let per_chunk = chunk_nelems t in
      let chunk_rank = lin / per_chunk and within_rank = lin mod per_chunk in
      if chunk_rank >= Shape.nelems grid_shape then None
      else begin
        let chunk_idx = Shape.delinearize grid_shape chunk_rank in
        let within = Shape.delinearize chunk_shape within_rank in
        let idx = Array.init rank (fun k -> (chunk_idx.(k) * cdims.(k)) + within.(k)) in
        if Shape.in_bounds shape idx then Some idx else None (* chunk padding *)
      end
  end

let contiguous_run t shape dt idx =
  ignore dt;
  match t with
  | Contiguous ->
    (* Remaining elements of the row-major tail from idx. *)
    Shape.nelems shape - Shape.linearize shape idx
  | Chunked cdims ->
    let rank = Array.length cdims in
    let within_last = idx.(rank - 1) mod cdims.(rank - 1) in
    cdims.(rank - 1) - within_last

let to_string = function
  | Contiguous -> "contiguous"
  | Chunked cdims ->
    "chunked:" ^ String.concat "x" (Array.to_list (Array.map string_of_int cdims))
