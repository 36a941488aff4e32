open Kondo_dataarray

type storage = Dense | Sparse of Kondo_interval.Interval_set.t

type attr = Str of string | Num of float

type t = {
  name : string;
  dtype : Dtype.t;
  shape : Shape.t;
  layout : Layout.t;
  storage : storage;
  attrs : (string * attr) list;
}

let dense ~name ~dtype ~shape ?(layout = Layout.Contiguous) ?(attrs = []) () =
  Layout.validate layout shape;
  { name; dtype; shape; layout; storage = Dense; attrs }

let attr t name = List.assoc_opt name t.attrs

let logical_bytes t = Layout.storage_nelems t.layout t.shape * Dtype.size t.dtype

let stored_bytes t =
  match t.storage with
  | Dense -> logical_bytes t
  | Sparse keep -> Kondo_interval.Interval_set.total_length keep

let index_of_offset t off = Layout.index_of_offset t.layout t.shape t.dtype off

let is_sparse t = match t.storage with Dense -> false | Sparse _ -> true

let to_string t =
  Printf.sprintf "%s: %s %s %s%s" t.name (Shape.to_string t.shape) (Dtype.to_string t.dtype)
    (Layout.to_string t.layout)
    (match t.storage with
    | Dense -> ""
    | Sparse keep ->
      Printf.sprintf " (sparse, %d runs, %d bytes)"
        (Kondo_interval.Interval_set.cardinal keep)
        (Kondo_interval.Interval_set.total_length keep))
