type t = {
  path : string;
  size : unit -> int;
  pread : int -> int -> bytes;
  close : unit -> unit;
}

let of_bytes ~path buf =
  { path;
    size = (fun () -> Bytes.length buf);
    pread =
      (fun off len ->
        if off < 0 || len < 0 || off + len > Bytes.length buf then
          invalid_arg "Io_port.pread: out of range";
        Bytes.sub buf off len);
    close = (fun () -> ()) }

open Bigarray

type mapping = (char, int8_unsigned_elt, c_layout) Array1.t

external get64u : mapping -> int -> int64 = "%caml_bigstring_get64u"
external set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Word at a time, then a byte tail.  The caller has checked the
   range, so the unchecked accessors stay inside both buffers. *)
let copy_out (m : mapping) off len =
  let buf = Bytes.create len in
  let words = len land lnot 7 in
  let i = ref 0 in
  while !i < words do
    set64u buf !i (get64u m (off + !i));
    i := !i + 8
  done;
  for j = words to len - 1 do
    Bytes.unsafe_set buf j (Array1.unsafe_get m (off + j))
  done;
  buf

(* A failed open is [Sys_error "<path>: <reason>"], the error that
   callers report as an unreadable input, never [Unix.Unix_error]. *)
let map_read_only path =
  let fail err = raise (Sys_error (path ^ ": " ^ Unix.error_message err)) in
  match Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | exception Unix.Unix_error (err, _, _) -> fail err
  | fd ->
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        match Unix.fstat fd with
        | exception Unix.Unix_error (err, _, _) -> fail err
        | { Unix.st_kind = Unix.S_DIR; _ } -> fail Unix.EISDIR
        | _ -> (
          match Unix.map_file fd char c_layout false [| -1 |] with
          | m -> array1_of_genarray m
          | exception Unix.Unix_error (err, _, _) -> fail err))

(* The file is mapped read-only and private once, and its descriptor
   closed at once: a read is a bounds check and a copy out of the page
   cache, with no syscall.  [close] drops the mapping; the GC unmaps it
   when the last reference goes. *)
let of_file path =
  let m = map_read_only path in
  let length = Array1.dim m in
  let mapping = ref (Some m) in
  { path;
    size = (fun () -> length);
    pread =
      (fun off len ->
        match !mapping with
        | None -> raise (Sys_error (path ^ ": " ^ Unix.error_message Unix.EBADF))
        | Some m ->
          if off < 0 || len < 0 || off > length - len then
            invalid_arg "Io_port.pread: out of range";
          copy_out m off len);
    close = (fun () -> mapping := None) }
