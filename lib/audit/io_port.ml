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

(* The length is measured once: [in_channel_length] costs two [lseek]s,
   too many for a per-element bounds check.  A seek inside the channel's
   buffer makes no syscall, so nearby reads are served from memory. *)
let of_file path =
  let ic = open_in_bin path in
  let length = try in_channel_length ic with e -> close_in_noerr ic; raise e in
  { path;
    size = (fun () -> length);
    pread =
      (fun off len ->
        if off < 0 || len < 0 || off + len > length then
          invalid_arg "Io_port.pread: out of range";
        seek_in ic off;
        let buf = Bytes.create len in
        really_input ic buf 0 len;
        buf);
    close = (fun () -> close_in ic) }

let with_file path f =
  let port = of_file path in
  Fun.protect ~finally:port.close (fun () -> f port)
