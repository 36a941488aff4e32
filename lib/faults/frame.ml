let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32_sub buf pos len =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code (Bytes.unsafe_get buf i)) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc32 buf = crc32_sub buf 0 (Bytes.length buf)

let crc32_string s = crc32 (Bytes.unsafe_of_string s)

let header_len = 8

(* The header at [pos]: the payload length (negative when the u32 has
   its top bit set) and the CRC. *)
let header buf pos =
  ( Int32.to_int (Bytes.get_int32_le buf pos),
    Int32.to_int (Bytes.get_int32_le buf (pos + 4)) land 0xFFFFFFFF )

let write oc payload =
  let hdr = Bytes.create header_len in
  Bytes.set_int32_le hdr 0 (Int32.of_int (String.length payload));
  Bytes.set_int32_le hdr 4 (Int32.of_int (crc32_string payload));
  output_bytes oc hdr;
  output_string oc payload;
  flush oc

let read_one buf pos =
  let n = Bytes.length buf in
  if pos + header_len > n then None
  else begin
    let len, crc = header buf pos in
    if len < 0 || pos + header_len + len > n then None
    else if crc32_sub buf (pos + header_len) len <> crc then None
    else Some (Bytes.sub_string buf (pos + header_len) len, pos + header_len + len)
  end

let read_all buf ~pos =
  let n = Bytes.length buf in
  let rec go pos acc =
    if pos = n then (List.rev acc, true)
    else
      match read_one buf pos with
      | Some (payload, next) -> go next (payload :: acc)
      | None -> (List.rev acc, false)
  in
  go pos []

let input ic ~max_len =
  match
    let hdr = Bytes.create header_len in
    really_input ic hdr 0 header_len;
    let len, crc = header hdr 0 in
    if len < 0 || len > max_len then Error "oversized or negative frame"
    else begin
      let payload = Bytes.create len in
      really_input ic payload 0 len;
      if crc32 payload <> crc then Error "frame CRC mismatch"
      else Ok (Bytes.unsafe_to_string payload)
    end
  with
  | r -> r
  | exception End_of_file -> Error "connection closed"
  | exception Sys_error msg -> Error msg

let atomic_write path f =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  (try
     f oc;
     flush oc;
     close_out oc
   with exn ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise exn);
  Sys.rename tmp path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let n = in_channel_length ic in
      let b = Bytes.create n in
      really_input ic b 0 n;
      b)
