(* Slicing-by-8: table [k] advances the CRC of a byte followed by [k]
   zero bytes, so eight table lookups fold in one 8-byte word.  Table 0
   is the classic byte-at-a-time table. *)
let crc_tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

let tab k x = Array.unsafe_get crc_tables ((k lsl 8) lor (x land 0xFF))

external get32u : bytes -> int -> int32 = "%caml_bytes_get32u"
external swap32 : int32 -> int32 = "%bswap_int32"

(* The little-endian u32 at [i]; the caller checks the bounds. *)
let word buf i =
  let w = get32u buf i in
  Int32.to_int (if Sys.big_endian then swap32 w else w) land 0xFFFFFFFF

let crc32_sub buf pos len =
  if pos < 0 || len < 0 || pos > Bytes.length buf - len then invalid_arg "Frame.crc32_sub";
  let c = ref 0xFFFFFFFF in
  let i = ref pos in
  let stop = pos + len in
  while !i + 8 <= stop do
    let a = !c lxor word buf !i and b = word buf (!i + 4) in
    c :=
      tab 7 a lxor tab 6 (a lsr 8) lxor tab 5 (a lsr 16) lxor tab 4 (a lsr 24)
      lxor tab 3 b lxor tab 2 (b lsr 8) lxor tab 1 (b lsr 16) lxor tab 0 (b lsr 24);
    i := !i + 8
  done;
  while !i < stop do
    c := tab 0 (!c lxor Char.code (Bytes.unsafe_get buf !i)) lxor (!c lsr 8);
    incr i
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
