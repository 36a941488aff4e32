open Kondo_faults

let magic_v1 = "KLOG\x01"
let magic = "KLOG\x02"

(* ---- varint encoding (LEB128, unsigned) ---- *)

let put_varint buf v =
  if v < 0 then invalid_arg "Event_log: negative field";
  let rec go v =
    if v < 0x80 then Buffer.add_uint8 buf v
    else begin
      Buffer.add_uint8 buf (v land 0x7F lor 0x80);
      go (v lsr 7)
    end
  in
  go v

let get_varint s pos =
  let rec go shift acc pos =
    if pos >= String.length s then failwith "Event_log: truncated varint";
    let b = Char.code s.[pos] in
    let acc = acc lor ((b land 0x7F) lsl shift) in
    if b land 0x80 = 0 then (acc, pos + 1) else go (shift + 7) acc (pos + 1)
  in
  go 0 0 pos

let op_code = function
  | Event.Open -> 0
  | Event.Read -> 1
  | Event.Write -> 2
  | Event.Mmap -> 3
  | Event.Close -> 4

let op_of_code = function
  | 0 -> Event.Open
  | 1 -> Event.Read
  | 2 -> Event.Write
  | 3 -> Event.Mmap
  | 4 -> Event.Close
  | c -> failwith (Printf.sprintf "Event_log: bad op code %d" c)

(* ---- writing ----

   Since v2 every [log] call appends one CRC-framed record group (the
   event plus any path-definition it needs) and flushes, so a crash at
   any byte leaves a salvageable prefix of whole groups. *)

type writer = {
  oc : out_channel;
  paths : (string, int) Hashtbl.t;
  mutable next_path_id : int;
  buf : Buffer.t;
}

let writer_of_channel oc = { oc; paths = Hashtbl.create 8; next_path_id = 0; buf = Buffer.create 64 }

let create_writer path =
  let oc = open_out_bin path in
  output_string oc magic;
  flush oc;
  writer_of_channel oc

let path_id w path =
  match Hashtbl.find_opt w.paths path with
  | Some id -> id
  | None ->
    let id = w.next_path_id in
    w.next_path_id <- id + 1;
    Hashtbl.add w.paths path id;
    (* path definition record: tag 0 *)
    put_varint w.buf 0;
    put_varint w.buf id;
    put_varint w.buf (String.length path);
    Buffer.add_string w.buf path;
    id

let log w (e : Event.t) =
  Buffer.clear w.buf;
  let pid_of_path = path_id w e.Event.path in
  (* event record: tag 1 *)
  put_varint w.buf 1;
  put_varint w.buf e.Event.seq;
  put_varint w.buf e.Event.pid;
  put_varint w.buf pid_of_path;
  put_varint w.buf (op_code e.Event.op);
  put_varint w.buf e.Event.offset;
  put_varint w.buf e.Event.size;
  Frame.write w.oc (Buffer.contents w.buf)

let close_writer w = close_out w.oc

let save path events =
  Frame.atomic_write path (fun oc ->
      output_string oc magic;
      let w = writer_of_channel oc in
      List.iter (log w) events)

(* ---- loading ---- *)

(* The records of each payload in turn; path definitions carry over
   from one payload to the next. *)
let parse_records payloads =
  let paths : (int, string) Hashtbl.t = Hashtbl.create 8 in
  let events = ref [] in
  let parse payload =
    let n = String.length payload in
    let pos = ref 0 in
    while !pos < n do
      let tag, p = get_varint payload !pos in
      match tag with
      | 0 ->
        let id, p = get_varint payload p in
        let len, p = get_varint payload p in
        if p + len > n then failwith "Event_log: truncated path";
        Hashtbl.replace paths id (String.sub payload p len);
        pos := p + len
      | 1 ->
        let seq, p = get_varint payload p in
        let pid, p = get_varint payload p in
        let path_id, p = get_varint payload p in
        let op, p = get_varint payload p in
        let offset, p = get_varint payload p in
        let size, p = get_varint payload p in
        let op = op_of_code op in
        let path =
          match Hashtbl.find_opt paths path_id with
          | Some s -> s
          | None -> failwith "Event_log: undefined path id"
        in
        events := { Event.seq; pid; path; op; offset; size } :: !events;
        pos := p
      | tag -> failwith (Printf.sprintf "Event_log: bad record tag %d" tag)
    done
  in
  List.iter parse payloads;
  List.rev !events

let load_salvage path =
  let buf =
    try Frame.read_file path with Sys_error msg -> failwith ("Event_log: " ^ msg)
  in
  let have_magic m =
    Bytes.length buf >= String.length m && Bytes.sub_string buf 0 (String.length m) = m
  in
  if have_magic magic then begin
    let frames, intact = Frame.read_all buf ~pos:(String.length magic) in
    (parse_records frames, intact)
  end
  else if have_magic magic_v1 then
    (* legacy unframed stream: one strict record run after the magic, a
       truncated tail is an error the way it always was *)
    let m = String.length magic_v1 in
    (parse_records [ Bytes.sub_string buf m (Bytes.length buf - m) ], true)
  else if Bytes.length buf < String.length magic then
    (* shorter than any magic: nothing salvageable, treat as empty *)
    ([], false)
  else failwith "Event_log: bad magic"

let load path = fst (load_salvage path)

let replay path =
  let t = Tracer.create () in
  List.iter
    (fun (e : Event.t) ->
      ignore
        (Tracer.record t ~pid:e.Event.pid ~path:e.Event.path ~op:e.Event.op ~offset:e.Event.offset
           ~size:e.Event.size))
    (load path);
  t
