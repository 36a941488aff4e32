open Kondo_faults

type shard = {
  lock : Mutex.t;
  tbl : (Chunk.id, bytes) Hashtbl.t;
  mutable bytes : int;
}

type t = {
  shards : shard array;
  path : string option;
  io : Mutex.t; (* serializes appends and compaction *)
  mutable oc : out_channel option;
  mutable salvaged : int;
  mutable intact : bool;
  mutable closed : bool;
}

let shard_of t id =
  (* mix the high bits in: FNV digests are well distributed, but don't
     rely on the low byte alone *)
  let h = Int64.to_int (Int64.logxor id (Int64.shift_right_logical id 17)) land max_int in
  t.shards.(h mod Array.length t.shards)

let frame_payload id chunk =
  let b = Bytes.create (8 + Bytes.length chunk) in
  Bytes.set_int64_le b 0 id;
  Bytes.blit chunk 0 b 8 (Bytes.length chunk);
  Bytes.unsafe_to_string b

let parse_frame payload =
  if String.length payload < 8 then None
  else
    let b = Bytes.unsafe_of_string payload in
    Some (Bytes.get_int64_le b 0, Bytes.sub b 8 (Bytes.length b - 8))

(* Walk the backing file: valid frames plus the offset where validity
   ends (= where appending resumes after truncating the torn tail). *)
let walk_frames buf =
  let rec go pos acc =
    match Frame.read_one buf pos with
    | Some (payload, next) -> go next (payload :: acc)
    | None -> (List.rev acc, pos)
  in
  go 0 []

let open_append path valid_end =
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  Unix.ftruncate fd valid_end;
  ignore (Unix.lseek fd valid_end Unix.SEEK_SET);
  Unix.out_channel_of_descr fd

let create ?(shards = 8) ?path () =
  let shards = max 1 (min 256 shards) in
  let t =
    { shards =
        Array.init shards (fun _ ->
            { lock = Mutex.create (); tbl = Hashtbl.create 64; bytes = 0 });
      path;
      io = Mutex.create ();
      oc = None;
      salvaged = 0;
      intact = true;
      closed = false }
  in
  (match path with
  | None -> ()
  | Some p ->
    let valid_end =
      if Sys.file_exists p then begin
        let buf = Frame.read_file p in
        let frames, valid_end = walk_frames buf in
        t.intact <- valid_end = Bytes.length buf;
        List.iter
          (fun payload ->
            match parse_frame payload with
            | None -> t.intact <- false
            | Some (id, chunk) ->
              let s = shard_of t id in
              if not (Hashtbl.mem s.tbl id) then begin
                Hashtbl.add s.tbl id chunk;
                s.bytes <- s.bytes + Bytes.length chunk;
                t.salvaged <- t.salvaged + 1
              end)
          frames;
        valid_end
      end
      else 0
    in
    t.oc <- Some (open_append p valid_end));
  t

let locked lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let put t id chunk =
  let s = shard_of t id in
  let fresh =
    locked s.lock (fun () ->
        if Hashtbl.mem s.tbl id then false
        else begin
          Hashtbl.add s.tbl id (Bytes.copy chunk);
          s.bytes <- s.bytes + Bytes.length chunk;
          true
        end)
  in
  if fresh then
    locked t.io (fun () ->
        match t.oc with
        | Some oc -> Frame.write oc (frame_payload id chunk)
        | None -> ());
  fresh

let get t id =
  let s = shard_of t id in
  locked s.lock (fun () ->
      match Hashtbl.find_opt s.tbl id with Some b -> Some (Bytes.copy b) | None -> None)

let mem t id =
  let s = shard_of t id in
  locked s.lock (fun () -> Hashtbl.mem s.tbl id)

let remove t id =
  let s = shard_of t id in
  locked s.lock (fun () ->
      match Hashtbl.find_opt s.tbl id with
      | None -> 0
      | Some b ->
        Hashtbl.remove s.tbl id;
        let n = Bytes.length b in
        s.bytes <- s.bytes - n;
        n)

let count t =
  Array.fold_left (fun acc s -> acc + locked s.lock (fun () -> Hashtbl.length s.tbl)) 0 t.shards

let stored_bytes t =
  Array.fold_left (fun acc s -> acc + locked s.lock (fun () -> s.bytes)) 0 t.shards

let hashes t =
  List.sort Int64.compare
    (Array.fold_left
       (fun acc s ->
         locked s.lock (fun () -> Hashtbl.fold (fun id _ acc -> id :: acc) s.tbl acc))
       [] t.shards)

let shard_count t = Array.length t.shards

let load_report t = (t.salvaged, t.intact)

let compact t =
  match t.path with
  | None -> ()
  | Some p ->
    locked t.io (fun () ->
        Option.iter close_out_noerr t.oc;
        Frame.atomic_write p (fun oc ->
            List.iter
              (fun id ->
                match get t id with
                | Some chunk -> Frame.write oc (frame_payload id chunk)
                | None -> ())
              (hashes t));
        let fd = Unix.openfile p [ Unix.O_WRONLY; Unix.O_APPEND ] 0o644 in
        t.oc <- Some (Unix.out_channel_of_descr fd))

let close t =
  if not t.closed then begin
    t.closed <- true;
    locked t.io (fun () ->
        Option.iter close_out_noerr t.oc;
        t.oc <- None)
  end
