open Kondo_container
open Kondo_faults
module Kfile = Kondo_h5.File

(* The logical length of [dataset] in the KH5 file mounted at [dst]: the
   length a source's manifest for it must have.  The header is read by
   path, so nothing of the data section is touched. *)
let local_length ~mounts ~dst ~dataset =
  Option.bind (List.assoc_opt dst mounts) (fun path ->
      let f = Kfile.open_file path in
      Fun.protect
        ~finally:(fun () -> Kfile.close f)
        (fun () ->
          Option.map Kondo_h5.Dataset.logical_bytes
            (List.find_opt (fun ds -> ds.Kondo_h5.Dataset.name = dataset) (Kfile.datasets f))))

(* Memoize one manifest per mount and key; a failed lookup is retried on
   the next miss, so a transient failure does not poison the dataset.  A
   length mismatch is a permanent verdict, kept so every later miss
   fails fast. *)
let keyed ~mounts ~source_name ~key client =
  let manifests = Hashtbl.create 4 in
  let manifest_for ~dst ~dataset =
    let k = key ~dst ~dataset in
    match Hashtbl.find_opt manifests (dst, k) with
    | Some r -> r
    | None -> (
      match Client.manifest client ~name:k with
      | Error _ as e -> e
      | Ok m ->
        let r =
          match local_length ~mounts ~dst ~dataset with
          | Some n when n <> m.Chunk.total_len ->
            Error
              (Fault.Permanent
                 (Printf.sprintf "%s at %s has %d bytes, the local dataset %d" m.Chunk.name
                    source_name m.Chunk.total_len n))
          | _ -> Ok m
          | exception (Sys_error msg | Kondo_h5.Binio.Corrupt msg) ->
            Error (Fault.Permanent ("cannot read the local dataset length: " ^ msg))
        in
        Hashtbl.add manifests (dst, k) r;
        r)
  in
  { Runtime.source_name;
    store_fetch =
      (fun ~dst ~dataset ~offset ~length ->
        Result.bind (manifest_for ~dst ~dataset) (fun m ->
            if offset < 0 || length < 0 || offset + length > m.Chunk.total_len then
              Error
                (Fault.Permanent
                   (Printf.sprintf "[%d, %d) outside %s (%d bytes) at %s" offset
                      (offset + length) m.Chunk.name m.Chunk.total_len source_name))
            else Client.read_bytes client m ~offset ~length)) }

let of_client ?(store_name = "") ~mounts client =
  keyed ~mounts ~source_name:(Client.peer client)
    ~key:(fun ~dst:_ ~dataset -> store_name ^ "#" ^ dataset)
    client

(* Open the dense KH5 file [src]; an absent, unreadable, malformed or
   sparse file is an error naming it once.  An open error's message
   already starts with the path. *)
let open_source src =
  let fail msg = Error (Printf.sprintf "cannot serve remote source %s: %s" src msg) in
  match Kfile.open_file src with
  | exception Sys_error msg -> Error ("cannot serve remote source " ^ msg)
  | exception Kondo_h5.Binio.Corrupt msg -> fail msg
  | file -> (
    match List.find_opt Kondo_h5.Dataset.is_sparse (Kfile.datasets file) with
    | None -> Ok file
    | Some ds ->
      Kfile.close file;
      fail
        (Printf.sprintf "dataset %s is sparse — serve the original file"
           ds.Kondo_h5.Dataset.name))

(* The loopback handler of [of_files]: [pending] maps each
   ["dst#dataset"] key to its opened source file and dataset until it is
   indexed, [where] maps each indexed chunk id to its place in its file.
   A dataset is indexed — one streaming digest pass — on its manifest
   request, and a chunk is read into the store on the range GET that
   asks for it, so memory holds only the chunks that were missed into.
   Every read goes through the handle opened at creation, so a source
   replaced on disk meanwhile still serves the bytes it was indexed
   from. *)
let serve_files server ~pending ~where body =
  let read file ds ~offset ~length =
    Kfile.read_raw file ds.Kondo_h5.Dataset.name
      (Kondo_interval.Interval.make offset (offset + length))
  in
  (match Proto.decode_request body with
  | Ok (Proto.Manifest_req key) -> (
    match Hashtbl.find_opt pending key with
    | None -> ()
    | Some (file, ds) ->
      Hashtbl.remove pending key;
      (* a dataset that cannot be read gets no manifest, and the server
         answers the request as missing *)
      try
        Server.add_manifest server
          (Chunk.index ~name:key ~total_len:(Kondo_h5.Dataset.logical_bytes ds)
             (fun ~offset ~length ->
               let id = Chunk.digest (read file ds ~offset ~length) in
               Hashtbl.replace where id (file, ds, offset, length);
               id))
      with Invalid_argument _ -> ())
  | Ok (Proto.Batch ids) ->
    (* a chunk that cannot be read is not stored, and the server answers
       it as missing *)
    let store = Server.store server in
    List.iter
      (fun id ->
        match Hashtbl.find_opt where id with
        | Some (file, ds, offset, length) when not (Block_store.mem store id) -> (
          (* [read] returns a fresh buffer, which the store keeps *)
          try
            ignore
              (Block_store.put store id (Bytes.unsafe_to_string (read file ds ~offset ~length)))
          with Invalid_argument _ -> ())
        | _ -> ())
      ids
  | _ -> ());
  Server.handle server body

let of_files ?retry ?faults ?cache ~mounts ~sources () =
  let pending = Hashtbl.create 4 and files = ref [] in
  let close_all () = List.iter Kfile.close !files in
  (* every source file opens and is dense, so a bad one fails at once,
     closing the ones opened before it *)
  let opened =
    List.fold_left
      (fun acc (dst, src) ->
        Result.bind acc (fun () ->
            Result.map
              (fun file ->
                files := file :: !files;
                List.iter
                  (fun ds ->
                    Hashtbl.replace pending (dst ^ "#" ^ ds.Kondo_h5.Dataset.name) (file, ds))
                  (Kfile.datasets file))
              (open_source src)))
      (Ok ()) sources
  in
  match opened with
  | Error msg ->
    close_all ();
    Error msg
  | Ok () ->
    let server = Server.create ~cache_bytes:0 ~store:(Block_store.create ()) () in
    let loopback =
      Transport.loopback ~handle:(serve_files server ~pending ~where:(Hashtbl.create 1024))
    in
    let conn =
      { loopback with
        Transport.close =
          (fun () ->
            loopback.Transport.close ();
            close_all ()) }
    in
    let client = Client.connect ?retry ?faults ?cache conn in
    let key ~dst ~dataset = dst ^ "#" ^ dataset in
    Ok (client, keyed ~mounts ~source_name:"remote" ~key client)

let first = function
  | [] -> invalid_arg "Source.first: no sources"
  | s0 :: rest as sources ->
    { Runtime.source_name =
        String.concat ", then " (List.map (fun s -> s.Runtime.source_name) sources);
      store_fetch =
        (fun ~dst ~dataset ~offset ~length ->
          let fetch s = s.Runtime.store_fetch ~dst ~dataset ~offset ~length in
          List.fold_left
            (fun r s -> match r with Ok _ -> r | Error _ -> fetch s)
            (fetch s0) rest) }
