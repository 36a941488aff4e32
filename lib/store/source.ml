open Kondo_container
open Kondo_faults
module Kfile = Kondo_h5.File

(* The logical length of [dataset] in the image's data layer at [dst]:
   the length a source's manifest for it must have. *)
let local_length image ~dst ~dataset =
  Option.bind (Image.data_content image ~dst) (fun content ->
      let f = Kfile.open_port (Kondo_audit.Io_port.of_bytes ~path:dst content) in
      let n =
        Option.map Kondo_h5.Dataset.logical_bytes
          (List.find_opt (fun ds -> ds.Kondo_h5.Dataset.name = dataset) (Kfile.datasets f))
      in
      Kfile.close f;
      n)

(* Memoize one manifest per mount and key; a failed lookup is retried on
   the next miss, so a transient failure does not poison the dataset.  A
   length mismatch is a permanent verdict, kept so every later miss
   fails fast. *)
let keyed ~image ~source_name ~key client =
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
          match local_length image ~dst ~dataset with
          | Some n when n <> m.Chunk.total_len ->
            Error
              (Fault.Permanent
                 (Printf.sprintf "%s at %s has %d bytes, the local dataset %d" m.Chunk.name
                    source_name m.Chunk.total_len n))
          | _ -> Ok m
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

let of_client ?(store_name = "") ~image client =
  keyed ~image ~source_name:(Client.peer client)
    ~key:(fun ~dst:_ ~dataset -> store_name ^ "#" ^ dataset)
    client

(* Run [f] on the opened KH5 file [src]; an absent, unreadable or
   malformed file is an error naming it. *)
let with_file src f =
  let fail msg = Error (Printf.sprintf "cannot serve remote source %s: %s" src msg) in
  match Kfile.open_file src with
  | exception (Sys_error msg | Kondo_h5.Binio.Corrupt msg) -> fail msg
  | file -> (
    match Fun.protect ~finally:(fun () -> Kfile.close file) (fun () -> f file) with
    | r -> Ok r
    | exception Invalid_argument msg -> fail msg)

(* The loopback handler of [of_image]: [pending] maps each
   ["dst#dataset"] key to its source dataset until it is indexed, [where]
   maps each indexed chunk id to its place in its file.  A dataset is
   indexed — one streaming digest pass — on its manifest request, and a
   chunk is read into the store on the range GET that asks for it, so
   memory holds only the chunks that were missed into. *)
let serve_files server ~pending ~where body =
  let read file ds ~offset ~length =
    Kfile.read_raw file ds.Kondo_h5.Dataset.name
      (Kondo_interval.Interval.make offset (offset + length))
  in
  (match Proto.decode_request body with
  | Ok (Proto.Manifest_req key) -> (
    match Hashtbl.find_opt pending key with
    | None -> ()
    | Some (src, ds) ->
      Hashtbl.remove pending key;
      ignore
        (with_file src (fun file ->
             let len = Kondo_h5.Dataset.logical_bytes ds and cs = Chunk.default_size in
             let ids =
               Array.init ((len + cs - 1) / cs) (fun i ->
                   let offset = i * cs and length = min cs (len - (i * cs)) in
                   let id = Chunk.digest (read file ds ~offset ~length) in
                   Hashtbl.replace where id (src, ds, offset, length);
                   id)
             in
             Server.add_manifest server
               { Chunk.name = key; chunk_size = cs; total_len = len; ids;
                 root = Chunk.root_of_ids ids })))
  | Ok (Proto.Batch ids) ->
    (* Each source opens once per request, however many of its chunks
       the request misses; a source that cannot be opened or read serves
       nothing, and the server answers those chunks as missing. *)
    let store = Server.store server in
    let opened = Hashtbl.create 2 in
    let file src =
      match Hashtbl.find_opt opened src with
      | Some f -> f
      | None ->
        let f =
          match Kfile.open_file src with
          | file -> Some file
          | exception (Sys_error _ | Kondo_h5.Binio.Corrupt _) -> None
        in
        Hashtbl.add opened src f;
        f
    in
    Fun.protect
      ~finally:(fun () -> Hashtbl.iter (fun _ f -> Option.iter Kfile.close f) opened)
      (fun () ->
        List.iter
          (fun id ->
            match Hashtbl.find_opt where id with
            | Some (src, ds, offset, length) when not (Block_store.mem store id) -> (
              match file src with
              | Some f -> (
                try ignore (Block_store.put store id (read f ds ~offset ~length))
                with Invalid_argument _ -> ())
              | None -> ())
            | _ -> ())
          ids)
  | _ -> ());
  Server.handle server body

let of_image ?retry ?faults ?cache image =
  let pending = Hashtbl.create 4 in
  (* every source file opens and is dense, so a bad one fails at boot *)
  let add (d : Spec.data_dep) =
    Result.map
      (List.iter (fun ds ->
           Hashtbl.replace pending (d.Spec.dst ^ "#" ^ ds.Kondo_h5.Dataset.name) (d.Spec.src, ds)))
      (with_file d.Spec.src (fun file ->
           let dss = Kfile.datasets file in
           List.iter
             (fun ds ->
               if Kondo_h5.Dataset.is_sparse ds then
                 invalid_arg
                   (Printf.sprintf "dataset %s is sparse — serve the original file"
                      ds.Kondo_h5.Dataset.name))
             dss;
           dss))
  in
  Result.map
    (fun () ->
      let server = Server.create ~cache_bytes:0 ~store:(Block_store.create ()) () in
      let handle = serve_files server ~pending ~where:(Hashtbl.create 1024) in
      let client = Client.connect ?retry ?faults ?cache (Transport.loopback ~handle) in
      let key ~dst ~dataset = dst ^ "#" ^ dataset in
      (client, keyed ~image ~source_name:"remote" ~key client))
    (List.fold_left
       (fun acc d -> if d.Spec.src = "" then acc else Result.bind acc (fun () -> add d))
       (Ok ()) image.Image.spec.Spec.data_deps)

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
