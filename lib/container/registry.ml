type stored_layer =
  | Stored_env of { cmd : string; bytes : int }
  | Stored_data of { dst : string; size : int; chunks : int64 list }

type manifest = { spec : Spec.t; layers : stored_layer list }

type t = {
  chunks : (int64, bytes) Hashtbl.t;
  mutable bytes : int; (* payload bytes in [chunks] *)
  manifests : (string, manifest) Hashtbl.t;
}

let create () = { chunks = Hashtbl.create 256; bytes = 0; manifests = Hashtbl.create 8 }

(* Store a chunk under its hash; [true] when it was new. *)
let put_chunk t h c =
  if Hashtbl.mem t.chunks h then false
  else begin
    Hashtbl.add t.chunks h c;
    t.bytes <- t.bytes + Bytes.length c;
    true
  end

let push t ~name image =
  let added = ref 0 in
  let layers =
    List.map
      (function
        | Image.Env e -> Stored_env { cmd = e.cmd; bytes = e.bytes }
        | Image.Data d ->
          let tree = Merkle.build d.content in
          let hashes =
            List.map
              (fun c ->
                if
                  put_chunk t c.Merkle.hash
                    (Bytes.sub d.content c.Merkle.offset c.Merkle.length)
                then added := !added + c.Merkle.length;
                c.Merkle.hash)
              (Merkle.chunks tree)
          in
          Stored_data { dst = d.dst; size = Bytes.length d.content; chunks = hashes })
      image.Image.layers
  in
  Hashtbl.replace t.manifests name { spec = image.Image.spec; layers };
  !added

let find_manifest t name =
  match Hashtbl.find_opt t.manifests name with Some m -> m | None -> raise Not_found

let env_identity cmd = Int64.of_int (Hashtbl.hash cmd)

let pull t ~name ~have =
  let m = find_manifest t name in
  let transferred = ref 0 in
  let layers =
    List.map
      (function
        | Stored_env e ->
          if not (Merkle.HashSet.mem (env_identity e.cmd) have) then
            transferred := !transferred + e.bytes;
          Image.Env { cmd = e.cmd; bytes = e.bytes }
        | Stored_data d ->
          let content = Bytes.create d.size in
          let pos = ref 0 in
          List.iter
            (fun h ->
              let chunk =
                match Hashtbl.find_opt t.chunks h with
                | Some c -> c
                | None -> failwith "Registry: dangling chunk"
              in
              Bytes.blit chunk 0 content !pos (Bytes.length chunk);
              pos := !pos + Bytes.length chunk;
              if not (Merkle.HashSet.mem h have) then
                transferred := !transferred + Bytes.length chunk)
            d.chunks;
          Image.Data { dst = d.dst; content })
      m.layers
  in
  ({ Image.spec = m.spec; layers }, !transferred)

let manifest_names t =
  List.sort compare (Hashtbl.fold (fun name _ acc -> name :: acc) t.manifests [])

let chunk_count t = Hashtbl.length t.chunks

let stored_bytes t = t.bytes

let chunks_of t ~name =
  let m = find_manifest t name in
  List.fold_left
    (fun acc layer ->
      match layer with
      | Stored_env e -> Merkle.HashSet.add (env_identity e.cmd) acc
      | Stored_data d -> List.fold_left (fun acc h -> Merkle.HashSet.add h acc) acc d.chunks)
    Merkle.HashSet.empty m.layers

let gc t ~keep =
  let kept_manifests = List.map (fun name -> (name, find_manifest t name)) keep in
  let live =
    List.fold_left
      (fun acc (_, m) ->
        List.fold_left
          (fun acc layer ->
            match layer with
            | Stored_env _ -> acc
            | Stored_data d -> List.fold_left (fun acc h -> Merkle.HashSet.add h acc) acc d.chunks)
          acc m.layers)
      Merkle.HashSet.empty kept_manifests
  in
  let reclaimed = ref 0 in
  Hashtbl.filter_map_inplace
    (fun h c ->
      if Merkle.HashSet.mem h live then Some c
      else begin
        reclaimed := !reclaimed + Bytes.length c;
        None
      end)
    t.chunks;
  t.bytes <- t.bytes - !reclaimed;
  Hashtbl.reset t.manifests;
  List.iter (fun (name, m) -> Hashtbl.replace t.manifests name m) kept_manifests;
  !reclaimed
