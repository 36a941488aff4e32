type layer =
  | Env of { cmd : string; bytes : int }
  | Data of { dst : string; content : bytes }

type t = { spec : Spec.t; layers : layer list }

(* Footprints of packages that appear in the paper's example spec, plus a
   hash-derived default so arbitrary RUN lines get a stable size. *)
let known_packages =
  [ ("gcc", 92 * 1024 * 1024);
    ("libhdf5-dev", 34 * 1024 * 1024);
    ("python3", 48 * 1024 * 1024);
    ("libnetcdf-dev", 21 * 1024 * 1024) ]

let env_layer_size cmd =
  let matched =
    List.fold_left
      (fun acc (pkg, sz) ->
        (* substring search *)
        let contains () =
          let lp = String.length pkg and lc = String.length cmd in
          let rec go i = i + lp <= lc && (String.sub cmd i lp = pkg || go (i + 1)) in
          go 0
        in
        if contains () then acc + sz else acc)
      0 known_packages
  in
  if matched > 0 then matched
  else begin
    let h = Hashtbl.hash cmd in
    (1 * 1024 * 1024) + (h mod (8 * 1024 * 1024))
  end

let build spec ~fetch =
  let env_layers = List.map (fun cmd -> Env { cmd; bytes = env_layer_size cmd }) spec.Spec.env_deps in
  let data_layers =
    List.map (fun d -> Data { dst = d.Spec.dst; content = fetch d.Spec.src }) spec.Spec.data_deps
  in
  { spec; layers = env_layers @ data_layers }

let layer_size = function Env e -> e.bytes | Data d -> Bytes.length d.content

let size t = List.fold_left (fun acc l -> acc + layer_size l) 0 t.layers

let env_size t =
  List.fold_left (fun acc l -> match l with Env _ -> acc + layer_size l | Data _ -> acc) 0 t.layers

let data_size t =
  List.fold_left (fun acc l -> match l with Data _ -> acc + layer_size l | Env _ -> acc) 0 t.layers

let data_content t ~dst =
  List.find_map
    (function Data d when String.equal d.dst dst -> Some d.content | Data _ | Env _ -> None)
    t.layers

let replace_data t ~dst content =
  let found = ref false in
  let layers =
    List.map
      (function
        | Data d when String.equal d.dst dst ->
          found := true;
          Data { d with content }
        | l -> l)
      t.layers
  in
  if not !found then raise Not_found;
  { t with layers }

let sanitize dst =
  String.map (function '/' | '\\' -> '_' | c -> c) dst

let materialize t ~dir =
  List.filter_map
    (function
      | Env _ -> None
      | Data d ->
        let path = Filename.concat dir (sanitize d.dst) in
        Kondo_faults.Frame.atomic_write path (fun oc -> output_bytes oc d.content);
        Some (d.dst, path))
    t.layers
