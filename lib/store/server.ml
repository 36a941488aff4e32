module Kfile = Kondo_h5.File

let handle_section = Kondo_obs.Obs.section ~cat:"store" "server.handle"

let batch_size =
  Kondo_obs.Registry.histogram ~help:"Chunk ids per BATCH request"
    ~buckets:[| 1.0; 2.0; 4.0; 8.0; 16.0; 32.0; 64.0; 128.0 |]
    Kondo_obs.Registry.default "kondo_store_server_batch_size"

type t = {
  store : Block_store.t;
  cache : Cache.t;
  jobs : int;
  manifests : (string, Chunk.manifest) Hashtbl.t;
  lock : Mutex.t; (* guards [manifests] *)
  served : Kondo_obs.Registry.counter;
}

let create ?(cache_bytes = 1024 * 1024) ?(jobs = 1) ~store () =
  if jobs < 1 then invalid_arg "Server.create: jobs < 1";
  { store;
    cache = Cache.create ~owner:`Server ~budget_bytes:cache_bytes ();
    jobs;
    manifests = Hashtbl.create 8;
    lock = Mutex.create ();
    served =
      Kondo_obs.Registry.instance ~help:"Requests handled by the store server"
        Kondo_obs.Registry.default "kondo_store_server_requests_total" }

let store t = t.store
let cache t = t.cache

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let add_manifest t m = locked t (fun () -> Hashtbl.replace t.manifests m.Chunk.name m)

(* Each chunk is digested once, in place, and copied once: into the
   string the store keeps. *)
let add_blob t ?chunk_size ~name content =
  let m = Chunk.manifest_of_bytes ?chunk_size ~name content in
  Array.iteri
    (fun i id ->
      let off, len = Chunk.chunk_span m i in
      ignore (Block_store.put t.store id (Bytes.sub_string content off len)))
    m.Chunk.ids;
  add_manifest t m;
  m

let add_kh5 t ?chunk_size ~name path =
  let f = Kfile.open_file path in
  Fun.protect
    ~finally:(fun () -> Kfile.close f)
    (fun () ->
      List.map
        (fun ds ->
          let dsname = ds.Kondo_h5.Dataset.name in
          if Kondo_h5.Dataset.is_sparse ds then
            invalid_arg
              (Printf.sprintf "Server.add_kh5: %s#%s is sparse — serve the original file"
                 name dsname);
          let section =
            Kfile.read_raw f dsname
              (Kondo_interval.Interval.make 0 (Kondo_h5.Dataset.logical_bytes ds))
          in
          add_blob t ?chunk_size ~name:(name ^ "#" ^ dsname) section)
        (Kfile.datasets f))

let manifests t =
  locked t (fun () ->
      List.sort
        (fun (a, _) (b, _) -> String.compare a b)
        (Hashtbl.fold (fun k m acc -> (k, m) :: acc) t.manifests []))

let find_manifest t key =
  let all = manifests t in
  match List.assoc_opt key all with
  | Some m -> Some m
  | None ->
    let matches =
      if key = "" then all
      else if String.length key > 0 && key.[0] = '#' then
        List.filter
          (fun (k, _) ->
            String.length k >= String.length key
            && String.sub k (String.length k - String.length key) (String.length key) = key)
          all
      else []
    in
    (match matches with [ (_, m) ] -> Some m | _ -> None)

let requests_served t = Kondo_obs.Registry.counter_value t.served

let lookup_chunk t id =
  Cache.get_or_fetch t.cache id ~fetch:(fun () ->
      match Block_store.get t.store id with
      | Some b -> Ok b
      | None -> Error (Kondo_faults.Fault.Permanent "no such chunk"))

let apply t req =
  match req with
  | Proto.Get id -> (
    match lookup_chunk t id with
    | Ok b -> Proto.Blob b
    | Error _ -> Proto.Not_found id)
  | Proto.Put (id, payload) ->
    (* the decoded payload is this request's own string: digest it in
       place and store it as it is *)
    if not (Int64.equal (Chunk.digest (Bytes.unsafe_of_string payload)) id) then
      Proto.Err "put: payload digest does not match id"
    else Proto.Stored (Block_store.put t.store id payload)
  | Proto.Stat ->
    let cs = Cache.stats t.cache in
    Proto.Stats
      { Proto.chunks = Block_store.count t.store;
        store_bytes = Block_store.stored_bytes t.store;
        manifests = List.length (manifests t);
        cache_hits = cs.Cache.hits;
        cache_misses = cs.Cache.misses;
        cache_evictions = cs.Cache.evictions;
        cache_coalesced = cs.Cache.coalesced;
        cache_bytes = cs.Cache.current_bytes }
  | Proto.Batch ids ->
    (* a range GET: fan the lookups out over a domain pool — concurrent
       misses on duplicate ids coalesce in the cache's single-flight *)
    Kondo_obs.Registry.observe
      batch_size
      (float_of_int (List.length ids));
    let lookup id =
      (id, match lookup_chunk t id with Ok b -> Some b | Error _ -> None)
    in
    let entries =
      if t.jobs = 1 || List.length ids < 2 then List.map lookup ids
      else Kondo_parallel.Pool.map_list (Kondo_parallel.Pool.create ~jobs:t.jobs) lookup ids
    in
    Proto.Blobs entries
  | Proto.Manifest_req key -> (
    match find_manifest t key with
    | Some m -> Proto.Manifest_resp m
    | None -> Proto.Err (Printf.sprintf "no manifest matches %S" key))
  | Proto.Scrape ->
    (* STATS op: the process-wide registry, so a scrape also sees the
       cache/pool/faults counters this server has been driving. *)
    Proto.Metrics (Kondo_obs.Registry.expose Kondo_obs.Registry.default)

let handle t body =
  Kondo_obs.Registry.inc t.served;
  Kondo_obs.Obs.span handle_section (fun () ->
      Proto.encode_response
        (match Proto.decode_request body with
        | Error msg -> Proto.Err ("bad request: " ^ msg)
        | Ok req -> (
          match apply t req with
          | resp -> resp
          | exception exn -> Proto.Err ("server error: " ^ Printexc.to_string exn))))

(* Answer one connection until its peer closes, sends garbage framing,
   or hangs up before reading a response (a failed write, which the
   ignored SIGPIPE turns into [Sys_error]): each drops the connection.
   Closing the out channel closes the descriptor and discards whatever
   a failed write left buffered. *)
let handle_conn t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let rec loop () =
    match Proto.read_message ic with
    | Error _ -> ()
    | Ok body -> (
      match Proto.write_message oc (handle t body) with
      | () -> loop ()
      | exception (Sys_error _ | Unix.Unix_error _) -> ())
  in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) loop

let serve_unix t ~socket ?(on_ready = fun () -> ()) ~stop () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (try Unix.unlink socket with Unix.Unix_error _ | Sys_error _ -> ());
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close listener with Unix.Unix_error _ -> ());
      try Unix.unlink socket with Unix.Unix_error _ | Sys_error _ -> ())
    (fun () ->
      Unix.bind listener (Unix.ADDR_UNIX socket);
      Unix.listen listener 16;
      on_ready ();
      let rec accept_loop () =
        if not (stop ()) then begin
          (match Unix.accept listener with
          | fd, _ -> if stop () then (try Unix.close fd with Unix.Unix_error _ -> ()) else handle_conn t fd
          | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> ());
          accept_loop ()
        end
      in
      accept_loop ())
