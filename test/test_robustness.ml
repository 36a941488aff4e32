(* Failure injection: corrupted inputs must produce clean errors, never
   crashes, unbounded allocations, or silent wrong data.

   Strategy: serialize valid artifacts, mutate them randomly, and check
   every parser either succeeds or raises its documented exception. *)

open Kondo_prng
open Kondo_dataarray
open Kondo_h5

let valid_kh5 =
  let ds =
    Dataset.dense ~name:"data" ~dtype:Dtype.Float64 ~shape:(Shape.create [| 6; 6 |])
      ~layout:(Layout.Chunked [| 2; 3 |])
      ~attrs:[ ("units", Dataset.Str "m"); ("scale", Dataset.Num 2.0) ]
      ()
  in
  Writer.write_bytes [ (ds, fun idx -> float_of_int (idx.(0) + idx.(1))) ]

let mutate rng buf =
  let b = Bytes.copy buf in
  let ops = 1 + Rng.int rng 4 in
  for _ = 1 to ops do
    match Rng.int rng 3 with
    | 0 ->
      (* flip a byte *)
      let i = Rng.int rng (Bytes.length b) in
      Bytes.set b i (Rng.byte rng)
    | 1 ->
      (* truncate *)
      ()
    | _ ->
      let i = Rng.int rng (Bytes.length b) in
      Bytes.set_uint8 b i 0xFF
  done;
  let len = if Rng.bernoulli rng 0.3 then 1 + Rng.int rng (Bytes.length b) else Bytes.length b in
  Bytes.sub b 0 len

(* Opening a corrupted KH5 either works (mutation hit the data section)
   or fails with a documented exception; reads on a successfully opened
   file behave the same way. *)
let test_kh5_corruption_fuzz () =
  let rng = Rng.create 99 in
  for _ = 1 to 500 do
    let mutated = mutate rng valid_kh5 in
    match File.open_port (Kondo_audit.Io_port.of_bytes ~path:"fuzz" mutated) with
    | exception (Binio.Corrupt _ | Invalid_argument _) -> ()
    | f -> (
      (* opened: element reads must not crash either *)
      try
        List.iter
          (fun ds ->
            Shape.iter ds.Dataset.shape (fun idx ->
                ignore (File.read_element f ds.Dataset.name idx)))
          (File.datasets f)
      with Binio.Corrupt _ | Invalid_argument _ | File.Data_missing _ -> ())
  done

let valid_nc =
  let path = Filename.temp_file "kondo_fuzz" ".nc" in
  Netcdf.write path
    ~dims:[ { Netcdf.dim_name = "x"; size = 4 }; { Netcdf.dim_name = "y"; size = 3 } ]
    ~vars:[ ("v", [| 0; 1 |], Netcdf.Nc_double, fun idx -> float_of_int idx.(0)) ];
  let ic = open_in_bin path in
  let b = Bytes.create (in_channel_length ic) in
  really_input ic b 0 (Bytes.length b);
  close_in ic;
  Sys.remove path;
  b

let test_netcdf_corruption_fuzz () =
  let rng = Rng.create 77 in
  for _ = 1 to 500 do
    let mutated = mutate rng valid_nc in
    match Netcdf.open_port (Kondo_audit.Io_port.of_bytes ~path:"fuzz" mutated) with
    | exception (Binio.Corrupt _ | Invalid_argument _) -> ()
    | f -> (
      try
        List.iter
          (fun v ->
            let shape = Netcdf.shape_of_var f v in
            Shape.iter shape (fun idx ->
                ignore (Netcdf.read_element f v.Netcdf.var_name idx)))
          (Netcdf.vars f)
      with Binio.Corrupt _ | Invalid_argument _ -> ())
  done

let test_event_log_corruption_fuzz () =
  let events =
    List.init 10 (fun i ->
        { Kondo_audit.Event.seq = i; pid = 1; path = "/f"; op = Kondo_audit.Event.Read;
          offset = i * 10; size = 5 })
  in
  let path = Filename.temp_file "kondo_fuzz" ".klog" in
  Kondo_audit.Event_log.save path events;
  let ic = open_in_bin path in
  let valid = Bytes.create (in_channel_length ic) in
  really_input ic valid 0 (Bytes.length valid);
  close_in ic;
  let rng = Rng.create 55 in
  for _ = 1 to 300 do
    let mutated = mutate rng valid in
    let oc = open_out_bin path in
    output_bytes oc mutated;
    close_out oc;
    match Kondo_audit.Event_log.load path with
    | exception Failure _ -> ()
    | exception End_of_file -> Alcotest.fail "End_of_file leaked from loader"
    | _ -> ()
  done;
  Sys.remove path

let test_campaign_corruption_fuzz () =
  let p = Kondo_workload.Stencils.ldc2d ~n:16 () in
  let config =
    { Kondo_core.Config.default with Kondo_core.Config.max_iter = 50; stop_iter = 50 }
  in
  let c = Kondo_core.Campaign.extend ~config p (Kondo_core.Campaign.fresh p) 1 in
  let path = Filename.temp_file "kondo_fuzz" ".kcam" in
  Kondo_core.Campaign.save c path;
  let ic = open_in_bin path in
  let valid = Bytes.create (in_channel_length ic) in
  really_input ic valid 0 (Bytes.length valid);
  close_in ic;
  let rng = Rng.create 33 in
  for _ = 1 to 200 do
    let mutated = mutate rng valid in
    let oc = open_out_bin path in
    output_bytes oc mutated;
    close_out oc;
    match Kondo_core.Campaign.load p path with
    | exception (Invalid_argument _ | Failure _ | End_of_file) -> ()
    | loaded ->
      (* a structurally valid mutation must still belong to this program *)
      Alcotest.(check string) "name preserved" p.Kondo_workload.Program.name
        (Kondo_core.Campaign.program_name loaded)
  done;
  Sys.remove path

let test_spec_parser_never_crashes () =
  let rng = Rng.create 11 in
  let directives = [ "FROM"; "RUN"; "ADD"; "PARAM"; "ENTRYPOINT"; "CMD"; "JUNK"; "" ] in
  for _ = 1 to 500 do
    let lines = 1 + Rng.int rng 8 in
    let text =
      String.concat "\n"
        (List.init lines (fun _ ->
             let d = List.nth directives (Rng.int rng (List.length directives)) in
             let arg = String.init (Rng.int rng 20) (fun _ -> Char.chr (32 + Rng.int rng 95)) in
             d ^ " " ^ arg))
    in
    match Kondo_container.Spec.parse text with Ok _ | Error _ -> ()
  done

(* ---------------- Store wire formats and frames ---------------- *)

(* [f ()] and the bytes it allocated on this domain.  A minor
   collection inside [f] makes the counter jump by about the minor
   heap's size (1.8 MB for a 17-byte decode, seen on OCaml 5.1), so the
   minor heap is emptied first: calls this small then run without one. *)
let allocated f =
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let r = f () in
  (r, Gc.allocated_bytes () -. before)

let wire_manifest =
  Kondo_store.Chunk.manifest_of_bytes ~chunk_size:16 ~name:"file#ds"
    (Bytes.init 100 (fun i -> Char.chr (i * 7 land 0xFF)))

let wire_requests =
  Kondo_store.Proto.
    [ Get 42L; Put (7L, "payload"); Stat; Batch [ 1L; 2L; 3L ]; Manifest_req "file#ds"; Scrape ]

let wire_responses =
  Kondo_store.Proto.
    [ Blob "chunk bytes";
      Not_found 9L;
      Stored true;
      Stats
        { chunks = 1; store_bytes = 2; manifests = 3; cache_hits = 4; cache_misses = 5;
          cache_evictions = 6; cache_coalesced = 7; cache_bytes = 8 };
      Blobs [ (1L, Some "a"); (2L, None); (3L, Some "") ];
      Manifest_resp wire_manifest;
      Metrics "# TYPE x counter\nx 1\n";
      Err "boom" ]

(* Every wire decoder answers a mutant with [Ok] or [Error] — any
   exception fails the test — and allocates in proportion to the body
   it was given: a mutated count cannot make it allocate for entries
   the body does not hold. *)
let test_wire_decoders_fuzz () =
  let open Kondo_store in
  let decoders =
    [ ("request", List.map Proto.encode_request wire_requests,
       fun s -> Result.is_ok (Proto.decode_request s));
      ("response", List.map Proto.encode_response wire_responses,
       fun s -> Result.is_ok (Proto.decode_response s));
      ("manifest", [ Chunk.encode wire_manifest ], fun s -> Result.is_ok (Chunk.decode s)) ]
  in
  let rng = Rng.create 44 in
  List.iter
    (fun (name, valid, decode) ->
      List.iter
        (fun body ->
          for _ = 1 to 300 do
            let s = Bytes.to_string (mutate rng (Bytes.of_string body)) in
            let (_ : bool), bytes = allocated (fun () -> decode s) in
            if bytes > float_of_int ((64 * String.length s) + 4096) then
              Alcotest.failf "%s decoder allocated %.0f bytes for a %d-byte body" name bytes
                (String.length s)
          done)
        valid)
    decoders

(* [Frame.input] over a mutated stream of frames: every call returns
   [Ok] or [Error], and none allocates more than the length cap (plus
   the header and the result's boxing), whatever length a header
   claims. *)
let test_frame_input_fuzz () =
  let path = Filename.temp_file "kondo_fuzz" ".frames" in
  let write_file b =
    let oc = open_out_bin path in
    output_bytes oc b;
    close_out oc
  in
  let frames =
    Kondo_faults.Frame.atomic_write path (fun oc ->
        List.iter
          (fun req -> Kondo_faults.Frame.write oc (Kondo_store.Proto.encode_request req))
          wire_requests);
    Kondo_faults.Frame.read_file path
  in
  let max_len = 64 in
  let read_all () =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec go n =
          let r, bytes = allocated (fun () -> Kondo_faults.Frame.input ic ~max_len) in
          if bytes > float_of_int (max_len + 1024) then
            Alcotest.failf "frame input allocated %.0f bytes under a %d-byte cap" bytes max_len;
          match r with Ok _ when n < 100 -> go (n + 1) | Ok _ | Error _ -> ()
        in
        go 0)
  in
  let rng = Rng.create 66 in
  for _ = 1 to 300 do
    write_file (mutate rng frames);
    read_all ()
  done;
  (* the protocol's reader checks its cap before allocating too *)
  let header = Bytes.create Kondo_faults.Frame.header_len in
  Bytes.set_int32_le header 0 (Int32.of_int (Kondo_store.Proto.max_message + 1));
  Bytes.set_int32_le header 4 0l;
  write_file header;
  let ic = open_in_bin path in
  let r, bytes = allocated (fun () -> Kondo_store.Proto.read_message ic) in
  close_in ic;
  Alcotest.(check (result string string)) "oversized message refused"
    (Error "oversized or negative frame") r;
  Alcotest.(check bool) "nothing allocated for it" true (bytes < 1024.0);
  Sys.remove path

let suite =
  ( "robustness",
    [ Alcotest.test_case "KH5 corruption fuzz (500 mutants)" `Quick test_kh5_corruption_fuzz;
      Alcotest.test_case "NetCDF corruption fuzz (500 mutants)" `Quick
        test_netcdf_corruption_fuzz;
      Alcotest.test_case "event log corruption fuzz" `Quick test_event_log_corruption_fuzz;
      Alcotest.test_case "campaign corruption fuzz" `Quick test_campaign_corruption_fuzz;
      Alcotest.test_case "spec parser never crashes" `Quick test_spec_parser_never_crashes;
      Alcotest.test_case "wire decoders fuzz" `Quick test_wire_decoders_fuzz;
      Alcotest.test_case "frame input fuzz" `Quick test_frame_input_fuzz ] )
