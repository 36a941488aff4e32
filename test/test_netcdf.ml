(* Tests for the NetCDF classic (CDF-1) reader/writer. *)

open Kondo_dataarray
open Kondo_h5

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) ("kondo_nc_" ^ name)

let fill idx = float_of_int ((idx.(0) * 100) + if Array.length idx > 1 then idx.(1) else 0)

let write_simple ?(ty = Netcdf.Nc_double) path =
  Netcdf.write path
    ~dims:[ { Netcdf.dim_name = "x"; size = 5 }; { Netcdf.dim_name = "y"; size = 7 } ]
    ~vars:[ ("temperature", [| 0; 1 |], ty, fill) ]

let test_roundtrip_double () =
  let path = tmp "rt.nc" in
  write_simple path;
  let f = Netcdf.open_file path in
  let v = Netcdf.find_var f "temperature" in
  let shape = Netcdf.shape_of_var f v in
  Alcotest.(check string) "shape" "5x7" (Shape.to_string shape);
  Shape.iter shape (fun idx ->
      Alcotest.(check (float 1e-9)) "value" (fill idx) (Netcdf.read_element f "temperature" idx));
  Netcdf.close f

let test_roundtrip_all_types () =
  List.iter
    (fun ty ->
      let path = tmp "types.nc" in
      write_simple ~ty path;
      let f = Netcdf.open_file path in
      Alcotest.(check (float 1e-4)) "value survives type" (fill [| 3; 4 |])
        (Netcdf.read_element f "temperature" [| 3; 4 |]);
      Netcdf.close f)
    [ Netcdf.Nc_int; Netcdf.Nc_float; Netcdf.Nc_double ]

let test_multiple_vars_share_dims () =
  let path = tmp "multi.nc" in
  Netcdf.write path
    ~dims:[ { Netcdf.dim_name = "t"; size = 4 } ]
    ~vars:
      [ ("a", [| 0 |], Netcdf.Nc_double, fun idx -> float_of_int idx.(0));
        ("b", [| 0 |], Netcdf.Nc_int, fun idx -> float_of_int (idx.(0) * 10)) ];
  let f = Netcdf.open_file path in
  Alcotest.(check int) "two vars" 2 (List.length (Netcdf.vars f));
  Alcotest.(check (float 1e-9)) "a" 2.0 (Netcdf.read_element f "a" [| 2 |]);
  Alcotest.(check (float 1e-9)) "b" 30.0 (Netcdf.read_element f "b" [| 3 |]);
  Netcdf.close f

(* A write that fails part-way leaves the previous file whole: the new
   bytes go to a temporary file that replaces it only when complete. *)
let test_failed_write_keeps_previous () =
  let path = tmp "atomic.nc" in
  let write second =
    Netcdf.write path
      ~dims:[ { Netcdf.dim_name = "t"; size = 4 } ]
      ~vars:
        [ ("a", [| 0 |], Netcdf.Nc_double, fun idx -> float_of_int idx.(0));
          ("b", [| 0 |], Netcdf.Nc_int, second) ]
  in
  write (fun idx -> float_of_int idx.(0));
  let before = In_channel.with_open_bin path In_channel.input_all in
  Alcotest.check_raises "fill raises" (Failure "fill") (fun () ->
      write (fun idx -> if idx.(0) = 2 then failwith "fill" else 0.0));
  Alcotest.(check string) "previous bytes" before (In_channel.with_open_bin path In_channel.input_all);
  Alcotest.(check bool) "no temporary left" false (Sys.file_exists (path ^ ".tmp"));
  let f = Netcdf.open_file path in
  Alcotest.(check (float 1e-9)) "previous values" 3.0 (Netcdf.read_element f "b" [| 3 |]);
  Netcdf.close f

let test_big_endian_layout () =
  (* spot-check the on-disk encoding: magic, numrecs, and that an
     Nc_int 1 encodes big-endian *)
  let path = tmp "be.nc" in
  Netcdf.write path
    ~dims:[ { Netcdf.dim_name = "x"; size = 1 } ]
    ~vars:[ ("v", [| 0 |], Netcdf.Nc_int, fun _ -> 1.0) ];
  let ic = open_in_bin path in
  let all = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "magic" "CDF\x01" (String.sub all 0 4);
  (* last 4 bytes are the padded int data: 00 00 00 01 *)
  Alcotest.(check string) "big-endian int" "\x00\x00\x00\x01"
    (String.sub all (String.length all - 4) 4)

let test_read_slab_clips () =
  let path = tmp "slab.nc" in
  write_simple path;
  let f = Netcdf.open_file path in
  let n = ref 0 in
  Netcdf.read_slab f "temperature" (Hyperslab.block_at [| 3; 5 |] [| 4; 4 |]) (fun idx v ->
      Alcotest.(check (float 1e-9)) "slab value" (fill idx) v;
      incr n);
  Alcotest.(check int) "clipped to 2x2" 4 !n;
  Netcdf.close f

let test_audited_reads () =
  let path = tmp "audit.nc" in
  write_simple path;
  let tracer = Kondo_audit.Tracer.create () in
  let f = Netcdf.open_file ~tracer ~pid:3 path in
  ignore (Netcdf.read_element f "temperature" [| 1; 1 |]);
  Netcdf.close f;
  Alcotest.(check bool) "events recorded" true (Kondo_audit.Tracer.event_count tracer > 0);
  Alcotest.(check bool) "offsets indexed" true
    (not (Kondo_interval.Interval_set.is_empty (Kondo_audit.Tracer.offsets tracer ~pid:3 ~path)))

let test_corrupt_magic () =
  let path = tmp "corrupt.nc" in
  let oc = open_out_bin path in
  output_string oc "HDF5whatever else";
  close_out oc;
  Alcotest.check_raises "bad magic" (Binio.Corrupt "netcdf: bad magic") (fun () ->
      ignore (Netcdf.open_file path))

(* a header that fails to parse closes the descriptor it was read through *)
let test_malformed_open_closes_port () =
  if Sys.file_exists "/proc/self/fd" then begin
    let path = tmp "trunc_leak.nc" in
    write_simple path;
    let head = In_channel.with_open_bin path (fun ic -> really_input_string ic 20) in
    Out_channel.with_open_bin path (fun oc -> output_string oc head);
    let fds () = Array.length (Sys.readdir "/proc/self/fd") in
    let before = fds () in
    for _ = 1 to 200 do
      match Netcdf.open_file path with
      | f ->
        Netcdf.close f;
        Alcotest.fail "truncated file opened"
      | exception Binio.Corrupt _ -> ()
    done;
    Alcotest.(check int) "descriptors unchanged" before (fds ())
  end

let test_unknown_var () =
  let path = tmp "unknown.nc" in
  write_simple path;
  let f = Netcdf.open_file path in
  Alcotest.check_raises "Not_found" Not_found (fun () -> ignore (Netcdf.find_var f "nope"));
  Netcdf.close f

let test_to_kh5 () =
  let path = tmp "conv.nc" in
  let out = tmp "conv.kh5" in
  write_simple path;
  let f = Netcdf.open_file path in
  Netcdf.to_kh5 f out;
  Netcdf.close f;
  let k = File.open_file out in
  let ds = File.find k "temperature" in
  Alcotest.(check string) "shape preserved" "5x7" (Shape.to_string ds.Dataset.shape);
  Shape.iter ds.Dataset.shape (fun idx ->
      Alcotest.(check (float 1e-9)) "converted value" (fill idx)
        (File.read_element k "temperature" idx));
  File.close k

let test_kh5_pipeline_on_netcdf_source () =
  (* the full debloating path for a NetCDF-backed application: convert,
     then debloat the KH5 conversion *)
  let open Kondo_workload in
  let open Kondo_core in
  let p = Stencils.ldc2d ~n:16 () in
  let nc = tmp "app.nc" in
  let kh5 = tmp "app.kh5" in
  let deb = tmp "app_debloated.kh5" in
  let dims = Shape.dims p.Program.shape in
  Netcdf.write nc
    ~dims:
      [ { Netcdf.dim_name = "x"; size = dims.(0) }; { Netcdf.dim_name = "y"; size = dims.(1) } ]
    ~vars:[ (p.Program.dataset, [| 0; 1 |], Netcdf.Nc_double, Datafile.fill) ];
  let f = Netcdf.open_file nc in
  Netcdf.to_kh5 f kh5;
  Netcdf.close f;
  let p64 = { p with Program.dtype = Dtype.Float64 } in
  let config = { Config.default with Config.max_iter = 300; stop_iter = 300 } in
  let report = Pipeline.debloat_file ~config p64 ~src:kh5 ~dst:deb in
  let d = File.open_file deb in
  let checked = ref 0 in
  Kondo_dataarray.Index_set.iter report.Pipeline.approx (fun idx ->
      if !checked < 50 then begin
        incr checked;
        Alcotest.(check (float 1e-9)) "netcdf value preserved through debloat"
          (Datafile.fill idx)
          (File.read_element d p.Program.dataset idx)
      end);
  File.close d

let suite =
  ( "netcdf",
    [ Alcotest.test_case "roundtrip double" `Quick test_roundtrip_double;
      Alcotest.test_case "malformed open closes its port" `Quick test_malformed_open_closes_port;
      Alcotest.test_case "roundtrip all types" `Quick test_roundtrip_all_types;
      Alcotest.test_case "multiple vars share dims" `Quick test_multiple_vars_share_dims;
      Alcotest.test_case "failed write keeps the previous file" `Quick
        test_failed_write_keeps_previous;
      Alcotest.test_case "big-endian on-disk layout" `Quick test_big_endian_layout;
      Alcotest.test_case "read_slab clips" `Quick test_read_slab_clips;
      Alcotest.test_case "audited reads" `Quick test_audited_reads;
      Alcotest.test_case "corrupt magic" `Quick test_corrupt_magic;
      Alcotest.test_case "unknown var" `Quick test_unknown_var;
      Alcotest.test_case "conversion to KH5" `Quick test_to_kh5;
      Alcotest.test_case "debloat pipeline on NetCDF source" `Quick
        test_kh5_pipeline_on_netcdf_source ] )
