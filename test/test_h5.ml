(* Tests for the KH5 file format: writer/reader roundtrips, hyperslab
   reads, sparse (debloated) files, corruption handling. *)

open Kondo_dataarray
open Kondo_interval
open Kondo_h5

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) ("kondo_test_" ^ name)

let fill idx = float_of_int ((idx.(0) * 1000) + if Array.length idx > 1 then idx.(1) else 0)

let mk_dense ?(name = "data") ?(dtype = Dtype.Float64) ?layout dims =
  Dataset.dense ~name ~dtype ~shape:(Shape.create dims) ?layout ()

let test_roundtrip_contiguous () =
  let path = tmp "rt.kh5" in
  let ds = mk_dense [| 6; 7 |] in
  Writer.write path [ (ds, fill) ];
  let f = File.open_file path in
  Shape.iter ds.Dataset.shape (fun idx ->
      Alcotest.(check (float 1e-9)) "value" (fill idx) (File.read_element f "data" idx));
  File.close f

let test_roundtrip_chunked () =
  let path = tmp "rt_chunked.kh5" in
  let ds = mk_dense ~layout:(Layout.Chunked [| 4; 3 |]) [| 6; 7 |] in
  Writer.write path [ (ds, fill) ];
  let f = File.open_file path in
  Shape.iter ds.Dataset.shape (fun idx ->
      Alcotest.(check (float 1e-9)) "value" (fill idx) (File.read_element f "data" idx));
  File.close f

let test_roundtrip_all_dtypes () =
  List.iter
    (fun dtype ->
      let path = tmp ("dt_" ^ Dtype.to_string dtype ^ ".kh5") in
      let ds = mk_dense ~dtype [| 3; 4 |] in
      Writer.write path [ (ds, fill) ];
      let f = File.open_file path in
      Shape.iter ds.Dataset.shape (fun idx ->
          Alcotest.(check (float 1e-6)) (Dtype.to_string dtype) (fill idx)
            (File.read_element f "data" idx));
      File.close f)
    Dtype.all

let test_multiple_datasets () =
  let path = tmp "multi.kh5" in
  let a = mk_dense ~name:"a" [| 2; 2 |] in
  let b = mk_dense ~name:"b" ~dtype:Dtype.Int32 [| 5 |] in
  Writer.write path [ (a, fill); (b, fun idx -> float_of_int (idx.(0) * 2)) ];
  let f = File.open_file path in
  Alcotest.(check (list string)) "order preserved" [ "a"; "b" ]
    (List.map (fun d -> d.Dataset.name) (File.datasets f));
  Alcotest.(check (float 1e-9)) "b value" 6.0 (File.read_element f "b" [| 3 |]);
  File.close f

let test_duplicate_names_rejected () =
  let a = mk_dense ~name:"x" [| 2 |] in
  Alcotest.check_raises "duplicates" (Invalid_argument "Writer.write: duplicate dataset names")
    (fun () -> ignore (Writer.write_bytes [ (a, fill); (a, fill) ]))

let test_unknown_dataset () =
  let path = tmp "unknown.kh5" in
  Writer.write path [ (mk_dense [| 2; 2 |], fill) ];
  let f = File.open_file path in
  Alcotest.check_raises "Not_found" Not_found (fun () -> ignore (File.find f "nope"));
  File.close f

let test_corrupt_magic () =
  let path = tmp "corrupt.kh5" in
  let oc = open_out_bin path in
  output_string oc "NOTKH5xxxxxxxxxxxxx";
  close_out oc;
  Alcotest.check_raises "bad magic" (Binio.Corrupt "bad magic") (fun () ->
      ignore (File.open_file path))

let test_truncated_file () =
  let path = tmp "trunc.kh5" in
  let oc = open_out_bin path in
  output_string oc "KH5";
  close_out oc;
  Alcotest.check_raises "truncated" (Binio.Corrupt "truncated superblock") (fun () ->
      ignore (File.open_file path))

let test_truncated_header () =
  let path = tmp "trunc_header.kh5" in
  Writer.write path [ (mk_dense [| 6; 7 |], fill) ];
  let head = In_channel.with_open_bin path (fun ic -> really_input_string ic 20) in
  Out_channel.with_open_bin path (fun oc -> output_string oc head);
  Alcotest.check_raises "truncated" (Binio.Corrupt "truncated header") (fun () ->
      ignore (File.open_file path))

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

(* A header that fails to parse closes the descriptor it was read
   through: 200 failed opens leave the process's descriptors as they
   were. *)
let test_malformed_open_closes_port () =
  if Sys.file_exists "/proc/self/fd" then begin
    let path = tmp "trunc_leak.kh5" in
    Writer.write path [ (mk_dense [| 6; 7 |], fill) ];
    let head = In_channel.with_open_bin path (fun ic -> really_input_string ic 20) in
    Out_channel.with_open_bin path (fun oc -> output_string oc head);
    let before = open_fds () in
    for _ = 1 to 200 do
      match File.open_file path with
      | f ->
        File.close f;
        Alcotest.fail "truncated file opened"
      | exception Binio.Corrupt _ -> ()
    done;
    Alcotest.(check int) "descriptors unchanged" before (open_fds ())
  end

let test_read_slab_matches_elementwise () =
  let path = tmp "slab.kh5" in
  let ds = mk_dense [| 8; 8 |] in
  Writer.write path [ (ds, fill) ];
  let f = File.open_file path in
  let slab = Hyperslab.make ~start:[| 1; 2 |] ~stride:[| 3; 2 |] ~count:[| 2; 3 |] ~block:[| 2; 1 |] () in
  let seen = ref [] in
  File.read_slab f "data" slab (fun idx v ->
      Alcotest.(check (float 1e-9)) "slab value" (fill idx) v;
      seen := Array.copy idx :: !seen);
  Alcotest.(check int) "all selected" (Hyperslab.nelems slab) (List.length !seen);
  File.close f

let test_read_slab_clips () =
  let path = tmp "clip.kh5" in
  Writer.write path [ (mk_dense [| 4; 4 |], fill) ];
  let f = File.open_file path in
  let n = ref 0 in
  File.read_slab f "data" (Hyperslab.block_at [| 2; 2 |] [| 4; 4 |]) (fun _ _ -> incr n);
  Alcotest.(check int) "clipped" 4 !n;
  File.close f

let test_slab_read_batches () =
  (* a dense row read should issue one pread for the row, not one per
     element *)
  let path = tmp "batch.kh5" in
  Writer.write path [ (mk_dense [| 4; 16 |], fill) ];
  let tracer = Kondo_audit.Tracer.create () in
  let f = File.open_file ~tracer path in
  let before = Kondo_audit.Tracer.event_count tracer in
  File.read_slab f "data" (Hyperslab.block_at [| 1; 0 |] [| 1; 16 |]) (fun _ _ -> ());
  let reads = Kondo_audit.Tracer.event_count tracer - before in
  Alcotest.(check int) "single batched read" 1 reads;
  File.close f

let test_mean_slab () =
  let path = tmp "mean.kh5" in
  Writer.write path [ (mk_dense [| 2; 2 |], fun idx -> float_of_int (idx.(0) + idx.(1))) ];
  let f = File.open_file path in
  Alcotest.(check (float 1e-9)) "mean" 1.0
    (File.mean_slab f "data" (Hyperslab.block_at [| 0; 0 |] [| 2; 2 |]));
  File.close f

let debloated_pair ~keep_rows () =
  let src = tmp "deb_src.kh5" and dst = tmp "deb_dst.kh5" in
  let ds = mk_dense [| 8; 8 |] in
  Writer.write src [ (ds, fill) ];
  let f = File.open_file src in
  let esz = Dtype.size Dtype.Float64 in
  let keep _ =
    Interval_set.of_list
      (List.map (fun r -> Interval.make (r * 8 * esz) ((r + 1) * 8 * esz)) keep_rows)
  in
  Writer.write_debloated dst ~source:f ~keep;
  File.close f;
  (src, dst)

let test_debloated_reads_kept_data () =
  let _, dst = debloated_pair ~keep_rows:[ 2; 5 ] () in
  let d = File.open_file dst in
  List.iter
    (fun r ->
      for c = 0 to 7 do
        Alcotest.(check (float 1e-9)) "kept row" (fill [| r; c |]) (File.read_element d "data" [| r; c |])
      done)
    [ 2; 5 ];
  File.close d

let test_debloated_missing_raises () =
  let _, dst = debloated_pair ~keep_rows:[ 2 ] () in
  let d = File.open_file dst in
  (try
     ignore (File.read_element d "data" [| 0; 0 |]);
     Alcotest.fail "expected Data_missing"
   with File.Data_missing m ->
     Alcotest.(check string) "dataset" "data" m.File.dataset;
     Alcotest.(check (array int)) "index" [| 0; 0 |] m.File.index);
  File.close d

let test_debloated_smaller () =
  let src, dst = debloated_pair ~keep_rows:[ 1 ] () in
  let s = File.open_file src and d = File.open_file dst in
  Alcotest.(check bool) "smaller file" true (File.file_size d < File.file_size s);
  let ds = File.find d "data" in
  Alcotest.(check bool) "marked sparse" true (Dataset.is_sparse ds);
  Alcotest.(check int) "stored bytes = one row" (8 * 8) (Dataset.stored_bytes ds);
  File.close s;
  File.close d

(* The run table of [debloated_pair ~keep_rows:[ 2; 5 ]] is (128, 192),
   (320, 384) over a 512-byte section; [expect_bad_runs msg mutate]
   rewrites it through [set run field value] and expects the reopen to
   fail with [msg]. *)
let expect_bad_runs msg mutate =
  let _, dst = debloated_pair ~keep_rows:[ 2; 5 ] () in
  let b = Bytes.of_string (In_channel.with_open_bin dst In_channel.input_all) in
  let pattern = Bytes.create 16 in
  Bytes.set_int64_le pattern 0 128L;
  Bytes.set_int64_le pattern 8 192L;
  let rec find i = if Bytes.sub b i 16 = pattern then i else find (i + 1) in
  let base = find 0 in
  mutate (fun run field v -> Bytes.set_int64_le b (base + (16 * run) + (8 * field)) (Int64.of_int v));
  Out_channel.with_open_bin dst (fun oc -> Out_channel.output_bytes oc b);
  Alcotest.check_raises msg (Binio.Corrupt msg) (fun () -> File.close (File.open_file dst))

let test_runs_reject_empty () = expect_bad_runs "empty run" (fun set -> set 0 1 128)

let test_runs_reject_unsorted () =
  expect_bad_runs "unsorted or overlapping runs" (fun set ->
      set 0 0 320;
      set 0 1 384;
      set 1 0 128;
      set 1 1 192)

let test_runs_reject_misaligned () =
  expect_bad_runs "misaligned run" (fun set ->
      set 0 0 129;
      set 0 1 193)

let test_runs_reject_outside () =
  expect_bad_runs "run outside the dataset" (fun set ->
      set 1 0 512;
      set 1 1 576)

(* Growing one run by an element used to open cleanly, verify, and serve
   every later element from its neighbour's bytes.  A shift that keeps
   every length (first run moved to (136, 200)) still passes all these
   rules and stays undetectable until the header carries a checksum. *)
let test_runs_reject_wrong_total () =
  expect_bad_runs "runs do not fill the stored section" (fun set -> set 0 1 200)

let test_debloated_roundtrip_reopen () =
  (* the sparse run table survives a write/parse cycle *)
  let _, dst = debloated_pair ~keep_rows:[ 0; 7 ] () in
  let d = File.open_file dst in
  (match (File.find d "data").Dataset.storage with
  | Dataset.Sparse keep -> Alcotest.(check int) "two runs" 2 (Interval_set.cardinal keep)
  | Dataset.Dense -> Alcotest.fail "expected sparse");
  File.close d

let test_read_raw () =
  let path = tmp "raw.kh5" in
  Writer.write path [ (mk_dense [| 2; 2 |], fill) ];
  let f = File.open_file path in
  let b = File.read_raw f "data" (Interval.make 0 8) in
  Alcotest.(check (float 1e-9)) "decoded first element" (fill [| 0; 0 |])
    (Dtype.decode Dtype.Float64 b 0);
  File.close f

let test_align_keep_rounds_to_elements () =
  (* a keep range cutting an element in half must still allow reading it *)
  let src = tmp "align_src.kh5" and dst = tmp "align_dst.kh5" in
  Writer.write src [ (mk_dense [| 4 |], fill) ];
  let f = File.open_file src in
  (* bytes 4..12 straddle elements 0 and 1 (8-byte floats) *)
  Writer.write_debloated dst ~source:f ~keep:(fun _ -> Interval_set.of_list [ Interval.make 4 12 ]);
  File.close f;
  let d = File.open_file dst in
  Alcotest.(check (float 1e-9)) "element 0" (fill [| 0 |]) (File.read_element d "data" [| 0 |]);
  Alcotest.(check (float 1e-9)) "element 1" (fill [| 1 |]) (File.read_element d "data" [| 1 |]);
  File.close d

let test_write_bytes_equals_file () =
  let path = tmp "wb.kh5" in
  let ds = mk_dense [| 3; 3 |] in
  Writer.write path [ (ds, fill) ];
  let mem = Writer.write_bytes [ (ds, fill) ] in
  let ic = open_in_bin path in
  let disk = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "identical bytes" disk (Bytes.to_string mem)

let test_attributes_roundtrip () =
  let path = tmp "attrs.kh5" in
  let attrs =
    [ ("units", Dataset.Str "kelvin"); ("scale", Dataset.Num 0.25); ("note", Dataset.Str "") ]
  in
  let ds = Dataset.dense ~name:"data" ~dtype:Dtype.Float64 ~shape:(Shape.create [| 2; 2 |]) ~attrs () in
  Writer.write path [ (ds, fill) ];
  let f = File.open_file path in
  let got = File.find f "data" in
  Alcotest.(check int) "attr count" 3 (List.length got.Dataset.attrs);
  Alcotest.(check bool) "string attr" true (Dataset.attr got "units" = Some (Dataset.Str "kelvin"));
  Alcotest.(check bool) "numeric attr" true (Dataset.attr got "scale" = Some (Dataset.Num 0.25));
  Alcotest.(check bool) "missing attr" true (Dataset.attr got "nope" = None);
  File.close f

let test_crc_verifies_clean_file () =
  let path = tmp "crc_ok.kh5" in
  Writer.write path [ (mk_dense [| 6; 6 |], fill) ];
  let f = File.open_file path in
  Alcotest.(check bool) "verify" true (File.verify f "data");
  Alcotest.(check bool) "verify_all" true (File.verify_all f);
  File.close f

let test_crc_detects_corruption () =
  let path = tmp "crc_bad.kh5" in
  Writer.write path [ (mk_dense [| 6; 6 |], fill) ];
  (* flip one byte of the data section (the last byte of the file) *)
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let all = Bytes.create n in
  really_input ic all 0 n;
  close_in ic;
  Bytes.set all (n - 1) (Char.chr (Char.code (Bytes.get all (n - 1)) lxor 0xFF));
  let oc = open_out_bin path in
  output_bytes oc all;
  close_out oc;
  let f = File.open_file path in
  Alcotest.(check bool) "corruption detected" false (File.verify f "data");
  File.close f

let test_crc_on_debloated () =
  let _, dst = debloated_pair ~keep_rows:[ 1; 4 ] () in
  let f = File.open_file dst in
  Alcotest.(check bool) "sparse section verifies" true (File.verify_all f);
  File.close f

let arb_file_case =
  let open QCheck in
  let gen =
    Gen.(
      list_size (int_range 1 3) (int_range 1 8) >>= fun dims ->
      let dims = Array.of_list dims in
      oneofl [ None; Some (Array.map (fun d -> max 1 (d / 2)) dims) ] >|= fun chunk ->
      (dims, chunk))
  in
  make gen

let qcheck_roundtrip_random_shapes =
  QCheck.Test.make ~name:"KH5 roundtrip over random shapes and layouts" ~count:60 arb_file_case
    (fun (dims, chunk) ->
      let layout = match chunk with None -> None | Some c -> Some (Layout.Chunked c) in
      let ds = mk_dense ?layout dims in
      let mem = Writer.write_bytes [ (ds, fill) ] in
      let f = File.open_port (Kondo_audit.Io_port.of_bytes ~path:"mem" mem) in
      let ok = ref true in
      Shape.iter ds.Dataset.shape (fun idx ->
          if File.read_element f "data" idx <> fill idx then ok := false);
      !ok)

let suite =
  ( "h5",
    [ Alcotest.test_case "roundtrip contiguous" `Quick test_roundtrip_contiguous;
      Alcotest.test_case "roundtrip chunked" `Quick test_roundtrip_chunked;
      Alcotest.test_case "roundtrip all dtypes" `Quick test_roundtrip_all_dtypes;
      Alcotest.test_case "multiple datasets" `Quick test_multiple_datasets;
      Alcotest.test_case "duplicate names rejected" `Quick test_duplicate_names_rejected;
      Alcotest.test_case "unknown dataset" `Quick test_unknown_dataset;
      Alcotest.test_case "corrupt magic" `Quick test_corrupt_magic;
      Alcotest.test_case "truncated file" `Quick test_truncated_file;
      Alcotest.test_case "truncated header rejected" `Quick test_truncated_header;
      Alcotest.test_case "malformed open closes its port" `Quick test_malformed_open_closes_port;
      Alcotest.test_case "read_slab matches element reads" `Quick test_read_slab_matches_elementwise;
      Alcotest.test_case "read_slab clips" `Quick test_read_slab_clips;
      Alcotest.test_case "dense slab reads batch" `Quick test_slab_read_batches;
      Alcotest.test_case "mean_slab" `Quick test_mean_slab;
      Alcotest.test_case "debloated file serves kept data" `Quick test_debloated_reads_kept_data;
      Alcotest.test_case "debloated file raises Data_missing" `Quick test_debloated_missing_raises;
      Alcotest.test_case "debloated file is smaller" `Quick test_debloated_smaller;
      Alcotest.test_case "debloated run table reopens" `Quick test_debloated_roundtrip_reopen;
      Alcotest.test_case "run table: empty run rejected" `Quick test_runs_reject_empty;
      Alcotest.test_case "run table: unsorted runs rejected" `Quick test_runs_reject_unsorted;
      Alcotest.test_case "run table: misaligned run rejected" `Quick test_runs_reject_misaligned;
      Alcotest.test_case "run table: run past the section rejected" `Quick
        test_runs_reject_outside;
      Alcotest.test_case "run table: wrong total rejected" `Quick test_runs_reject_wrong_total;
      Alcotest.test_case "read_raw" `Quick test_read_raw;
      Alcotest.test_case "keep ranges align to elements" `Quick test_align_keep_rounds_to_elements;
      Alcotest.test_case "write_bytes equals file" `Quick test_write_bytes_equals_file;
      Alcotest.test_case "attributes roundtrip" `Quick test_attributes_roundtrip;
      Alcotest.test_case "crc verifies clean file" `Quick test_crc_verifies_clean_file;
      Alcotest.test_case "crc detects corruption" `Quick test_crc_detects_corruption;
      Alcotest.test_case "crc on debloated file" `Quick test_crc_on_debloated;
      QCheck_alcotest.to_alcotest qcheck_roundtrip_random_shapes ] )
