(* Tests for the container substrate: spec parsing, image build, and the
   user-side runtime. *)

open Kondo_container

let fig2_spec =
  String.concat "\n"
    [ "FROM ubuntu:20.04";
      "RUN apt-get install -y gcc";
      "RUN apt-get install -y libhdf5-dev";
      "RUN mkdir /stencil";
      "ADD ./mnist.h5 /stencil/mnist.h5";
      "ADD ./fuji.h5 /stencil/fuji.h5";
      "ADD Stencil.c /stencil/crossStencil.c";
      "PARAM [0-30, 300.00-1200.00, 0-50]";
      "ENTRYPOINT [\"/stencil/CS\"]";
      "CMD [30, 550.0, 10, /stencil/mnist.h5]" ]

let parse_ok text =
  match Spec.parse text with Ok s -> s | Error e -> Alcotest.fail ("parse failed: " ^ e)

let test_parse_fig2 () =
  let s = parse_ok fig2_spec in
  Alcotest.(check string) "base" "ubuntu:20.04" s.Spec.base;
  Alcotest.(check int) "env deps" 3 (List.length s.Spec.env_deps);
  Alcotest.(check int) "data deps" 3 (List.length s.Spec.data_deps);
  Alcotest.(check int) "3 params" 3 (Array.length s.Spec.param_space);
  Alcotest.(check bool) "param 2 range" true (s.Spec.param_space.(1) = (300.0, 1200.0));
  Alcotest.(check (option string)) "entrypoint" (Some "/stencil/CS") s.Spec.entrypoint;
  Alcotest.(check int) "cmd args" 4 (List.length s.Spec.cmd)

let test_parse_comments_blank () =
  let s = parse_ok "# a comment\n\nFROM alpine\n   \nRUN true\n" in
  Alcotest.(check string) "base" "alpine" s.Spec.base;
  Alcotest.(check int) "one env dep" 1 (List.length s.Spec.env_deps)

let test_parse_errors () =
  (match Spec.parse "BOGUS x" with
  | Error e -> Alcotest.(check bool) "line number" true (String.length e > 0 && e.[5] = '1')
  | Ok _ -> Alcotest.fail "expected error");
  (match Spec.parse "ADD onlyone" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "ADD arity should fail");
  match Spec.parse "PARAM [5-1]" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "inverted range should fail"

let test_param_ranges () =
  (match Spec.parse_param_ranges "[0-30, 300.00-1200.00, 0-50]" with
  | Ok r ->
    Alcotest.(check int) "three ranges" 3 (Array.length r);
    Alcotest.(check bool) "floats parsed" true (r.(1) = (300.0, 1200.0))
  | Error e -> Alcotest.fail e);
  match Spec.parse_param_ranges "[-5-10]" with
  | Ok r -> Alcotest.(check bool) "negative lo" true (r.(0) = (-5.0, 10.0))
  | Error e -> Alcotest.fail e

let test_spec_roundtrip () =
  let s = parse_ok fig2_spec in
  let s2 = parse_ok (Spec.to_string s) in
  Alcotest.(check bool) "roundtrip preserves structure" true
    (s.Spec.base = s2.Spec.base
    && s.Spec.env_deps = s2.Spec.env_deps
    && s.Spec.data_deps = s2.Spec.data_deps
    && s.Spec.param_space = s2.Spec.param_space
    && s.Spec.entrypoint = s2.Spec.entrypoint)

let test_data_dep_for () =
  let s = parse_ok fig2_spec in
  (match Spec.data_dep_for s "/stencil/mnist.h5" with
  | Some d -> Alcotest.(check string) "source" "./mnist.h5" d.Spec.src
  | None -> Alcotest.fail "dep not found");
  Alcotest.(check bool) "unknown dep" true (Spec.data_dep_for s "/nope" = None)

(* ---------------- Image & Runtime ---------------- *)

open Kondo_workload

let mini_spec_for p ~src ~dst =
  { Spec.empty with
    Spec.base = "ubuntu:20.04";
    env_deps = [ "apt-get install -y libhdf5-dev" ];
    data_deps = [ { Spec.src; dst } ];
    param_space = p.Program.param_space;
    entrypoint = Some "/app/run" }

let build_image ?(n = 16) () =
  let p = Stencils.ldc2d ~n () in
  let src = Filename.temp_file "kondo_img_src" ".kh5" in
  Datafile.write_for ~path:src p;
  let spec = mini_spec_for p ~src ~dst:"/app/data.kh5" in
  let fetch path =
    let ic = open_in_bin path in
    let b = Bytes.create (in_channel_length ic) in
    really_input ic b 0 (Bytes.length b);
    close_in ic;
    b
  in
  (p, src, Image.build spec ~fetch)

let test_image_build_sizes () =
  let _, _, img = build_image () in
  Alcotest.(check bool) "env size positive" true (Image.env_size img > 0);
  Alcotest.(check bool) "data size positive" true (Image.data_size img > 0);
  Alcotest.(check int) "total" (Image.env_size img + Image.data_size img) (Image.size img);
  Alcotest.(check int) "hdf5 package footprint" (34 * 1024 * 1024)
    (Image.env_layer_size "apt-get install -y libhdf5-dev")

let test_image_replace_data () =
  let _, _, img = build_image () in
  let img2 = Image.replace_data img ~dst:"/app/data.kh5" (Bytes.make 10 'z') in
  Alcotest.(check bool) "content swapped" true
    (Image.data_content img2 ~dst:"/app/data.kh5" = Some (Bytes.make 10 'z'));
  Alcotest.check_raises "unknown dst" Not_found (fun () ->
      ignore (Image.replace_data img ~dst:"/nope" Bytes.empty))

let test_runtime_serves_reads () =
  let p, src, img = build_image () in
  let dir = Filename.temp_file "kondo_rt" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let rt = Runtime.boot ~image:img ~dir () in
  let v = Runtime.read_element rt ~dst:"/app/data.kh5" ~dataset:p.Program.dataset [| 1; 1 |] in
  Alcotest.(check (float 1e-9)) "original value" (Datafile.fill [| 1; 1 |]) v;
  Alcotest.(check int) "one read" 1 (Runtime.stats rt).Runtime.reads;
  Runtime.shutdown rt;
  Sys.remove src

(* The remote-file source: the image's source files behind a loopback
   chunk server and a store client. *)
let remote_source ?faults ?retry img =
  match Kondo_store.Source.of_image ?faults ?retry img with
  | Ok r -> r
  | Error e -> Alcotest.fail e

let test_runtime_remote_fallback () =
  let p, src, img = build_image () in
  (* debloat the image down to nothing to force misses *)
  let empty_keep _ = Kondo_interval.Interval_set.empty in
  let tmp_deb = Filename.temp_file "kondo_deb" ".kh5" in
  let f = Kondo_h5.File.open_file src in
  Kondo_h5.Writer.write_debloated tmp_deb ~source:f ~keep:empty_keep;
  Kondo_h5.File.close f;
  let ic = open_in_bin tmp_deb in
  let content = Bytes.create (in_channel_length ic) in
  really_input ic content 0 (Bytes.length content);
  close_in ic;
  let img = Image.replace_data img ~dst:"/app/data.kh5" content in
  let dir = Filename.temp_file "kondo_rt2" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  (* without remote: Data_missing *)
  let rt = Runtime.boot ~image:img ~dir () in
  (try
     ignore (Runtime.read_element rt ~dst:"/app/data.kh5" ~dataset:p.Program.dataset [| 0; 0 |]);
     Alcotest.fail "expected Data_missing"
   with Kondo_h5.File.Data_missing _ -> ());
  Alcotest.(check int) "miss counted" 1 (Runtime.stats rt).Runtime.misses;
  Runtime.shutdown rt;
  (* with remote fallback: value served from the source file *)
  let client, store = remote_source img in
  let rt = Runtime.boot ~store ~image:img ~dir () in
  let v = Runtime.read_element rt ~dst:"/app/data.kh5" ~dataset:p.Program.dataset [| 0; 0 |] in
  Alcotest.(check (float 1e-9)) "remote value" (Datafile.fill [| 0; 0 |]) v;
  Alcotest.(check int) "remote fetch counted" 1 (Runtime.stats rt).Runtime.store_fetches;
  Alcotest.(check bool) "remote bytes counted" true ((Runtime.stats rt).Runtime.store_bytes > 0);
  Alcotest.(check int) "one verified chunk" 1
    (Kondo_store.Client.stats client).Kondo_store.Client.fetched_chunks;
  Runtime.shutdown rt;
  Kondo_store.Client.close client;
  Sys.remove src;
  Sys.remove tmp_deb

(* image whose data layer was debloated to nothing: every read must
   travel the remote-fetch path *)
let build_hollow_image () =
  let p, src, img = build_image ~n:32 () in
  let empty_keep _ = Kondo_interval.Interval_set.empty in
  let tmp_deb = Filename.temp_file "kondo_deb" ".kh5" in
  let f = Kondo_h5.File.open_file src in
  Kondo_h5.Writer.write_debloated tmp_deb ~source:f ~keep:empty_keep;
  Kondo_h5.File.close f;
  let ic = open_in_bin tmp_deb in
  let content = Bytes.create (in_channel_length ic) in
  really_input ic content 0 (Bytes.length content);
  close_in ic;
  Sys.remove tmp_deb;
  (p, src, Image.replace_data img ~dst:"/app/data.kh5" content)

let fresh_dir prefix =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  dir

let test_mount_error_names_mounts () =
  let _, src, img = build_image () in
  let rt = Runtime.boot ~image:img ~dir:(fresh_dir "kondo_rtm") () in
  (try
     ignore (Runtime.file rt ~dst:"/nope/missing.kh5");
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument msg ->
     let mentions needle =
       let nl = String.length needle and ml = String.length msg in
       let rec scan i = i + nl <= ml && (String.sub msg i nl = needle || scan (i + 1)) in
       scan 0
     in
     Alcotest.(check bool) "names the requested dst" true (mentions "/nope/missing.kh5");
     Alcotest.(check bool) "names the available mounts" true (mentions "/app/data.kh5"));
  Runtime.shutdown rt;
  Sys.remove src

let read_all_truth rt p =
  let truth = Program.ground_truth p in
  let served = ref 0 and degraded = ref 0 in
  Kondo_dataarray.Index_set.iter truth (fun idx ->
      match Runtime.try_read_element rt ~dst:"/app/data.kh5" ~dataset:p.Program.dataset idx with
      | Ok v ->
        Alcotest.(check (float 1e-9)) "value survives the fetch" (Datafile.fill idx) v;
        incr served
      | Error (Runtime.Degraded _) -> incr degraded
      | Error exn -> raise exn);
  (!served, !degraded)

let transient_plan () =
  Kondo_faults.Fault_plan.create ~transient:0.2 ~timeout:0.05 ~corrupt:0.25
    ~short_read:0.05 ~seed:7 ()

let generous_retry =
  { Kondo_faults.Retry.default with Kondo_faults.Retry.max_attempts = 48;
    deadline_ms = 1e9 }

let test_runtime_transient_faults_all_served () =
  let p, src, img = build_hollow_image () in
  let run () =
    let client, store = remote_source ~faults:(transient_plan ()) ~retry:generous_retry img in
    let rt = Runtime.boot ~store ~image:img ~dir:(fresh_dir "kondo_rtf") () in
    let served, degraded = read_all_truth rt p in
    let s = Runtime.stats rt in
    Alcotest.(check int) "no read degrades" 0 degraded;
    Alcotest.(check int) "every truth read served" served s.Runtime.store_fetches;
    Alcotest.(check int) "none degraded in stats" 0 s.Runtime.degraded_reads;
    Runtime.shutdown rt;
    Kondo_store.Client.close client;
    (served, Kondo_store.Client.stats client)
  in
  let served, cs = run () in
  Alcotest.(check bool) "faults forced retries" true (cs.Kondo_store.Client.retries > 0);
  Alcotest.(check bool) "corrupt chunks detected" true
    (cs.Kondo_store.Client.corrupt_fetches > 0);
  (* a fixed fault seed reproduces: identical stats on a second run *)
  let served2, cs2 = run () in
  Alcotest.(check int) "served reproduces" served served2;
  Alcotest.(check int) "retries reproduce" cs.Kondo_store.Client.retries
    cs2.Kondo_store.Client.retries;
  Alcotest.(check int) "corrupt fetches reproduce" cs.Kondo_store.Client.corrupt_fetches
    cs2.Kondo_store.Client.corrupt_fetches;
  Sys.remove src

let test_runtime_permanent_faults_degrade () =
  let p, src, img = build_hollow_image () in
  let plan = Kondo_faults.Fault_plan.create ~permanent:1.0 ~seed:7 () in
  let client, store = remote_source ~faults:plan img in
  let rt = Runtime.boot ~store ~image:img ~dir:(fresh_dir "kondo_rtp") () in
  let served, degraded = read_all_truth rt p in
  let s = Runtime.stats rt in
  Alcotest.(check int) "nothing served" 0 served;
  Alcotest.(check bool) "every read degrades, none crashes" true (degraded > 0);
  Alcotest.(check int) "stats account every degraded read" degraded s.Runtime.degraded_reads;
  Alcotest.(check bool) "breaker rejected fetches" true
    ((Kondo_store.Client.stats client).Kondo_store.Client.breaker_rejections > 0);
  Alcotest.(check bool) "breaker open" true
    (Kondo_store.Client.breaker_state client <> Kondo_faults.Breaker.Closed);
  (* the raising variant surfaces the same structured error *)
  (match
     Runtime.read_element rt ~dst:"/app/data.kh5" ~dataset:p.Program.dataset [| 0; 0 |]
   with
  | _ -> Alcotest.fail "expected Degraded"
  | exception Runtime.Degraded { missing; cause } ->
    Alcotest.(check string) "missing names the dataset" p.Program.dataset
      missing.Kondo_h5.File.dataset;
    Alcotest.(check bool) "cause is permanent" false (Kondo_faults.Fault.is_retryable cause));
  Runtime.shutdown rt;
  Kondo_store.Client.close client;
  Sys.remove src

let test_materialize_mapping () =
  let _, src, img = build_image () in
  let dir = Filename.temp_file "kondo_mat" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let mapping = Image.materialize img ~dir in
  Alcotest.(check int) "one data layer" 1 (List.length mapping);
  let _, local = List.hd mapping in
  Alcotest.(check bool) "file exists" true (Sys.file_exists local);
  Sys.remove src

let suite =
  ( "container",
    [ Alcotest.test_case "parse Fig. 2 spec" `Quick test_parse_fig2;
      Alcotest.test_case "comments and blanks" `Quick test_parse_comments_blank;
      Alcotest.test_case "parse errors" `Quick test_parse_errors;
      Alcotest.test_case "param ranges" `Quick test_param_ranges;
      Alcotest.test_case "spec roundtrip" `Quick test_spec_roundtrip;
      Alcotest.test_case "data_dep_for" `Quick test_data_dep_for;
      Alcotest.test_case "image build sizes" `Quick test_image_build_sizes;
      Alcotest.test_case "image replace data" `Quick test_image_replace_data;
      Alcotest.test_case "runtime serves reads" `Quick test_runtime_serves_reads;
      Alcotest.test_case "runtime remote fallback" `Quick test_runtime_remote_fallback;
      Alcotest.test_case "mount error names mounts" `Quick test_mount_error_names_mounts;
      Alcotest.test_case "transient faults: all reads served" `Quick
        test_runtime_transient_faults_all_served;
      Alcotest.test_case "permanent faults degrade structurally" `Quick
        test_runtime_permanent_faults_degrade;
      Alcotest.test_case "image materialize" `Quick test_materialize_mapping ] )
