(* The local element-read path against [Read_oracle], the path it
   replaced: random on-disk KH5 files — dense and sparse, contiguous and
   chunked, every dtype, random keep sets — read at every in-bounds index
   and at out-of-bounds ones, through [Kondo_h5.File], through a
   tracer-wrapped file and through the container runtime. *)

open Kondo_dataarray
open Kondo_interval
open Kondo_audit
open Kondo_container
module Kfile = Kondo_h5.File
module Dataset = Kondo_h5.Dataset
module Writer = Kondo_h5.Writer
module Fault = Kondo_faults.Fault
module Oracle = Read_oracle

type outcome =
  | Value of int64 (* the bits *)
  | Missing of Kfile.missing
  | Degraded of Kfile.missing * Fault.error
  | Invalid of string
  | Other of string

let outcome_of_result = function
  | Ok v -> Value (Int64.bits_of_float v)
  | Error (Kfile.Data_missing m) -> Missing m
  | Error (Runtime.Degraded { missing; cause }) -> Degraded (missing, cause)
  | Error e -> Other (Printexc.to_string e)

let outcome f =
  match f () with
  | r -> outcome_of_result r
  | exception Invalid_argument msg -> Invalid msg
  | exception e -> outcome_of_result (Error e)

let show = function
  | Value b -> Printf.sprintf "value %Lx" b
  | Missing m -> Printf.sprintf "missing %s:%s at %d" m.Kfile.path m.Kfile.dataset m.Kfile.offset
  | Degraded (m, c) -> Printf.sprintf "degraded at %d: %s" m.Kfile.offset (Fault.to_string c)
  | Invalid msg -> "Invalid_argument " ^ msg
  | Other s -> s

let show_idx idx = String.concat "," (Array.to_list (Array.map string_of_int idx))

(* ---- random files ---- *)

type ds_case = { name : string; dims : int array; chunk : int array option; dtype : Dtype.t }

type case = { dss : ds_case list; sparse : bool; with_store : bool; seed : int }

let gen_ds name =
  QCheck.Gen.(
    int_range 1 3 >>= fun rank ->
    array_repeat rank (int_range 1 7) >>= fun dims ->
    opt (array_repeat rank (int_range 1 4)) >>= fun chunk ->
    oneofl Dtype.all >|= fun dtype -> { name; dims; chunk; dtype })

let gen_case =
  QCheck.Gen.(
    int_range 1 2 >>= fun n ->
    flatten_l (List.init n (fun i -> gen_ds (Printf.sprintf "d%d" i))) >>= fun dss ->
    bool >>= fun sparse ->
    bool >>= fun with_store ->
    int_bound 1_000_000 >|= fun seed -> { dss; sparse; with_store; seed })

let print_case c =
  Printf.sprintf "%s, %s, store %b, seed %d"
    (String.concat "; "
       (List.map
          (fun d ->
            Printf.sprintf "%s %s %s %s" d.name (show_idx d.dims)
              (match d.chunk with None -> "contiguous" | Some c -> "chunked " ^ show_idx c)
              (Dtype.to_string d.dtype))
          c.dss))
    (if c.sparse then "sparse" else "dense")
    c.with_store c.seed

let dataset d =
  let layout = match d.chunk with None -> Layout.Contiguous | Some c -> Layout.Chunked c in
  Dataset.dense ~name:d.name ~dtype:d.dtype ~shape:(Shape.create d.dims) ~layout ()

let fill idx =
  (float_of_int (Array.fold_left (fun a i -> (a * 31) + i) 7 idx) *. 0.37) -. 100.0

(* Whole elements of the logical section kept with a density drawn per
   dataset: nothing, some or everything. *)
let keep_set rng ds =
  let esz = Dtype.size ds.Dataset.dtype in
  let slots = Dataset.logical_bytes ds / esz in
  let density = [| 0.0; 0.3; 0.7; 1.0 |].(Random.State.int rng 4) in
  let runs = ref [] and start = ref (-1) in
  for i = 0 to slots do
    let kept = i < slots && Random.State.float rng 1.0 < density in
    if kept && !start < 0 then start := i
    else if (not kept) && !start >= 0 then begin
      runs := Interval.make (!start * esz) (i * esz) :: !runs;
      start := -1
    end
  done;
  Interval_set.of_sorted (List.rev !runs)

let read_file path =
  let ic = open_in_bin path in
  let b = Bytes.create (in_channel_length ic) in
  really_input ic b 0 (Bytes.length b);
  close_in ic;
  b

(* Writes the case's dense file and, when sparse, its debloated copy;
   [f dense file] runs on the paths, which are removed afterwards. *)
let with_files c f =
  let rng = Random.State.make [| c.seed |] in
  let dense = Filename.temp_file "kondo_rp_dense" ".kh5" in
  let deb = Filename.temp_file "kondo_rp_deb" ".kh5" in
  Fun.protect
    ~finally:(fun () -> List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ dense; deb ])
    (fun () ->
      let dss = List.map dataset c.dss in
      Writer.write dense (List.map (fun ds -> (ds, fill)) dss);
      if c.sparse then begin
        let keeps = List.map (fun ds -> (ds.Dataset.name, keep_set rng ds)) dss in
        let source = Kfile.open_file dense in
        Writer.write_debloated deb ~source ~keep:(fun name -> List.assoc name keeps);
        Kfile.close source
      end;
      f dense (if c.sparse then deb else dense))

(* Every in-bounds index of every dataset, then out-of-bounds probes
   (each axis one past either end, a rank too many and too few), the
   datasets interleaved so consecutive reads switch entries; then the
   same reads backwards. *)
let reads c =
  let per_ds d =
    let ins = ref [] in
    Shape.iter (Shape.create d.dims) (fun idx -> ins := (d.name, Array.copy idx) :: !ins);
    let rank = Array.length d.dims in
    let outs =
      List.concat
        (List.init rank (fun k ->
             List.map
               (fun v ->
                 let idx = Array.make rank 0 in
                 idx.(k) <- v;
                 (d.name, idx))
               [ -1; d.dims.(k) ]))
      @ [ (d.name, Array.make (rank + 1) 0); (d.name, [||]) ]
    in
    List.rev !ins @ outs
  in
  let rec interleave = function
    | [] -> []
    | lists ->
      let heads = List.filter_map (function [] -> None | x :: _ -> Some x) lists in
      let tails = List.filter (( <> ) []) (List.map (function [] -> [] | _ :: t -> t) lists) in
      heads @ interleave tails
  in
  let forward = interleave (List.map per_ds c.dss) in
  forward @ List.rev forward

(* A deterministic byte-addressed store, as a real one is: byte [p] of a
   mount's dataset is a function of [p], whatever range asks for it.
   Whether a request is served, fails transiently or gets a wrong-sized
   payload depends only on the 4 KiB block it starts in, so an element
   request and the runtime's block request for the same byte meet the
   same outcome.  [seed] picks which blocks meet which outcome. *)
let stub_byte ~dst ~dataset p = Char.chr (((p * 13) + Hashtbl.hash (dst, dataset)) land 255)

let stub_store seed =
  { Runtime.source_name = "stub";
    store_fetch =
      (fun ~dst ~dataset ~offset ~length ->
        let block = offset / 4096 in
        match Hashtbl.hash (seed, dst, dataset, block) mod 4 with
        | 0 -> Error (Fault.Transient (Printf.sprintf "%s#%s block %d" dst dataset block))
        | 1 -> Ok (Bytes.make (length + 1) 'x')
        | _ -> Ok (Bytes.init length (fun i -> stub_byte ~dst ~dataset (offset + i)))) }

let fresh_dir () =
  let dir = Filename.temp_file "kondo_rp" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  dir

let mismatch what c name idx got want =
  QCheck.Test.fail_reportf "%s: %s at %s (%s): got %s, the oracle %s" what name (show_idx idx)
    (print_case c) (show got) (show want)

let check_file c path =
  let f = Kfile.open_file path and o = Oracle.open_file path in
  List.iter
    (fun (name, idx) ->
      let got = outcome (fun () -> Ok (Kfile.read_element f name idx))
      and want = outcome (fun () -> Ok (Oracle.read_element o name idx)) in
      if got <> want then mismatch "File.read_element" c name idx got want)
    (reads c);
  Kfile.close f;
  Oracle.close o

let check_tracer c path =
  let tf = Tracer.create () and to_ = Tracer.create () in
  let f = Kfile.open_file ~tracer:tf ~pid:3 path
  and o = Oracle.open_file ~tracer:to_ ~pid:3 path in
  List.iter
    (fun (name, idx) ->
      ignore (outcome (fun () -> Ok (Kfile.read_element f name idx)));
      ignore (outcome (fun () -> Ok (Oracle.read_element o name idx))))
    (reads c);
  Kfile.close f;
  Oracle.close o;
  if Tracer.events tf <> Tracer.events to_ then
    QCheck.Test.fail_reportf "traced events differ (%s): %d vs %d" (print_case c)
      (Tracer.event_count tf) (Tracer.event_count to_)

(* The runtime asks for a block and the oracle for an element, so the
   message of a wrong-sized reply names different lengths. *)
let wrong_size = function
  | Degraded (m, Fault.Corrupt _) -> Degraded (m, Fault.Corrupt "wrong size")
  | o -> o

(* Two mounts, the file under test and the dense file; reads alternate
   between them, and every third one names its mount with a fresh copy
   of the string. *)
let check_runtime c ~dense path =
  let spec =
    { Spec.empty with
      Spec.base = "scratch";
      data_deps = [ { Spec.src = path; dst = "/m/file" }; { Spec.src = dense; dst = "/m/dense" } ] }
  in
  let image = Image.build spec ~fetch:read_file in
  let dir = fresh_dir () in
  let store = if c.with_store then Some (stub_store c.seed) else None in
  let tr = Tracer.create () and to_ = Tracer.create () in
  let mounts = Image.materialize image ~dir in
  let rt = Runtime.boot ~tracer:tr ?store ~image ~dir () in
  let o = Oracle.boot ~tracer:to_ ?store mounts in
  List.iteri
    (fun i (name, idx) ->
      let dst = if i mod 2 = 0 then "/m/file" else "/m/dense" in
      let dst = if i mod 3 = 2 then String.init (String.length dst) (String.get dst) else dst in
      let got = wrong_size (outcome (fun () -> Runtime.try_read_element rt ~dst ~dataset:name idx))
      and want = wrong_size (outcome (fun () -> Oracle.try_read_element o ~dst ~dataset:name idx)) in
      if got <> want then mismatch ("Runtime.try_read_element " ^ dst) c name idx got want)
    (reads c);
  let got = Runtime.stats rt and want = Oracle.stats o in
  Runtime.shutdown rt;
  Oracle.shutdown o;
  List.iter (fun (_, p) -> Sys.remove p) mounts;
  Unix.rmdir dir;
  if got <> want then
    QCheck.Test.fail_reportf "runtime stats differ (%s): %s vs %s" (print_case c)
      (Runtime.stats_to_json got) (Runtime.stats_to_json want);
  if Tracer.events tr <> Tracer.events to_ then
    QCheck.Test.fail_reportf "runtime traces differ (%s)" (print_case c)

let qcheck_reads_match_oracle =
  QCheck.Test.make ~name:"element reads match the oracle bit for bit" ~count:60
    (QCheck.make ~print:print_case gen_case) (fun c ->
      with_files c (fun dense path ->
          check_file c path;
          check_tracer c path;
          check_runtime c ~dense path);
      true)

(* Runs may touch: the writer coalesces them, but the format allows
   (lo, hi) followed by (hi, hi'), and a read just past the first run
   must find the second. *)
let test_touching_runs () =
  let dense = Filename.temp_file "kondo_rp_touch" ".kh5" in
  let deb = Filename.temp_file "kondo_rp_touch_deb" ".kh5" in
  let ds =
    Dataset.dense ~name:"data" ~dtype:Dtype.Float64 ~shape:(Shape.create [| 8; 8 |]) ()
  in
  Writer.write dense [ (ds, fill) ];
  let source = Kfile.open_file dense in
  (* rows 2 and 5: runs (128, 192) and (320, 384) *)
  Writer.write_debloated deb ~source ~keep:(fun _ ->
      Interval_set.of_list [ Interval.make 128 192; Interval.make 320 384 ]);
  Kfile.close source;
  let b = Bytes.of_string (In_channel.with_open_bin deb In_channel.input_all) in
  let pattern = Bytes.create 16 in
  Bytes.set_int64_le pattern 0 128L;
  Bytes.set_int64_le pattern 8 192L;
  let rec find i = if Bytes.sub b i 16 = pattern then i else find (i + 1) in
  let base = find 0 in
  (* the second run becomes (192, 256): row 3 now holds row 5's bytes *)
  Bytes.set_int64_le b (base + 16) 192L;
  Bytes.set_int64_le b (base + 24) 256L;
  Out_channel.with_open_bin deb (fun oc -> Out_channel.output_bytes oc b);
  let f = Kfile.open_file deb and o = Oracle.open_file deb in
  Shape.iter (Shape.create [| 8; 8 |]) (fun idx ->
      let got = outcome (fun () -> Ok (Kfile.read_element f "data" idx))
      and want = outcome (fun () -> Ok (Oracle.read_element o "data" idx)) in
      Alcotest.(check string) (show_idx idx) (show want) (show got));
  Alcotest.(check (float 0.0)) "row 3 serves row 5's bytes" (fill [| 5; 0 |])
    (Kfile.read_element f "data" [| 3; 0 |]);
  Kfile.close f;
  Oracle.close o;
  Sys.remove dense;
  Sys.remove deb

(* ---- the runtime's block overlay ---- *)

(* A runtime over [dsts], each a mount of one fully carved-away file with
   a 1000-element float64 dataset "d" (8000 bytes: a whole block and a
   3904-byte last block) and a 1025-element int32 dataset "i" (4100
   bytes: a 4-byte last block).  [serve] decides each store call from
   the number of earlier calls into the same block; every call is
   recorded. *)
let with_overlay_runtime ?(dsts = [ "/m/a" ]) serve f =
  let dense = Filename.temp_file "kondo_ov_dense" ".kh5" in
  let deb = Filename.temp_file "kondo_ov_deb" ".kh5" in
  let dir = fresh_dir () in
  let dss =
    [ Dataset.dense ~name:"d" ~dtype:Dtype.Float64 ~shape:(Shape.create [| 1000 |]) ();
      Dataset.dense ~name:"i" ~dtype:Dtype.Int32 ~shape:(Shape.create [| 1025 |]) () ]
  in
  Writer.write dense (List.map (fun ds -> (ds, fill)) dss);
  let source = Kfile.open_file dense in
  Writer.write_debloated deb ~source ~keep:(fun _ -> Interval_set.empty);
  Kfile.close source;
  let calls = ref [] in
  let store =
    { Runtime.source_name = "stub";
      store_fetch =
        (fun ~dst ~dataset ~offset ~length ->
          let earlier =
            List.length
              (List.filter (fun (d, n, o, _) -> d = dst && n = dataset && o = offset) !calls)
          in
          calls := (dst, dataset, offset, length) :: !calls;
          match serve ~earlier with
          | `Fail -> Error (Fault.Transient "down")
          | `Size n -> Ok (Bytes.init n (fun i -> stub_byte ~dst ~dataset (offset + i)))
          | `Serve -> Ok (Bytes.init length (fun i -> stub_byte ~dst ~dataset (offset + i)))) }
  in
  let spec =
    { Spec.empty with
      Spec.base = "scratch";
      data_deps = List.map (fun dst -> { Spec.src = deb; dst }) dsts }
  in
  let image = Image.build spec ~fetch:read_file in
  let rt = Runtime.boot ~store ~image ~dir () in
  Fun.protect
    ~finally:(fun () ->
      Runtime.shutdown rt;
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Unix.rmdir dir;
      List.iter Sys.remove [ dense; deb ])
    (fun () -> f rt (fun () -> List.rev !calls))

(* The value the stub's bytes decode to at element [k] of "d" (float64)
   or "i" (int32) on mount [dst]. *)
let stub_value ~dst ~dataset k =
  let dt = if dataset = "d" then Dtype.Float64 else Dtype.Int32 in
  let esz = Dtype.size dt in
  Dtype.decode dt (Bytes.init esz (fun i -> stub_byte ~dst ~dataset ((k * esz) + i))) 0

let read rt ?(dst = "/m/a") dataset k =
  outcome (fun () -> Runtime.try_read_element rt ~dst ~dataset [| k |])

let check_served rt ?(dst = "/m/a") dataset k =
  Alcotest.(check string)
    (Printf.sprintf "%s %s[%d]" dst dataset k)
    (show (Value (Int64.bits_of_float (stub_value ~dst ~dataset k))))
    (show (read rt ~dst dataset k))

let calls_t = Alcotest.(list (pair (pair string string) (pair int int)))
let call (dst, dataset, offset, length) = ((dst, dataset), (offset, length))

let test_block_fetched_once () =
  with_overlay_runtime (fun ~earlier:_ -> `Serve) (fun rt calls ->
      for _ = 1 to 2 do
        for k = 999 downto 0 do
          check_served rt "d" k
        done
      done;
      Alcotest.(check calls_t) "one call per block"
        (List.map call [ ("/m/a", "d", 4096, 3904); ("/m/a", "d", 0, 4096) ])
        (List.map call (calls ()));
      Alcotest.(check (list (pair string int))) "stats count elements"
        [ ("reads", 2000); ("misses", 2000); ("store_fetches", 2000); ("store_bytes", 16000);
          ("degraded_reads", 0) ]
        (Runtime.stats_fields (Runtime.stats rt));
      Alcotest.(check int) "fetched blocks" 2 (Runtime.fetched_blocks rt))

let test_transient_failure_not_cached () =
  with_overlay_runtime
    (fun ~earlier -> if earlier = 0 then `Fail else `Serve)
    (fun rt calls ->
      (match read rt "d" 3 with
      | Degraded (m, Fault.Transient "down") ->
        Alcotest.(check int) "the miss offset" 24 m.Kfile.offset
      | o -> Alcotest.fail ("first read: " ^ show o));
      check_served rt "d" 3;
      check_served rt "d" 5;
      Alcotest.(check int) "failed, then fetched once" 2 (List.length (calls ()));
      Alcotest.(check int) "one block kept" 1 (Runtime.fetched_blocks rt);
      Alcotest.(check int) "one degraded read" 1 (Runtime.stats rt).Runtime.degraded_reads)

let test_wrong_size_not_cached () =
  List.iter
    (fun bad ->
      with_overlay_runtime
        (fun ~earlier -> if earlier = 0 then `Size bad else `Serve)
        (fun rt calls ->
          (match read rt "d" 0 with
          | Degraded (m, Fault.Corrupt msg) ->
            Alcotest.(check int) "the miss offset" 0 m.Kfile.offset;
            Alcotest.(check string) "the cause"
              (Printf.sprintf "store stub returned %d bytes, wanted 4096" bad)
              msg
          | o -> Alcotest.fail ("first read: " ^ show o));
          check_served rt "d" 0;
          check_served rt "d" 511;
          Alcotest.(check int) "refetched once" 2 (List.length (calls ()));
          Alcotest.(check int) "one block kept" 1 (Runtime.fetched_blocks rt)))
    [ 4095; 4097; 0 ]

let test_mounts_do_not_share_blocks () =
  with_overlay_runtime ~dsts:[ "/m/a"; "/m/b" ] (fun ~earlier:_ -> `Serve) (fun rt calls ->
      List.iter
        (fun dst ->
          check_served rt ~dst "d" 7;
          check_served rt ~dst "d" 8)
        [ "/m/a"; "/m/b"; "/m/a" ];
      Alcotest.(check calls_t) "one fetch per mount"
        (List.map call [ ("/m/a", "d", 0, 4096); ("/m/b", "d", 0, 4096) ])
        (List.map call (calls ()));
      Alcotest.(check int) "fetched blocks" 2 (Runtime.fetched_blocks rt))

let test_short_last_block () =
  with_overlay_runtime (fun ~earlier:_ -> `Serve) (fun rt calls ->
      check_served rt "i" 1024;
      check_served rt "i" 1023;
      check_served rt "d" 999;
      check_served rt "d" 512;
      Alcotest.(check calls_t) "last blocks stop at the section's end"
        (List.map call
           [ ("/m/a", "i", 4096, 4); ("/m/a", "i", 0, 4096); ("/m/a", "d", 4096, 3904) ])
        (List.map call (calls ())))

(* ---- the measured-once file port ---- *)

let test_file_port_measures_once () =
  let path = Filename.temp_file "kondo_port" ".bin" in
  let oc = open_out_bin path in
  output_string oc (String.init 1000 (fun i -> Char.chr (i land 255)));
  close_out oc;
  let port = Io_port.of_file path in
  Alcotest.(check int) "size is the file length" 1000 (port.Io_port.size ());
  Alcotest.(check string) "last bytes" "\xe6\xe7" (Bytes.to_string (port.Io_port.pread 998 2));
  Alcotest.(check int) "an empty read at the end" 0 (Bytes.length (port.Io_port.pread 1000 0));
  List.iter
    (fun (off, len) ->
      Alcotest.check_raises
        (Printf.sprintf "pread %d %d" off len)
        (Invalid_argument "Io_port.pread: out of range")
        (fun () -> ignore (port.Io_port.pread off len)))
    [ (999, 2); (1000, 1); (5000, 1); (-1, 1); (0, -1) ];
  (* the length is fixed at open: appended bytes stay out of range *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "more";
  close_out oc;
  Alcotest.(check int) "size fixed at open" 1000 (port.Io_port.size ());
  Alcotest.check_raises "appended bytes out of range"
    (Invalid_argument "Io_port.pread: out of range")
    (fun () -> ignore (port.Io_port.pread 1000 1));
  port.Io_port.close ();
  Sys.remove path

(* ---- the mapped file port against the channel port ---- *)

let write_temp contents =
  let path = Filename.temp_file "kondo_port" ".bin" in
  Out_channel.with_open_bin path (fun oc -> output_string oc contents);
  path

let pread_outcome port (off, len) =
  match port.Io_port.pread off len with
  | b -> "bytes " ^ Digest.to_hex (Digest.bytes b)
  | exception e -> Printexc.to_string e

(* Files of 0-70 KiB, so reads straddle the channel's old 64 KiB buffer,
   read at random ranges, some of them outside the file. *)
let qcheck_port_matches_channel =
  let gen =
    QCheck.Gen.(
      int_range 0 (70 * 1024) >>= fun n ->
      int_bound 1_000_000 >>= fun seed ->
      list_size (int_range 1 40)
        (pair (int_range (-2) (n + 2)) (int_range (-2) (min (n + 2) (20 * 1024))))
      >|= fun reads -> (n, seed, reads))
  in
  let print (n, seed, reads) =
    Printf.sprintf "%d bytes, seed %d, reads %s" n seed
      (String.concat " " (List.map (fun (o, l) -> Printf.sprintf "(%d,%d)" o l) reads))
  in
  QCheck.Test.make ~name:"mapped port reads as the channel port" ~count:60
    (QCheck.make ~print gen) (fun (n, seed, reads) ->
      let rng = Random.State.make [| seed |] in
      let path = write_temp (String.init n (fun _ -> Char.chr (Random.State.int rng 256))) in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let port = Io_port.of_file path and oracle = Oracle.port_of_file path in
          Fun.protect
            ~finally:(fun () ->
              port.Io_port.close ();
              oracle.Io_port.close ())
            (fun () ->
              port.Io_port.size () = oracle.Io_port.size ()
              && List.for_all
                   (fun r ->
                     let got = pread_outcome port r and want = pread_outcome oracle r in
                     got = want
                     || QCheck.Test.fail_reportf "pread %d %d: %s, channel %s" (fst r) (snd r) got
                          want)
                   reads)))

let test_empty_file_port () =
  let path = write_temp "" in
  let port = Io_port.of_file path in
  Alcotest.(check int) "size" 0 (port.Io_port.size ());
  Alcotest.(check int) "an empty read" 0 (Bytes.length (port.Io_port.pread 0 0));
  Alcotest.check_raises "one byte" (Invalid_argument "Io_port.pread: out of range") (fun () ->
      ignore (port.Io_port.pread 0 1));
  port.Io_port.close ();
  Sys.remove path

let test_pread_after_close () =
  let path = write_temp "0123456789" in
  let port = Io_port.of_file path in
  Alcotest.(check string) "open read" "2345" (Bytes.to_string (port.Io_port.pread 2 4));
  port.Io_port.close ();
  (match port.Io_port.pread 2 4 with
  | _ -> Alcotest.fail "pread after close returned bytes"
  | exception Sys_error _ -> ());
  Sys.remove path

let check_open_error label path =
  match Io_port.of_file path with
  | port ->
    port.Io_port.close ();
    Alcotest.failf "%s opened" label
  | exception Sys_error msg ->
    let prefix = path ^ ": " in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %S names the path" label msg)
      true
      (String.length msg > String.length prefix
      && String.sub msg 0 (String.length prefix) = prefix)

let test_open_errors () =
  let dir = Filename.temp_file "kondo_port_dir" "" in
  Sys.remove dir;
  check_open_error "a missing path" (Filename.concat dir "missing.bin");
  Sys.mkdir dir 0o755;
  check_open_error "a directory" dir;
  Sys.rmdir dir

let mapped path =
  In_channel.with_open_text "/proc/self/maps" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.exists (String.ends_with ~suffix:path)

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

(* The descriptor is closed at open and the mapping goes with the port:
   nothing of the file stays in the process after [close] and a major
   collection. *)
let test_close_releases_file () =
  if Sys.file_exists "/proc/self/maps" then begin
    let path = write_temp (String.make 10_000 'k') in
    let before = open_fds () in
    let port = Io_port.of_file path in
    Alcotest.(check int) "no descriptor held while open" before (open_fds ());
    Alcotest.(check bool) "mapped while open" true (mapped path);
    ignore (port.Io_port.pread 4096 100);
    port.Io_port.close ();
    Gc.full_major ();
    Alcotest.(check bool) "unmapped after close" false (mapped path);
    (* the closed port itself is still live here *)
    Alcotest.(check int) "size after close" 10_000 (port.Io_port.size ());
    for _ = 1 to 200 do
      let port = Io_port.of_file path in
      ignore (port.Io_port.pread 0 8);
      port.Io_port.close ()
    done;
    Gc.full_major ();
    Alcotest.(check int) "descriptors unchanged" before (open_fds ());
    Alcotest.(check bool) "no mapping left" false (mapped path);
    Sys.remove path
  end

let suite =
  ( "read path",
    [ Alcotest.test_case "file port measures its length once" `Quick
        test_file_port_measures_once;
      Alcotest.test_case "touching runs" `Quick test_touching_runs;
      Alcotest.test_case "empty file port" `Quick test_empty_file_port;
      Alcotest.test_case "pread after close" `Quick test_pread_after_close;
      Alcotest.test_case "open errors name the path" `Quick test_open_errors;
      Alcotest.test_case "close releases the file" `Quick test_close_releases_file;
      Alcotest.test_case "overlay fetches each block once" `Quick test_block_fetched_once;
      Alcotest.test_case "transient block failure not cached" `Quick
        test_transient_failure_not_cached;
      Alcotest.test_case "wrong-sized block degrades, not cached" `Quick
        test_wrong_size_not_cached;
      Alcotest.test_case "mounts do not share blocks" `Quick test_mounts_do_not_share_blocks;
      Alcotest.test_case "short last block" `Quick test_short_last_block;
      QCheck_alcotest.to_alcotest qcheck_port_matches_channel;
      QCheck_alcotest.to_alcotest qcheck_reads_match_oracle ] )
