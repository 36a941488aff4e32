(* The full container story of the paper's introduction.

   Alice ships a containerized stencil application with its data file;
   Bob pulls and runs it.  Kondo debloats the data layer before Bob's
   pull; the store's fixed 4 KiB content-addressed chunks show what Bob
   downloads, and the user-side runtime demonstrates both the
   data-missing exception and the remote-fetch fallback of §VI.

     dune exec examples/container_debloat.exe *)

open Kondo_container
open Kondo_workload
open Kondo_core

let read_file path =
  let ic = open_in_bin path in
  let b = Bytes.create (in_channel_length ic) in
  really_input ic b 0 (Bytes.length b);
  close_in ic;
  b

let mib n = float_of_int n /. (1024.0 *. 1024.0)

(* Bytes of [content]'s fixed-size chunks whose ids [held] lacks: what a
   pull moves when the puller already has every chunk of [held]. *)
let upgrade_bytes ~held content =
  let module Chunk = Kondo_store.Chunk in
  let have = Hashtbl.create 64 in
  Array.iter (fun id -> Hashtbl.replace have id ()) (Chunk.manifest_of_bytes ~name:"" held).Chunk.ids;
  let m = Chunk.manifest_of_bytes ~name:"" content in
  let total = ref 0 in
  Array.iteri
    (fun i id -> if not (Hashtbl.mem have id) then total := !total + snd (Chunk.chunk_span m i))
    m.Chunk.ids;
  !total

let () =
  (* ---- Alice: build the container ---------------------------------- *)
  let program = Stencils.rdc2d ~n:128 () in
  let data_src = Filename.temp_file "alice_data" ".kh5" in
  Datafile.write_for ~path:data_src program;
  let spec_text =
    String.concat "\n"
      [ "FROM ubuntu:20.04";
        "RUN apt-get install -y gcc";
        "RUN apt-get install -y libhdf5-dev";
        Printf.sprintf "ADD %s /stencil/data.kh5" data_src;
        "PARAM [0-32, 0-32]";
        "ENTRYPOINT [\"/stencil/RDC\"]";
        "CMD [16, 16, /stencil/data.kh5]" ]
  in
  let spec =
    match Spec.parse spec_text with Ok s -> s | Error e -> failwith e
  in
  let image = Image.build spec ~fetch:read_file in
  Printf.printf "Alice's image : %.1f MiB env + %.2f MiB data\n" (mib (Image.env_size image))
    (mib (Image.data_size image));

  (* ---- Kondo: debloat the data layer -------------------------------- *)
  let debloated, report =
    Pipeline.debloat_image ~config:Config.default program ~image ~dst:"/stencil/data.kh5"
  in
  Printf.printf "Kondo         : %d debloat tests -> %d hulls, data layer %.2f MiB -> %.2f MiB\n"
    report.Pipeline.fuzz.Schedule.evaluations
    (List.length report.Pipeline.carve.Carver.hulls)
    (mib (Image.data_size image))
    (mib (Image.data_size debloated));

  (* ---- Bob: pull (chunk-level dedup) -------------------------------- *)
  let layer img = Option.get (Image.data_content img ~dst:"/stencil/data.kh5") in
  let cold = Image.env_size debloated + Image.data_size debloated in
  let upgrade = upgrade_bytes ~held:(layer image) (layer debloated) in
  Printf.printf "Bob pulls     : %.1f MiB cold; upgrading from the full image moves only %.2f MiB of data\n"
    (mib cold) (mib upgrade);

  (* ---- Bob: run ------------------------------------------------------ *)
  let dir = Filename.temp_file "bob" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let rt = Runtime.boot ~image:debloated ~dir () in
  let n = Program.run_io program (Runtime.file rt ~dst:"/stencil/data.kh5") [| 16.0; 16.0 |] in
  Printf.printf "Bob runs      : RDC 16 16 read %d elements from the debloated file\n" n;
  Runtime.shutdown rt;

  (* ---- the data-missing exception and the remote fallback ----------- *)
  (* cripple Kondo on purpose so an offset is missing *)
  let weak = { Config.default with Config.max_iter = 5; stop_iter = 5; n_init = 2 } in
  let crippled, _ = Pipeline.debloat_image ~config:weak program ~image ~dst:"/stencil/data.kh5" in
  let rt = Runtime.boot ~image:crippled ~dir () in
  (try ignore (Runtime.read_element rt ~dst:"/stencil/data.kh5" ~dataset:"data" [| 127; 127 |])
   with Kondo_h5.File.Data_missing m ->
     Printf.printf "exception     : Data_missing at index (%d,%d), byte offset %d — as §III specifies\n"
       m.Kondo_h5.File.index.(0) m.Kondo_h5.File.index.(1) m.Kondo_h5.File.offset);
  Runtime.shutdown rt;
  (* Alice's server: her source file, chunked behind a store client *)
  let client, store =
    match Kondo_store.Source.of_image crippled with Ok r -> r | Error e -> failwith e
  in
  let rt = Runtime.boot ~store ~image:crippled ~dir () in
  let v = Runtime.read_element rt ~dst:"/stencil/data.kh5" ~dataset:"data" [| 127; 127 |] in
  Printf.printf "remote fetch  : §VI fallback pulled the value (%g) from Alice's server; stats: %d miss, %d fetched\n"
    v (Runtime.stats rt).Runtime.misses (Runtime.stats rt).Runtime.store_fetches;
  Runtime.shutdown rt;
  Kondo_store.Client.close client;
  Sys.remove data_src
