(* Pipeline experiment: the end-to-end debloat, layer by layer, over the
   paper's size sweep (Fig. 11a): CS3 and PRL2D at 128^2 .. 2048^2 and
   PRL3D at 32^3 .. 128^3.

   Each point writes the program's dense KH5 file, then times one
   [Pipeline.debloat_file] (Config.default, jobs = 1) from a compacted
   heap with an ambient tracer installed.  The per-layer split is the
   tracer's span totals — schedule.run, carve.points, carve.cells (the
   per-cell hulls), carve.merge (CLOSE tests and hull merges),
   pipeline.rasterize, pipeline.keep_intervals, pipeline.write — and
   [coverage] is the share
   of the pipeline.debloat_file span they account for.  Next to the
   times sit counters that do not move with the machine: fuzz
   evaluations, hulls, approximated indices, lattice rows scanned and
   containment tests made by rasterize, keep intervals and written bytes.
   The [reads] layer is the end user's side of the point: local reads per
   run and ns per [Runtime.try_read_element] over the debloated file.
   Everything lands in artifacts/BENCH_pipeline.json. *)

open Kondo_dataarray
open Kondo_interval
open Kondo_workload
open Kondo_core
open Kondo_container
open Exp_common
module Obs = Kondo_obs.Obs
module Trace = Kondo_obs.Trace
module Registry = Kondo_obs.Registry

let sweep () =
  List.concat_map
    (fun n -> [ ("CS3", n, Stencils.cs ~n 3); ("PRL2D", n, Stencils.prl2d ~n ()) ])
    [ 128; 512; 1024; 2048 ]
  @ List.map (fun m -> ("PRL3D", m, Stencils.prl3d ~m ())) [ 32; 64; 128 ]

(* Span names summed into each reported layer. *)
let layers =
  [ ("schedule", [ "schedule.run" ]);
    ("carve.points", [ "carve.points" ]);
    ("carve.cells", [ "carve.cells" ]);
    ("carve.merge", [ "carve.merge" ]);
    ("rasterize", [ "pipeline.rasterize" ]);
    ("keep_intervals", [ "pipeline.keep_intervals" ]);
    ("write", [ "pipeline.write" ]) ]

let counter name = Registry.counter Registry.default name

let file_size path = (Unix.stat path).Unix.st_size

let keep_intervals_of path p =
  let f = Kondo_h5.File.open_file path in
  let ds = Kondo_h5.File.find f p.Program.dataset in
  Kondo_h5.File.close f;
  match ds.Kondo_h5.Dataset.storage with
  | Kondo_h5.Dataset.Sparse keep -> Interval_set.cardinal keep
  | Kondo_h5.Dataset.Dense -> 0

(* [read_runs] useful valuations drawn from Θ by a fixed generator, each
   read element by element through the container runtime over the
   debloated file with no store behind it.  Every run is one
   runtime.reads span, so the layer's seconds hold only
   [Runtime.try_read_element] calls and the loop around them. *)
let read_runs = 16

let valuations p =
  let pick = Kondo_prng.Rng.create 20240417 in
  let rec useful () =
    let v =
      Array.map
        (fun (lo, hi) ->
          let lo = int_of_float lo in
          float_of_int (lo + Kondo_prng.Rng.int pick (int_of_float hi - lo + 1)))
        p.Program.param_space
    in
    if Program.is_useful p v then v else useful ()
  in
  List.init read_runs (fun _ -> useful ())

let read_file path = In_channel.with_open_bin path In_channel.input_all

let read_cost p path =
  let spec =
    { Spec.empty with
      Spec.base = "scratch";
      data_deps = [ { Spec.src = path; dst = "/data" } ] }
  in
  let image = Image.build spec ~fetch:(fun src -> Bytes.unsafe_of_string (read_file src)) in
  let dir = Filename.temp_file "exp_pipeline_rt" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let rt = Runtime.boot ~image ~dir () in
  let tr = Trace.create () in
  let dst = "/data" and dataset = p.Program.dataset in
  List.iter
    (fun v ->
      Trace.with_span tr "runtime.reads" (fun () ->
          Program.iter_access p v (fun idx ->
              ignore (Runtime.try_read_element rt ~dst ~dataset idx))))
    (valuations p);
  let s = Runtime.stats rt in
  Runtime.shutdown rt;
  List.iter (fun f -> Sys.remove (Filename.concat dir f)) (Array.to_list (Sys.readdir dir));
  Unix.rmdir dir;
  let seconds =
    List.fold_left
      (fun a (n, t, _) -> if n = "runtime.reads" then a +. t else a)
      0.0 (Trace.span_totals tr)
  in
  let local = s.Runtime.reads - s.Runtime.misses in
  ( float_of_int local /. float_of_int read_runs,
    s.Runtime.misses,
    1e9 *. seconds /. float_of_int (max 1 s.Runtime.reads) )

let measure (name, size, p) =
  let src = Filename.temp_file "exp_pipeline_src" ".kh5" in
  let dst = Filename.temp_file "exp_pipeline_dst" ".kh5" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove src with Sys_error _ -> ());
      try Sys.remove dst with Sys_error _ -> ())
    (fun () ->
      Datafile.write_for ~path:src p;
      let config = Config.with_jobs Config.default 1 in
      let rows = counter "kondo_rasterize_rows_total"
      and calls = counter "kondo_rasterize_contains_total" in
      let rows0 = Registry.counter_value rows and calls0 = Registry.counter_value calls in
      Gc.compact ();
      let tr = Trace.create () in
      Obs.set_tracer (Some tr);
      let t0 = now () in
      let report =
        Fun.protect
          ~finally:(fun () -> Obs.set_tracer None)
          (fun () -> Pipeline.debloat_file ~config p ~src ~dst)
      in
      let wall = now () -. t0 in
      let totals = Trace.span_totals tr in
      let seconds names =
        List.fold_left (fun a (n, t, _) -> if List.mem n names then a +. t else a) 0.0 totals
      in
      let split = List.map (fun (layer, names) -> (layer, seconds names)) layers in
      let coverage =
        List.fold_left (fun a (_, t) -> a +. t) 0.0 split
        /. Float.max 1e-9 (seconds [ "pipeline.debloat_file" ])
      in
      let counters =
        [ ("evaluations", report.Pipeline.fuzz.Schedule.evaluations);
          ("hulls", List.length report.Pipeline.carve.Carver.hulls);
          ("approx_indices", Index_set.cardinal report.Pipeline.approx);
          ("rows", Registry.counter_value rows - rows0);
          ("contains_calls", Registry.counter_value calls - calls0);
          ("keep_intervals", keep_intervals_of dst p);
          ("written_bytes", file_size dst) ]
      in
      let local_per_run, misses, ns_per_read = read_cost p dst in
      row "  %-6s %5d  %6.2fs  %s  cover %.3f  rows %d  contains %d  reads %.0f/run %.0f ns\n%!"
        name size wall
        (String.concat " "
           (List.map (fun (l, t) -> Printf.sprintf "%s %.3f" l t) split))
        coverage (List.assoc "rows" counters) (List.assoc "contains_calls" counters)
        local_per_run ns_per_read;
      let open Report.Json in
      Obj
        [ ("program", String name);
          ("size", Int size);
          ("elements", Int (Shape.nelems p.Program.shape));
          ("debloat_s", Float wall);
          ("layers_s", Obj (List.map (fun (l, t) -> (l, Float t)) split));
          ("coverage", Float coverage);
          ("counters", Obj (List.map (fun (k, v) -> (k, Int v)) counters));
          ( "reads",
            Obj
              [ ("runs", Int read_runs);
                ("local_reads_per_run", Float local_per_run);
                ("misses", Int misses);
                ("ns_per_read", Float ns_per_read) ] ) ])

let json_path () =
  let dir = "artifacts" in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  Filename.concat dir "BENCH_pipeline.json"

let run () =
  header "pipeline" "End-to-end debloat over the size sweep, split by span";
  let points = List.map measure (sweep ()) in
  let doc =
    let open Report.Json in
    Obj
      [ ("experiment", String "exp_pipeline");
        ("hardware_domains", Int (Kondo_parallel.Pool.default_jobs ()));
        ( "config",
          String
            "Config.default, jobs = 1, one debloat per point from a compacted heap; reads: \
             16 useful valuations per point through Runtime.try_read_element, no store" );
        ( "layers",
          Obj (List.map (fun (l, names) -> (l, List (List.map (fun s -> String s) names))) layers) );
        ("points", List points) ]
  in
  let out = json_path () in
  let oc = open_out out in
  output_string oc (Report.Json.to_string ~indent:2 doc);
  output_string oc "\n";
  close_out oc;
  Printf.printf "  (json saved to %s)\n" out
