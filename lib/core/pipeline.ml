open Kondo_dataarray
open Kondo_interval
open Kondo_workload

type report = {
  program : string;
  fuzz : Schedule.result;
  carve : Carver.result;
  approx : Index_set.t;
  accuracy : Metrics.accuracy option;
}

(* Every pipeline step is a span: each counts in [kondo_span_seconds],
   and under [--trace] the steps of a debloat cover it. *)
let section name = Kondo_obs.Obs.section ~cat:"pipeline" name
let span = Kondo_obs.Obs.span
let approximate_section = section "pipeline.approximate"
let rasterize_section = section "pipeline.rasterize"
let keep_intervals_section = section "pipeline.keep_intervals"
let write_section = section "pipeline.write"
let debloat_file_section = section "pipeline.debloat_file"
let debloat_file_many_section = section "pipeline.debloat_file_many"
let debloat_image_section = section "pipeline.debloat_image"
let stage_section = section "pipeline.stage"

let subset ~config p observed =
  let carve = Carver.carve ~config observed in
  let approx =
    span rasterize_section
      ~result_args:(fun a -> [ ("approx_indices", string_of_int (Index_set.cardinal a)) ])
      (fun () ->
        let approx = Carver.rasterize p.Program.shape carve.Carver.hulls in
        (* Observed indices are certainly required; hulls contain their
           own input points, but numerical eps could drop a boundary
           point. *)
        Index_set.union_into approx observed;
        approx)
  in
  (carve, approx)

let approximate ~config p =
  span approximate_section
    ~args:[ ("program", p.Program.name) ]
    ~result_args:(fun r ->
      [ ("approx_indices", string_of_int (Index_set.cardinal r.approx));
        ("hulls", string_of_int (List.length r.carve.Carver.hulls)) ])
    (fun () ->
      let fuzz = Schedule.run ~config p in
      let carve, approx = subset ~config p fuzz.Schedule.indices in
      { program = p.Program.name; fuzz; carve; approx; accuracy = None })

let evaluate ~config p =
  let r = approximate ~config p in
  let truth = Program.ground_truth p in
  { r with accuracy = Some (Metrics.accuracy ~truth ~approx:r.approx) }

let keep_intervals p approx ~layout =
  span keep_intervals_section
    ~args:[ ("program", p.Program.name) ]
    ~result_args:(fun k -> [ ("intervals", string_of_int (Interval_set.cardinal k)) ])
    (fun () ->
      let shape = p.Program.shape in
      let dtype = p.Program.dtype in
      let esz = Kondo_dataarray.Dtype.size dtype in
      let addr = Layout.addressing layout shape dtype in
      let offsets = ref [] in
      Index_set.iter approx (fun idx -> offsets := Layout.offset addr idx :: !offsets);
      let sorted = List.sort compare !offsets in
      Interval_set.of_sorted (List.map (fun off -> Interval.make off (off + esz)) sorted))

let write_debloated dst ~source ~keep =
  span write_section
    ~result_args:(fun () -> [ ("bytes", string_of_int (Unix.stat dst).Unix.st_size) ])
    (fun () -> Kondo_h5.Writer.write_debloated dst ~source ~keep)

let with_source src f =
  let source = Kondo_h5.File.open_file src in
  Fun.protect ~finally:(fun () -> Kondo_h5.File.close source) (fun () -> f source)

(* Keep the intervals of [p]'s dataset covering [approx]; drop every
   other dataset. *)
let write_one p approx ~src ~dst =
  with_source src (fun source ->
      let ds = Kondo_h5.File.find source p.Program.dataset in
      let keep_set = keep_intervals p approx ~layout:ds.Kondo_h5.Dataset.layout in
      write_debloated dst ~source ~keep:(fun name ->
          if String.equal name p.Program.dataset then keep_set else Interval_set.empty))

let debloat_file ~config p ~src ~dst =
  span debloat_file_section
    ~args:[ ("program", p.Program.name) ]
    (fun () ->
      let report = approximate ~config p in
      write_one p report.approx ~src ~dst;
      report)

let debloat_file_many ~config programs ~src ~dst =
  span debloat_file_many_section
    ~args:[ ("programs", string_of_int (List.length programs)) ]
    (fun () ->
      (* One level of parallelism only: with several programs the fan-out
         is per program and the inner fuzz/carve runs sequentially (nested
         pool use is an error); a single program keeps its inner jobs so
         the carver still parallelizes.  Results are identical either
         way. *)
      let pool = Kondo_parallel.Pool.create ~jobs:config.Config.jobs in
      let inner =
        if Kondo_parallel.Pool.jobs pool > 1 && List.length programs > 1 then
          { config with Config.jobs = 1 }
        else config
      in
      let reports =
        Kondo_parallel.Pool.map_list pool (fun p -> (p, approximate ~config:inner p)) programs
      in
      with_source src (fun source ->
          let keep_for name =
            List.fold_left
              (fun acc (p, report) ->
                if String.equal p.Program.dataset name then begin
                  let ds = Kondo_h5.File.find source name in
                  Interval_set.union acc
                    (keep_intervals p report.approx ~layout:ds.Kondo_h5.Dataset.layout)
                end
                else acc)
              Interval_set.empty reports
          in
          write_debloated dst ~source ~keep:keep_for);
      List.map (fun (p, report) -> (p.Program.name, report)) reports)

let debloat_image ~config p ~image ~dst =
  span debloat_image_section
    ~args:[ ("program", p.Program.name) ]
    (fun () ->
      let report = approximate ~config p in
      match Kondo_container.Image.data_content image ~dst with
      | None -> raise Not_found
      | Some content ->
        let tmp_src = Filename.temp_file "kondo_full" ".kh5" in
        let tmp_dst = Filename.temp_file "kondo_debloat" ".kh5" in
        Fun.protect
          ~finally:(fun () ->
            (try Sys.remove tmp_src with Sys_error _ -> ());
            try Sys.remove tmp_dst with Sys_error _ -> ())
          (fun () ->
            span stage_section (fun () ->
                let oc = open_out_bin tmp_src in
                output_bytes oc content;
                close_out oc);
            write_one p report.approx ~src:tmp_src ~dst:tmp_dst;
            span stage_section (fun () ->
                let ic = open_in_bin tmp_dst in
                let len = in_channel_length ic in
                let debloated = Bytes.create len in
                really_input ic debloated 0 len;
                close_in ic;
                (Kondo_container.Image.replace_data image ~dst debloated, report))))
