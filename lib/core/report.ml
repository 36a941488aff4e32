open Kondo_dataarray
open Kondo_workload

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list
    | Raw of string

  (* Strings and numbers render as every other JSON the system emits. *)
  module W = Kondo_obs.Jsonw

  let to_string ?(indent = 0) t =
    let b = Buffer.create 256 in
    let pad depth = if indent > 0 then Buffer.add_string b (String.make (depth * indent) ' ') in
    let nl () = if indent > 0 then Buffer.add_char b '\n' in
    let rec go depth = function
      | Null -> Buffer.add_string b "null"
      | Raw s -> Buffer.add_string b s
      | Bool v -> Buffer.add_string b (string_of_bool v)
      | Int v -> Buffer.add_string b (string_of_int v)
      | Float f -> Buffer.add_string b (W.number f)
      | String s -> Buffer.add_string b (W.str s)
      | List [] -> Buffer.add_string b "[]"
      | List items ->
        Buffer.add_char b '[';
        nl ();
        List.iteri
          (fun i item ->
            if i > 0 then begin
              Buffer.add_char b ',';
              nl ()
            end;
            pad (depth + 1);
            go (depth + 1) item)
          items;
        nl ();
        pad depth;
        Buffer.add_char b ']'
      | Obj [] -> Buffer.add_string b "{}"
      | Obj fields ->
        Buffer.add_char b '{';
        nl ();
        List.iteri
          (fun i (k, v) ->
            if i > 0 then begin
              Buffer.add_char b ',';
              nl ()
            end;
            pad (depth + 1);
            Buffer.add_string b (W.str k);
            Buffer.add_char b ':';
            if indent > 0 then Buffer.add_char b ' ';
            go (depth + 1) v)
          fields;
        nl ();
        pad depth;
        Buffer.add_char b '}'
    in
    go 0 t;
    Buffer.contents b
end

let stop_reason_string = function
  | Schedule.Max_iterations -> "max-iterations"
  | Schedule.Stagnation -> "stagnation"
  | Schedule.Time_budget -> "time-budget"

let schedule_json (r : Schedule.result) =
  Json.Obj
    [ ("iterations", Json.Int r.Schedule.iterations);
      ("evaluations", Json.Int r.Schedule.evaluations);
      ("useful", Json.Int r.Schedule.useful_count);
      ("discovered_indices", Json.Int (Index_set.cardinal r.Schedule.indices));
      ("stopped", Json.String (stop_reason_string r.Schedule.stopped)) ]

(* The fuzz schedule's outcome trace (paper Fig. 4 scatter data) in
   Chrome trace_event form: one complete event per debloat test at
   ts = iteration (µs scale is nominal — the x-axis is iterations), cat
   "useful"/"non-useful".  A pure function of the result, so the export
   is byte-stable for a fixed seed. *)
let fuzz_trace_json (r : Schedule.result) =
  let module W = Kondo_obs.Jsonw in
  let event (o : Schedule.outcome) =
    W.obj
      [ ("name", W.str (if o.Schedule.useful then "useful" else "non-useful"));
        ("cat", W.str (if o.Schedule.useful then "useful" else "non-useful"));
        ("ph", W.str "X");
        ("ts", string_of_int o.Schedule.iter);
        ("dur", "1");
        ("pid", "0");
        ("tid", "0");
        ( "args",
          W.obj
            [ ( "params",
                W.str
                  (String.concat ","
                     (Array.to_list (Array.map (Printf.sprintf "%.1f") o.Schedule.params)))
              );
              ("new_offsets", string_of_int o.Schedule.new_offsets) ] ) ]
  in
  W.obj [ ("traceEvents", W.arr (List.map event r.Schedule.trace)) ]

let accuracy_json (a : Metrics.accuracy) =
  Json.Obj
    [ ("precision", Json.Float a.Metrics.precision);
      ("recall", Json.Float a.Metrics.recall);
      ("f1", Json.Float a.Metrics.f1);
      ("bloat_identified", Json.Float a.Metrics.bloat) ]

let pipeline_json ?accuracy p (r : Pipeline.report) =
  let acc = match accuracy with Some a -> Some a | None -> r.Pipeline.accuracy in
  Json.Obj
    ([ ("program", Json.String p.Program.name);
       ("description", Json.String p.Program.description);
       ("shape", Json.String (Shape.to_string p.Program.shape));
       ("parameters", Json.Int (Program.arity p));
       ("theta_size", Json.Int (Program.param_count p));
       ("fuzz", schedule_json r.Pipeline.fuzz);
       ( "carve",
         Json.Obj
           [ ("initial_cells", Json.Int r.Pipeline.carve.Carver.initial_cells);
             ("hulls", Json.Int (List.length r.Pipeline.carve.Carver.hulls));
             ("merges", Json.Int r.Pipeline.carve.Carver.merges);
             ("sweeps", Json.Int r.Pipeline.carve.Carver.merge_rounds) ] );
       ("subset_indices", Json.Int (Index_set.cardinal r.Pipeline.approx));
       ("subset_fraction", Json.Float (Index_set.fraction r.Pipeline.approx)) ]
    @ match acc with None -> [] | Some a -> [ ("accuracy", accuracy_json a) ])

let pipeline_text ?accuracy p (r : Pipeline.report) =
  let b = Buffer.create 256 in
  let acc = match accuracy with Some a -> Some a | None -> r.Pipeline.accuracy in
  Buffer.add_string b
    (Printf.sprintf "program    : %s (%s)\n" p.Program.name (Shape.to_string p.Program.shape));
  Buffer.add_string b
    (Printf.sprintf "fuzzing    : %d tests, %d useful, stopped on %s\n"
       r.Pipeline.fuzz.Schedule.evaluations r.Pipeline.fuzz.Schedule.useful_count
       (stop_reason_string r.Pipeline.fuzz.Schedule.stopped));
  Buffer.add_string b
    (Printf.sprintf "carving    : %d cells -> %d hulls (%d merges)\n"
       r.Pipeline.carve.Carver.initial_cells
       (List.length r.Pipeline.carve.Carver.hulls)
       r.Pipeline.carve.Carver.merges);
  Buffer.add_string b
    (Printf.sprintf "subset     : %d indices (%.2f%% of the array)\n"
       (Index_set.cardinal r.Pipeline.approx)
       (100.0 *. Index_set.fraction r.Pipeline.approx));
  (match acc with
  | Some a ->
    Buffer.add_string b
      (Printf.sprintf "accuracy   : precision %.4f, recall %.4f, bloat %.2f%%\n"
         a.Metrics.precision a.Metrics.recall (100.0 *. a.Metrics.bloat))
  | None -> ());
  Buffer.contents b
