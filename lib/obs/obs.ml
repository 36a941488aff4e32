let current : Trace.t option Atomic.t = Atomic.make None

let set_tracer o = Atomic.set current o
let tracer () = Atomic.get current
let enabled () = Option.is_some (Atomic.get current)

let span ?cat ?args ?result_args name f =
  match tracer () with
  | None -> f ()
  | Some t -> (
    let s = Trace.begin_span t ?cat ?args name in
    match f () with
    | v ->
      let end_args = match result_args with Some g -> g v | None -> [] in
      Trace.end_span t ~args:end_args s;
      v
    | exception e ->
      Trace.end_span t ~args:[ ("error", Printexc.to_string e) ] s;
      raise e)

let instant ?cat ?args name =
  match tracer () with None -> () | Some t -> Trace.instant t ?cat ?args name
