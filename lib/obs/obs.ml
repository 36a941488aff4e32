let current : Trace.t option Atomic.t = Atomic.make None

let set_tracer o = Atomic.set current o
let tracer () = Atomic.get current

type section = { name : string; cat : string; seconds : Registry.histogram }

let section ?(cat = "kondo") name =
  { name;
    cat;
    seconds =
      Registry.histogram ~help:"Seconds spent in each span, traced or not"
        ~labels:[ ("span", name) ] Registry.default "kondo_span_seconds" }

let span ?args ?result_args s f =
  match tracer () with
  | None -> (
    let t0 = Clock.now Clock.real in
    match f () with
    | v ->
      Registry.observe s.seconds (Float.max 0.0 (Clock.now Clock.real -. t0));
      v
    | exception e ->
      Registry.observe s.seconds (Float.max 0.0 (Clock.now Clock.real -. t0));
      raise e)
  | Some t -> (
    let sp = Trace.begin_span t ~cat:s.cat ?args s.name in
    match f () with
    | v ->
      let args = match result_args with Some g -> g v | None -> [] in
      Registry.observe s.seconds (Trace.finish t ~args sp);
      v
    | exception e ->
      Registry.observe s.seconds
        (Trace.finish t ~args:[ ("error", Printexc.to_string e) ] sp);
      raise e)

let instant ?cat ?args name =
  match tracer () with None -> () | Some t -> Trace.instant t ?cat ?args name
