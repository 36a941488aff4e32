open Kondo_prng

type kind = Inject_transient | Inject_timeout | Inject_short_read | Inject_corrupt | Inject_permanent

type rates = {
  transient : float;
  timeout : float;
  short_read : float;
  corrupt : float;
  permanent : float;
}

type t = {
  seed : int;
  rates : rates;
  timeout_cost_ms : float;
  counters : (string, int) Hashtbl.t;
}

let zero_rates = { transient = 0.0; timeout = 0.0; short_read = 0.0; corrupt = 0.0; permanent = 0.0 }

let total r = r.transient +. r.timeout +. r.short_read +. r.corrupt +. r.permanent

let validate rates timeout_cost_ms =
  let check name v =
    if v < 0.0 || v > 1.0 || Float.is_nan v then
      invalid_arg (Printf.sprintf "Fault_plan: rate %s=%g outside [0,1]" name v)
  in
  check "transient" rates.transient;
  check "timeout" rates.timeout;
  check "short" rates.short_read;
  check "corrupt" rates.corrupt;
  check "permanent" rates.permanent;
  if total rates > 1.0 then
    invalid_arg (Printf.sprintf "Fault_plan: rates sum to %g > 1" (total rates));
  if timeout_cost_ms < 0.0 then invalid_arg "Fault_plan: negative timeout cost"

let create ?(transient = 0.0) ?(timeout = 0.0) ?(timeout_cost_ms = 100.0) ?(short_read = 0.0)
    ?(corrupt = 0.0) ?(permanent = 0.0) ~seed () =
  let rates = { transient; timeout; short_read; corrupt; permanent } in
  validate rates timeout_cost_ms;
  { seed; rates; timeout_cost_ms; counters = Hashtbl.create 8 }

let none = create ~seed:0 ()

let is_none t = total t.rates = 0.0

let seed t = t.seed

(* The n-th decision at a call site is a pure function of
   (seed, site, n): deterministic whatever other sites ran in between,
   so two runs of the same command — or the same run at a different
   [--jobs] — draw identical fault sequences per site. *)
let decide_at t ~site n =
  if is_none t then None
  else begin
    let h = Hashtbl.hash site in
    let rng = Rng.create ((t.seed * 1000003) lxor (h * 8191) lxor (n * 65599)) in
    let u = Rng.float rng 1.0 in
    let r = t.rates in
    let c1 = r.transient in
    let c2 = c1 +. r.timeout in
    let c3 = c2 +. r.short_read in
    let c4 = c3 +. r.corrupt in
    let c5 = c4 +. r.permanent in
    if u < c1 then Some Inject_transient
    else if u < c2 then Some Inject_timeout
    else if u < c3 then Some Inject_short_read
    else if u < c4 then Some Inject_corrupt
    else if u < c5 then Some Inject_permanent
    else None
  end

let decide t ~site =
  let n = Option.value ~default:0 (Hashtbl.find_opt t.counters site) in
  Hashtbl.replace t.counters site (n + 1);
  decide_at t ~site n

let wrap t ~site ?corrupt ?shorten thunk =
  let run_thunk () = try thunk () with exn -> Error (Fault.of_exn exn) in
  match decide t ~site with
  | None -> run_thunk ()
  | Some Inject_transient -> Error (Fault.Transient (Printf.sprintf "injected at %s" site))
  | Some Inject_timeout -> Error (Fault.Timeout { cost_ms = t.timeout_cost_ms })
  | Some Inject_permanent -> Error (Fault.Permanent (Printf.sprintf "injected at %s" site))
  | Some Inject_short_read -> (
    match shorten with
    | None -> Error (Fault.Transient (Printf.sprintf "injected short read at %s" site))
    | Some f -> Result.map f (run_thunk ()))
  | Some Inject_corrupt -> (
    match corrupt with
    | None -> Error (Fault.Corrupt (Printf.sprintf "injected at %s" site))
    | Some f -> Result.map f (run_thunk ()))

(* ---- textual plans (--fault-plan) ---- *)

let to_string t =
  if is_none t then "none"
  else begin
    let r = t.rates in
    let parts = ref [] in
    let add k v = if v > 0.0 then parts := Printf.sprintf "%s=%g" k v :: !parts in
    add "permanent" r.permanent;
    add "corrupt" r.corrupt;
    add "short" r.short_read;
    if r.timeout > 0.0 && t.timeout_cost_ms <> 100.0 then
      parts := Printf.sprintf "timeout-cost-ms=%g" t.timeout_cost_ms :: !parts;
    add "timeout" r.timeout;
    add "transient" r.transient;
    Printf.sprintf "seed=%d,%s" t.seed (String.concat "," !parts)
  end

let of_string s =
  let s = String.trim s in
  if s = "" || s = "none" || s = "off" then Ok none
  else begin
    try
      let seed = ref 1 in
      let rates = ref zero_rates in
      let cost = ref 100.0 in
      List.iter
        (fun part ->
          let part = String.trim part in
          if part <> "" then
            match String.index_opt part '=' with
            | None -> failwith (Printf.sprintf "expected key=value, got %S" part)
            | Some i ->
              let k = String.trim (String.sub part 0 i) in
              let v = String.trim (String.sub part (i + 1) (String.length part - i - 1)) in
              let fv () =
                match float_of_string_opt v with
                | Some f -> f
                | None -> failwith (Printf.sprintf "bad number %S for %s" v k)
              in
              (match k with
              | "seed" -> (
                match int_of_string_opt v with
                | Some n -> seed := n
                | None -> failwith (Printf.sprintf "bad seed %S" v))
              | "transient" -> rates := { !rates with transient = fv () }
              | "timeout" -> rates := { !rates with timeout = fv () }
              | "short" | "short-read" -> rates := { !rates with short_read = fv () }
              | "corrupt" -> rates := { !rates with corrupt = fv () }
              | "permanent" -> rates := { !rates with permanent = fv () }
              | "timeout-cost-ms" -> cost := fv ()
              | _ -> failwith (Printf.sprintf "unknown key %S" k)))
        (String.split_on_char ',' s);
      validate !rates !cost;
      Ok { seed = !seed; rates = !rates; timeout_cost_ms = !cost; counters = Hashtbl.create 8 }
    with Failure msg | Invalid_argument msg -> Error msg
  end
