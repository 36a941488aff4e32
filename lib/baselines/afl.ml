open Kondo_prng
open Kondo_dataarray
open Kondo_workload

type result = {
  indices : Index_set.t;
  executions : int;
  queue_entries : int;
  coverage_edges : int;
  elapsed : float;
}

let field_width = 8

(* atoi semantics on one field: optional sign, then leading digits; a
   field without leading digits parses to 0.  This mirrors fuzzing a
   program that reads its parameters from argv text, which is how AFL
   actually reaches integer-parameter programs. *)
let atoi_field input off =
  let stop = off + field_width in
  let rec skip_space i = if i < stop && Bytes.get input i = ' ' then skip_space (i + 1) else i in
  let i = skip_space off in
  let sign, i =
    if i < stop && Bytes.get input i = '-' then (-1, i + 1)
    else if i < stop && Bytes.get input i = '+' then (1, i + 1)
    else (1, i)
  in
  let rec digits i acc =
    if i < stop then begin
      let c = Bytes.get input i in
      if c >= '0' && c <= '9' then digits (i + 1) ((acc * 10) + (Char.code c - Char.code '0'))
      else acc
    end
    else acc
  in
  sign * digits i 0

let decode_params p input =
  Array.init (Program.arity p) (fun k -> float_of_int (atoi_field input (k * field_width)))

let interesting_bytes = [ 0; 1; 0x7F; 0x80; 0xFF; 16; 32; 64 ]

exception Out_of_budget

let run ?(seed = 1) ?time_budget ?max_execs p =
  let t0 = Kondo_obs.Clock.(now real) in
  let rng = Rng.create seed in
  let m = Program.arity p in
  let input_len = field_width * m in
  let indices = Index_set.create p.Program.shape in
  let coverage : (int, unit) Hashtbl.t = Hashtbl.create 65536 in
  let queue : bytes array ref = ref [||] in
  let executions = ref 0 in
  let push input = queue := Array.append !queue [| Bytes.copy input |] in
  let check_budget () =
    (match max_execs with Some m when !executions >= m -> raise Out_of_budget | _ -> ());
    match time_budget with
    | Some budget when !executions land 15 = 0 && Kondo_obs.Clock.(now real) -. t0 > budget ->
      raise Out_of_budget
    | _ -> ()
  in
  (* One execution: decode, run the instrumented program, update the
     coverage map and the accumulated index set.  Returns whether any new
     edge fired (AFL's "interesting" test). *)
  let execute input =
    check_budget ();
    incr executions;
    let v = decode_params p input in
    let fresh = ref false in
    let on_edge edge =
      if not (Hashtbl.mem coverage edge) then begin
        Hashtbl.add coverage edge ();
        fresh := true
      end;
      if edge >= 2 then begin
        let idx = Shape.delinearize p.Program.shape (edge - 2) in
        ignore (Index_set.add_if_in_bounds indices idx)
      end
    in
    (* The containerized entrypoint validates its PARAM ranges: inputs
       decoding outside Θ exercise only the rejection branch, which is
       why AFL's precision is 1 by construction (paper §V-D2). *)
    if Program.in_space p v then Program.coverage p v on_edge else on_edge 0;
    !fresh
  in
  let try_input input = if execute input then push input in
  (* Deterministic stage on one queue entry: walking bitflips, byte
     arithmetic, interesting byte values. *)
  let deterministic input =
    let buf = Bytes.copy input in
    for bit = 0 to (input_len * 8) - 1 do
      let b = bit / 8 and o = bit mod 8 in
      Bytes.set_uint8 buf b (Bytes.get_uint8 buf b lxor (1 lsl o));
      try_input buf;
      Bytes.set_uint8 buf b (Bytes.get_uint8 buf b lxor (1 lsl o))
    done;
    for b = 0 to input_len - 1 do
      let orig = Bytes.get_uint8 buf b in
      List.iter
        (fun delta ->
          Bytes.set_uint8 buf b ((orig + delta) land 0xFF);
          try_input buf)
        [ 1; -1; 4; -4; 16; -16 ];
      List.iter
        (fun v ->
          Bytes.set_uint8 buf b v;
          try_input buf)
        interesting_bytes;
      Bytes.set_uint8 buf b orig
    done
  in
  let havoc input =
    let buf = Bytes.copy input in
    let stack = 2 + Rng.int rng 5 in
    for _ = 1 to stack do
      let b = Rng.int rng input_len in
      match Rng.int rng 4 with
      | 0 -> Bytes.set_uint8 buf b (Bytes.get_uint8 buf b lxor (1 lsl Rng.int rng 8))
      | 1 -> Bytes.set buf b (Rng.byte rng)
      | 2 -> Bytes.set_uint8 buf b ((Bytes.get_uint8 buf b + Rng.int_in rng (-35) 35) land 0xFF)
      | _ -> Bytes.set_uint8 buf b (List.nth interesting_bytes (Rng.int rng (List.length interesting_bytes)))
    done;
    try_input buf
  in
  (try
     (* Seed corpus: the container's CMD-style sample input (mid-range
        valid parameters rendered as text) plus a few random inputs. *)
     let sample = Bytes.make input_len ' ' in
     Array.iteri
       (fun k (lo, hi) ->
         let s = string_of_int (int_of_float ((lo +. hi) /. 2.0)) in
         Bytes.blit_string s 0 sample (k * field_width) (min field_width (String.length s)))
       p.Program.param_space;
     ignore (execute sample);
     push sample;
     for _ = 1 to 7 do
       let input = Bytes.init input_len (fun _ -> Rng.byte rng) in
       ignore (execute input);
       push input
     done;
     let cursor = ref 0 in
     while true do
       if Array.length !queue = 0 then begin
         let input = Bytes.init input_len (fun _ -> Rng.byte rng) in
         ignore (execute input);
         push input
       end;
       let entry = !queue.(!cursor mod Array.length !queue) in
       incr cursor;
       deterministic entry;
       for _ = 1 to 64 do
         havoc entry
       done
     done
   with Out_of_budget -> ());
  { indices;
    executions = !executions;
    queue_entries = Array.length !queue;
    coverage_edges = Hashtbl.length coverage;
    elapsed = Kondo_obs.Clock.(now real) -. t0 }
