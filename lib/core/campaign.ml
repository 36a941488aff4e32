open Kondo_dataarray
open Kondo_workload
open Kondo_faults

type t = { name : string; rounds : int; observed : Index_set.t }

let fresh p =
  { name = p.Program.name; rounds = 0; observed = Index_set.create p.Program.shape }

let observed t = t.observed
let rounds t = t.rounds
let program_name t = t.name

let extend ~config p t k =
  if not (String.equal t.name p.Program.name) then invalid_arg "Campaign.extend: program mismatch";
  let observed = Index_set.copy t.observed in
  (* Rounds are independent schedules, fanned out over [config.jobs]
     domains; each is seeded purely from its absolute round number, so
     the accumulated set is the same whatever the jobs count or how the
     k rounds were split across sessions. *)
  let found = Schedule.run_rounds ~config p ~first_round:(t.rounds + 1) ~rounds:k in
  Index_set.union_into observed found;
  { t with rounds = t.rounds + k; observed }

let carve ~config p t = snd (Pipeline.subset ~config p t.observed)

let magic = "KCAM\x02"

(* v2 layout: magic, then CRC frames ({!Kondo_faults.Frame}) — a header
   frame (rounds, program name) followed by the observed-set bytes in
   chunked frames.  Chunking bounds what a torn tail can destroy: a
   loader salvages every intact frame and zero-fills the rest of the
   bitmask, losing at most the last chunk of observations instead of
   the whole campaign. *)
let chunk_size = 4096

let save t path =
  Frame.atomic_write path (fun oc ->
      output_string oc magic;
      let hdr = Buffer.create 64 in
      Buffer.add_int32_le hdr (Int32.of_int t.rounds);
      Buffer.add_int32_le hdr (Int32.of_int (String.length t.name));
      Buffer.add_string hdr t.name;
      Frame.write oc (Buffer.contents hdr);
      let bytes = Index_set.to_bytes t.observed in
      let n = Bytes.length bytes in
      let pos = ref 0 in
      while !pos < n do
        let len = min chunk_size (n - !pos) in
        Frame.write oc (Bytes.sub_string bytes !pos len);
        pos := !pos + len
      done)

type parsed =
  | Parsed of t * bool (* campaign, file fully intact *)
  | Corrupt of string
  | Mismatch of string

let fail_of path p msg =
  Invalid_argument
    (Printf.sprintf "Campaign.load %S (program %s): %s" path p.Program.name msg)

(* Rebuild the observed set from a (possibly partial) prefix of its
   serialized bytes: verify any salvaged piece of the embedded shape
   header against the program, zero-fill the missing bitmask tail. *)
let observed_of_prefix p prefix =
  let dims = Shape.dims p.Program.shape in
  let rank = Array.length dims in
  let expected = 4 + (4 * rank) + ((Shape.nelems p.Program.shape + 7) / 8) in
  let got = String.length prefix in
  if got > expected then Error "observed set longer than the program's shape allows"
  else begin
    let full = Bytes.make expected '\000' in
    Bytes.blit_string prefix 0 full 0 got;
    (* the full header survived: let of_bytes check it against the shape;
       a partial header is replaced with the program's own *)
    if got < 4 + (4 * rank) then begin
      Bytes.set_int32_le full 0 (Int32.of_int rank);
      Array.iteri (fun k d -> Bytes.set_int32_le full (4 + (4 * k)) (Int32.of_int d)) dims
    end;
    match Index_set.of_bytes full with
    | exception Invalid_argument msg -> Error (Printf.sprintf "corrupt observed set (%s)" msg)
    | observed ->
      if not (Shape.equal (Index_set.shape observed) p.Program.shape) then
        Error
          (Printf.sprintf "shape mismatch (%s in file, program wants %s)"
             (Shape.to_string (Index_set.shape observed))
             (Shape.to_string p.Program.shape))
      else Ok (observed, got = expected)
  end

let parse_v2 p buf =
  let frames, frames_intact = Frame.read_all buf ~pos:(String.length magic) in
  match frames with
  | [] -> Corrupt "no intact header frame"
  | hdr :: chunks ->
    if String.length hdr < 8 then Corrupt "short header frame"
    else begin
      let hb = Bytes.unsafe_of_string hdr in
      let rounds = Int32.to_int (Bytes.get_int32_le hb 0) in
      let name_len = Int32.to_int (Bytes.get_int32_le hb 4) in
      if name_len < 0 || name_len > 4096 || 8 + name_len <> String.length hdr then
        Corrupt (Printf.sprintf "bad name length %d" name_len)
      else if rounds < 0 then Corrupt (Printf.sprintf "bad round count %d" rounds)
      else begin
        let name = String.sub hdr 8 name_len in
        if not (String.equal name p.Program.name) then
          Mismatch (Printf.sprintf "campaign belongs to program %s" name)
        else
          match observed_of_prefix p (String.concat "" chunks) with
          | Error msg ->
            if frames_intact then Mismatch msg else Corrupt msg
          | Ok (observed, complete) ->
            Parsed ({ name; rounds; observed }, frames_intact && complete)
      end
    end

let parse p path =
  match Frame.read_file path with
  | exception Sys_error msg -> Corrupt msg
  | buf ->
    let have_magic m =
      Bytes.length buf >= String.length m && Bytes.sub_string buf 0 (String.length m) = m
    in
    if have_magic magic then parse_v2 p buf
    else if Bytes.length buf < String.length magic then Corrupt "truncated magic"
    else Mismatch "bad magic"

let load p path =
  match parse p path with
  | Parsed (t, _) -> t
  | Corrupt msg | Mismatch msg -> raise (fail_of path p msg)

let salvage p path =
  if not (Sys.file_exists path) then (fresh p, false)
  else
    match parse p path with
    | Parsed (t, intact) -> (t, intact)
    | Corrupt _ -> (fresh p, false)
    | Mismatch msg -> raise (fail_of path p msg)
