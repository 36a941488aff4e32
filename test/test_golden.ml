(* Byte-identity goldens for the whole debloat: the digest of the
   debloated KH5 file, the carver's work counters and the printed
   invariant, for the suite programs at sizes small enough for the test
   suite.  Every value was recorded from the CLI before the hull and
   CLOSE fast paths landed ([kondo debloat --jobs 1] with default seed
   and budget; [kondo invariant -p PRL3D -m 32]); any change to hulls,
   merging, rasterization or the writer that moves a byte fails here. *)

open Kondo_workload
open Kondo_core

let config = Config.with_jobs { Config.default with Config.seed = 1 } 1

type golden = {
  name : string;
  n : int option;
  m : int option;
  digest : string;  (** stdlib [Digest] (MD5) of the debloated file, hex *)
  cells : int;
  merges : int;
  hulls : int;
}

let goldens =
  [ { name = "PRL3D"; n = None; m = Some 32; digest = "128caef0c2ccb7b80dcb8ec31d99ea92";
      cells = 27; merges = 26; hulls = 1 };
    { name = "PRL3D"; n = None; m = Some 64; digest = "ac0b496b3b9c9e7c93ebe52fe099db39";
      cells = 117; merges = 116; hulls = 1 };
    { name = "CS3"; n = Some 256; m = None; digest = "fa607be2615e0993a44a1fdd9b414518";
      cells = 202; merges = 200; hulls = 2 };
    { name = "PRL2D"; n = Some 256; m = None; digest = "676a6c4a6279c0799d836a4c1a2a076e";
      cells = 76; merges = 75; hulls = 1 } ]

let program g =
  match Suite.by_name ?n:g.n ?m:g.m g.name with
  | Some p -> p
  | None -> Alcotest.failf "unknown program %s" g.name

let test_debloat g () =
  let p = program g in
  let src = Filename.temp_file "kondo_golden_src" ".kh5" in
  let dst = Filename.temp_file "kondo_golden_dst" ".kh5" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ src; dst ])
    (fun () ->
      Datafile.write_for ~path:src p;
      let report = Pipeline.debloat_file ~config p ~src ~dst in
      let carve = report.Pipeline.carve in
      Alcotest.(check int) "carve cells" g.cells carve.Carver.initial_cells;
      Alcotest.(check int) "carve merges" g.merges carve.Carver.merges;
      Alcotest.(check int) "carve hulls" g.hulls (List.length carve.Carver.hulls);
      Alcotest.(check string) "debloated file digest" g.digest (Digest.to_hex (Digest.file dst)))

(* [kondo invariant -p PRL3D -m 32]: the carved hull as printed halfspaces,
   which fixes every face of the merged Hull3d and their order. *)
let prl3d_32_invariant =
  {|(i <= 24 /\ k <= 24 /\ j <= 24 /\ -16*k <= -128 /\ -128*k <= -1024 /\ 256*j <= 6144 /\ -256*i <= -2048 /\ -9*k <= -72 /\ 72*i <= 1728 /\ -k <= -8 /\ -k <= -8 /\ -k <= -8 /\ -k <= -8 /\ -k <= -8 /\ -k <= -8 /\ -k <= -8 /\ 128*j <= 3072 /\ 7*k <= 168 /\ 7*j <= 168 /\ 8*k <= 192 /\ 8*j <= 192 /\ 7*i <= 168 /\ 112*j <= 2688 /\ 80*i <= 1920 /\ -k <= -8 /\ -k <= -8 /\ -k <= -8 /\ -k <= -8 /\ -k <= -8 /\ -k <= -8 /\ -2*k <= -16 /\ -2*k <= -16 /\ -k <= -8 /\ -2*k <= -16 /\ -k <= -8 /\ -2*k <= -16 /\ -3*k <= -24 /\ -k <= -8 /\ -4*k <= -32 /\ -4*k <= -32 /\ -k <= -8 /\ -3*k <= -24 /\ -5*k <= -40 /\ -k <= -8 /\ -2*k <= -16 /\ -6*k <= -48 /\ -k <= -8 /\ -k <= -8 /\ -8*k <= -64 /\ -184*k <= -1472 /\ 56*i <= 1344 /\ 135*i <= 3240 /\ 240*k <= 5760 /\ -8*i <= -64 /\ -128*j <= -1024 /\ -7*i <= -56 /\ 112*k <= 2688 /\ -9*i <= -72 /\ 144*k <= 3456 /\ -104*i <= -832 /\ -128*j <= -1024 /\ -128*i <= -1024 /\ 49*i <= 1176 /\ -112*k <= -896 /\ 112*i <= 2688 /\ -256*j <= -2048)|}

let test_invariant () =
  let p = Option.get (Suite.by_name ~m:32 "PRL3D") in
  let inv = Invariant.of_carve (Pipeline.approximate ~config p).Pipeline.carve in
  Alcotest.(check int) "clauses" 1 (List.length (Invariant.clauses inv));
  Alcotest.(check int) "constraints" 66 (Invariant.constraint_count inv);
  Alcotest.(check string) "printed invariant" prl3d_32_invariant (Invariant.to_string inv)

let label g =
  match (g.n, g.m) with
  | _, Some m -> Printf.sprintf "%s %d^3" g.name m
  | Some n, None -> Printf.sprintf "%s %d^2" g.name n
  | None, None -> g.name

let suite =
  ( "golden",
    List.map
      (fun g -> Alcotest.test_case ("debloat bytes: " ^ label g) `Quick (test_debloat g))
      goldens
    @ [ Alcotest.test_case "invariant: PRL3D 32^3" `Quick test_invariant ] )
