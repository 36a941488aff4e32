(* Bechamel micro-benchmarks of the performance-critical substrates. *)

open Bechamel
open Toolkit

let rng = Kondo_prng.Rng.create 2024

let random_points_2d n range =
  List.init n (fun _ -> [| Kondo_prng.Rng.int rng range; Kondo_prng.Rng.int rng range |])

let random_points_3d n range =
  List.init n (fun _ ->
      [| Kondo_prng.Rng.int rng range;
         Kondo_prng.Rng.int rng range;
         Kondo_prng.Rng.int rng range |])

let hull2d_points = random_points_2d 1000 512
let hull3d_points = random_points_3d 400 64

let test_hull2d =
  Test.make ~name:"hull2d-1000pts" (Staged.stage (fun () -> Kondo_geometry.Hull.of_int_points hull2d_points))

let test_hull3d =
  Test.make ~name:"hull3d-400pts" (Staged.stage (fun () -> Kondo_geometry.Hull.of_int_points hull3d_points))

let hull_a = Kondo_geometry.Hull.of_int_points (random_points_2d 200 64)
let hull_b = Kondo_geometry.Hull.of_int_points (List.map (fun p -> [| p.(0) + 70; p.(1) |]) (random_points_2d 200 64))

let test_hull_merge =
  Test.make ~name:"hull-merge" (Staged.stage (fun () -> Kondo_geometry.Hull.merge hull_a hull_b))

let test_btree_insert =
  Test.make ~name:"interval-btree-insert-10k"
    (Staged.stage (fun () ->
         let t = Kondo_interval.Interval_btree.create () in
         for i = 0 to 9_999 do
           Kondo_interval.Interval_btree.insert t
             (Kondo_interval.Interval.make (i * 7 mod 65536) ((i * 7 mod 65536) + 16))
             i
         done;
         t))

let query_tree =
  let t = Kondo_interval.Interval_btree.create () in
  for i = 0 to 99_999 do
    Kondo_interval.Interval_btree.insert t
      (Kondo_interval.Interval.make (i * 13 mod 1_000_000) ((i * 13 mod 1_000_000) + 32))
      i
  done;
  t

let test_btree_query =
  Test.make ~name:"interval-btree-stab-100k"
    (Staged.stage (fun () -> Kondo_interval.Interval_btree.stab query_tree 500_000))

let bitset_a = Kondo_dataarray.Bitset.create 1_000_000
let bitset_b = Kondo_dataarray.Bitset.create 1_000_000

let () =
  for i = 0 to 999_999 do
    if i mod 3 = 0 then Kondo_dataarray.Bitset.set bitset_a i;
    if i mod 5 = 0 then Kondo_dataarray.Bitset.set bitset_b i
  done

let test_bitset_inter =
  Test.make ~name:"bitset-inter-1M"
    (Staged.stage (fun () -> Kondo_dataarray.Bitset.inter_cardinal bitset_a bitset_b))

let kh5_bytes =
  let p = Kondo_workload.Stencils.cs ~n:128 1 in
  Kondo_workload.Datafile.bytes_for p

let kh5_file = Kondo_h5.File.open_port (Kondo_audit.Io_port.of_bytes ~path:"mem" kh5_bytes)

let kh5_audited =
  let tracer = Kondo_audit.Tracer.create () in
  Kondo_h5.File.open_port
    (Kondo_audit.Tracer.wrap tracer ~pid:1 (Kondo_audit.Io_port.of_bytes ~path:"mem" kh5_bytes))

let row_slab = Kondo_dataarray.Hyperslab.block_at [| 64; 0 |] [| 1; 128 |]

let test_kh5_read =
  Test.make ~name:"kh5-row-read" (Staged.stage (fun () -> Kondo_h5.File.read_slab kh5_file "data" row_slab (fun _ _ -> ())))

let test_kh5_read_audited =
  Test.make ~name:"kh5-row-read-audited"
    (Staged.stage (fun () -> Kondo_h5.File.read_slab kh5_audited "data" row_slab (fun _ _ -> ())))

let fuzz_program = Kondo_workload.Stencils.ldc2d ~n:64 ()

let test_debloat_test =
  Test.make ~name:"debloat-test-eval"
    (Staged.stage (fun () -> Kondo_workload.Program.access fuzz_program [| 12.0; 12.0 |]))

let tests =
  Test.make_grouped ~name:"kondo"
    [ test_hull2d;
      test_hull3d;
      test_hull_merge;
      test_btree_insert;
      test_btree_query;
      test_bitset_inter;
      test_kh5_read;
      test_kh5_read_audited;
      test_debloat_test ]

let run () =
  Exp_common.header "Microbench" "Bechamel micro-benchmarks of the substrates (ns/run, OLS fit)";
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let est =
          match Analyze.OLS.estimates ols with Some [ e ] -> e | Some (e :: _) -> e | _ -> nan
        in
        (name, est) :: acc)
      results []
    |> List.sort compare
  in
  List.iter
    (fun (name, ns) ->
      if Float.is_nan ns then Printf.printf "  %-28s %14s\n" name "n/a"
      else if ns > 1_000_000.0 then Printf.printf "  %-28s %11.2f ms\n" name (ns /. 1e6)
      else if ns > 1_000.0 then Printf.printf "  %-28s %11.2f us\n" name (ns /. 1e3)
      else Printf.printf "  %-28s %11.0f ns\n" name ns)
    rows
