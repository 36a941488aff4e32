type t = { vertices : float array array }

exception Degenerate

let compare_xy a b =
  match Float.compare a.(0) b.(0) with 0 -> Float.compare a.(1) b.(1) | c -> c

let dedup_sorted points =
  let rec go acc = function
    | [] -> List.rev acc
    | [ p ] -> List.rev (p :: acc)
    | p :: (q :: _ as rest) -> if compare_xy p q = 0 then go acc rest else go (p :: acc) rest
  in
  go [] points

(* One monotone chain: keeps only points making strict right->left turns,
   dropping collinear interior points. *)
let build_chain points =
  let chain = ref [] in
  let push p =
    let rec pop = function
      | a :: b :: rest when Vec.cross2 b a p <= 1e-12 -> pop (b :: rest)
      | l -> l
    in
    chain := p :: pop !chain
  in
  List.iter push points;
  !chain

let of_points points =
  List.iter (fun p -> assert (Array.length p = 2)) points;
  let sorted = dedup_sorted (List.sort compare_xy points) in
  if List.length sorted < 3 then raise Degenerate;
  let lower = build_chain sorted in
  let upper = build_chain (List.rev sorted) in
  (* Each chain ends with its last input point at the head; drop the head of
     each chain to avoid duplicating the two extreme points. *)
  let strip = function [] -> [] | _ :: rest -> rest in
  let ccw = List.rev_append (strip upper) (List.rev (strip lower)) in
  if List.length ccw < 3 then raise Degenerate;
  { vertices = Array.of_list ccw }

let vertices t = Array.to_list t.vertices

let contains ?(eps = 1e-7) t p =
  let n = Array.length t.vertices in
  let ok = ref true in
  for i = 0 to n - 1 do
    let a = t.vertices.(i) and b = t.vertices.((i + 1) mod n) in
    (* Scale tolerance with edge length so long integer edges keep working. *)
    let tol = eps *. (1.0 +. Vec.dist a b) in
    if Vec.cross2 a b p < -.tol then ok := false
  done;
  !ok

let area t =
  let n = Array.length t.vertices in
  let s = ref 0.0 in
  for i = 0 to n - 1 do
    let a = t.vertices.(i) and b = t.vertices.((i + 1) mod n) in
    s := !s +. ((a.(0) *. b.(1)) -. (b.(0) *. a.(1)))
  done;
  Float.abs !s /. 2.0
