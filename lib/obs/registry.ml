(* A series is one cell.  An instance counter is its own cell plus
   [link], the cell of its series: an increment adds to both, so the
   instance reads its own count and the exposition sees the sum over
   every instance. *)
type counter = { cell : int Atomic.t; link : int Atomic.t option }

type histogram = {
  bounds : float array; (* strictly increasing upper bounds, no +Inf *)
  h_lock : Mutex.t; (* guards the three fields below *)
  h_counts : int array; (* per-bucket, +Inf last *)
  mutable h_sum : float;
  mutable h_count : int;
}

type instrument =
  | Counter of counter
  | Histogram of histogram

(* One metric name: its help and its series, keyed by rendered label set
   ([""] for the unlabelled series). *)
type entry = { help : string; mutable series : (string * instrument) list }

type t = { lock : Mutex.t; tbl : (string, entry) Hashtbl.t }

let create () = { lock = Mutex.create (); tbl = Hashtbl.create 64 }

let default = create ()

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let kind_name = function
  | Counter _ -> "counter"
  | Histogram _ -> "histogram"

(* [k="v",...] sorted by label name: the series key and its exposition.
   [%S] escapes backslashes, double quotes and newlines as Prometheus
   does; label values are ASCII. *)
let label_text labels =
  String.concat ","
    (List.map
       (fun (k, v) -> Printf.sprintf "%s=%S" k v)
       (List.sort (fun (a, _) (b, _) -> String.compare a b) labels))

(* Get-or-create under the registry lock; the first registration's help
   (and buckets) win, a kind clash is a programming error. *)
let register ?(labels = []) t name ~help ~make ~select =
  if name = "" then invalid_arg "Registry: empty metric name";
  let key = label_text labels in
  locked t (fun () ->
      let e =
        match Hashtbl.find_opt t.tbl name with
        | Some e -> e
        | None ->
          let e = { help; series = [] } in
          Hashtbl.add t.tbl name e;
          e
      in
      (match e.series with
      | (_, instr) :: _ when Option.is_none (select instr) ->
        invalid_arg
          (Printf.sprintf "Registry: %s already registered as a %s" name (kind_name instr))
      | _ -> ());
      match List.assoc_opt key e.series with
      | Some instr -> Option.get (select instr)
      | None ->
        let v, instr = make () in
        e.series <- (key, instr) :: e.series;
        v)

let counter ?(help = "") ?labels t name =
  register ?labels t name ~help
    ~make:(fun () ->
      let c = { cell = Atomic.make 0; link = None } in
      (c, Counter c))
    ~select:(function Counter c -> Some c | _ -> None)

let instance ?help ?labels t name =
  let series = counter ?help ?labels t name in
  { cell = Atomic.make 0; link = Some series.cell }

let inc ?(by = 1) c =
  if by < 0 then invalid_arg "Registry.inc: negative increment";
  if by > 0 then begin
    ignore (Atomic.fetch_and_add c.cell by);
    match c.link with
    | Some series -> ignore (Atomic.fetch_and_add series by)
    | None -> ()
  end

let counter_value c = Atomic.get c.cell

let default_buckets =
  [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1.0; 10.0 |]

let histogram ?(help = "") ?(buckets = default_buckets) ?labels t name =
  if Array.length buckets = 0 then invalid_arg "Registry.histogram: no buckets";
  Array.iteri
    (fun i b -> if i > 0 && b <= buckets.(i - 1) then
        invalid_arg "Registry.histogram: buckets must be strictly increasing")
    buckets;
  register ?labels t name ~help
    ~make:(fun () ->
      let h =
        { bounds = Array.copy buckets;
          h_lock = Mutex.create ();
          h_counts = Array.make (Array.length buckets + 1) 0;
          h_sum = 0.0;
          h_count = 0 }
      in
      (h, Histogram h))
    ~select:(function Histogram h -> Some h | _ -> None)

let bucket_of h v =
  let n = Array.length h.bounds in
  let rec go i = if i >= n then n else if v <= h.bounds.(i) then i else go (i + 1) in
  go 0

let observe h v =
  let i = bucket_of h v in
  Mutex.lock h.h_lock;
  h.h_counts.(i) <- h.h_counts.(i) + 1;
  h.h_sum <- h.h_sum +. v;
  h.h_count <- h.h_count + 1;
  Mutex.unlock h.h_lock

(* One consistent read under the lock: (cumulative buckets, sum, count). *)
let histogram_snapshot h =
  Mutex.lock h.h_lock;
  let counts = Array.copy h.h_counts and sum = h.h_sum and count = h.h_count in
  Mutex.unlock h.h_lock;
  let n = Array.length h.bounds in
  let acc = ref 0 in
  let buckets =
    List.init (n + 1) (fun i ->
        acc := !acc + counts.(i);
        ((if i = n then infinity else h.bounds.(i)), !acc))
  in
  (buckets, sum, count)

let histogram_count h =
  let _, _, count = histogram_snapshot h in
  count

let histogram_buckets h =
  let buckets, _, _ = histogram_snapshot h in
  buckets

(* Every series as (name, help, label text, instrument), sorted by name
   then label text. *)
let sorted_series t =
  locked t (fun () ->
      Hashtbl.fold
        (fun name e acc ->
          List.fold_left (fun acc (key, instr) -> (name, e.help, key, instr) :: acc) acc e.series)
        t.tbl [])
  |> List.sort (fun (n1, _, k1, _) (n2, _, k2, _) ->
         match String.compare n1 n2 with 0 -> String.compare k1 k2 | c -> c)

let le_string b = if b = infinity then "+Inf" else Jsonw.number b

(* [name{labels}], or the bare name for the unlabelled series. *)
let series_name name key = if key = "" then name else name ^ "{" ^ key ^ "}"

(* A histogram's bucket labels: the series' own, then [le]. *)
let bucket_labels key bound =
  (if key = "" then "" else key ^ ",") ^ "le=\"" ^ le_string bound ^ "\""

let expose t =
  let b = Buffer.create 1024 in
  let line fmt = Printf.bprintf b fmt in
  let last = ref "" in
  List.iter
    (fun (name, help, key, instr) ->
      if name <> !last then begin
        last := name;
        if help <> "" then line "# HELP %s %s\n" name help;
        line "# TYPE %s %s\n" name (kind_name instr)
      end;
      match instr with
      | Counter c -> line "%s %d\n" (series_name name key) (counter_value c)
      | Histogram h ->
        let buckets, sum, count = histogram_snapshot h in
        List.iter
          (fun (bound, cum) -> line "%s_bucket{%s} %d\n" name (bucket_labels key bound) cum)
          buckets;
        line "%s %s\n" (series_name (name ^ "_sum") key) (Jsonw.number sum);
        line "%s %d\n" (series_name (name ^ "_count") key) count)
    (sorted_series t);
  Buffer.contents b

let to_json t =
  let counters = ref [] and histograms = ref [] in
  List.iter
    (fun (name, _, key, instr) ->
      let name = series_name name key in
      match instr with
      | Counter c -> counters := (name, string_of_int (counter_value c)) :: !counters
      | Histogram h ->
        let buckets, sum, count = histogram_snapshot h in
        let buckets =
          Jsonw.arr
            (List.map
               (fun (bound, cum) ->
                 Jsonw.obj
                   [ ("le", Jsonw.str (le_string bound)); ("count", string_of_int cum) ])
               buckets)
        in
        histograms :=
          ( name,
            Jsonw.obj
              [ ("buckets", buckets);
                ("sum", Jsonw.number sum);
                ("count", string_of_int count) ] )
          :: !histograms)
    (sorted_series t);
  Jsonw.obj
    [ ("counters", Jsonw.obj (List.rev !counters));
      ("histograms", Jsonw.obj (List.rev !histograms)) ]

let reset t =
  List.iter
    (fun (_, _, _, instr) ->
      match instr with
      | Counter c -> Atomic.set c.cell 0
      | Histogram h ->
        Mutex.lock h.h_lock;
        Array.fill h.h_counts 0 (Array.length h.h_counts) 0;
        h.h_sum <- 0.0;
        h.h_count <- 0;
        Mutex.unlock h.h_lock)
    (sorted_series t)
