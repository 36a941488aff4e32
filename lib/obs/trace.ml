type phase = Complete | Instant

type event = {
  ev_name : string;
  ev_cat : string;
  ph : phase;
  ts_us : float;
  dur_us : float;
  tid : int;
  ev_args : (string * string) list;
  seq : int; (* recording order, the sort tiebreak *)
}

type t = {
  t_clock : Clock.t;
  lock : Mutex.t;
  mutable events : event list; (* newest first *)
  mutable next_seq : int;
}

let create ?(clock = Clock.real) () =
  { t_clock = clock; lock = Mutex.create (); events = []; next_seq = 0 }

let clock t = t.t_clock

type span = {
  s_name : string;
  s_cat : string;
  s_args : (string * string) list;
  s_t0 : float;
  s_tid : int;
}

let us s = s *. 1e6

let record t ev =
  Mutex.lock t.lock;
  let ev = { ev with seq = t.next_seq } in
  t.next_seq <- t.next_seq + 1;
  t.events <- ev :: t.events;
  Mutex.unlock t.lock

let begin_span t ?(cat = "kondo") ?(args = []) name =
  { s_name = name;
    s_cat = cat;
    s_args = args;
    s_t0 = Clock.now t.t_clock;
    s_tid = (Domain.self () :> int) }

let end_span t ?(args = []) s =
  let t1 = Clock.now t.t_clock in
  record t
    { ev_name = s.s_name;
      ev_cat = s.s_cat;
      ph = Complete;
      ts_us = us s.s_t0;
      dur_us = us (Float.max 0.0 (t1 -. s.s_t0));
      tid = s.s_tid;
      ev_args = s.s_args @ args;
      seq = 0 }

let with_span t ?cat ?args name f =
  let s = begin_span t ?cat ?args name in
  match f () with
  | v ->
    end_span t s;
    v
  | exception e ->
    end_span t ~args:[ ("error", Printexc.to_string e) ] s;
    raise e

let instant t ?(cat = "kondo") ?(args = []) name =
  record t
    { ev_name = name;
      ev_cat = cat;
      ph = Instant;
      ts_us = us (Clock.now t.t_clock);
      dur_us = 0.0;
      tid = (Domain.self () :> int);
      ev_args = args;
      seq = 0 }

let span_totals t =
  let tbl = Hashtbl.create 16 in
  Mutex.lock t.lock;
  List.iter
    (fun ev ->
      if ev.ph = Complete then begin
        let s, n = Option.value ~default:(0.0, 0) (Hashtbl.find_opt tbl ev.ev_name) in
        Hashtbl.replace tbl ev.ev_name (s +. (ev.dur_us /. 1e6), n + 1)
      end)
    t.events;
  Mutex.unlock t.lock;
  List.sort compare (Hashtbl.fold (fun name (s, n) acc -> (name, s, n) :: acc) tbl [])

let event_count t =
  Mutex.lock t.lock;
  let n = List.length t.events in
  Mutex.unlock t.lock;
  n

(* Sorted snapshot: by timestamp, then domain, then recording order
   reversed — at equal timestamps a later-recorded span is the parent
   (it ended after its children), and parents must precede children. *)
let sorted_events t =
  Mutex.lock t.lock;
  let evs = t.events in
  Mutex.unlock t.lock;
  List.sort
    (fun a b ->
      match compare a.ts_us b.ts_us with
      | 0 -> (
        match compare a.tid b.tid with 0 -> compare b.seq a.seq | c -> c)
      | c -> c)
    evs

(* Fixed-point microseconds: epoch timestamps need 16 significant digits,
   which [Jsonw.number]'s 12 would round to tens of milliseconds. *)
let us_json v = if Float.is_integer v then Printf.sprintf "%.1f" v else Printf.sprintf "%.3f" v

let event_json ev =
  let base =
    [ ("name", Jsonw.str ev.ev_name);
      ("cat", Jsonw.str ev.ev_cat);
      ("ph", Jsonw.str (match ev.ph with Complete -> "X" | Instant -> "i"));
      ("ts", us_json ev.ts_us);
      ("pid", "0");
      ("tid", string_of_int ev.tid) ]
  in
  let dur = match ev.ph with Complete -> [ ("dur", us_json ev.dur_us) ] | Instant -> [] in
  let scope = match ev.ph with Instant -> [ ("s", Jsonw.str "t") ] | Complete -> [] in
  let args =
    match ev.ev_args with
    | [] -> []
    | kvs -> [ ("args", Jsonw.obj (List.map (fun (k, v) -> (k, Jsonw.str v)) kvs)) ]
  in
  Jsonw.obj (base @ dur @ scope @ args)

let to_chrome_json t =
  Jsonw.obj [ ("traceEvents", Jsonw.arr (List.map event_json (sorted_events t))) ]

let args_suffix = function
  | [] -> ""
  | kvs -> " (" ^ String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) kvs) ^ ")"

let to_text_tree t =
  let evs = sorted_events t in
  let tids = List.sort_uniq compare (List.map (fun e -> e.tid) evs) in
  let b = Buffer.create 512 in
  List.iter
    (fun tid ->
      Buffer.add_string b (Printf.sprintf "[tid %d]\n" tid);
      (* stack of end timestamps of the open ancestors *)
      let stack = ref [] in
      List.iter
        (fun ev ->
          if ev.tid = tid then begin
            while
              match !stack with
              | [] -> false
              | end_ts :: _ -> ev.ts_us >= end_ts
            do
              stack := List.tl !stack
            done;
            let indent = String.make (2 * (1 + List.length !stack)) ' ' in
            (match ev.ph with
            | Complete ->
              Buffer.add_string b
                (Printf.sprintf "%s%s %sus%s\n" indent ev.ev_name (Jsonw.number ev.dur_us)
                   (args_suffix ev.ev_args));
              stack := (ev.ts_us +. ev.dur_us) :: !stack
            | Instant ->
              Buffer.add_string b
                (Printf.sprintf "%s@%s%s\n" indent ev.ev_name (args_suffix ev.ev_args)))
          end)
        evs)
    tids;
  Buffer.contents b
