type t = { jobs : int; busy : bool Atomic.t }

(* Set in each worker domain for the duration of its task loop; consulted
   to reject nested fan-out (the caller's domain never sets it, and the
   jobs = 1 path spawns no workers, so sequential nesting stays legal). *)
let inside_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let max_jobs = 64

(* Fan-out observability: task/spawn counters plus a queue-wait
   histogram (seconds between fan-out start and a task being picked
   up).  Counters are domain-safe atomic cells; the per-task clock
   read is two orders of magnitude below any real task body. *)
let m_fanouts =
  lazy
    (Kondo_obs.Registry.counter ~help:"Pool fan-outs (map_reduce/map_list calls)"
       Kondo_obs.Registry.default "kondo_pool_fanouts_total")

let m_tasks =
  lazy
    (Kondo_obs.Registry.counter ~help:"Tasks executed by pool workers"
       Kondo_obs.Registry.default "kondo_pool_tasks_total")

let m_spawns =
  lazy
    (Kondo_obs.Registry.counter ~help:"Worker domains spawned by pool fan-outs"
       Kondo_obs.Registry.default "kondo_pool_worker_spawns_total")

let m_wait =
  lazy
    (Kondo_obs.Registry.histogram
       ~help:"Seconds between fan-out start and task pick-up"
       Kondo_obs.Registry.default "kondo_pool_task_wait_seconds")

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  { jobs = min jobs max_jobs; busy = Atomic.make false }

let jobs t = t.jobs

let default_jobs () = Domain.recommended_domain_count ()

(* Evaluate [f i] for i in [0, n); the result array is indexed by task so
   callers can consume it in task order whatever the execution order. *)
let run_tasks t n f =
  Kondo_obs.Registry.inc (Lazy.force m_fanouts);
  let tasks = Lazy.force m_tasks and wait = Lazy.force m_wait in
  let t_start = Kondo_obs.Clock.now Kondo_obs.Clock.real in
  let capture i =
    Kondo_obs.Registry.observe wait
      (Float.max 0.0 (Kondo_obs.Clock.now Kondo_obs.Clock.real -. t_start));
    Kondo_obs.Registry.inc tasks;
    try Ok (f i) with e -> Error (e, Printexc.get_raw_backtrace ())
  in
  let results = Array.make n None in
  Kondo_obs.Obs.span "pool.fan_out"
    ~args:[ ("tasks", string_of_int n); ("jobs", string_of_int t.jobs) ]
    (fun () ->
      if t.jobs = 1 || n <= 1 then
        for i = 0 to n - 1 do
          results.(i) <- Some (capture i)
        done
      else begin
        if Domain.DLS.get inside_worker then
          invalid_arg "Pool: nested use — map_reduce called from inside a worker task";
        if not (Atomic.compare_and_set t.busy false true) then
          invalid_arg "Pool: this pool is already running a map_reduce";
        Fun.protect
          ~finally:(fun () -> Atomic.set t.busy false)
          (fun () ->
            let next = Atomic.make 0 in
            let worker () =
              Domain.DLS.set inside_worker true;
              let rec loop () =
                let i = Atomic.fetch_and_add next 1 in
                if i < n then begin
                  results.(i) <- Some (capture i);
                  loop ()
                end
              in
              loop ()
            in
            let spawned = min t.jobs n in
            Kondo_obs.Registry.inc ~by:spawned (Lazy.force m_spawns);
            let domains = List.init spawned (fun _ -> Domain.spawn worker) in
            List.iter Domain.join domains)
      end);
  results

let map_reduce t ~n ~map ~reduce ~init =
  if n < 0 then invalid_arg "Pool.map_reduce: n must be >= 0";
  let results = run_tasks t n map in
  (* Leftmost failure wins, deterministically, before any reduction. *)
  Array.iter
    (function
      | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
      | Some (Ok _) | None -> ())
    results;
  Array.fold_left
    (fun acc r -> match r with Some (Ok v) -> reduce acc v | _ -> assert false)
    init results

let map_list t f xs =
  let arr = Array.of_list xs in
  let out =
    map_reduce t ~n:(Array.length arr) ~map:(fun i -> f arr.(i))
      ~reduce:(fun acc v -> v :: acc) ~init:[]
  in
  List.rev out
