open Kondo_prng

type policy = {
  max_attempts : int;
  base_delay_ms : float;
  max_delay_ms : float;
  multiplier : float;
  jitter : float;
  deadline_ms : float;
}

let default =
  { max_attempts = 4;
    base_delay_ms = 10.0;
    max_delay_ms = 1000.0;
    multiplier = 2.0;
    jitter = 0.5;
    deadline_ms = 5000.0 }

let validate p =
  if p.max_attempts < 1 then invalid_arg "Retry: max_attempts must be >= 1";
  if p.base_delay_ms < 0.0 || p.max_delay_ms < 0.0 then invalid_arg "Retry: negative delay";
  if p.multiplier < 1.0 then invalid_arg "Retry: multiplier must be >= 1";
  if p.jitter < 0.0 || p.jitter > 1.0 then invalid_arg "Retry: jitter outside [0,1]";
  if p.deadline_ms < 0.0 then invalid_arg "Retry: negative deadline"

(* Backoff before retrying after the [attempt]-th failure (attempt >= 1):
   capped exponential, shrunk by up to [jitter] of itself.  Jitter only
   shrinks, so the cap is also the worst case. *)
let delay p ~rng ~attempt =
  let raw = p.base_delay_ms *. (p.multiplier ** float_of_int (attempt - 1)) in
  let capped = Float.min p.max_delay_ms raw in
  capped *. (1.0 -. (p.jitter *. Rng.float rng 1.0))

let delays p ~rng n = List.init n (fun i -> delay p ~rng ~attempt:(i + 1))

type 'a outcome = {
  result : ('a, Fault.error) result;
  attempts : int;
  elapsed_ms : float;
}

let retries o = o.attempts - 1

let run ?on_retry p ~rng f =
  validate p;
  let rec go attempt elapsed =
    match f ~attempt with
    | Ok v -> { result = Ok v; attempts = attempt; elapsed_ms = elapsed }
    | Error e ->
      let elapsed = elapsed +. Fault.cost_ms e in
      if (not (Fault.is_retryable e)) || attempt >= p.max_attempts then
        { result = Error e; attempts = attempt; elapsed_ms = elapsed }
      else begin
        let d = delay p ~rng ~attempt in
        if elapsed +. d > p.deadline_ms then
          { result = Error e; attempts = attempt; elapsed_ms = elapsed }
        else begin
          (match on_retry with Some g -> g attempt e | None -> ());
          go (attempt + 1) (elapsed +. d)
        end
      end
  in
  go 1 0.0
