(* Pure arithmetic behind the benchmark's numbers, kept apart from the
   simulation so the tests can pin it. *)

let median = function
  | [] -> invalid_arg "Pstats.median: empty"
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* A percentile is reported only when at least [min_beyond] samples lie
   beyond it; otherwise the tail is a handful of outliers, or just the
   maximum. *)
let min_beyond = 10

let samples_beyond ~n ~pct =
  int_of_float (Float.floor (float_of_int n *. (100.0 -. pct) /. 100.0 +. 1e-9))

let tail_ok ~n ~pct = samples_beyond ~n ~pct >= min_beyond

(* Smallest sample count whose p99 has [min_beyond] samples beyond it. *)
let min_samples_for_p99 = 1000

let share ~num ~den = if den <= 0 then 0.0 else float_of_int num /. float_of_int den

(* Failures over attempts for each workload.  A delivered share of
   1 - failed_share is what the end-to-end metric reports, since a share
   that is 0 on every good run cannot carry a relative bound. *)
type outcome = { attempted : int; failed : int }

let failed_share o = share ~num:o.failed ~den:o.attempted

(* bulk_tcp: bytes offered by the sender that the receiver never got. *)
let bulk_outcome ~offered ~delivered =
  { attempted = offered; failed = max 0 (offered - delivered) }

(* rr_loaded: transactions not completed plus background datagrams not
   received, over transactions and datagrams attempted. *)
let rr_outcome ~transactions ~completed ~bg_sent ~bg_received =
  {
    attempted = transactions + bg_sent;
    failed = max 0 (transactions - completed) + max 0 (bg_sent - bg_received);
  }

(* mesh_churn: pings that timed out over pings sent. *)
let mesh_outcome ~pings ~timeouts = { attempted = pings; failed = timeouts }
