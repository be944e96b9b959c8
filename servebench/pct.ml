(* Percentiles that refuse to report a tail the sample cannot support. *)

(* Samples that must lie strictly above a reported percentile. *)
let min_beyond = 10

(* Nearest-rank [q]-percentile of [sorted] (ascending), or [Error] when
   fewer than [min_beyond] samples lie beyond it — e.g. a p99 needs at
   least 1000 samples.  Failed operations are [infinity]: they miss
   every latency limit. *)
let percentile sorted q =
  let n = Array.length sorted in
  let rank = int_of_float (Float.ceil (q *. float n)) in
  let rank = max 1 (min n rank) in
  if n - rank < min_beyond then
    Error
      (Printf.sprintf "p%g of %d samples has %d beyond it (need %d)" (q *. 100.) n
         (n - rank) min_beyond)
  else Ok sorted.(rank - 1)

let sorted_of_list xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Plain median of a small set of repeated measurements (no tail
   requirement: e.g. the set-up times of one run). *)
let median xs =
  let a = sorted_of_list xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
