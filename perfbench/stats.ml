(* Order statistics over float samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks (numpy's default); [nan]
   on no samples. *)
let quantile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else begin
    let h = q *. float_of_int (n - 1) in
    let i = truncate h in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((h -. float_of_int i) *. (a.(i + 1) -. a.(i)))
  end

let median xs = quantile xs 0.5

(* How many samples lie strictly above the [q] quantile: a tail
   percentile is only worth reporting when this is at least 10. *)
let beyond xs q =
  let v = quantile xs q in
  List.length (List.filter (fun x -> x > v) xs)

let sum xs = List.fold_left ( +. ) 0.0 xs
