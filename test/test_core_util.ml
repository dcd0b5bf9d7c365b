(* Tests of the core utility layers: the bitset matrix behind the
   happens-before relation, the sparse vector clocks, and race
   coverage. *)

open Helpers
module Bit_matrix = Droidracer_core.Bit_matrix
module Vector_clock = Droidracer_core.Vector_clock
module Race = Droidracer_core.Race
module Race_coverage = Droidracer_core.Race_coverage
module Detector = Droidracer_core.Detector
module Hb = Droidracer_core.Happens_before

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int

(* {1 Bit_matrix} *)

let test_matrix_basics () =
  let m = Bit_matrix.create 70 in
  check_int "empty" 0 (Bit_matrix.count m);
  Bit_matrix.set m 0 69;
  Bit_matrix.set m 69 0;
  Bit_matrix.set m 63 64;
  check_bool "get set" true (Bit_matrix.get m 0 69);
  check_bool "asymmetric" true (Bit_matrix.get m 69 0);
  check_bool "word boundary" true (Bit_matrix.get m 63 64);
  check_bool "unset" false (Bit_matrix.get m 1 1);
  check_int "count" 3 (Bit_matrix.count m);
  check_bool "bounds" true
    (match Bit_matrix.get m 0 70 with
     | exception Invalid_argument _ -> true
     | _ -> false)

let test_matrix_or_row () =
  let m = Bit_matrix.create 10 in
  Bit_matrix.set m 1 5;
  Bit_matrix.set m 1 9;
  check_bool "or changes" true (Bit_matrix.or_row m ~dst:0 ~src:1);
  check_bool "dst has src bits" true
    (Bit_matrix.get m 0 5 && Bit_matrix.get m 0 9);
  check_bool "idempotent" false (Bit_matrix.or_row m ~dst:0 ~src:1)

let test_matrix_masked_or () =
  let m = Bit_matrix.create 10 in
  Bit_matrix.set m 1 2;
  Bit_matrix.set m 1 3;
  let mask = Bit_matrix.Mask.create 10 in
  Bit_matrix.Mask.set mask 2;
  ignore (Bit_matrix.or_row_masked m ~dst:0 ~src:1 ~mask);
  check_bool "masked keeps 2" true (Bit_matrix.get m 0 2);
  check_bool "masked drops 3" false (Bit_matrix.get m 0 3);
  ignore (Bit_matrix.or_row_masked_compl m ~dst:4 ~src:1 ~mask);
  check_bool "complement drops 2" false (Bit_matrix.get m 4 2);
  check_bool "complement keeps 3" true (Bit_matrix.get m 4 3)

let prop_matrix_iter_row =
  QCheck2.Test.make ~name:"iter_row visits exactly the set bits" ~count:100
    QCheck2.Gen.(pair (int_range 1 200) (list_size (int_bound 30) (int_bound 10_000)))
    (fun (n, bits) ->
       let m = Bit_matrix.create n in
       let expected =
         List.sort_uniq compare (List.map (fun b -> b mod n) bits)
       in
       List.iter (fun j -> Bit_matrix.set m 0 j) expected;
       let visited = ref [] in
       Bit_matrix.iter_row m 0 (fun j -> visited := j :: !visited);
       List.rev !visited = expected)

(* {1 Vector_clock} *)

let clock_of = List.fold_left (fun c (s, v) -> Vector_clock.set c s v) Vector_clock.empty

let test_clock_basics () =
  let c = clock_of [ (1, 3); (5, 7) ] in
  check_int "get" 3 (Vector_clock.get c 1);
  check_int "missing reads 0" 0 (Vector_clock.get c 2);
  let c = Vector_clock.tick c 1 in
  check_int "tick" 4 (Vector_clock.get c 1);
  check_int "cardinal" 2 (Vector_clock.cardinal c);
  (* a zero entry is not stored *)
  check_int "zero removed" 1 (Vector_clock.cardinal (Vector_clock.set c 1 0))

let vc_gen =
  QCheck2.Gen.(
    map
      (fun l -> clock_of (List.map (fun (s, v) -> (s mod 8, 1 + (v mod 50))) l))
      (list_size (int_bound 8) (pair (int_bound 100) (int_bound 100))))

let prop_merge_upper_bound =
  QCheck2.Test.make ~name:"merge is the least upper bound" ~count:200
    QCheck2.Gen.(pair vc_gen vc_gen)
    (fun (a, b) ->
       let m = Vector_clock.merge a b in
       Vector_clock.leq a m && Vector_clock.leq b m
       &&
       (* pointwise max, hence least *)
       List.for_all
         (fun slot ->
            Vector_clock.get m slot
            = max (Vector_clock.get a slot) (Vector_clock.get b slot))
         (List.init 10 Fun.id))

let prop_merge_laws =
  QCheck2.Test.make ~name:"merge is commutative, associative, idempotent"
    ~count:200
    QCheck2.Gen.(triple vc_gen vc_gen vc_gen)
    (fun (a, b, c) ->
       let eq x y = Vector_clock.leq x y && Vector_clock.leq y x in
       eq (Vector_clock.merge a b) (Vector_clock.merge b a)
       && eq
            (Vector_clock.merge a (Vector_clock.merge b c))
            (Vector_clock.merge (Vector_clock.merge a b) c)
       && eq (Vector_clock.merge a a) a)

let prop_leq_partial_order =
  QCheck2.Test.make ~name:"leq is a partial order" ~count:200
    QCheck2.Gen.(triple vc_gen vc_gen vc_gen)
    (fun (a, b, c) ->
       Vector_clock.leq a a
       && ((not (Vector_clock.leq a b && Vector_clock.leq b c))
           || Vector_clock.leq a c))

(* Model-based: random operation sequences applied to two clocks, [a]
   and [b], and to a [Map] reference of each.  Copying one clock into
   the other, then ticking one of them, yields the dominating and equal
   merge cases; resetting one and filling it afresh yields disjoint and
   overlapping ones.  Each side remembers the slot it ticked last (the
   owner of the flat representation), so ticks and retains can aim at
   it. *)

module Ref_clock = Map.Make (Int)

type side = A | B

type clock_op =
  | Set of side * int * int
  | Tick of side * int
  | Tick_owner of side
  | Merge of side * bool  (** into [side]; [true] puts [side] on the left *)
  | Copy of side  (** [side] := the other *)
  | Reset of side
  | Retain of side * int  (** keep slots not divisible by the modulus *)
  | Retain_drop_owner of side

let show_side = function A -> "a" | B -> "b"

let show_clock_op = function
  | Set (s, slot, v) -> Printf.sprintf "set %s %d %d" (show_side s) slot v
  | Tick (s, slot) -> Printf.sprintf "tick %s %d" (show_side s) slot
  | Tick_owner s -> Printf.sprintf "tick_owner %s" (show_side s)
  | Merge (s, left) -> Printf.sprintf "merge %s %b" (show_side s) left
  | Copy s -> Printf.sprintf "copy %s" (show_side s)
  | Reset s -> Printf.sprintf "reset %s" (show_side s)
  | Retain (s, m) -> Printf.sprintf "retain %s %d" (show_side s) m
  | Retain_drop_owner s -> Printf.sprintf "retain_drop_owner %s" (show_side s)

let clock_op_gen =
  QCheck2.Gen.(
    let side = oneofl [ A; B ] and slot = int_bound 11 in
    frequency
      [ (2, map3 (fun s slot v -> Set (s, slot, v)) side slot (int_bound 9))
      ; (3, map2 (fun s slot -> Tick (s, slot)) side slot)
      ; (4, map (fun s -> Tick_owner s) side)
      ; (4, map2 (fun s left -> Merge (s, left)) side bool)
      ; (1, map (fun s -> Copy s) side)
      ; (1, map (fun s -> Reset s) side)
      ; (1, map2 (fun s m -> Retain (s, m)) side (int_range 2 4))
      ; (1, map (fun s -> Retain_drop_owner s) side)
      ])

type model_side =
  { vc : Vector_clock.t
  ; model : int Ref_clock.t
  ; last_ticked : int option
  }

let empty_side =
  { vc = Vector_clock.empty; model = Ref_clock.empty; last_ticked = None }

let ref_get m slot = Option.value ~default:0 (Ref_clock.find_opt slot m)

let apply_clock_op (a, b) op =
  let pick s = if s = A then a else b in
  let other s = if s = A then b else a in
  let put s x = if s = A then (x, b) else (a, x) in
  let tick x slot =
    { vc = Vector_clock.tick x.vc slot
    ; model = Ref_clock.add slot (ref_get x.model slot + 1) x.model
    ; last_ticked = Some slot
    }
  in
  let retain x keep =
    { x with
      vc = Vector_clock.retain keep x.vc
    ; model = Ref_clock.filter (fun slot _ -> keep slot) x.model
    }
  in
  match op with
  | Set (s, slot, v) ->
    let x = pick s in
    put s
      { x with
        vc = Vector_clock.set x.vc slot v
      ; model =
          (if v = 0 then Ref_clock.remove slot x.model
           else Ref_clock.add slot v x.model)
      }
  | Tick (s, slot) -> put s (tick (pick s) slot)
  | Tick_owner s ->
    let x = pick s in
    put s (tick x (Option.value ~default:0 x.last_ticked))
  | Merge (s, left) ->
    let x = pick s and y = other s in
    let vc =
      if left then Vector_clock.merge x.vc y.vc else Vector_clock.merge y.vc x.vc
    in
    put s
      { x with
        vc
      ; model = Ref_clock.union (fun _ u v -> Some (max u v)) x.model y.model
      }
  | Copy s -> put s (other s)
  | Reset s -> put s empty_side
  | Retain (s, m) -> put s (retain (pick s) (fun slot -> slot mod m <> 0))
  | Retain_drop_owner s ->
    let x = pick s in
    put s (retain x (fun slot -> Some slot <> x.last_ticked))

let ref_leq m n = Ref_clock.for_all (fun slot v -> v <= ref_get n slot) m

let agrees (a, b) =
  let side x =
    List.for_all
      (fun slot -> Vector_clock.get x.vc slot = ref_get x.model slot)
      (List.init 13 Fun.id)
    && Vector_clock.cardinal x.vc = Ref_clock.cardinal x.model
  in
  side a && side b
  && Vector_clock.leq a.vc b.vc = ref_leq a.model b.model
  && Vector_clock.leq b.vc a.vc = ref_leq b.model a.model

let prop_clock_matches_map_model =
  QCheck2.Test.make ~name:"clock agrees with a Map model after every step"
    ~count:500
    ~print:QCheck2.Print.(list show_clock_op)
    QCheck2.Gen.(list_size (int_range 1 60) clock_op_gen)
    (fun ops ->
       let rec run state = function
         | [] -> true
         | op :: rest ->
           let state = apply_clock_op state op in
           agrees state && run state rest
       in
       run (empty_side, empty_side) ops)

(* {1 Race coverage properties} *)

let prop_coverage_partitions =
  QCheck2.Test.make ~name:"coverage groups partition the race set" ~count:40
    QCheck2.Gen.(pair (int_bound 100_000) (int_range 5 100))
    (fun (seed, size) ->
       (* positions must refer to the cancellation-filtered trace the
          relation is computed on *)
       let t = Trace.remove_cancelled (Random_trace.generate ~seed ~size ()) in
       let hb = Detector.relation t in
       let races = Race.detect t ~hb:(Hb.hb hb) in
       let groups = Race_coverage.group ~hb races in
       let members =
         List.concat_map
           (fun g -> g.Race_coverage.root :: g.Race_coverage.covered)
           groups
       in
       List.length members = List.length races
       && List.for_all (fun r -> List.memq r members) races)

let prop_coverage_roots_cover =
  QCheck2.Test.make ~name:"every covered race is covered by its root" ~count:40
    QCheck2.Gen.(pair (int_bound 100_000) (int_range 5 100))
    (fun (seed, size) ->
       let t = Trace.remove_cancelled (Random_trace.generate ~seed ~size ()) in
       let hb = Detector.relation t in
       let races = Race.detect t ~hb:(Hb.hb hb) in
       let le i j = Hb.hb_or_eq hb i j in
       List.for_all
         (fun g ->
            let c = g.Race_coverage.root.Race.first.position
            and d = g.Race_coverage.root.Race.second.position in
            List.for_all
              (fun (r : Race.t) ->
                 let a = r.first.position and b = r.second.position in
                 (le a c && le d b) || (le a d && le c b))
              g.Race_coverage.covered)
         (Race_coverage.group ~hb races))

let () =
  Alcotest.run "core_util"
    [ ( "bit matrix"
      , [ Alcotest.test_case "basics" `Quick test_matrix_basics
        ; Alcotest.test_case "or_row" `Quick test_matrix_or_row
        ; Alcotest.test_case "masked or" `Quick test_matrix_masked_or
        ; QCheck_alcotest.to_alcotest prop_matrix_iter_row
        ] )
    ; ( "vector clock"
      , [ Alcotest.test_case "basics" `Quick test_clock_basics
        ; QCheck_alcotest.to_alcotest prop_merge_upper_bound
        ; QCheck_alcotest.to_alcotest prop_merge_laws
        ; QCheck_alcotest.to_alcotest prop_leq_partial_order
        ; QCheck_alcotest.to_alcotest prop_clock_matches_map_model
        ] )
    ; ( "race coverage"
      , [ QCheck_alcotest.to_alcotest prop_coverage_partitions
        ; QCheck_alcotest.to_alcotest prop_coverage_roots_cover
        ] )
    ]
