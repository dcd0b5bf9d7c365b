(* Invariants: [rest] holds the pairs [| s0; v0; s1; v1; ... |] with
   strictly increasing slots and positive times, and never the owner's
   slot.  [owner = -1] means no owner, and then [otime = 0]; an owner
   with [otime = 0] reads as absent. *)
type t =
  { owner : int
  ; otime : int
  ; rest : int array
  }

let empty = { owner = -1; otime = 0; rest = [||] }

(* The pair index of [slot] in [rest], or [-(i + 1)] when it is absent
   and would be inserted at pair index [i]. *)
let find (rest : int array) slot =
  let rec go lo hi =
    if lo >= hi then -lo - 1
    else
      let mid = (lo + hi) lsr 1 in
      let s = Array.unsafe_get rest (2 * mid) in
      if s = slot then mid else if s < slot then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length rest / 2)

let get_rest (rest : int array) slot =
  let i = find rest slot in
  if i >= 0 then rest.((2 * i) + 1) else 0

let get t slot = if slot = t.owner then t.otime else get_rest t.rest slot

(* [Array.blit] for int arrays: the generic one goes through the write
   barrier word by word when [dst] lives in the major heap. *)
let copy (src : int array) i (dst : int array) k len =
  for d = 0 to len - 1 do
    Array.unsafe_set dst (k + d) (Array.unsafe_get src (i + d))
  done

(* [rest] with [slot] mapped to [v]: replaced, inserted, or removed when
   [v = 0].  Returns [rest] itself when nothing changes. *)
let write_rest (rest : int array) slot v =
  let n = Array.length rest in
  let i = find rest slot in
  if i >= 0 then begin
    if v = 0 then begin
      let r = Array.make (n - 2) 0 in
      copy rest 0 r 0 (2 * i);
      copy rest ((2 * i) + 2) r (2 * i) (n - (2 * i) - 2);
      r
    end
    else if rest.((2 * i) + 1) = v then rest
    else begin
      let r = Array.copy rest in
      r.((2 * i) + 1) <- v;
      r
    end
  end
  else if v = 0 then rest
  else begin
    let i = -i - 1 in
    let r = Array.make (n + 2) 0 in
    copy rest 0 r 0 (2 * i);
    r.(2 * i) <- slot;
    r.((2 * i) + 1) <- v;
    copy rest (2 * i) r ((2 * i) + 2) (n - (2 * i));
    r
  end

let set t slot v =
  if slot = t.owner then { t with otime = v }
  else { t with rest = write_rest t.rest slot v }

let tick t slot =
  if slot = t.owner then { t with otime = t.otime + 1 }
  else begin
    (* [slot] becomes the owner: its pair leaves [rest] and the old
       owner's pair joins it. *)
    let time = get_rest t.rest slot in
    let rest = write_rest t.rest slot 0 in
    let rest = if t.owner >= 0 then write_rest rest t.owner t.otime else rest in
    { owner = slot; otime = time + 1; rest }
  end

let cardinal t = (Array.length t.rest / 2) + if t.otime > 0 then 1 else 0

let leq a b =
  a == b
  || (a.otime = 0 || a.otime <= get b a.owner)
     &&
     let ra = a.rest and rb = b.rest in
     let na = Array.length ra and nb = Array.length rb in
     let rec go i j =
       if i >= na then true
       else begin
         let s = ra.(i) and v = ra.(i + 1) in
         if s = b.owner then v <= b.otime && go (i + 2) j
         else begin
           let j = ref j in
           while !j < nb && rb.(!j) < s do
             j := !j + 2
           done;
           !j < nb && rb.(!j) = s && v <= rb.(!j + 1) && go (i + 2) (!j + 2)
         end
       end
     in
     go 0 0

(* The state of one merge walk: whether each side dominates the other
   on the slots walked so far, the cursors into [a.rest] and [b.rest],
   and the words of the union written (or, without a destination,
   counted). *)
type cursor =
  { mutable ge_ab : bool
  ; mutable ge_ba : bool
  ; mutable i : int
  ; mutable j : int
  ; mutable k : int
  }

(* The index of the first pair of [rest] whose slot is [>= slot]. *)
let lower_bound (rest : int array) slot =
  let i = find rest slot in
  2 * if i >= 0 then i else -i - 1

(* Walks [ra] from [w.i] to [i1] and [rb] from [w.j] to [j1] in slot
   order, joining equal slots.  Writes the union into [dst] unless
   [dst] is empty. *)
let span w (dst : int array) (ra : int array) i1 (rb : int array) j1 =
  let fill = Array.length dst > 0 in
  let i = ref w.i and j = ref w.j and k = ref w.k in
  let ge_ab = ref w.ge_ab and ge_ba = ref w.ge_ba in
  while !i < i1 && !j < j1 do
    let sa = Array.unsafe_get ra !i and sb = Array.unsafe_get rb !j in
    if sa = sb then begin
      let va = Array.unsafe_get ra (!i + 1)
      and vb = Array.unsafe_get rb (!j + 1) in
      if va < vb then ge_ab := false else if vb < va then ge_ba := false;
      if fill then begin
        dst.(!k) <- sa;
        dst.(!k + 1) <- (if va >= vb then va else vb)
      end;
      i := !i + 2;
      j := !j + 2
    end
    else if sa < sb then begin
      ge_ba := false;
      if fill then copy ra !i dst !k 2;
      i := !i + 2
    end
    else begin
      ge_ab := false;
      if fill then copy rb !j dst !k 2;
      j := !j + 2
    end;
    k := !k + 2
  done;
  if !i < i1 then begin
    ge_ba := false;
    if fill then copy ra !i dst !k (i1 - !i);
    k := !k + (i1 - !i)
  end;
  if !j < j1 then begin
    ge_ab := false;
    if fill then copy rb !j dst !k (j1 - !j);
    k := !k + (j1 - !j)
  end;
  w.i <- i1;
  w.j <- j1;
  w.k <- !k;
  w.ge_ab <- !ge_ab;
  w.ge_ba <- !ge_ba

(* One walk over the entries of [a] and [b] other than the result's
   owner slot [o], in slot order.  [a]'s entries there are [a.rest]
   ([a] has no owner unless it is [o]); [b]'s are [b.rest] plus, when
   [x >= 0], its owner pair at slot [x].  Both single slots are handled
   on their own, so the bulk runs through [span]'s tight loop. *)
let walk w a b o x dst =
  let ra = a.rest and rb = b.rest in
  let na = Array.length ra and nb = Array.length rb in
  w.i <- 0;
  w.j <- 0;
  w.k <- 0;
  let up_to slot = span w dst ra (lower_bound ra slot) rb (lower_bound rb slot) in
  let skip_o () =
    up_to o;
    if w.i < na && ra.(w.i) = o then w.i <- w.i + 2;
    if w.j < nb && rb.(w.j) = o then w.j <- w.j + 2
  in
  let take_x () =
    up_to x;
    let va =
      if w.i < na && ra.(w.i) = x then begin
        w.i <- w.i + 2;
        ra.(w.i - 1)
      end
      else 0
    in
    let vb = b.otime in
    if va < vb then w.ge_ab <- false else if vb < va then w.ge_ba <- false;
    if Array.length dst > 0 then begin
      dst.(w.k) <- x;
      dst.(w.k + 1) <- (if va >= vb then va else vb)
    end;
    w.k <- w.k + 2
  in
  if x < 0 then (if o >= 0 then skip_o ())
  else if o < 0 then take_x ()
  else if o < x then begin
    skip_o ();
    take_x ()
  end
  else begin
    take_x ();
    skip_o ()
  end;
  span w dst ra na rb nb

let merge a b =
  if a == b then a
  else begin
    let o = if a.owner >= 0 then a.owner else b.owner in
    let x = if b.owner <> o && b.otime > 0 then b.owner else -1 in
    let ao = get a o and bo = get b o in
    let w = { ge_ab = ao >= bo; ge_ba = bo >= ao; i = 0; j = 0; k = 0 } in
    walk w a b o x [||];
    if w.ge_ab then a
    else if w.ge_ba then b
    else begin
      let rest = Array.make w.k 0 in
      if w.k > 0 then walk w a b o x rest;
      { owner = o; otime = (if ao >= bo then ao else bo); rest }
    end
  end

let retain keep t =
  let r = t.rest in
  let n = Array.length r in
  let kept = ref 0 in
  for p = 0 to (n / 2) - 1 do
    if keep r.(2 * p) then incr kept
  done;
  let rest =
    if 2 * !kept = n then r
    else begin
      let d = Array.make (2 * !kept) 0 in
      let k = ref 0 in
      for p = 0 to (n / 2) - 1 do
        if keep r.(2 * p) then begin
          d.(!k) <- r.(2 * p);
          d.(!k + 1) <- r.((2 * p) + 1);
          k := !k + 2
        end
      done;
      d
    end
  in
  if t.owner >= 0 && not (keep t.owner) then { owner = -1; otime = 0; rest }
  else if rest == r then t
  else { t with rest }

let pp ppf t =
  let pairs = ref [] in
  if t.otime > 0 then pairs := [ (t.owner, t.otime) ];
  for p = 0 to (Array.length t.rest / 2) - 1 do
    pairs := (t.rest.(2 * p), t.rest.((2 * p) + 1)) :: !pairs
  done;
  Format.fprintf ppf "{";
  List.iter
    (fun (slot, v) -> Format.fprintf ppf " %d:%d" slot v)
    (List.sort compare !pairs);
  Format.fprintf ppf " }"
