(* Binary min-heap over (time, seq) keys. [seq] is a monotonically
   increasing insertion counter, so ties in [time] break FIFO; keys are
   unique, so the pop order is a function of the keys alone.

   The heap is three parallel arrays: [times] and [seqs] are flat int
   arrays, [values] holds the payloads. There is no per-entry record and
   no option slot, so a steady-state [add] + [take] allocates nothing.
   [values] is an [Obj.t array] filled with [Obj.repr ()]: an immediate
   filler, so the array is never a flat float array and can hold any
   payload. A vacated slot goes back to the filler the moment its entry
   leaves, and [clear] drops the arrays: the queue holds closures and
   whole messages, and a parked reference would keep arbitrarily large
   object graphs alive. *)

type 'a t = {
  mutable times : int array;  (* [0, len) is a valid heap *)
  mutable seqs : int array;
  mutable values : Obj.t array;
  mutable len : int;
  mutable next_seq : int;
  mutable tie_break : ('a array -> int) option;
}

let filler = Obj.repr ()

let create () =
  { times = [||]; seqs = [||]; values = [||]; len = 0; next_seq = 0; tie_break = None }

let set_tie_break q choose = q.tie_break <- choose

let less (t1 : int) (s1 : int) (t2 : int) (s2 : int) =
  t1 < t2 || (t1 = t2 && s1 < s2)

let set q i t s v =
  q.times.(i) <- t;
  q.seqs.(i) <- s;
  q.values.(i) <- v

let move q ~from ~into = set q into q.times.(from) q.seqs.(from) q.values.(from)

let grow q =
  let cap = Array.length q.times in
  let cap' = if cap = 0 then 16 else cap * 2 in
  let extend a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 q.len;
    a'
  in
  q.times <- extend q.times 0;
  q.seqs <- extend q.seqs 0;
  q.values <- extend q.values filler

(* Both sifts carry the moving entry in hand and shift the others
   into the hole, writing the entry once where it comes to rest. *)
let rec sift_up q i t s v =
  let parent = (i - 1) / 2 in
  if i > 0 && less t s q.times.(parent) q.seqs.(parent) then begin
    move q ~from:parent ~into:i;
    sift_up q parent t s v
  end
  else set q i t s v

let rec sift_down q i t s v =
  let l = (2 * i) + 1 in
  if l >= q.len then set q i t s v
  else
    let r = l + 1 in
    let c =
      if r < q.len && less q.times.(r) q.seqs.(r) q.times.(l) q.seqs.(l) then r
      else l
    in
    if less q.times.(c) q.seqs.(c) t s then begin
      move q ~from:c ~into:i;
      sift_down q c t s v
    end
    else set q i t s v

let add q ~time value =
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  if q.len = Array.length q.times then grow q;
  q.len <- q.len + 1;
  sift_up q (q.len - 1) time seq (Obj.repr value)

(* Remove the entry at heap index [i]: the last entry refills the hole
   and the vacated slot returns to the filler. *)
let remove_at q i =
  let last = q.len - 1 in
  q.len <- last;
  if i < last then begin
    let t = q.times.(last) and s = q.seqs.(last) and v = q.values.(last) in
    q.values.(last) <- filler;
    let parent = (i - 1) / 2 in
    if i > 0 && less t s q.times.(parent) q.seqs.(parent) then sift_up q i t s v
    else sift_down q i t s v
  end
  else q.values.(i) <- filler

(* All entries sharing the minimal timestamp form a connected subtree
   rooted at index 0 (an equal-time entry's ancestors can only carry the
   same minimal time), so a DFS that stops at later times finds them
   without scanning the whole heap. *)
let min_time_indices q tmin =
  let acc = ref [] in
  let rec visit i =
    if i < q.len && q.times.(i) = tmin then begin
      acc := i :: !acc;
      visit ((2 * i) + 1);
      visit ((2 * i) + 2)
    end
  in
  visit 0;
  !acc

let tie_break_index q choose =
  match min_time_indices q q.times.(0) with
  | [] | [ _ ] -> 0
  | candidates ->
      (* Deterministic candidate order: by insertion sequence, so choice
         0 is the FIFO default and a replayed choice k lands on the same
         event regardless of heap layout. *)
      let by_seq =
        List.sort (fun a b -> Int.compare q.seqs.(a) q.seqs.(b)) candidates
      in
      let values = Array.of_list (List.map (fun i -> Obj.obj q.values.(i)) by_seq) in
      let n = Array.length values in
      let k = choose values in
      let k = if k < 0 || k >= n then 0 else k in
      List.nth by_seq k

let min_time q = if q.len = 0 then max_int else q.times.(0)

let take q =
  if q.len = 0 then invalid_arg "Event_queue.take: empty queue";
  let i = match q.tie_break with None -> 0 | Some choose -> tie_break_index q choose in
  let v = q.values.(i) in
  remove_at q i;
  Obj.obj v

let pop q =
  if q.len = 0 then None
  else
    let time = q.times.(0) in
    Some (time, take q)

let peek_time q = if q.len = 0 then None else Some q.times.(0)

let iter f q =
  for i = 0 to q.len - 1 do
    f q.times.(i) (Obj.obj q.values.(i))
  done

let size q = q.len
let is_empty q = q.len = 0

let clear q =
  (* Drop the whole arrays: resetting [len] alone kept every queued
     entry reachable until the slots were overwritten. *)
  q.times <- [||];
  q.seqs <- [||];
  q.values <- [||];
  q.len <- 0
