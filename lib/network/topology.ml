type t = { nx : int; ny : int }

let create ~x ~y =
  if x < 1 || y < 1 then invalid_arg "Topology.create: dims must be >= 1";
  { nx = x; ny = y }

let square_for p =
  if p < 1 then invalid_arg "Topology.square_for: p must be >= 1";
  let rec best a = if p mod a = 0 then a else best (a - 1) in
  let a = best (int_of_float (sqrt (float_of_int p))) in
  create ~x:a ~y:(p / a)

let node_count t = t.nx * t.ny
let dims t = (t.nx, t.ny)

let coords t n =
  if n < 0 || n >= node_count t then invalid_arg "Topology.coords: bad node";
  (n mod t.nx, n / t.nx)

let node_at t (x, y) =
  if x < 0 || x >= t.nx || y < 0 || y >= t.ny then
    invalid_arg "Topology.node_at: bad coords";
  (y * t.nx) + x

let axis_dist len a b =
  let d = abs (a - b) in
  Int.min d (len - d)

(* Called once per packet, so the coordinates are computed inline:
   going through [coords] cost two tuples a call. *)
let hops t a b =
  let n = node_count t in
  if a < 0 || a >= n || b < 0 || b >= n then
    invalid_arg "Topology.coords: bad node";
  axis_dist t.nx (a mod t.nx) (b mod t.nx)
  + axis_dist t.ny (a / t.nx) (b / t.nx)

let neighbors t n =
  let x, y = coords t n in
  let wrap len v = ((v mod len) + len) mod len in
  let candidates =
    [
      (wrap t.nx (x - 1), y);
      (wrap t.nx (x + 1), y);
      (x, wrap t.ny (y - 1));
      (x, wrap t.ny (y + 1));
    ]
  in
  List.sort_uniq Int.compare (List.map (node_at t) candidates)
  |> List.filter (fun m -> m <> n)

(* One step along a ring of length [len] from [a] toward [b], the short
   way round (ties go up). *)
let ring_step len a b =
  if a = b then a
  else
    let forward = ((b - a) + len) mod len in
    let backward = ((a - b) + len) mod len in
    if forward <= backward then (a + 1) mod len else ((a - 1) + len) mod len

let route t src dst =
  let xd, yd = coords t dst in
  let rec walk (x, y) acc =
    if x <> xd then
      let x' = ring_step t.nx x xd in
      walk (x', y) (node_at t (x', y) :: acc)
    else if y <> yd then
      let y' = ring_step t.ny y yd in
      walk (x, y') (node_at t (x, y') :: acc)
    else List.rev acc
  in
  walk (coords t src) []

let pp ppf t = Format.fprintf ppf "torus %dx%d (%d nodes)" t.nx t.ny (node_count t)
