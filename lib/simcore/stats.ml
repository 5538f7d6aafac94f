(* Counter cells are sharded per simulation domain: each domain bumps a
   private padded slot (no atomics, no contention, no false sharing) and
   readers sum the slots. Summation is order-insensitive, so the merged
   value at quiescence is identical for any domain count — part of the
   parallel engine's bit-identical replay guarantee. Histograms shard the
   same way, one per domain, merged on read. *)

(* 8 boxed-int words = 64 bytes: one cache line per domain slot. *)
let stride = 8

type cell = { mutable slots : int array }

type hist = {
  bucket_width : int option;
  mutable per_domain : Histogram.t array;
}

type t = {
  tbl : (string, cell) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
  mutable shards : int;
  lock : Mutex.t;
}

let create () =
  { tbl = Hashtbl.create 64; hists = Hashtbl.create 4; shards = 1; lock = Mutex.create () }

let bump c =
  let i = Domain_ctx.current () * stride in
  c.slots.(i) <- c.slots.(i) + 1

let bump_n c n =
  let i = Domain_ctx.current () * stride in
  c.slots.(i) <- c.slots.(i) + n

let read c =
  let total = ref 0 in
  let n = Array.length c.slots / stride in
  for d = 0 to n - 1 do
    total := !total + c.slots.(d * stride)
  done;
  !total

let fresh_shards ?bucket_width n =
  Array.init n (fun _ -> Histogram.create ?bucket_width ())

let observe h x = Histogram.observe h.per_domain.(Domain_ctx.current ()) x

let read_histogram h =
  let into = Histogram.create ?bucket_width:h.bucket_width () in
  Array.iter (fun s -> Histogram.merge_into ~into s) h.per_domain;
  into

(* The name tables are the only structures touched by more than one
   domain (dynamic registration mid-run); every access goes through the
   lock. Cells themselves are lock-free. *)
let counter t name =
  Mutex.lock t.lock;
  let c =
    match Hashtbl.find_opt t.tbl name with
    | Some c -> c
    | None ->
        let c = { slots = Array.make (t.shards * stride) 0 } in
        Hashtbl.add t.tbl name c;
        c
  in
  Mutex.unlock t.lock;
  c

let histogram ?bucket_width t name =
  Mutex.lock t.lock;
  let h =
    match Hashtbl.find_opt t.hists name with
    | Some h -> h
    | None ->
        let h = { bucket_width; per_domain = fresh_shards ?bucket_width t.shards } in
        Hashtbl.add t.hists name h;
        h
  in
  Mutex.unlock t.lock;
  h

let shard t n =
  if n < 1 then invalid_arg "Stats.shard: shard count must be >= 1";
  Mutex.lock t.lock;
  if n > t.shards then begin
    t.shards <- n;
    Hashtbl.iter
      (fun _ c ->
        let bigger = Array.make (n * stride) 0 in
        Array.blit c.slots 0 bigger 0 (Array.length c.slots);
        c.slots <- bigger)
      t.tbl;
    Hashtbl.iter
      (fun _ h ->
        let bigger = fresh_shards ?bucket_width:h.bucket_width n in
        Array.blit h.per_domain 0 bigger 0 (Array.length h.per_domain);
        h.per_domain <- bigger)
      t.hists
  end;
  Mutex.unlock t.lock

let incr t name = bump (counter t name)
let add t name n = bump_n (counter t name) n

let find t tbl name =
  Mutex.lock t.lock;
  let x = Hashtbl.find_opt tbl name in
  Mutex.unlock t.lock;
  x

let get t name = match find t t.tbl name with Some c -> read c | None -> 0
let get_histogram t name = Option.map read_histogram (find t t.hists name)

let sorted t tbl read =
  Mutex.lock t.lock;
  let pairs = Hashtbl.fold (fun name x acc -> (name, read x) :: acc) tbl [] in
  Mutex.unlock t.lock;
  List.sort (fun (a, _) (b, _) -> String.compare a b) pairs

let to_alist t = sorted t t.tbl read
let histograms t = sorted t t.hists read_histogram
let names t = List.map fst (to_alist t)

let reset t =
  Mutex.lock t.lock;
  Hashtbl.iter (fun _ c -> Array.fill c.slots 0 (Array.length c.slots) 0) t.tbl;
  Hashtbl.iter
    (fun _ h -> h.per_domain <- fresh_shards ?bucket_width:h.bucket_width t.shards)
    t.hists;
  Mutex.unlock t.lock

(* Counters and histograms interleave in one name order, so a layer's
   prefix selects one contiguous block. *)
let pp_layer ~prefix ppf t =
  let mine (name, _) = String.starts_with ~prefix name in
  let rows =
    List.map (fun (n, v) -> (n, `Count v)) (to_alist t)
    @ List.map (fun (n, h) -> (n, `Hist h)) (histograms t)
  in
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (name, row) ->
      match row with
      | `Count v -> Format.fprintf ppf "%-36s %d@," name v
      | `Hist h -> Format.fprintf ppf "%-36s %a@," name Histogram.pp h)
    (List.filter mine (List.stable_sort (fun (a, _) (b, _) -> String.compare a b) rows));
  Format.fprintf ppf "@]"

let pp ppf t = pp_layer ~prefix:"" ppf t
