(* Microbenchmarks of Simcore's public functions, on the host clock.
   Each times [batches] batches of [iters] operations and reports the
   median batch, in ns (and minor words) per operation. *)

module Eq = Simcore.Event_queue

(* Runs [f iters] once per batch; returns the median ns/op and the
   median minor words/op. *)
let measure ~batches ~iters f =
  let samples =
    List.init batches (fun _ ->
        let w0 = Gc.minor_words () in
        let t0 = Workload.now () in
        f iters;
        let dt = Workload.now () -. t0 in
        let dw = Gc.minor_words () -. w0 in
        let n = float_of_int iters in
        (dt *. 1e9 /. n, dw /. n))
  in
  (Metric.median (List.map fst samples), Metric.median (List.map snd samples))

(* The hold model: a queue kept at [depth] entries, each step popping
   the earliest event and re-adding it a pseudo-random delay later, as
   the engine does with wakes and arrivals. *)
let event_queue ~depth ~batches ~iters =
  let q = Eq.create () in
  let x = ref 12345 in
  let next () =
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    !x lsr 20
  in
  for i = 1 to depth do
    Eq.add q ~time:(next ()) i
  done;
  measure ~batches ~iters (fun k ->
      for _ = 1 to k do
        match Eq.pop q with
        | Some (t, v) -> Eq.add q ~time:(t + 1 + next ()) v
        | None -> assert false
      done)

let stats_bump ~batches ~iters =
  let cell = Simcore.Stats.counter (Simcore.Stats.create ()) "bench" in
  fst
    (measure ~batches ~iters (fun k ->
         for _ = 1 to k do
           Simcore.Stats.bump cell
         done))

(* With one domain the producer and consumer run in turn on the same
   domain; with two, concurrently, as the parallel engine's boundary
   mailboxes do. *)
let spsc_push_pop ~domains ~batches ~iters =
  fst
    (measure ~batches ~iters (fun k ->
         let q = Simcore.Spsc.create () in
         let produce () =
           for i = 1 to k do
             Simcore.Spsc.push q i
           done
         in
         let producer =
           if domains > 1 then Some (Domain.spawn produce)
           else (
             produce ();
             None)
         in
         let got = ref 0 in
         while !got < k do
           match Simcore.Spsc.pop q with
           | Some _ -> incr got
           | None -> Domain.cpu_relax ()
         done;
         Option.iter Domain.join producer))

let barrier_round ~domains ~batches ~iters =
  fst
    (measure ~batches ~iters (fun k ->
         let b = Simcore.Barrier.create domains in
         let rounds me () =
           for _ = 1 to k do
             Simcore.Barrier.await b ~me
           done
         in
         let others = List.init (domains - 1) (fun i -> Domain.spawn (rounds (i + 1))) in
         rounds 0 ();
         List.iter Domain.join others))

(* The per-layer simcore metrics, by their registry names. *)
let run ~smoke ~domains =
  let batches = if smoke then 1 else 5 in
  let scale n = if smoke then n / 100 else n in
  let eq depth =
    let ns, words = event_queue ~depth ~batches ~iters:(scale 200_000) in
    [
      (Printf.sprintf "simcore.event_queue.add_pop_ns.d%d" depth, ns);
      (Printf.sprintf "simcore.event_queue.add_pop_words.d%d" depth, words);
    ]
  in
  eq 64 @ eq 4096
  @ [
      ("simcore.stats.bump_ns", stats_bump ~batches ~iters:(scale 2_000_000));
      ("simcore.spsc.push_pop_ns", spsc_push_pop ~domains ~batches ~iters:(scale 50_000));
      ("simcore.barrier.round_ns", barrier_round ~domains ~batches ~iters:(scale 2_000));
    ]
