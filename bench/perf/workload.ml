(* The four workloads. Each run builds a fresh system, times the calls
   into each layer's public functions from the outside, and returns the
   host timings plus every deterministic number the run produced. *)

open Core
module Engine = Machine.Engine
module Kv = Apps.Kv_store
module Loadgen = Traffic.Loadgen

(* Host seconds on the monotonic clock, to the nanosecond: set-up takes
   tens of microseconds, too short for gettimeofday's microseconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Host phase spans for the Chrome trace: (name, repetition, start, end),
   newest first, in seconds since [epoch]. *)
let epoch = now ()
let spans : (string * int * float * float) list ref = ref []
let rep = ref 0

let timed name f =
  let t0 = now () in
  let v = f () in
  let t1 = now () in
  spans := (name, !rep, t0 -. epoch, t1 -. epoch) :: !spans;
  (v, t1 -. t0)

type engine = Seq | Par of int

type outcome = {
  run_s : float;
  report_s : float;
  audit_s : float;
  alloc_words : float;  (** minor words allocated by the run phase *)
  attempted : int;
  failed : int;
  findings : string list;  (** why [failed] is nonzero, one line each *)
  ops : int;  (** units of work, the base of every per-op ratio *)
  sim : (string * float) list;
      (** everything deterministic for a given seed: simulated-clock
          results, engine and fabric counts, and the whole Stats
          registry under "stats." *)
  timeline : Services.Timeline.t option;  (** the traced pass's recorder *)
}

(* A booted system, its set-up timed, waiting to be run once. A set-up
   that is never finished is garbage: the benchmark takes several
   set-up samples per run that way. *)
type setup = {
  boot_s : float;
  spawn_s : float;
  launch_s : float;
  finish : traced:bool -> engine:engine -> outcome;
}

type t = {
  name : string;
  engine : engine;
  setup : seed:int -> smoke:bool -> setup;
  extra : seed:int -> smoke:bool -> (string * float) list * string list;
      (** the traced pass's workload-specific measurements, and any
          correctness findings they produced *)
}

let machine_counts sys =
  let m = System.machine sys in
  let f = float_of_int in
  [
    ("sim.makespan_ms", Simcore.Time.to_ms (System.elapsed sys));
    ("sim.utilization", System.utilization sys);
    ("engine.events", f (Engine.events_processed m));
    ("engine.busy_ns", f (Engine.total_busy m));
    ("fabric.packets", f (Engine.packets_sent m));
    ("fabric.bytes", f (Engine.bytes_sent m));
    ("faults.dropped", f (Engine.packets_dropped m));
    ("faults.duplicated", f (Engine.packets_duplicated m));
    ("reliable.in_flight_end", f (Engine.reliable_in_flight m));
  ]
  @ List.map
      (fun (k, v) -> ("stats." ^ k, f v))
      (Simcore.Stats.to_alist (System.stats sys))

let diagnostics sys =
  let d = Diagnostics.survey sys in
  if Diagnostics.is_clean d then []
  else [ Format.asprintf "unclean quiescence: %a" Diagnostics.pp d ]

(* Runs the machine, returning the run-phase minor words. Gc.quick_stat
   counts the words of domains that have already exited, which
   Gc.minor_words misses under run_parallel; it is exact only just
   after a minor collection, hence the two outside the timed span. *)
let minor_words () =
  Gc.minor ();
  (Gc.quick_stat ()).Gc.minor_words

let run_phase engine sys =
  let w0 = minor_words () in
  let (), run_s =
    timed "run" (fun () ->
        match engine with
        | Seq -> System.run sys
        | Par domains -> System.run_parallel sys ~domains)
  in
  (run_s, minor_words () -. w0)

(* ---- KV tier under open-loop load ---------------------------------- *)

let kv_setup ~faults ~rate ~requests ~seed =
  let faults =
    if faults then
      Some (Network.Faults.plan ~seed ~drop:0.02 ~duplicate:0.01 ~jitter_ns:1_000 ())
    else None
  in
  let machine_config = { Engine.default_config with seed; faults } in
  let (kv, sys), boot_s =
    timed "setup.boot" (fun () ->
        let kv = Kv.create ~shards:8 ~keys_per_shard:16 ~mget_fan:3 () in
        (kv, System.boot ~machine_config ~nodes:8 ~classes:(Kv.classes kv) ()))
  in
  let (), spawn_s = timed "setup.spawn" (fun () -> Kv.spawn kv sys) in
  let config =
    { Loadgen.default_config with seed; rate_rps = rate; requests; key_dist = Loadgen.Zipf 1.0 }
  in
  let lg, launch_s = timed "setup.launch" (fun () -> Loadgen.launch_sharded config sys kv) in
  let finish ~traced ~engine =
    let timeline = if traced then Some (Services.Timeline.attach sys) else None in
    let run_s, alloc_words = run_phase engine sys in
    Option.iter Services.Timeline.detach timeline;
    let r, report_s = timed "report.of_run" (fun () -> Traffic.Report.of_run lg sys) in
    let findings, audit_s =
      timed "check.audit" (fun () -> Loadgen.audit lg sys @ diagnostics sys)
    in
    let s = Kv.stats kv in
    let f = float_of_int in
    let open Traffic.Report in
    let lost = requests - r.r_completed in
    {
      run_s;
      report_s;
      audit_s;
      alloc_words;
      attempted = requests;
      (* The audit reports lost and duplicated completions as findings
         too; a finding that loses no request still fails one. *)
      failed = max (lost + r.r_errors) (List.length findings);
      findings;
      ops = requests;
      sim =
        [
          ("sim.p50_us", r.r_p50_ns /. 1e3);
          ("sim.p99_us", r.r_p99_ns /. 1e3);
          ("sim.p999_us", r.r_p999_ns /. 1e3);
          ("sim.goodput_rps", r.r_goodput_rps);
          ("loadgen.injected", f r.r_injected);
          ("loadgen.offered_rps", f r.r_rate_rps);
          ("kv.get_ok", f s.Kv.get_ok);
          ("kv.put_ok", f s.Kv.put_ok);
          ("kv.cas_ok", f s.Kv.cas_ok);
          ("kv.cas_fail", f s.Kv.cas_fail);
          ("kv.mget_ok", f s.Kv.mget_ok);
          ("kv.dup_resps", f s.Kv.dup_resps);
        ]
        @ machine_counts sys;
      timeline;
    }
  in
  { boot_s; spawn_s; launch_s; finish }

(* The simulated rate sweep behind sim.knee_rps: the highest offered
   rate whose p99 stays within 1 ms with goodput at least 95% of
   offered. Each rate is a fresh run; any audit finding is a failure. *)
let knee ~seed ~smoke =
  let requests = if smoke then 500 else 20_000 in
  List.fold_left
    (fun (knee, findings) i ->
      let rate = 40_000 + (i * 10_000) in
      let o =
        (kv_setup ~faults:false ~rate ~requests ~seed).finish ~traced:false ~engine:Seq
      in
      let ok =
        List.assoc "sim.p99_us" o.sim <= 1000.
        && List.assoc "sim.goodput_rps" o.sim >= 0.95 *. float_of_int rate
      in
      ( (if ok then max knee rate else knee),
        findings @ List.map (Printf.sprintf "sweep at %d req/s: %s" rate) o.findings ))
    (0, [])
    (List.init 9 Fun.id)

(* ---- N-queens, the paper's section 6.2 program ----------------------- *)

(* Known solution counts (OEIS A000170), indexed by n - 1: the check
   does not trust any solver in this repository. *)
let queens_solutions = [| 1; 0; 0; 2; 10; 4; 40; 92; 352; 724; 2680; 14200 |]

let nqueens_setup ~n ~nodes ~seed =
  let machine_config = { Engine.default_config with seed } in
  let (cls, sys), boot_s =
    timed "setup.boot" (fun () ->
        let cls = Apps.Nqueens_par.solver_cls () in
        (cls, System.boot ~machine_config ~nodes ~classes:[ cls ] ()))
  in
  let root, spawn_s =
    timed "setup.spawn" (fun () ->
        System.create_root sys ~node:0 cls
          [ Value.int n; Value.int Apps.Queens_board.empty_packed; Value.unit ])
  in
  let (), launch_s =
    timed "setup.launch" (fun () ->
        System.send_boot sys root (Class_def.pattern_of cls "expand") [])
  in
  let finish ~traced ~engine =
    let timeline = if traced then Some (Services.Timeline.attach sys) else None in
    let run_s, alloc_words = run_phase engine sys in
    Option.iter Services.Timeline.detach timeline;
    let solutions, report_s =
      timed "report.of_run" (fun () ->
          match System.lookup_obj sys root with
          | None -> -1
          | Some o ->
              let acc = ref (-1) in
              Array.iteri
                (fun i name -> if name = "acc" then acc := i)
                cls.Kernel.state_names;
              Value.to_int o.Kernel.state.(!acc))
    in
    let expected = queens_solutions.(n - 1) in
    let findings, audit_s =
      timed "check.audit" (fun () ->
          (if solutions = expected then []
           else
             [ Printf.sprintf "%d-queens: %d solutions, expected %d" n solutions expected ])
          @ diagnostics sys)
    in
    let stats = System.stats sys in
    {
      run_s;
      report_s;
      audit_s;
      alloc_words;
      attempted = 1;
      failed = (if findings = [] then 0 else 1);
      findings;
      ops = Apps.Nqueens_par.creation_count stats;
      sim = ("queens.solutions", float_of_int solutions) :: machine_counts sys;
      timeline;
    }
  in
  { boot_s; spawn_s; launch_s; finish }

(* ---- The workload table ---------------------------------------------- *)

let no_extra ~seed:_ ~smoke:_ = ([], [])

(* Table 1 (and Table 3's now-type round trip) in simulated time; the
   paper reports them beside its N-queens results. *)
let table1 ~seed:_ ~smoke:_ =
  let t = Apps.Microbench.measure () in
  ( Apps.Microbench.
      [
        ("sched.intra_dormant_ns", t.intra_dormant_ns);
        ("sched.intra_active_ns", t.intra_active_ns);
        ("create.intra_ns", t.intra_create_ns);
        ("fabric.inter_latency_ns", t.inter_latency_ns);
        ("sched.now_rtt_ns", t.now_roundtrip_remote_ns);
      ],
    [] )

let all ~nproc =
  let kv ~faults n ~seed ~smoke =
    kv_setup ~faults ~rate:60_000 ~requests:(if smoke then 2_000 else n) ~seed
  in
  [
    {
      name = "kv-open";
      engine = Seq;
      setup = kv ~faults:false 400_000;
      extra =
        (fun ~seed ~smoke ->
          let k, findings = knee ~seed ~smoke in
          ([ ("sim.knee_rps", float_of_int k) ], findings));
    };
    { name = "kv-lossy"; engine = Seq; setup = kv ~faults:true 200_000; extra = no_extra };
    {
      name = "nqueens";
      engine = Seq;
      setup =
        (fun ~seed ~smoke ->
          if smoke then nqueens_setup ~n:6 ~nodes:16 ~seed
          else nqueens_setup ~n:11 ~nodes:64 ~seed);
      extra = table1;
    };
    {
      name = "kv-par";
      engine = Par (min 2 nproc);
      setup = kv ~faults:false 400_000;
      extra = no_extra;
    };
  ]
