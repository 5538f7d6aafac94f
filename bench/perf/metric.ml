(* Every metric the benchmark reports: name, unit, direction, and what
   it measures. BENCHMARK.json at the repository root declares the same
   names, units and directions (plus the end-to-end bounds); the
   artifact test checks that the two agree.

   Units prefixed [sim_] are on the simulated clock, which is
   deterministic for a given seed; every other time is host time. *)

type better = Lower | Higher

type clock = Host | Sim

type t = {
  name : string;
  unit : string;
  better : better;
  layer : string;  (** [lib/] module, or "host" for the bench's own spans *)
  clock : clock;
      (** [Sim] values are deterministic for a given seed and must be
          bit-identical between runs of the same commit *)
  doc : string;  (** what it is, and which end-to-end metric it should move *)
}

(* Units prefixed [sim_], counts and ratios of counts are simulated
   results; everything measured in host time or memory is not. *)
let m layer name unit better doc =
  let host =
    List.mem unit [ "s"; "ns"; "words"; "Mwords"; "MB" ]
    || List.mem name [ "engine.par.wall_over_1d"; "trace.overhead_frac" ]
  in
  { name; unit; better; layer; clock = (if host then Host else Sim); doc }

(* Host-clock metrics every workload reports, measured with tracing
   off. Simulated-clock results are deterministic for a given seed, so
   they are checked for identity across repetitions instead of being
   bounded here; they are reported with the per-layer metrics. *)
let end_to_end =
  [
    m "host" "wall_s" "s" Lower "host time of the run phase, start to quiescence";
    m "host" "setup_s" "s" Lower "host time of boot + spawn + launch";
    m "host" "alloc_mwords" "Mwords" Lower
      "minor words allocated in the run phase (Gc.quick_stat, all domains)";
    m "host" "heap_peak_mb" "MB" Lower "peak major heap (top_heap_words)";
  ]

let per_layer =
  let simcore = m "simcore" and engine = m "machine.engine" in
  let network = m "network" and reliable = m "machine.reliable" in
  let core = m "core" and apps = m "apps.kv_store" in
  let traffic = m "traffic" and host = m "host" in
  [
    simcore "simcore.event_queue.add_pop_ns.d64" "ns" Lower
      "add+pop at depth 64 -> wall_s on kv-open, kv-lossy; none on nqueens";
    simcore "simcore.event_queue.add_pop_ns.d4096" "ns" Lower
      "add+pop at depth 4096 -> wall_s on kv-open, kv-lossy";
    simcore "simcore.event_queue.add_pop_words.d64" "words" Lower
      "minor words per add+pop at depth 64 -> alloc_mwords on kv-*";
    simcore "simcore.event_queue.add_pop_words.d4096" "words" Lower
      "minor words per add+pop at depth 4096 -> alloc_mwords on kv-*";
    simcore "simcore.stats.bump_ns" "ns" Lower "Stats.bump -> wall_s on all";
    simcore "simcore.spsc.push_pop_ns" "ns" Lower
      "cross-domain push+pop -> wall_s on kv-par only";
    simcore "simcore.barrier.round_ns" "ns" Lower
      "one barrier round across domains -> wall_s on kv-par only";
    engine "engine.events" "count" Lower "events executed -> wall_s on kv-*";
    engine "engine.events_per_op" "count" Lower "events per operation -> wall_s";
    engine "engine.host_ns_per_event" "ns" Lower
      "untraced wall / events -> wall_s on kv-*";
    engine "engine.alloc_words_per_event" "words" Lower
      "run-phase minor words / events -> alloc_mwords on kv-*";
    engine "engine.slices" "count" Lower "node slices (traced pass)";
    engine "engine.deliveries" "count" Lower "packet deliveries (traced pass)";
    engine "engine.busy_ns_per_op" "sim_ns" Lower
      "total node busy time per operation -> sim.p50_us";
    engine "engine.par.wall_1d_s" "s" Lower
      "traced run_parallel at 1 domain (kv-par only) -> wall_s on kv-par";
    engine "engine.par.wall_over_1d" "ratio" Lower
      "traced wall at D domains / at 1 domain (kv-par only)";
    network "fabric.packets" "count" Lower "packets sent -> sim.p99_us, sim.makespan_ms";
    network "fabric.bytes" "count" Lower "bytes sent";
    network "fabric.packets_per_op" "count" Lower "packets per operation";
    network "fabric.bytes_per_packet" "count" Lower "mean packet size";
    network "faults.dropped" "count" Lower "packets the fault plan destroyed";
    network "faults.duplicated" "count" Lower "packets the fault plan duplicated";
    reliable "reliable.retransmit" "count" Lower
      "retransmissions -> sim.p99_us, wall_s on kv-lossy; 0 on kv-open";
    reliable "reliable.ack" "count" Lower "acks sent";
    reliable "reliable.dup_discard" "count" Lower "duplicate frames discarded";
    reliable "reliable.backlogged" "count" Lower "sends held behind a full window";
    reliable "reliable.retransmit_frac" "ratio" Lower
      "retransmits / packets: wasted sends";
    reliable "reliable.in_flight_end" "count" Lower
      "unacknowledged at quiescence (must be 0)";
    core "send.local.dormant" "count" Higher
      "local sends to a dormant object -> sim.makespan_ms on nqueens";
    core "send.local.active" "count" Lower "local sends to an active object";
    core "send.remote" "count" Lower "remote sends";
    core "recv.remote.dormant" "count" Higher "remote receptions, dormant receiver";
    core "recv.remote.active" "count" Lower "remote receptions, active receiver";
    core "preempt" "count" Lower "preemptions";
    core "sched.local_dormant_frac" "ratio" Higher
      "dormant share of local sends (paper: ~75%) -> sim.utilization";
    core "create.local" "count" Lower "local creations";
    core "create.remote" "count" Lower "remote creations -> sim.makespan_ms on nqueens";
    core "chunk.refill" "count" Lower "chunk stock refills";
    core "chunk.stall" "count" Lower "creations that waited for a chunk";
    core "chunk.stall_frac" "ratio" Lower "chunk stalls / remote creations";
    core "chunk.stall_wait_us_per_create" "sim_us" Lower
      "chunk wait per remote creation -> sim.makespan_ms on nqueens";
    core "sched.intra_dormant_ns" "sim_ns" Lower "Table 1 (nqueens row only)";
    core "sched.intra_active_ns" "sim_ns" Lower "Table 1 (nqueens row only)";
    core "create.intra_ns" "sim_ns" Lower "Table 1 (nqueens row only)";
    core "fabric.inter_latency_ns" "sim_ns" Lower "Table 1 (nqueens row only)";
    core "sched.now_rtt_ns" "sim_ns" Lower "Table 3 now-type RTT (nqueens row only)";
    apps "kv.get_ok" "count" Higher "completed gets -> sim.p99_us, sim.knee_rps";
    apps "kv.put_ok" "count" Higher "completed puts";
    apps "kv.cas_ok" "count" Higher "won CAS";
    apps "kv.cas_fail" "count" Lower "lost CAS races (completed, not errors)";
    apps "kv.mget_ok" "count" Higher "completed fan-out gets";
    apps "kv.dup_resps" "count" Lower "duplicate or orphan replies";
    apps "kv.cas_win_frac" "ratio" Higher "won / attempted CAS";
    traffic "loadgen.injected" "count" Higher "requests injected";
    traffic "loadgen.offered_rps" "sim_req/s" Higher "offered rate";
    traffic "sim.p50_us" "sim_us" Lower "median completion latency from due time";
    traffic "sim.p99_us" "sim_us" Lower "p99 completion latency";
    traffic "sim.p999_us" "sim_us" Lower "p99.9 completion latency";
    traffic "sim.goodput_rps" "sim_req/s" Higher "completions per simulated second";
    traffic "sim.knee_rps" "sim_req/s" Higher
      "highest swept rate with p99 <= 1 ms and goodput >= 0.95 offered (kv-open)";
    engine "sim.makespan_ms" "sim_ms" Lower "System.elapsed";
    engine "sim.utilization" "ratio" Higher "System.utilization";
    host "setup.boot_s" "s" Lower "System.boot (+ Kv_store.create) -> setup_s";
    host "setup.spawn_s" "s" Lower "Kv_store.spawn / create_root -> setup_s";
    host "setup.launch_s" "s" Lower "Loadgen.launch_sharded / send_boot -> setup_s";
    host "report.of_run_s" "s" Lower "Report.of_run or the solution read-back";
    host "check.audit_s" "s" Lower "Loadgen.audit + Diagnostics.survey";
    m "services.timeline" "trace.overhead_frac" "ratio" Lower
      "traced wall / untraced median wall - 1";
  ]

let better_to_string = function Lower -> "lower" | Higher -> "higher"

let better_of_string = function
  | "lower" -> Lower
  | "higher" -> Higher
  | s -> invalid_arg ("better: " ^ s)

(* Median and quartiles as Python's [statistics.quantiles(xs, n=4)]
   computes them (the "exclusive" method), so the numbers printed here
   are the ones a reader recomputes from the samples. *)
let quartiles xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "quartiles: no samples";
  if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m
