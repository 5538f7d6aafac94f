(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 6), plus the ablations listed in DESIGN.md.

     dune exec bench/main.exe -- [sections] [--full] [--smoke]

   Sections: table1 table2 table3 table4 fig5 fig6 ablations faults
   migrate dgc coalesce recover traffic multiactive parallel bechamel
   all (default: all). --full runs the paper-scale N=13 / 512-node
   configurations; without it the harness caps at N<=11 so a full pass
   stays around a minute. --smoke shrinks the fault sweep to two drop
   rates and the migration bench to N=7 for CI. The traffic section
   (open-loop load against the sharded KV tier) accepts --baseline
   FILE: a previously checked-in BENCH_traffic.json whose p99_ns gates
   the current run at 1.5x; it also takes --requests N (scaled runs on
   sharded Zipf arrivals; past 50k requests the run must be paired with
   --domains D > 1, which executes it on the domain-sharded parallel
   engine). The multiactive section (serialized vs
   compatibility-annotated shards under read-heavy load) accepts
   --baseline FILE with a BENCH_multiactive.json whose
   knee_multiactive_rps must not regress. The parallel section measures
   the domain-sharded engine against the sequential loop at 1/2/4/8
   domains, gates on identical Timeline hashes across all counts (and
   against a --baseline BENCH_parallel_baseline.json), and on >= 1.5x
   wall-clock speedup at 4 domains when the host has >= 4 cores; it
   also emits per-feature envelope rows (faults / coalesce / recover
   under domains). The faults, coalesce, and recover sections accept
   --domains D: with D > 1 each re-runs its hostile workload on the
   domain-sharded engine at 1 and D domains and gates on identical
   Timeline hashes plus the feature's own invariants (exactly-once
   delivery, batches formed, restarts = crashes with bounded
   recovery).

   Unknown sections or options, and non-integer values for the integer
   options, print the usage line and exit 2.

   The schedule explorer is a checker, not a benchmark, and never runs
   under "all" — ask for it by name:

     dune exec bench/main.exe -- explore [--smoke] [--schedules N]
       [--seed N] [--workload NAME] [--out DIR] [--replay FILE]

   It sweeps recorded schedules across the check workloads with the
   invariant monitor armed, shrinks failures to minimal reproducer
   files, and exits nonzero on any violation; --replay re-executes a
   reproducer twice and asserts the runs are bit-identical. *)

open Core

let header title = Format.printf "@.=== %s ===@." title
let cost = Machine.Cost_model.default

(* Host-side perf triple for the section artifacts: each JSON-emitting
   section brackets itself with [section_start], feeds every system (or
   bare machine) it simulated to [note_events] / [note_machine_events],
   and appends [perf_fields ()] to its field list — so CI can trend
   simulator throughput uniformly across sections. Wall clock, not CPU
   time: the parallel section's whole point is wall-clock speedup. *)
let section_t0 = ref 0.
let section_events = ref 0

let section_start () =
  section_events := 0;
  section_t0 := Unix.gettimeofday ()

let note_machine_events m =
  section_events := !section_events + Machine.Engine.events_processed m

let note_events sys = note_machine_events (System.machine sys)

let perf_fields ?(domains = 1) () =
  Services.Bench_json.perf_fields
    ~wall_clock_s:(Unix.gettimeofday () -. !section_t0)
    ~events:!section_events ~domains

(* ------------------------------------------------------------------ *)
(* Table 1: costs of basic operations                                  *)
(* ------------------------------------------------------------------ *)

let table1 () =
  header "Table 1: Costs of basic operations (us)";
  let m = Apps.Microbench.measure () in
  let row name measured paper =
    Format.printf "%-34s %8.2f   (paper: %4.1f)@." name (measured /. 1000.)
      paper
  in
  row "Intra-node Message (to Dormant)" m.Apps.Microbench.intra_dormant_ns 2.3;
  row "Intra-node Message (to Active)" m.intra_active_ns 9.6;
  row "Intra-node Creation" m.intra_create_ns 2.1;
  row "Latency of Inter-node Message" m.inter_latency_ns 8.9

(* ------------------------------------------------------------------ *)
(* Table 2: breakdown of an intra-node message to a dormant object     *)
(* ------------------------------------------------------------------ *)

let table2 () =
  header "Table 2: Breakdown of intra-node message to dormant object";
  let row name instr = Format.printf "%-34s %4d instructions@." name instr in
  row "Check Locality" cost.check_locality;
  row "Lookup and Call" cost.vft_lookup_call;
  row "Switch VFTP to Active Mode" cost.switch_vft;
  row "Execution of Method Body" 0;
  row "Check Message Queue" cost.check_message_queue;
  row "Switch VFTP to Dormant Mode" cost.switch_vft;
  row "Polling of Remote Message" cost.poll_remote;
  row "Adjusting Stack Pointer and Return" cost.stack_adjust_return;
  let total = Machine.Cost_model.dormant_send_instructions cost in
  Format.printf "%-34s %4d instructions (paper: 25)@." "Total" total;
  let m = Apps.Microbench.measure () in
  Format.printf
    "measured: %.0f ns = %.1f instructions at %d ns/instr (paper: 2.3 us)@."
    m.Apps.Microbench.intra_dormant_ns
    (m.intra_dormant_ns /. float_of_int cost.ns_per_instr)
    cost.ns_per_instr;
  Format.printf
    "inlined best case (Section 8.2 + Section 6.1 optimisations): %.0f ns@."
    m.inlined_send_ns

(* ------------------------------------------------------------------ *)
(* Table 3: send/reply latency comparison                              *)
(* ------------------------------------------------------------------ *)

let table3 () =
  header "Table 3: Comparison of send/reply latency";
  let m = Apps.Microbench.measure () in
  let ours_us = m.Apps.Microbench.now_roundtrip_remote_ns /. 1000. in
  let sum2 = 2. *. m.inter_latency_ns /. 1000. in
  let row name instr us cycles mhz =
    Format.printf "%-24s %5d instr %8.1f us %6d cycles @@ %4.1f MHz@." name
      instr us cycles mhz
  in
  Format.printf
    "%-24s %5.0f instr %8.1f us %6.0f cycles @@ %4.1f MHz  (measured now-type rtt)@."
    "this reproduction"
    (ours_us *. 1000. /. float_of_int cost.ns_per_instr)
    ours_us (ours_us *. 25.) 25.;
  Format.printf "%-24s %11s %14.1f us  (2 x one-way, the paper's accounting)@."
    "this reproduction" "" sum2;
  row "ABCL/onAP1000 [paper]" 160 17.8 450 25.;
  row "ABCL/onEM-4 [14]" 100 9.0 110 12.5;
  row "CST (J-Machine) [5]" 110 4.0 220 50.

(* ------------------------------------------------------------------ *)
(* Table 4: the scale of the N-queen program                           *)
(* ------------------------------------------------------------------ *)

let table4 ~full () =
  header "Table 4: Scale of the N-queen program";
  let cases = if full then [ (8, 64); (13, 512) ] else [ (8, 64); (11, 256) ] in
  Format.printf "%4s %12s %12s %12s %12s %14s@." "N" "#solutions" "#creations"
    "#messages" "memory(KB)" "seq elapsed";
  List.iter
    (fun (n, p) ->
      let seq = Apps.Nqueens_seq.solve ~n in
      let seq_t = Apps.Nqueens_seq.modeled_time cost seq in
      let r = Apps.Nqueens_par.run ~nodes:p ~n () in
      Format.printf "%4d %12d %12d %12d %12d %11.0f ms@." n
        r.Apps.Nqueens_par.solutions r.objects_created r.messages
        (r.heap_words * 4 / 1024)
        (Simcore.Time.to_ms seq_t))
    cases;
  Format.printf
    "paper: N=8  ->     92 solutions,   2,056 creations,   4,104 messages, 130 KB, 84 ms@.";
  Format.printf
    "paper: N=13 -> 73,712 solutions, ~4.64 M creations, ~9.35 M messages, 549 MB, 462 s@."

(* ------------------------------------------------------------------ *)
(* Figure 5: speedup of the N-queen program                            *)
(* ------------------------------------------------------------------ *)

let fig5_series ~n ~procs =
  let seq = Apps.Nqueens_seq.solve ~n in
  let seq_t = Apps.Nqueens_seq.modeled_time cost seq in
  List.map
    (fun p ->
      let r = Apps.Nqueens_par.run ~nodes:p ~n () in
      ( p,
        Simcore.Time.to_ms r.Apps.Nqueens_par.elapsed,
        float_of_int seq_t /. float_of_int r.elapsed,
        r.utilization ))
    procs

let fig5 ~full () =
  header "Figure 5: Speedup for N-queen problem";
  let print_series ~n series =
    Format.printf "N = %d:@." n;
    Format.printf "  %6s %12s %10s %12s@." "#proc" "elapsed(ms)" "speedup"
      "utilization";
    List.iter
      (fun (p, ms, speedup, util) ->
        Format.printf "  %6d %12.2f %10.1f %11.0f%%@." p ms speedup
          (100. *. util))
      series
  in
  print_series ~n:8 (fig5_series ~n:8 ~procs:[ 1; 2; 4; 8; 16; 32; 64 ]);
  if full then
    print_series ~n:13 (fig5_series ~n:13 ~procs:[ 64; 128; 256; 512 ])
  else print_series ~n:11 (fig5_series ~n:11 ~procs:[ 1; 4; 16; 64; 256 ]);
  Format.printf
    "paper: N=8 -> ~20x at 64 procs; N=13 -> ~440x at 512 procs (85%% util)@."

(* ------------------------------------------------------------------ *)
(* Figure 6: effect of stack-based scheduling                          *)
(* ------------------------------------------------------------------ *)

let fig6 ~full () =
  header "Figure 6: Stack-based vs naive scheduling (N-queens, 64 nodes)";
  let ns = if full then [ 9; 10; 11; 12 ] else [ 9; 10; 11 ] in
  let series name placement =
    Format.printf "placement: %s@." name;
    Format.printf "%4s %14s %18s %10s %22s@." "N" "naive (ms)"
      "stack-based (ms)" "speedup" "local msgs to dormant";
    List.iter
      (fun n ->
        let base = { System.default_rt_config with Kernel.placement } in
        let stack = Apps.Nqueens_par.run ~rt_config:base ~nodes:64 ~n () in
        let naive =
          Apps.Nqueens_par.run
            ~rt_config:{ base with Kernel.sched_kind = Kernel.Naive }
            ~nodes:64 ~n ()
        in
        Format.printf "%4d %14.2f %18.2f %9.1f%% %20.0f%%@." n
          (Simcore.Time.to_ms naive.Apps.Nqueens_par.elapsed)
          (Simcore.Time.to_ms stack.Apps.Nqueens_par.elapsed)
          (100.
          *. (float_of_int (naive.Apps.Nqueens_par.elapsed - stack.elapsed)
             /. float_of_int stack.elapsed))
          (100. *. stack.local_dormant_fraction))
      ns
  in
  (* Global round robin minimises locality; the neighbour policy — a
     "local information" placement like the paper's — reproduces the
     paper's ~30% benefit of stack-based scheduling. *)
  series "round-robin (locality ~1/64)" Kernel.Round_robin;
  series "neighbor round-robin (locality ~1/5)" Kernel.Neighbor_round_robin;
  Format.printf
    "paper: ~30%% speedup; ~75%% of local messages go to dormant objects@."

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md section 5)                                     *)
(* ------------------------------------------------------------------ *)

let ablations () =
  header "Ablation: polling vs interrupt delivery (ring latency)";
  let latency config =
    let r = Apps.Ring.run ~machine_config:config ~nodes:16 ~laps:64 () in
    r.Apps.Ring.ns_per_hop /. 1000.
  in
  let polling = Machine.Engine.default_config in
  let interrupt =
    { polling with Machine.Engine.delivery = Machine.Engine.Interrupt }
  in
  Format.printf "polling:   %.2f us/hop@." (latency polling);
  Format.printf "interrupt: %.2f us/hop@." (latency interrupt);

  header "Ablation: chunk stock size (N-queens, N=10, 64 nodes)";
  Format.printf "%6s %12s %10s %12s@." "stock" "elapsed(ms)" "stalls" "refills";
  List.iter
    (fun stock ->
      let rt_config =
        { System.default_rt_config with Kernel.stock_size = stock }
      in
      let cls = Apps.Nqueens_par.solver_cls () in
      let sys = System.boot ~rt_config ~nodes:64 ~classes:[ cls ] () in
      let root =
        System.create_root sys ~node:0 cls
          [ Value.int 10; Value.int Apps.Queens_board.empty_packed; Value.unit ]
      in
      System.send_boot sys root (Pattern.intern "expand" ~arity:0) [];
      System.run sys;
      let st = System.stats sys in
      Format.printf "%6d %12.2f %10d %12d@." stock
        (Simcore.Time.to_ms (System.elapsed sys))
        (Simcore.Stats.get st "chunk.stall")
        (Simcore.Stats.get st "chunk.refill"))
    [ 1; 2; 4; 8 ];

  header "Ablation: link contention (N-queens, N=10, 64 nodes)";
  let run_contention contention =
    let machine_config =
      {
        Machine.Engine.default_config with
        Machine.Engine.fabric =
          { Network.Fabric.default_config with Network.Fabric.contention };
      }
    in
    Apps.Nqueens_par.run ~machine_config ~nodes:64 ~n:10 ()
  in
  let free = run_contention false and busy = run_contention true in
  Format.printf
    "contention-free: %.2f ms, with per-link contention: %.2f ms (%+.1f%%)@."
    (Simcore.Time.to_ms free.Apps.Nqueens_par.elapsed)
    (Simcore.Time.to_ms busy.Apps.Nqueens_par.elapsed)
    (100.
    *. float_of_int (busy.Apps.Nqueens_par.elapsed - free.elapsed)
    /. float_of_int free.elapsed);

  header "Ablation: inlined vs generic dormant send";
  let m = Apps.Microbench.measure () in
  Format.printf "generic: %.0f ns, inlined: %.0f ns, fully optimised: %.0f ns@."
    m.Apps.Microbench.intra_dormant_ns m.inlined_send_ns m.lean_send_ns;

  header
    "Ablation: placement locality vs scheduling benefit (N-queens, N=10, 64 nodes)";
  (* The stack-based fast path only applies to local messages, so the
     naive-scheduler gap grows with placement locality: global round
     robin keeps ~1/64 of messages local, neighbour round robin ~1/5,
     self-placement all of them. *)
  Format.printf "%-14s %12s %12s %10s %12s@." "placement" "stack(ms)"
    "naive(ms)" "gain" "local msgs";
  List.iter
    (fun (name, placement) ->
      let base = { System.default_rt_config with Kernel.placement } in
      let stack = Apps.Nqueens_par.run ~rt_config:base ~nodes:64 ~n:10 () in
      let naive =
        Apps.Nqueens_par.run
          ~rt_config:{ base with Kernel.sched_kind = Kernel.Naive }
          ~nodes:64 ~n:10 ()
      in
      let st = stack.Apps.Nqueens_par.elapsed in
      let nv = naive.Apps.Nqueens_par.elapsed in
      Format.printf "%-14s %12.2f %12.2f %9.1f%% %11.0f%%@." name
        (Simcore.Time.to_ms st) (Simcore.Time.to_ms nv)
        (100. *. float_of_int (nv - st) /. float_of_int st)
        (100. *. stack.local_fraction))
    [
      ("round-robin", Kernel.Round_robin);
      ("neighbor", Kernel.Neighbor_round_robin);
      ("self", Kernel.Self_node);
    ]

(* ------------------------------------------------------------------ *)
(* Degradation: fault injection + reliable delivery                    *)
(* ------------------------------------------------------------------ *)

let fault_config plan =
  {
    Machine.Engine.default_config with
    Machine.Engine.faults = (if Network.Faults.is_fault_free plan then None else Some plan);
  }

(* ------------------------------------------------------------------ *)
(* Parallel feature envelope: fault plans, coalescing, and crash       *)
(* recovery under the domain-sharded engine                            *)
(* ------------------------------------------------------------------ *)

type Machine.Am.payload += Pe_seq of { k : int }

type envelope_feature = Env_faults | Env_coalesce | Env_recover

let envelope_feature_name = function
  | Env_faults -> "faults"
  | Env_coalesce -> "coalesce"
  | Env_recover -> "recover"

type envelope_result = {
  e_hash : int;
  e_sent : int;
  e_lost : int;
  e_dup : int;
  e_in_flight : int;
  e_retransmits : int;
  e_drops : int;
  e_batches : int;
  e_restarts : int;
  e_crashes : int;
  e_recovery_max : int;
  e_audit : string list;
}

(* One hostile run at [domains]: sequenced 16-byte bursts on a ring
   (node s -> s+3) under a lossy, duplicating, jittering fabric, plus
   the feature's own machinery (framed batches, scripted crash windows
   with the recovery manager attached). Every construct is
   parallel-safe: timers are node-owned and post to their own node,
   sent counters are per-source (a single writing domain each), and
   receive-side state lives in per-node tables covered by the recovery
   snapshot. [source] supplies the node-keyed decision streams, so a
   recorded sharded schedule replays the run bit-identically at any
   domain count. *)
let envelope_burst ~feature ~rounds ~burst ~domains ~source () =
  let module Engine = Machine.Engine in
  let nodes = 8 in
  let plan =
    Network.Faults.plan ~seed:29 ~drop:0.02 ~duplicate:0.01 ~jitter_ns:400 ()
  in
  let coalesce =
    match feature with
    | Env_faults -> None
    | Env_coalesce | Env_recover ->
        Some
          {
            Machine.Coalesce.default_config with
            Machine.Coalesce.max_delay_ns = 2_000;
          }
  in
  let config =
    { Engine.default_config with Engine.faults = Some plan; coalesce }
  in
  let m = Engine.create ~config ~nodes () in
  Engine.set_node_decision_source m (Some source);
  let tl = Services.Timeline.attach_machine m in
  let next = Array.init nodes (fun _ -> Hashtbl.create 16) in
  let h =
    Engine.register_handler m Machine.Am.Service ~name:"envelope-seq"
      (fun _ node am ->
        match am.Machine.Am.payload with
        | Pe_seq { k } ->
            let me = Machine.Node.id node in
            let src = am.Machine.Am.src in
            let e = Option.value (Hashtbl.find_opt next.(me) src) ~default:0 in
            Hashtbl.replace next.(me) src (max (k + 1) e)
        | _ -> ())
  in
  let crashes =
    match feature with
    | Env_recover ->
        [
          {
            Recover.Manager.cs_node = 3;
            cs_at = 40_000;
            cs_down_ns = 30_000;
            cs_jitter_ns = 1_000;
          };
          {
            Recover.Manager.cs_node = 5;
            cs_at = 95_000;
            cs_down_ns = 30_000;
            cs_jitter_ns = 1_000;
          };
        ]
    | _ -> []
  in
  let mgr =
    match feature with
    | Env_recover ->
        let app =
          {
            Recover.Manager.a_snapshot =
              (fun node ->
                let slice =
                  Hashtbl.fold (fun s k acc -> (s, k) :: acc) next.(node) []
                in
                Some (Marshal.to_bytes (List.sort compare slice) []));
            a_restore =
              (fun node b ->
                Hashtbl.reset next.(node);
                List.iter
                  (fun (s, k) -> Hashtbl.replace next.(node) s k)
                  (Marshal.from_bytes b 0 : (int * int) list));
            a_reset = (fun node -> Hashtbl.reset next.(node));
          }
        in
        Some (Recover.Manager.attach m ~app ~crashes ())
    | _ -> None
  in
  (* Sent counters tick at actual send time inside the owning node's
     thunk, so bursts skipped on a down sender never count as sent. *)
  let sent = Array.make (nodes * nodes) 0 in
  for s = 0 to nodes - 1 do
    for r = 0 to rounds - 1 do
      Engine.schedule_on m ~node:s ~time:(12_000 + (r * 20_000)) (fun () ->
          if not (Engine.node_down m s) then
            Engine.post m (Engine.node m s) (fun () ->
                let src = Engine.node m s in
                let dst = (s + 3) mod nodes in
                let key = (s * nodes) + dst in
                for _ = 1 to burst do
                  Engine.send_am m ~src ~dst ~handler:h ~size_bytes:16
                    (Pe_seq { k = sent.(key) });
                  sent.(key) <- sent.(key) + 1
                done))
    done
  done;
  Engine.run_parallel m ~domains ();
  note_machine_events m;
  let hash = Services.Timeline.hash tl in
  Services.Timeline.detach tl;
  let lost = ref 0 and dup = ref 0 and total_sent = ref 0 in
  for s = 0 to nodes - 1 do
    for d = 0 to nodes - 1 do
      let k = sent.((s * nodes) + d) in
      if k > 0 then begin
        total_sent := !total_sent + k;
        let got = Option.value (Hashtbl.find_opt next.(d) s) ~default:0 in
        if got < k then lost := !lost + (k - got);
        if got > k then incr dup
      end
    done
  done;
  let st = Engine.stats m in
  let audit =
    match mgr with Some g -> Recover.Manager.audit_quiescent g | None -> []
  in
  let recovery_max =
    List.fold_left
      (fun acc cs ->
        match mgr with
        | Some g -> max acc (Recover.Manager.recovery_ns g cs.Recover.Manager.cs_node)
        | None -> acc)
      0 crashes
  in
  (match mgr with Some g -> Recover.Manager.detach g | None -> ());
  {
    e_hash = hash;
    e_sent = !total_sent;
    e_lost = !lost;
    e_dup = !dup;
    e_in_flight = Engine.reliable_in_flight m;
    e_retransmits = Simcore.Stats.get st "reliable.retransmit";
    e_drops = Engine.packets_dropped m;
    e_batches = Simcore.Stats.get st "coalesce.batch";
    e_restarts = Simcore.Stats.get st "recover.restarts";
    e_crashes = List.length crashes;
    e_recovery_max = recovery_max;
    e_audit = audit;
  }

(* Run the feature at 1 domain and at [domains] from the same recorded
   sharded schedule, gate on identical Timeline hashes plus the
   feature's own invariants (exactly-once; batches actually formed;
   restarts = crashes and bounded recovery), and return the parallel
   hash with the JSON fields for the caller's metrics file. Exits
   nonzero on any failure, like every other bench gate. *)
let envelope_section ~feature ~smoke ~domains () =
  let module J = Services.Bench_json in
  let name = envelope_feature_name feature in
  header
    (Printf.sprintf "Parallel envelope: %s under %d domain(s)" name domains);
  let rounds = if smoke then 4 else 8 in
  let burst = if smoke then 8 else 16 in
  let seed =
    match feature with Env_faults -> 101 | Env_coalesce -> 102 | Env_recover -> 103
  in
  let sh = Check.Schedule.record_sharded ~seed ~nodes:8 in
  let r1 =
    envelope_burst ~feature ~rounds ~burst ~domains:1
      ~source:(Check.Schedule.node_source sh) ()
  in
  let traces = Check.Schedule.traces sh in
  let rd =
    envelope_burst ~feature ~rounds ~burst ~domains
      ~source:(Check.Schedule.node_source (Check.Schedule.replay_sharded traces))
      ()
  in
  Format.printf "%d msg(s): hash %016x at 1 domain, %016x at %d domain(s) %s@."
    r1.e_sent r1.e_hash rd.e_hash domains
    (if r1.e_hash = rd.e_hash then "(identical)" else "(MISMATCH)");
  Format.printf
    "exactly-once: %d lost, %d dup channel(s), %d in flight; %d \
     retransmit(s), %d drop(s)@."
    rd.e_lost rd.e_dup rd.e_in_flight rd.e_retransmits rd.e_drops;
  (match feature with
  | Env_coalesce | Env_recover ->
      Format.printf "batches formed under domains: %d@." rd.e_batches
  | Env_faults -> ());
  (match feature with
  | Env_recover ->
      Format.printf "restarts %d of %d crash(es), worst recovery %.1f us@."
        rd.e_restarts rd.e_crashes
        (float_of_int rd.e_recovery_max /. 1000.)
  | _ -> ());
  List.iter (fun v -> Format.printf "AUDIT %s@." v) (r1.e_audit @ rd.e_audit);
  let fail msg =
    Format.printf "FAILED parallel envelope (%s): %s@." name msg;
    exit 1
  in
  if rd.e_hash <> r1.e_hash then
    fail "Timeline hash differs across domain counts";
  if r1.e_sent <> rd.e_sent then
    fail "send counts differ across domain counts";
  if r1.e_lost + rd.e_lost > 0 || r1.e_dup + rd.e_dup > 0 then
    fail "exactly-once violated";
  if rd.e_in_flight <> 0 || r1.e_in_flight <> 0 then
    fail "reliable layer not drained";
  if r1.e_audit <> [] || rd.e_audit <> [] then fail "recovery audit unclean";
  (match feature with
  | Env_coalesce | Env_recover ->
      if rd.e_batches < 1 then fail "no batches formed under domains"
  | Env_faults -> ());
  (match feature with
  | Env_recover ->
      if rd.e_restarts <> rd.e_crashes then fail "restart count <> crash count";
      if rd.e_recovery_max > 2_000_000 then fail "recovery exceeded 2 ms"
  | _ -> ());
  ( rd.e_hash,
    [
      (name ^ "_env_domains", J.Int domains);
      (name ^ "_hash", J.Str (Printf.sprintf "%016x" rd.e_hash));
      (name ^ "_hash_int", J.Int rd.e_hash);
      (name ^ "_sent", J.Int rd.e_sent);
    ] )

let faults ~smoke ~domains () =
  header "Degradation: N-queens (N=8, 16 nodes) under fault injection";
  section_start ();
  let nodes = 16 and n = 8 in
  let run_plan plan =
    let r, sys =
      Apps.Nqueens_par.run_sys ~machine_config:(fault_config plan) ~nodes ~n ()
    in
    note_events sys;
    (r, sys)
  in
  let rates = if smoke then [ 0.0; 0.05 ] else [ 0.0; 0.01; 0.02; 0.05; 0.10 ] in
  let base = ref 0 in
  (* Headline numbers at the worst drop rate, for the metrics file. *)
  let j_slowdown = ref 1.0
  and j_drops = ref 0
  and j_dups = ref 0
  and j_rexmit = ref 0
  and j_acks = ref 0
  and j_clean = ref true in
  Format.printf "%6s %10s %12s %9s %8s %6s %8s %6s %8s %6s@." "drop"
    "solutions" "elapsed(ms)" "slowdown" "dropped" "dup" "rexmit" "dupdis"
    "acks" "clean";
  List.iter
    (fun rate ->
      let plan =
        Network.Faults.plan ~seed:42 ~drop:rate ~duplicate:(rate /. 2.)
          ~jitter_ns:2_000 ()
      in
      let r, sys = run_plan plan in
      if rate = 0.0 then base := r.Apps.Nqueens_par.elapsed;
      let clean = Diagnostics.is_clean (Diagnostics.survey sys) in
      let m = System.machine sys and get = Simcore.Stats.get (System.stats sys) in
      let drops = Machine.Engine.packets_dropped m
      and dups = Machine.Engine.packets_duplicated m
      and rexmit = get "reliable.retransmit" + get "reliable.fast_retransmit"
      and dupdis = get "reliable.dup_discard"
      and acks = get "reliable.ack" in
      Format.printf "%5.0f%% %10d %12.2f %8.2fx %8d %6d %8d %6d %8d %6s@."
        (100. *. rate) r.Apps.Nqueens_par.solutions
        (Simcore.Time.to_ms r.elapsed)
        (float_of_int r.elapsed /. float_of_int !base)
        drops dups rexmit dupdis acks
        (if clean then "yes" else "NO");
      j_slowdown := float_of_int r.elapsed /. float_of_int !base;
      j_drops := drops;
      j_dups := dups;
      j_rexmit := rexmit;
      j_acks := acks;
      j_clean := !j_clean && clean;
      if not clean then begin
        Format.printf "  diagnostics:@.";
        Format.printf "  %a@." Diagnostics.pp (Diagnostics.survey sys)
      end)
    rates;

  header "Crash/recover: node 3 NIC down for 2 ms mid-run (plus 1% drop)";
  let plan =
    Network.Faults.plan ~seed:7 ~drop:0.01
      ~crashes:
        [ { Network.Faults.node = 3; from_ns = 100_000; until_ns = 2_100_000 } ]
      ()
  in
  let r, sys = run_plan plan in
  let clean = Diagnostics.is_clean (Diagnostics.survey sys) in
  Format.printf
    "solutions %d (expect 92), elapsed %.2f ms, quiescence %s@."
    r.Apps.Nqueens_par.solutions
    (Simcore.Time.to_ms r.elapsed)
    (if clean then "clean" else "DIRTY");
  Format.printf "%d dropped (%d in the down window), %d duplicated@.%a@."
    (Machine.Engine.packets_dropped (System.machine sys))
    (Machine.Engine.crash_dropped (System.machine sys))
    (Machine.Engine.packets_duplicated (System.machine sys))
    (Simcore.Stats.pp_layer ~prefix:"reliable.")
    (System.stats sys);
  Format.printf
    "chunk-stall wait while partitioned: %d ns total@."
    (Simcore.Stats.get (System.stats sys) "chunk.stall.wait_ns");
  let env_fields =
    if domains > 1 then
      snd (envelope_section ~feature:Env_faults ~smoke ~domains ())
    else []
  in
  Services.Bench_json.write ~path:"BENCH_faults.json"
    (Services.Bench_json.
       [
         ("smoke", Bool smoke);
         ("drop_max_pct", Float (100. *. List.fold_left Float.max 0. rates));
         ("slowdown_at_max_drop", Float !j_slowdown);
         ("drops", Int !j_drops);
         ("dups", Int !j_dups);
         ("retransmits", Int !j_rexmit);
         ("acks", Int !j_acks);
         ("clean", Bool !j_clean);
         ("crash_solutions", Int r.Apps.Nqueens_par.solutions);
         ("crash_elapsed_ns", Int r.Apps.Nqueens_par.elapsed);
         ("crash_clean", Bool clean);
       ]
    @ env_fields @ perf_fields ());
  Format.printf "metrics written to BENCH_faults.json@."

(* ------------------------------------------------------------------ *)
(* Migration: hot-spot rebalancing and affinity                        *)
(* ------------------------------------------------------------------ *)

(* Root solutions after a migration run: the root itself may have moved,
   so scan every node for its non-stub record. *)
let migrated_root_solutions sys ~nodes root =
  let rec scan node =
    if node >= nodes then -1
    else
      let rt = System.rt sys node in
      let found =
        Hashtbl.fold
          (fun _ (o : Kernel.obj) acc ->
            match acc with
            | Some _ -> acc
            | None ->
                if
                  o.Kernel.self = root
                  &&
                  match o.Kernel.vftp.Kernel.vft_kind with
                  | Kernel.Vft_forward _ -> false
                  | _ -> true
                then Some o
                else None)
          rt.Kernel.objects None
      in
      match found with
      | Some o -> Value.to_int o.Kernel.state.(4)
      | None -> scan (node + 1)
  in
  scan 0

let migrate_queens ?policy ?(gossip_ns = 0) ~rt_config ~nodes ~n () =
  let cls = Apps.Nqueens_par.solver_cls () in
  let rt_config =
    { rt_config with Kernel.gossip_interval_ns = gossip_ns }
  in
  let sys = System.boot ~rt_config ~nodes ~classes:[ cls ] () in
  let m =
    match policy with
    | None -> None
    | Some policy ->
        let load = Services.Load.attach sys in
        Some (Migrate.attach ~policy ~interval_ns:100_000 ~load sys)
  in
  let root =
    System.create_root sys ~node:0 cls
      [ Value.int n; Value.int Apps.Queens_board.empty_packed; Value.unit ]
  in
  System.send_boot sys root (Pattern.intern "expand" ~arity:0) [];
  System.run sys;
  (sys, m, migrated_root_solutions sys ~nodes root)

let migrate_bench ~smoke () =
  header "Migration: hot-spot rebalancing (N-queens, all work born on node 0)";
  section_start ();
  let nodes = 16 in
  let n = if smoke then 7 else 8 in
  let expected = [| 1; 1; 0; 0; 2; 10; 4; 40; 92 |].(n) in
  (* Self-placement under the naive scheduler concentrates the whole
     solver tree on node 0 and makes queued work visible as load — the
     worst case a load policy must dig itself out of. *)
  let skewed =
    {
      System.default_rt_config with
      Kernel.placement = Kernel.Self_node;
      sched_kind = Kernel.Naive;
    }
  in
  let balanced = { skewed with Kernel.placement = Kernel.Round_robin } in
  Format.printf "%-28s %12s %8s %7s %9s %6s %6s %10s@." "configuration"
    "elapsed(ms)" "speedup" "moves" "forwarded" "chain" "sol" "ok";
  let baseline = ref 0 in
  let row name ?policy ?gossip_ns rt_config =
    let sys, m, solutions =
      migrate_queens ?policy ?gossip_ns ~rt_config ~nodes ~n ()
    in
    note_events sys;
    let elapsed = System.elapsed sys in
    if !baseline = 0 then baseline := elapsed;
    let speedup = float_of_int !baseline /. float_of_int elapsed in
    let moves, fwd, chain, conserved =
      match m with
      | None -> (0, 0, 0, true)
      | Some m ->
          ( Migrate.migrations m,
            Migrate.forwarded m,
            Migrate.max_stub_chain m,
            Migrate.residual m = (0, 0) )
    in
    let ok =
      solutions = expected && conserved
      && Diagnostics.is_clean (Diagnostics.survey sys)
    in
    Format.printf "%-28s %12.2f %7.2fx %7d %9d %6d %6d %10s@." name
      (Simcore.Time.to_ms elapsed) speedup moves fwd chain solutions
      (if ok then "yes" else "NO");
    (speedup, chain)
  in
  let _ = row "skewed, no migration" skewed in
  let speedup, chain =
    row "skewed + load-threshold"
      ~policy:
        (Migrate.Policy.Load_threshold
           { factor = 6.0; min_queue = 1; max_moves = 8 })
      ~gossip_ns:100_000 skewed
  in
  let _ =
    row "skewed + affinity-pull"
      ~policy:(Migrate.Policy.Affinity_pull { min_msgs = 4; max_moves = 4 })
      ~gossip_ns:100_000 skewed
  in
  let _ = row "balanced placement (ref)" balanced in
  Format.printf
    "load-threshold speedup %.2fx over the skewed baseline (gate: >= 2x), steady-state chain %d (gate: <= 1)@."
    speedup chain;
  if speedup < 2.0 || chain > 1 then begin
    Format.printf "FAILED hot-spot gate@.";
    exit 1
  end;

  header "Migration: affinity payoff (8 ping-pong pairs, 16 nodes)";
  (* Eight latency-bound request/reply pairs, each split across the
     torus. A worker's messages all come from its partner's node, so
     the affinity policy co-locates every pair (the partner stays put:
     co-located traffic reads as self-sent, never a majority from a
     remote node); the remaining rounds run at intra-node cost instead
     of crossing the fabric. Pulling correspondents together only pays
     while the pair is latency-bound — co-locating onto a saturated
     node would trade fabric latency for compute contention. *)
  let rounds = if smoke then 64 else 256 in
  let p_ping = Pattern.intern "ping" ~arity:1 in
  let p_pong = Pattern.intern "pong" ~arity:0 in
  let hub_cls =
    Class_def.define ~name:"hub" ~state:[||]
      ~init:(fun _ -> [||])
      ~methods:
        [
          ( p_ping,
            fun ctx msg ->
              Ctx.send ctx (Value.to_addr (Message.arg msg 0)) p_pong [] );
        ]
      ()
  in
  let worker_cls =
    Class_def.define ~name:"spoke" ~state:[| "hub"; "left" |]
      ~init:(fun args ->
        match args with
        | [ hub; left ] -> [| hub; left |]
        | _ -> invalid_arg "spoke")
      ~methods:
        [
          ( p_pong,
            fun ctx _ ->
              let left = Value.to_int (Ctx.get ctx 1) in
              if left > 0 then begin
                Ctx.set ctx 1 (Value.int (left - 1));
                Ctx.send ctx
                  (Value.to_addr (Ctx.get ctx 0))
                  p_ping
                  [ Value.addr (Ctx.self ctx) ]
              end );
        ]
      ()
  in
  let hub_row name ~policy =
    let sys =
      System.boot ~nodes ~classes:[ hub_cls; worker_cls ] ()
    in
    let m =
      Option.map (fun policy -> Migrate.attach ~policy ~interval_ns:100_000 sys)
        policy
    in
    for i = 0 to (nodes / 2) - 1 do
      let hub = System.create_root sys ~node:i hub_cls [] in
      let w =
        System.create_root sys ~node:(i + (nodes / 2)) worker_cls
          [ Value.addr hub; Value.int rounds ]
      in
      System.send_boot sys w p_pong []
    done;
    System.run sys;
    note_events sys;
    let moves, colocated =
      match m with
      | None -> (0, 0)
      | Some m -> (Migrate.migrations m, Migrate.colocated_sends m)
    in
    Format.printf "%-28s %9.2f ms %6d moves %9d colocated sends@." name
      (Simcore.Time.to_ms (System.elapsed sys))
      moves colocated;
    System.elapsed sys
  in
  let base = hub_row "pairs, no migration" ~policy:None in
  let aff =
    hub_row "pairs + affinity-pull"
      ~policy:
        (Some (Migrate.Policy.Affinity_pull { min_msgs = 4; max_moves = 4 }))
  in
  Format.printf "affinity cut elapsed by %.1f%%@."
    (100. *. float_of_int (base - aff) /. float_of_int base);
  Services.Bench_json.write ~path:"BENCH_migrate.json"
    (Services.Bench_json.
       [
         ("smoke", Bool smoke);
         ("hotspot_speedup", Float speedup);
         ("steady_chain", Int chain);
         ("affinity_base_ns", Int base);
         ("affinity_pull_ns", Int aff);
         ( "affinity_improvement_pct",
           Float (100. *. float_of_int (base - aff) /. float_of_int base) );
       ]
    @ perf_fields ());
  Format.printf "metrics written to BENCH_migrate.json@."

(* ------------------------------------------------------------------ *)
(* Distributed GC: churn steady state and migrated-object reclamation  *)
(* ------------------------------------------------------------------ *)

let dgc_total_records sys =
  let n = System.node_count sys in
  let total = ref 0 in
  for node = 0 to n - 1 do
    total := !total + Hashtbl.length (System.rt sys node).Kernel.objects
  done;
  !total

let dgc_bench ~smoke () =
  header "Distributed GC: churn steady-state memory";
  section_start ();
  let nodes = if smoke then 4 else 16 in
  let per_node = if smoke then 80 else 640 in
  let keep = 4 in
  let p_cycle = Pattern.intern "dgcb_cycle" ~arity:0 in
  let p_poke = Pattern.intern "dgcb_poke" ~arity:1 in
  let p_spawn = Pattern.intern "dgcb_spawn" ~arity:1 in
  let p_drop = Pattern.intern "dgcb_drop" ~arity:0 in
  let cell_cls =
    Class_def.define ~name:"dgcb_cell" ~state:[| "v" |]
      ~init:(fun _ -> [| Value.int 0 |])
      ~methods:[ (p_poke, fun ctx msg -> Ctx.set ctx 0 (Message.arg msg 0)) ]
      ()
  in
  (* Each cycle creates a cell on another node, pokes it, and keeps only
     the [keep] newest references: one create + one drop per cycle, a
     constant live set, and linear garbage for the collector to chase. *)
  let churn_cls =
    Class_def.define ~name:"dgcb_churner" ~state:[| "refs"; "i" |]
      ~init:(fun _ -> [| Value.List []; Value.int 0 |])
      ~methods:
        [
          ( p_cycle,
            fun ctx _ ->
              let i = Value.to_int (Ctx.get ctx 1) in
              if i < per_node then begin
                let p = Ctx.node_count ctx in
                let target = (Ctx.node_id ctx + 1 + (i mod (p - 1))) mod p in
                let a = Ctx.create_on ctx ~target cell_cls [] in
                Ctx.send ctx a p_poke [ Value.int i ];
                let refs =
                  match Ctx.get ctx 0 with Value.List l -> l | _ -> []
                in
                let kept = List.filteri (fun j _ -> j < keep - 1) refs in
                Ctx.set ctx 0 (Value.List (Value.Addr a :: kept));
                Ctx.set ctx 1 (Value.int (i + 1));
                Ctx.send ctx (Ctx.self ctx) p_cycle []
              end );
          ( p_spawn,
            fun ctx msg ->
              let target = Value.to_int (Message.arg msg 0) in
              let a = Ctx.create_on ctx ~target cell_cls [] in
              Ctx.send ctx a p_poke [ Value.int 1 ];
              let refs =
                match Ctx.get ctx 0 with Value.List l -> l | _ -> []
              in
              Ctx.set ctx 0 (Value.List (Value.Addr a :: refs)) );
          (p_drop, fun ctx _ -> Ctx.set ctx 0 (Value.List []));
        ]
      ()
  in
  let boot_churn ~with_gc =
    let sys = System.boot ~nodes ~classes:[ cell_cls; churn_cls ] () in
    let g =
      if with_gc then Some (Dgc.attach ~interval_ns:200_000 sys) else None
    in
    for node = 0 to nodes - 1 do
      let d = System.create_root sys ~node churn_cls [] in
      System.send_boot sys d p_cycle []
    done;
    (sys, g)
  in
  let cycles = nodes * per_node in
  let live = nodes * (1 + keep) in

  (* Recycling on: the collector rides a periodic timer during the run,
     then settles the reclamation cascade. *)
  let sys, g = boot_churn ~with_gc:true in
  let g = Option.get g in
  System.run sys;
  Dgc.settle g;
  note_events sys;
  let resident = dgc_total_records sys in
  let recycled =
    Simcore.Stats.get (System.stats sys) "slot.recycled"
  in
  Format.printf
    "with dgc:    %6d create/drop cycles, live set %4d -> resident %6d \
     record(s); %d reclaimed, %d restocked, %d slot(s) recycled@."
    cycles live resident (Dgc.reclaimed g) (Dgc.restocked g) recycled;
  Format.printf "%a@." (Simcore.Stats.pp_layer ~prefix:"dgc.") (System.stats sys);

  (* Recycling off: same workload, collector never attached — memory
     can only grow. Probe events at fractions of the managed run's
     elapsed time sample the growth curve to show it is monotone. *)
  let t_end = System.elapsed sys in
  let sys_off, _ = boot_churn ~with_gc:false in
  let samples = ref [] in
  let machine_off = System.machine sys_off in
  for k = 1 to 8 do
    Machine.Engine.schedule_at machine_off ~time:(k * t_end / 8) (fun () ->
        samples := dgc_total_records sys_off :: !samples)
  done;
  System.run sys_off;
  note_events sys_off;
  samples := dgc_total_records sys_off :: !samples;
  let samples = List.rev !samples in
  let monotonic =
    fst
      (List.fold_left
         (fun (ok, prev) s -> (ok && s >= prev, s))
         (true, 0) samples)
  in
  let resident_off = List.fold_left max 0 samples in
  Format.printf
    "without dgc: %6d create/drop cycles, live set %4d -> resident %6d \
     record(s), growth monotone: %b@."
    cycles live resident_off monotonic;
  Format.printf
    "steady-state gate: resident %d <= 2x live %d; unmanaged growth %d >= \
     cycles %d@."
    resident (2 * live) resident_off cycles;
  if resident > 2 * live then begin
    Format.printf "FAILED steady-state memory gate@.";
    exit 1
  end;
  if (not monotonic) || resident_off < cycles then begin
    Format.printf "FAILED unmanaged-growth control gate@.";
    exit 1
  end;
  if recycled = 0 || Dgc.restocked g = 0 then begin
    Format.printf "FAILED slot-recycling gate@.";
    exit 1
  end;

  header "Distributed GC: migrated-then-dropped reclamation";
  let cells = if smoke then 12 else 48 in
  let sys = System.boot ~nodes ~classes:[ cell_cls; churn_cls ] () in
  let m = Migrate.attach sys in
  let g = Dgc.attach ~migrate:m sys in
  let h = System.create_root sys ~node:0 churn_cls [] in
  for i = 1 to cells do
    System.send_boot sys h p_spawn [ Value.int (i mod nodes) ];
    System.run sys
  done;
  (* scatter every cell away from its birth node, then drop the lot *)
  let refs =
    match (Option.get (System.lookup_obj sys h)).Kernel.state.(0) with
    | Value.List vs ->
        List.filter_map (function Value.Addr a -> Some a | _ -> None) vs
    | _ -> []
  in
  let moved = ref 0 in
  List.iteri
    (fun i a ->
      if Migrate.move m ~canon:a ~to_:((a.Value.node + 3 + i) mod nodes) then
        incr moved;
      System.run sys)
    refs;
  System.send_boot sys h p_drop [];
  System.run sys;
  Dgc.settle g;
  note_events sys;
  let stubs_left = ref 0 in
  for node = 0 to nodes - 1 do
    stubs_left := !stubs_left + Migrate.stub_count m ~node
  done;
  let live_stubs_in_report =
    List.fold_left (fun acc (_, k) -> acc + k) 0
      (Diagnostics.survey sys).Diagnostics.forwarding_stubs
  in
  Format.printf
    "%d cell(s) spawned, %d migrated, then dropped: %d recall(s), %d \
     unstub(s), %d forwarding stub(s) left (diagnostics sees %d)@."
    cells !moved (Dgc.recalls g) (Dgc.unstubs g) !stubs_left
    live_stubs_in_report;
  if !stubs_left <> 0 || live_stubs_in_report <> 0 then begin
    Format.printf "FAILED forwarding-stub reclamation gate@.";
    exit 1
  end;
  if !moved = 0 || Dgc.unstubs g = 0 then begin
    Format.printf "FAILED migration coverage gate (workload too tame)@.";
    exit 1
  end;
  (match Dgc.audit g with
  | [] -> Format.printf "weight audit: balanced@."
  | problems ->
      List.iter (fun p -> Format.printf "audit: %s@." p) problems;
      Format.printf "FAILED weight-conservation audit@.";
      exit 1);
  Services.Bench_json.write ~path:"BENCH_dgc.json"
    (Services.Bench_json.
       [
         ("smoke", Bool smoke);
         ("cycles", Int cycles);
         ("live_set", Int live);
         ("resident_with_dgc", Int resident);
         ("resident_without_dgc", Int resident_off);
         ("slots_recycled", Int recycled);
         ("cells_migrated", Int !moved);
         ("recalls", Int (Dgc.recalls g));
         ("unstubs", Int (Dgc.unstubs g));
       ]
    @ perf_fields ());
  Format.printf "metrics written to BENCH_dgc.json@."

(* ------------------------------------------------------------------ *)
(* Aggregation: per-destination batching of bursty traffic             *)
(* ------------------------------------------------------------------ *)

type Machine.Am.payload += B_stamp of int

(* Bursty sender: each round, a few nodes enqueue a back-to-back burst
   of small messages to a few destinations — the pattern of the
   runtime's control services (DGC decrement flushes, load gossip),
   where the processor queues a sweep's worth of sends and moves on.
   The sends are gap-0 on purpose: spaced sends never outrun the
   injection port and always take the bypass path (that invariance is
   what the Table-1 gate below checks). Receive handling is made cheap
   (and identical in both configs) so the row measures the transport,
   not the receiver's dispatch loop. *)
let coalesce_burst ~coal ~faults ~rounds ~senders ~dests ~burst =
  let nodes = 16 in
  let msg_bytes = 8 in
  let round_gap = 50_000 in
  let config =
    {
      Machine.Engine.default_config with
      Machine.Engine.cost =
        { Machine.Cost_model.default with msg_receive_handling = 2 };
      coalesce = (if coal then Some Machine.Coalesce.default_config else None);
      faults;
    }
  in
  let m = Machine.Engine.create ~config ~nodes () in
  let count = ref 0 and lat_sum = ref 0 in
  let h =
    Machine.Engine.register_handler m Machine.Am.Service ~name:"coal-stamp"
      (fun _ node am ->
        match am.Machine.Am.payload with
        | B_stamp t0 ->
            incr count;
            lat_sum := !lat_sum + (Machine.Node.now node - t0)
        | _ -> ())
  in
  for r = 0 to rounds - 1 do
    Machine.Engine.schedule_at m ~time:(r * round_gap) (fun () ->
        for s = 0 to senders - 1 do
          let src = Machine.Engine.node m s in
          Machine.Engine.post m src (fun () ->
              for d = 1 to dests do
                let dst = (s + (d * 4) + 1) mod nodes in
                for _ = 1 to burst do
                  Machine.Engine.send_am m ~src ~dst ~handler:h
                    ~size_bytes:msg_bytes
                    (B_stamp (Machine.Node.now src))
                done
              done)
        done)
  done;
  Machine.Engine.run m;
  (m, !count, float_of_int !lat_sum /. float_of_int (max 1 !count))

let coalesce_bench ~smoke ~domains () =
  header "Aggregation: per-destination batching under bursty control traffic";
  section_start ();
  let rounds = if smoke then 8 else 32 in
  let senders = 4 and dests = 3 and burst = 16 in
  let expected = rounds * senders * dests * burst in
  let row name (m, count, mean) =
    Format.printf
      "%-18s %6d msgs %8d packet(s) %10d bytes  mean latency %8.0f ns@." name
      count
      (Machine.Engine.packets_sent m)
      (Machine.Engine.bytes_sent m) mean;
    (m, count, mean)
  in
  let off =
    row "batching off" (coalesce_burst ~coal:false ~faults:None ~rounds ~senders ~dests ~burst)
  in
  let on =
    row "batching on" (coalesce_burst ~coal:true ~faults:None ~rounds ~senders ~dests ~burst)
  in
  let m_off, n_off, lat_off = off and m_on, n_on, lat_on = on in
  note_machine_events m_off;
  note_machine_events m_on;
  if n_off <> expected || n_on <> expected then begin
    Format.printf "FAILED delivery-count gate (expected %d)@." expected;
    exit 1
  end;
  let p_off = Machine.Engine.packets_sent m_off
  and p_on = Machine.Engine.packets_sent m_on in
  Format.printf "%a@."
    (Simcore.Stats.pp_layer ~prefix:"coalesce.")
    (Machine.Engine.stats m_on);
  Format.printf
    "packet reduction %.1fx (gate: >= 2x), mean latency %.0f -> %.0f ns \
     (gate: lower)@."
    (float_of_int p_off /. float_of_int (max 1 p_on))
    lat_off lat_on;
  if p_off < 2 * p_on then begin
    Format.printf "FAILED packet-reduction gate@.";
    exit 1
  end;
  if lat_on >= lat_off then begin
    Format.printf "FAILED mean-latency gate@.";
    exit 1
  end;

  (* Same burst under a lossy fabric: whole batches share a fate, the
     reliable layer re-sequences their frames, and delivery must still
     be exactly-once. *)
  let plan = Network.Faults.plan ~seed:11 ~drop:0.05 ~duplicate:0.02 () in
  let m_f, n_f, lat_f =
    coalesce_burst ~coal:true ~faults:(Some plan) ~rounds ~senders ~dests
      ~burst
  in
  note_machine_events m_f;
  let acks_piggy =
    Simcore.Stats.get (Machine.Engine.stats m_f) "reliable.ack_piggybacked"
  in
  Format.printf
    "with 5%% drop: %6d msgs %8d packet(s), mean latency %8.0f ns, %d \
     dropped, %d ack(s) piggybacked on batches, in flight %d@."
    n_f
    (Machine.Engine.packets_sent m_f)
    lat_f
    (Machine.Engine.packets_dropped m_f)
    acks_piggy
    (Machine.Engine.reliable_in_flight m_f);
  if n_f <> expected || Machine.Engine.reliable_in_flight m_f <> 0 then begin
    Format.printf "FAILED exactly-once-under-faults gate@.";
    exit 1
  end;

  (* The bypass invariant: with aggregation enabled but traffic spaced
     (every app workload — sends cost setup instructions that outpace
     the injection port), Table 1 must not move. *)
  let coal_cfg =
    {
      Machine.Engine.default_config with
      Machine.Engine.coalesce = Some Machine.Coalesce.default_config;
    }
  in
  let base = Apps.Microbench.measure () in
  let with_coal = Apps.Microbench.measure ~machine_config:coal_cfg () in
  let dev a b = 100. *. (b -. a) /. a in
  let d_dorm =
    dev base.Apps.Microbench.intra_dormant_ns
      with_coal.Apps.Microbench.intra_dormant_ns
  and d_inter =
    dev base.Apps.Microbench.inter_latency_ns
      with_coal.Apps.Microbench.inter_latency_ns
  in
  Format.printf
    "Table 1 with aggregation on: dormant send %.2f us (%+.1f%%), inter-node \
     latency %.2f us (%+.1f%%)  (gate: within 5%%)@."
    (with_coal.intra_dormant_ns /. 1000.)
    d_dorm
    (with_coal.inter_latency_ns /. 1000.)
    d_inter;
  if Float.abs d_dorm > 5. || Float.abs d_inter > 5. then begin
    Format.printf "FAILED Table-1 preservation gate@.";
    exit 1
  end;
  let env_fields =
    if domains > 1 then
      snd (envelope_section ~feature:Env_coalesce ~smoke ~domains ())
    else []
  in
  Services.Bench_json.write ~path:"BENCH_coalesce.json"
    (Services.Bench_json.
       [
         ("smoke", Bool smoke);
         ("messages", Int expected);
         ("packets_off", Int p_off);
         ("packets_on", Int p_on);
         ( "packet_reduction",
           Float (float_of_int p_off /. float_of_int (max 1 p_on)) );
         ("mean_latency_off_ns", Float lat_off);
         ("mean_latency_on_ns", Float lat_on);
         ("faulted_packets", Int (Machine.Engine.packets_sent m_f));
         ("faulted_dropped", Int (Machine.Engine.packets_dropped m_f));
         ("acks_piggybacked", Int acks_piggy);
         ("table1_dormant_dev_pct", Float d_dorm);
         ("table1_inter_dev_pct", Float d_inter);
       ]
    @ env_fields @ perf_fields ());
  Format.printf "metrics written to BENCH_coalesce.json@."

(* ------------------------------------------------------------------ *)
(* Crash recovery: kill a node mid-burst, restore, replay              *)
(* ------------------------------------------------------------------ *)

type Machine.Am.payload += Rb_seq of { k : int }

(* Sequenced bursts from three senders into fixed destinations on a raw
   engine with the recovery manager attached; [crash] names the victims
   and instants. Returns everything the gates need. *)
let recover_burst ~rounds ~burst ~crashes () =
  let module Engine = Machine.Engine in
  let plan = Network.Faults.plan ~seed:11 ~drop:0.01 ~duplicate:0.0 ~jitter_ns:500 () in
  let config = { Engine.default_config with Engine.faults = Some plan } in
  let nodes = 8 in
  let m = Engine.create ~config ~nodes () in
  let tl = Services.Timeline.attach_machine m in
  let next = Array.init nodes (fun _ -> Hashtbl.create 16) in
  let last_rx = Array.make nodes 0 in
  let max_gap = Array.make nodes 0 in
  let lost = ref 0 and dup_or_reorder = ref 0 in
  let h =
    Engine.register_handler m Machine.Am.Service ~name:"recover-seq"
      (fun _ node am ->
        match am.Machine.Am.payload with
        | Rb_seq { k } ->
            let me = Machine.Node.id node in
            let src = am.Machine.Am.src in
            let now = Machine.Node.now node in
            if last_rx.(me) > 0 then
              max_gap.(me) <- max max_gap.(me) (now - last_rx.(me));
            last_rx.(me) <- now;
            let e = Option.value (Hashtbl.find_opt next.(me) src) ~default:0 in
            if k <> e then incr dup_or_reorder;
            Hashtbl.replace next.(me) src (max (k + 1) e)
        | _ -> ())
  in
  let app =
    {
      Recover.Manager.a_snapshot =
        (fun node ->
          let slice =
            Hashtbl.fold (fun s k acc -> (s, k) :: acc) next.(node) []
          in
          Some (Marshal.to_bytes (List.sort compare slice) []));
      a_restore =
        (fun node b ->
          Hashtbl.reset next.(node);
          List.iter
            (fun (s, k) -> Hashtbl.replace next.(node) s k)
            (Marshal.from_bytes b 0 : (int * int) list));
      a_reset = (fun node -> Hashtbl.reset next.(node));
    }
  in
  let mgr = Recover.Manager.attach m ~app ~crashes () in
  let senders = 3 and dests = 2 in
  let sent = Hashtbl.create 16 in
  for r = 0 to rounds - 1 do
    Engine.schedule_at m ~time:(10_000 + (r * 40_000)) (fun () ->
        for s = 0 to senders - 1 do
          let src = Engine.node m s in
          Engine.post m src (fun () ->
              for d = 1 to dests do
                let dst = (s + (d * 3)) mod nodes in
                for _ = 1 to burst do
                  let ch = (s, dst) in
                  let k = Option.value (Hashtbl.find_opt sent ch) ~default:0 in
                  Hashtbl.replace sent ch (k + 1);
                  Engine.send_am m ~src ~dst ~handler:h ~size_bytes:8
                    (Rb_seq { k })
                done
              done)
        done)
  done;
  Engine.run m;
  Hashtbl.iter
    (fun (s, d) k ->
      let got = Option.value (Hashtbl.find_opt next.(d) s) ~default:0 in
      if got < k then lost := !lost + (k - got);
      if got > k then incr dup_or_reorder)
    sent;
  (m, tl, mgr, !lost, !dup_or_reorder, max_gap)

let recover_bench ~smoke ~domains () =
  header "Crash recovery: kill a node mid-burst, restore, replay";
  section_start ();
  let module Engine = Machine.Engine in
  let rounds = if smoke then 3 else 6 in
  let burst = 16 in
  let down_ns = 40_000 in
  let crashes =
    {
      Recover.Manager.cs_node = 3;
      cs_at = 30_000;
      cs_down_ns = down_ns;
      cs_jitter_ns = 0;
    }
    :: {
         Recover.Manager.cs_node = 6;
         cs_at = 65_000;
         cs_down_ns = down_ns;
         cs_jitter_ns = 0;
       }
    ::
    (if smoke then []
     else
       [
         (* Full scale also kills a sender mid-burst. *)
         {
           Recover.Manager.cs_node = 1;
           cs_at = 120_000;
           cs_down_ns = down_ns;
           cs_jitter_ns = 0;
         };
       ])
  in
  let m, tl, mgr, lost, dup, max_gap = recover_burst ~rounds ~burst ~crashes () in
  note_machine_events m;
  let audit = Recover.Manager.audit_quiescent mgr in
  let get = Simcore.Stats.get (Engine.stats m) in
  Format.printf "%a@.%d packet(s) lost to down windows@."
    (Simcore.Stats.pp_layer ~prefix:"recover.")
    (Engine.stats m) (Engine.crash_dropped m);
  let crashed = List.map (fun cs -> cs.Recover.Manager.cs_node) crashes in
  let outage =
    List.fold_left (fun acc i -> max acc max_gap.(i)) 0 crashed
  in
  let baseline =
    let b = ref 0 in
    Array.iteri (fun i g -> if not (List.mem i crashed) then b := max !b g) max_gap;
    !b
  in
  let recovery_max =
    List.fold_left (fun acc i -> max acc (Recover.Manager.recovery_ns mgr i)) 0 crashed
  in
  Format.printf
    "lost %d, duplicated/reordered %d (gate: both 0); in flight %d@." lost dup
    (Engine.reliable_in_flight m);
  Format.printf
    "worst recovery %d ns (gate: <= 2 ms); delivery outage %d ns on crashed \
     nodes vs %d ns baseline (gate: <= 8 ms)@."
    recovery_max outage baseline;
  List.iter (fun v -> Format.printf "AUDIT %s@." v) audit;
  if lost > 0 || dup > 0 then begin
    Format.printf "FAILED zero-lost/zero-duplicate gate@.";
    exit 1
  end;
  if Engine.reliable_in_flight m <> 0 then begin
    Format.printf "FAILED in-flight-drained gate@.";
    exit 1
  end;
  if audit <> [] then begin
    Format.printf "FAILED recovery-audit gate@.";
    exit 1
  end;
  if get "recover.restarts" <> List.length crashes then begin
    Format.printf "FAILED restart-count gate@.";
    exit 1
  end;
  if recovery_max > 2_000_000 then begin
    Format.printf "FAILED bounded-recovery-time gate@.";
    exit 1
  end;
  if outage > 8_000_000 then begin
    Format.printf "FAILED delivery-outage gate@.";
    exit 1
  end;

  (* Deterministic replay: a recorded schedule of the recover workload
     (crash instants re-timed through recorded decision points) must
     replay to a bit-identical Timeline hash. *)
  let wl = Option.get (Check.Workloads.find "recover") in
  let o = Check.Explore.run_recorded wl ~seed:3 in
  let r = Check.Explore.replay wl o.Check.Explore.o_trace in
  let identical =
    r.Check.Explore.rp_identical
    && r.Check.Explore.rp_outcome.Check.Explore.o_hash
       = o.Check.Explore.o_hash
  in
  Format.printf "recorded crash schedule replay: %016x / %016x %s@."
    o.Check.Explore.o_hash r.Check.Explore.rp_outcome.Check.Explore.o_hash
    (if identical then "identical" else "MISMATCH");
  if not identical then begin
    Format.printf "FAILED deterministic-replay gate@.";
    exit 1
  end;

  (* System-level composition: migration stream + DGC churn while a
     node's interface goes dark twice (network-down windows — the
     runtime keeps computing, the fabric drops its packets), with the
     location re-advertisement repair at each recovery point. *)
  let stream_result = ref None in
  let p_add = Pattern.intern "rb_add" ~arity:1 in
  let p_report = Pattern.intern "rb_report" ~arity:0 in
  let p_next = Pattern.intern "rb_next" ~arity:0 in
  let p_poke = Pattern.intern "rb_poke" ~arity:1 in
  let p_churn = Pattern.intern "rb_churn" ~arity:2 in
  let cell =
    Class_def.define ~name:"rb_cell" ~state:[| "hash"; "sum" |]
      ~init:(fun _ -> [| Value.int 0; Value.int 0 |])
      ~methods:
        [
          ( p_add,
            fun ctx msg ->
              let k = Value.to_int (Message.arg msg 0) in
              Ctx.set ctx 0
                (Value.int ((31 * Value.to_int (Ctx.get ctx 0)) + k));
              Ctx.set ctx 1 (Value.int (Value.to_int (Ctx.get ctx 1) + k)) );
          ( p_report,
            fun ctx _ ->
              stream_result :=
                Some
                  ( Value.to_int (Ctx.get ctx 0),
                    Value.to_int (Ctx.get ctx 1) ) );
        ]
      ()
  in
  let driver =
    Class_def.define ~name:"rb_driver" ~state:[| "target"; "i"; "count" |]
      ~init:(fun args ->
        match args with
        | [ target; count ] -> [| target; Value.int 1; count |]
        | _ -> invalid_arg "rb_driver")
      ~methods:
        [
          ( p_next,
            fun ctx _ ->
              let target =
                match Ctx.get ctx 0 with Value.Addr a -> a | _ -> assert false
              in
              let i = Value.to_int (Ctx.get ctx 1) in
              let count = Value.to_int (Ctx.get ctx 2) in
              if i <= count then begin
                Ctx.send ctx target p_add [ Value.int i ];
                Ctx.set ctx 1 (Value.int (i + 1));
                Ctx.send ctx (Ctx.self ctx) p_next []
              end
              else Ctx.send ctx target p_report [] );
        ]
      ()
  in
  let gcell =
    Class_def.define ~name:"rb_gcell" ~state:[| "v" |]
      ~init:(fun _ -> [| Value.int 0 |])
      ~methods:[ (p_poke, fun ctx msg -> Ctx.set ctx 0 (Message.arg msg 0)) ]
      ()
  in
  let churner =
    Class_def.define ~name:"rb_churner" ~state:[| "ref" |]
      ~init:(fun _ -> [| Value.unit |])
      ~methods:
        [
          ( p_churn,
            fun ctx msg ->
              let i = Value.to_int (Message.arg msg 0) in
              let n = Value.to_int (Message.arg msg 1) in
              if i < n then begin
                let p = Ctx.node_count ctx in
                let target = (Ctx.node_id ctx + 1 + (i mod (p - 1))) mod p in
                let a = Ctx.create_on ctx ~target gcell [] in
                Ctx.send ctx a p_poke [ Value.int i ];
                Ctx.set ctx 0 (Value.Addr a);
                Ctx.send ctx (Ctx.self ctx) p_churn
                  [ Value.int (i + 1); Value.int n ]
              end );
        ]
      ()
  in
  let plan = Network.Faults.plan ~seed:5 ~drop:0.02 ~duplicate:0.0 () in
  let machine_config =
    { Engine.default_config with Engine.faults = Some plan }
  in
  let sys =
    System.boot ~machine_config ~nodes:4
      ~classes:[ cell; driver; gcell; churner ] ()
  in
  let machine = System.machine sys in
  let dark = 2 in
  let windows =
    [
      { Network.Faults.node = dark; from_ns = 40_000; until_ns = 80_000 };
      { Network.Faults.node = dark; from_ns = 160_000; until_ns = 200_000 };
    ]
  in
  (match Engine.faults_state machine with
  | Some f -> Network.Faults.set_crashes f windows
  | None -> assert false);
  let mig = Migrate.attach sys in
  let g = Dgc.attach ~interval_ns:120_000 sys in
  let count = if smoke then 36 else 96 in
  let cell_addr = System.create_root sys ~node:0 cell [] in
  let d =
    System.create_root sys ~node:1 driver
      [ Value.Addr cell_addr; Value.int count ]
  in
  (* Park the stream's target on the dark node before the first window,
     move it away between the windows, and repair locations at each
     recovery point. *)
  Engine.schedule_at machine ~time:15_000 (fun () ->
      ignore (Migrate.move mig ~canon:cell_addr ~to_:dark));
  Engine.schedule_at machine ~time:120_000 (fun () ->
      ignore (Migrate.move mig ~canon:cell_addr ~to_:3));
  let readvertised = ref 0 in
  List.iter
    (fun w ->
      Engine.schedule_at machine ~time:(w.Network.Faults.until_ns + 1_000)
        (fun () ->
          readvertised := !readvertised + Migrate.readvertise mig ~node:dark))
    windows;
  for node = 0 to 3 do
    let c = System.create_root sys ~node churner [] in
    System.send_boot sys c p_churn [ Value.int 0; Value.int (if smoke then 16 else 32) ]
  done;
  System.send_boot sys d p_next [];
  System.run sys;
  Dgc.settle g;
  note_events sys;
  let want_hash, want_sum =
    List.fold_left
      (fun (h, s) k -> ((31 * h) + k, s + k))
      (0, 0)
      (List.init count (fun i -> i + 1))
  in
  let stream_ok =
    match !stream_result with
    | Some (h, s) -> h = want_hash && s = want_sum
    | None -> false
  in
  let dgc_audit = Dgc.audit g in
  let dgc_recovery =
    List.concat (List.init 4 (fun node -> Dgc.recovery_audit g ~node))
  in
  let held, limbo = Migrate.residual mig in
  Format.printf
    "dark-interface composition: stream %s, %d location update(s) \
     re-advertised, DGC audit %d + recovery audit %d finding(s), residual \
     %d/%d@."
    (if stream_ok then "exact" else "WRONG")
    !readvertised (List.length dgc_audit)
    (List.length dgc_recovery)
    held limbo;
  List.iter (fun v -> Format.printf "DGC %s@." v) dgc_audit;
  List.iter (fun v -> Format.printf "DGC-RECOVERY %s@." v) dgc_recovery;
  if
    (not stream_ok) || dgc_audit <> [] || dgc_recovery <> [] || held <> 0
    || limbo <> 0
  then begin
    Format.printf "FAILED dark-interface composition gate@.";
    exit 1
  end;

  let env_hash =
    if domains > 1 then
      Some (fst (envelope_section ~feature:Env_recover ~smoke ~domains ()))
    else None
  in

  (* Metrics file for CI artifacts. *)
  let wall = Unix.gettimeofday () -. !section_t0 in
  let oc = open_out "BENCH_recover.json" in
  Printf.fprintf oc
    "{\n\
    \  \"smoke\": %b,\n\
    \  \"crashes\": %d,\n\
    \  \"restarts\": %d,\n\
    \  \"checkpoints\": %d,\n\
    \  \"checkpoint_bytes\": %d,\n\
    \  \"messages_replayed\": %d,\n\
    \  \"inbox_rebuilt\": %d,\n\
    \  \"recovery_ns_max\": %d,\n\
    \  \"recovery_ns_total\": %d,\n\
    \  \"delivery_outage_ns\": %d,\n\
    \  \"baseline_max_gap_ns\": %d,\n\
    \  \"lost\": %d,\n\
    \  \"duplicated\": %d,\n\
    \  \"timeline_hash\": \"%016x\",\n\
    \  \"replay_identical\": %b,\n\
    \  \"envelope_hash\": \"%s\",\n\
    \  \"wall_clock_s\": %.3f,\n\
    \  \"events_per_sec\": %.3f,\n\
    \  \"domains\": %d\n\
     }\n"
    smoke (get "recover.crashes") (get "recover.restarts") (get "recover.ckpts")
    (get "recover.ckpt_bytes") (get "recover.replayed")
    (get "recover.inbox_rebuilt") recovery_max (get "recover.recovery_ns")
    outage baseline lost dup
    (Services.Timeline.hash tl) identical
    (match env_hash with
    | Some h -> Printf.sprintf "%016x" h
    | None -> "")
    wall
    (if wall > 0. then float_of_int !section_events /. wall else 0.)
    domains;
  close_out oc;
  Format.printf "metrics written to BENCH_recover.json@."

(* ------------------------------------------------------------------ *)
(* Open-loop traffic: sharded KV tier, latency percentiles, knee       *)
(* ------------------------------------------------------------------ *)

(* One open-loop run against a fresh tier: [rate] req/s of virtual time
   for [requests] injections, optionally under a fault plan, with forced
   shard moves riding engine timers, and with the distributed collector
   attached. Returns the loadgen handle, the system, and the combined
   audit lines. *)
let traffic_run ?faults ?(moves = []) ?(with_dgc = false) ?(nodes = 8)
    ?(shards = 8) ?(seed = 1) ?(multiactive = false) ?(ma_budget = 4)
    ?(rt_config = System.default_rt_config) ?mix ?key_dist ~rate ~requests () =
  let module Engine = Machine.Engine in
  let machine_config =
    match faults with
    | None -> Engine.default_config
    | Some plan -> { Engine.default_config with Engine.faults = Some plan }
  in
  let kv =
    Apps.Kv_store.create ~shards ~keys_per_shard:16 ~mget_fan:3 ~multiactive
      ~ma_budget ()
  in
  let sys =
    System.boot ~machine_config ~rt_config ~nodes
      ~classes:(Apps.Kv_store.classes kv) ()
  in
  let machine = System.machine sys in
  Apps.Kv_store.spawn kv sys;
  let mig = if moves = [] then None else Some (Migrate.attach sys) in
  let g =
    if with_dgc then Some (Dgc.attach ~interval_ns:150_000 sys) else None
  in
  (match mig with
  | Some m ->
      List.iter
        (fun (time, shard, to_) ->
          Engine.schedule_at machine ~time (fun () ->
              ignore
                (Migrate.move m ~canon:(Apps.Kv_store.shard_addr kv shard)
                   ~to_)))
        moves
  | None -> ());
  let cfg =
    { Traffic.Loadgen.default_config with seed; rate_rps = rate; requests }
  in
  let cfg =
    match mix with None -> cfg | Some mix -> { cfg with Traffic.Loadgen.mix }
  in
  let cfg =
    match key_dist with
    | None -> cfg
    | Some key_dist -> { cfg with Traffic.Loadgen.key_dist }
  in
  let lg = Traffic.Loadgen.launch cfg sys kv in
  System.run sys;
  Option.iter Dgc.settle g;
  note_events sys;
  let audit =
    Traffic.Loadgen.audit lg sys
    @ match g with Some g -> Dgc.audit g | None -> []
  in
  (lg, sys, audit)

let traffic_bench ~smoke ~baseline ~requests_opt ~domains () =
  let module Engine = Machine.Engine in
  header "Open-loop traffic: sharded KV/session tier (8 shards on 8 nodes)";
  section_start ();
  let requests =
    match requests_opt with
    | Some r -> r
    | None -> if smoke then 600 else 4_000
  in
  (* The 1M-request configuration (ROADMAP item 4) is only tractable on
     the domain-sharded engine: the sequential loop's wall clock scales
     with simulated traffic. *)
  if requests > 50_000 && domains <= 1 then begin
    Format.printf
      "traffic: %d requests need the parallel engine — rerun with --domains \
       2 (or more)@."
      requests;
    exit 1
  end;
  (* The tier's measured capacity is ~110k req/s (8 shards x 200
     modelled instructions per op); 60k offered keeps the sustainable
     run well below the knee the sweep then finds. *)
  let base_rate = 60_000 in

  (* Sustainable-rate run: every injected request must complete with a
     finite tail and no errors. With --requests/--domains the run scales
     up on sharded Zipf arrivals (reusing the "traffic.key.zipf"
     decision point) under the domain-sharded engine; the default path
     is byte-identical to previous releases. *)
  let lg, sys, audit =
    if requests_opt <> None || domains > 1 then begin
      let kv = Apps.Kv_store.create ~shards:8 ~keys_per_shard:16 ~mget_fan:3 () in
      let sys = System.boot ~nodes:8 ~classes:(Apps.Kv_store.classes kv) () in
      Apps.Kv_store.spawn kv sys;
      let cfg =
        {
          Traffic.Loadgen.default_config with
          rate_rps = base_rate;
          requests;
          key_dist = Traffic.Loadgen.Zipf 1.0;
        }
      in
      let lg = Traffic.Loadgen.launch_sharded cfg sys kv in
      if domains > 1 then System.run_parallel sys ~domains
      else System.run sys;
      note_events sys;
      (lg, sys, Traffic.Loadgen.audit lg sys)
    end
    else traffic_run ~rate:base_rate ~requests ()
  in
  let r = Traffic.Report.of_run lg sys in
  Format.printf "@[<v>%a@]@." Traffic.Report.pp r;
  let clean = Diagnostics.is_clean (Diagnostics.survey sys) in
  List.iter (fun v -> Format.printf "audit: %s@." v) audit;
  if
    r.Traffic.Report.r_timeouts <> 0
    || r.Traffic.Report.r_errors <> 0
    || audit <> [] || not clean
  then begin
    Format.printf "FAILED sustainable-rate gate@.";
    exit 1
  end;

  (* Composition: the same offered load under 5% drop + duplication, one
     mid-run crash window on a shard-hosting node, two forced shard
     migrations, and the distributed collector riding along. The version
     audit proves exactly-once end to end. *)
  header "Open-loop traffic: 5% drop + crash window + shard moves + DGC";
  let plan =
    Network.Faults.plan ~seed:11 ~drop:0.05 ~duplicate:0.02 ~jitter_ns:1_000
      ~crashes:
        [ { Network.Faults.node = 1; from_ns = 100_000; until_ns = 180_000 } ]
      ()
  in
  let moves = [ (60_000, 1, 5); (200_000, 2, 0) ] in
  let lg_f, sys_f, audit_f =
    traffic_run ~faults:plan ~moves ~with_dgc:true ~seed:3 ~rate:base_rate
      ~requests ()
  in
  let r_f = Traffic.Report.of_run lg_f sys_f in
  Format.printf "@[<v>%a@]@." Traffic.Report.pp r_f;
  let m_f = System.machine sys_f in
  Format.printf
    "faulted run: %d packet(s) dropped, %d in flight at quiescence, audit %d \
     finding(s)@."
    (Engine.packets_dropped m_f)
    (Engine.reliable_in_flight m_f)
    (List.length audit_f);
  List.iter (fun v -> Format.printf "audit: %s@." v) audit_f;
  if
    audit_f <> []
    || Engine.reliable_in_flight m_f <> 0
    || Engine.packets_dropped m_f = 0
    || r_f.Traffic.Report.r_timeouts <> 0
  then begin
    Format.printf "FAILED exactly-once-under-faults gate@.";
    exit 1
  end;

  (* Replay gate: the whole subsystem must be schedule-deterministic —
     record a run of the check workload, replay its choice vector, and
     require bit-identical Timeline hashes. *)
  let wl = Option.get (Check.Workloads.find "traffic") in
  let o = Check.Explore.run_recorded wl ~seed:1 in
  let rp = Check.Explore.replay wl o.Check.Explore.o_trace in
  let replay_identical =
    rp.Check.Explore.rp_identical
    && rp.Check.Explore.rp_outcome.Check.Explore.o_hash
       = o.Check.Explore.o_hash
    && not (Check.Explore.failed o)
  in
  Format.printf "determinism: record %016x replay %016x %s@."
    o.Check.Explore.o_hash rp.Check.Explore.rp_outcome.Check.Explore.o_hash
    (if replay_identical then "ok" else "MISMATCH");
  if not replay_identical then begin
    Format.printf "FAILED traffic replay gate@.";
    exit 1
  end;

  (* Rate sweep: open-loop arrivals keep coming whether or not the
     shards keep up, so past saturation the queues — and the measured
     tail — grow with the run length instead of the service time. The
     knee is the first rate where p99 leaves the sustainable band (3x
     the lowest rate's p99) or goodput falls under 95% of offered. *)
  header "Open-loop traffic: rate sweep (knee where p99 departs)";
  let rates =
    if smoke then [ 50_000; 100_000; 200_000 ]
    else [ 50_000; 80_000; 100_000; 150_000; 200_000; 400_000; 800_000 ]
  in
  let sweep_requests = if smoke then 400 else 2_000 in
  Format.printf "%10s %10s %10s %10s %10s %12s@." "rate(rps)" "p50(ns)"
    "p99(ns)" "p999(ns)" "goodput" "of offered";
  let p99_base = ref 0. in
  let knee = ref 0 in
  List.iter
    (fun rate ->
      let lg, sys, _ = traffic_run ~rate ~requests:sweep_requests () in
      let r = Traffic.Report.of_run lg sys in
      if !p99_base = 0. then p99_base := r.Traffic.Report.r_p99_ns;
      let offered_frac = r.Traffic.Report.r_goodput_rps /. float_of_int rate in
      Format.printf "%10d %10.0f %10.0f %10.0f %10.0f %11.1f%%@." rate
        r.Traffic.Report.r_p50_ns r.Traffic.Report.r_p99_ns
        r.Traffic.Report.r_p999_ns r.Traffic.Report.r_goodput_rps
        (100. *. offered_frac);
      if
        !knee = 0
        && (r.Traffic.Report.r_p99_ns > 3. *. !p99_base
           || offered_frac < 0.95)
      then knee := rate)
    rates;
  (match !knee with
  | 0 -> Format.printf "no knee within the swept range@."
  | k -> Format.printf "knee: p99 departs at %d req/s offered@." k);

  (* Metrics file for CI artifacts + the regression gate. *)
  let fields =
    Traffic.Report.json_fields r
    @ Services.Bench_json.
        [
          ("smoke", Bool smoke);
          ("knee_rps", Int !knee);
          ("replay_identical", Bool replay_identical);
          ( "timeline_hash",
            Str (Printf.sprintf "%016x" o.Check.Explore.o_hash) );
          ("faulted_p99_ns", Int (int_of_float r_f.Traffic.Report.r_p99_ns));
        ]
    @ perf_fields ~domains:(max 1 domains) ()
  in
  Services.Bench_json.write ~path:"BENCH_traffic.json" fields;
  Format.printf "metrics written to BENCH_traffic.json@.";

  (* p99 regression gate against a checked-in baseline. *)
  match baseline with
  | None -> ()
  | Some path -> (
      match Services.Bench_json.read_int_field ~path ~key:"p99_ns" with
      | None ->
          Format.printf "FAILED: baseline %s has no p99_ns field@." path;
          exit 1
      | Some want ->
          let got = int_of_float r.Traffic.Report.r_p99_ns in
          let limit = want + (want / 2) in
          Format.printf
            "p99 regression gate: %d ns vs baseline %d ns (limit 1.5x = %d)@."
            got want limit;
          if got > limit then begin
            Format.printf "FAILED p99 regression gate@.";
            exit 1
          end)

(* ------------------------------------------------------------------ *)
(* Multiactive objects: compatibility-group concurrency in the tier    *)
(* ------------------------------------------------------------------ *)

(* Read-heavy (>= 90% get): the regime where single-writer/multi-reader
   shards pay off — gets overlap, puts/cas still serialize. *)
let ma_mix = { Traffic.Loadgen.m_get = 92; m_put = 5; m_cas = 2; m_mget = 1 }

let multiactive_bench ~smoke ~baseline () =
  let module Engine = Machine.Engine in
  header
    "Multiactive: read-heavy rate sweep, serialized vs annotated shards (8 \
     shards on 8 nodes)";
  section_start ();
  let sweep_requests = if smoke then 400 else 2_000 in
  let rates =
    if smoke then [ 60_000; 120_000; 240_000; 480_000 ]
    else
      [ 60_000; 90_000; 120_000; 180_000; 240_000; 360_000; 480_000; 720_000 ]
  in
  let last_rate = List.nth rates (List.length rates - 1) in
  (* Same knee criterion as the traffic sweep: first rate where p99
     leaves the sustainable band (3x the lowest rate's p99) or goodput
     falls under 95% of offered. *)
  let sweep ~multiactive =
    let p99_base = ref 0. in
    let knee = ref 0 in
    let rows =
      List.map
        (fun rate ->
          let lg, sys, audit =
            traffic_run ~rate ~requests:sweep_requests ~mix:ma_mix
              ~multiactive ~ma_budget:8
              ~rt_config:{ System.default_rt_config with Kernel.ma_cores = 8 }
              ()
          in
          let r = Traffic.Report.of_run lg sys in
          if !p99_base = 0. then p99_base := r.Traffic.Report.r_p99_ns;
          let frac =
            r.Traffic.Report.r_goodput_rps /. float_of_int rate
          in
          if
            !knee = 0
            && (r.Traffic.Report.r_p99_ns > 3. *. !p99_base || frac < 0.95)
          then knee := rate;
          if r.Traffic.Report.r_errors <> 0 || audit <> [] then begin
            Format.printf "FAILED sweep-audit gate at %d req/s@." rate;
            List.iter (fun v -> Format.printf "audit: %s@." v) audit;
            exit 1
          end;
          (rate, r))
        rates
    in
    (rows, !knee)
  in
  let ser_rows, ser_knee = sweep ~multiactive:false in
  let ma_rows, ma_knee = sweep ~multiactive:true in
  Format.printf "%10s | %10s %10s | %10s %10s@." "rate(rps)" "ser p99"
    "ser good%" "ma p99" "ma good%";
  List.iter2
    (fun (rate, (rs : Traffic.Report.t)) (_, (rm : Traffic.Report.t)) ->
      Format.printf "%10d | %10.0f %9.1f%% | %10.0f %9.1f%%@." rate
        rs.Traffic.Report.r_p99_ns
        (100. *. rs.Traffic.Report.r_goodput_rps /. float_of_int rate)
        rm.Traffic.Report.r_p99_ns
        (100. *. rm.Traffic.Report.r_goodput_rps /. float_of_int rate))
    ser_rows ma_rows;
  (* A build that survives the whole sweep has its knee beyond the last
     rate; counting it *at* the last rate only understates the ratio. *)
  let eff k = if k = 0 then last_rate else k in
  let ratio = float_of_int (eff ma_knee) /. float_of_int (eff ser_knee) in
  Format.printf
    "knee: serialized %s, multiactive %s -> ratio %.2fx (gate: >= 1.5x)@."
    (if ser_knee = 0 then Printf.sprintf "beyond %d" last_rate
     else string_of_int ser_knee)
    (if ma_knee = 0 then Printf.sprintf "beyond %d" last_rate
     else string_of_int ma_knee)
    ratio;
  if ratio < 1.5 then begin
    Format.printf "FAILED multiactive knee gate@.";
    exit 1
  end;
  (* Saturated capacity — the goodput ceiling across the sweep — backs
     the knee up with a grid-independent number. *)
  let capacity rows =
    List.fold_left
      (fun acc (_, (r : Traffic.Report.t)) ->
        Float.max acc r.Traffic.Report.r_goodput_rps)
      0. rows
  in
  let cap_ratio = capacity ma_rows /. capacity ser_rows in
  Format.printf
    "saturated capacity: serialized %.0f req/s, multiactive %.0f req/s \
     (%.2fx)@."
    (capacity ser_rows) (capacity ma_rows) cap_ratio;

  (* Overlap anatomy at a backlogged rate with Zipf-skewed keys: one hot
     shard builds a real read backlog, and the load gossip's
     activation-queue depth separates "hot because serialized" from
     "hot because big". The mid-run load report is captured while the
     backlog exists (at quiescence every queue is empty by probe). *)
  header "Multiactive: overlap anatomy on a hot shard (Zipf keys)";
  let nodes = 8 and shards = 8 in
  let kv =
    Apps.Kv_store.create ~shards ~keys_per_shard:16 ~mget_fan:3
      ~multiactive:true ()
  in
  let rt_config =
    { System.default_rt_config with Kernel.gossip_interval_ns = 40_000 }
  in
  let sys =
    System.boot ~rt_config ~nodes ~classes:(Apps.Kv_store.classes kv) ()
  in
  let machine = System.machine sys in
  Apps.Kv_store.spawn kv sys;
  let load = Services.Load.attach sys in
  let mid_report = ref "" in
  Engine.schedule_at machine ~time:600_000 (fun () ->
      mid_report := Services.Load.report load);
  let lg =
    Traffic.Loadgen.launch
      {
        Traffic.Loadgen.default_config with
        rate_rps = 600_000;
        requests = (if smoke then 600 else 1_500);
        mix = ma_mix;
        key_dist = Traffic.Loadgen.Zipf 1.0;
      }
      sys kv
  in
  System.run sys;
  note_events sys;
  let audit = Traffic.Loadgen.audit lg sys in
  let st = System.stats sys in
  let peak = ref 0 and admitted = ref 0 in
  for i = 0 to shards - 1 do
    match System.lookup_obj sys (Apps.Kv_store.shard_addr kv i) with
    | Some o ->
        peak := max !peak (Multiactive.peak_overlap o);
        admitted := !admitted + Multiactive.admitted_total o
    | None -> ()
  done;
  let conflicts = Simcore.Stats.get st "ma.conflict" in
  Format.printf
    "admissions %d (shards %d), queued %d, overlapped starts %d, peak \
     overlap %d, conflicts %d (gate: 0)@."
    (Simcore.Stats.get st "ma.admit")
    !admitted
    (Simcore.Stats.get st "ma.queued")
    (Simcore.Stats.get st "ma.overlap")
    !peak conflicts;
  Format.printf "mid-run load report (gossiped load/activation-queue depth):@.%s"
    !mid_report;
  List.iter (fun v -> Format.printf "audit: %s@." v) audit;
  if conflicts <> 0 || !peak < 2 || audit <> [] then begin
    Format.printf "FAILED overlap-anatomy gate@.";
    exit 1
  end;

  (* Exactly-once under faults with admission control in the path: 5%
     drop + duplication must not double-apply a write or lose one —
     the version audit balances end to end. *)
  header "Multiactive: exactly-once audit under 5% drop + duplication";
  let plan =
    Network.Faults.plan ~seed:11 ~drop:0.05 ~duplicate:0.02 ~jitter_ns:1_000 ()
  in
  let requests = if smoke then 600 else 2_000 in
  let lg_f, sys_f, audit_f =
    traffic_run ~faults:plan ~seed:3 ~multiactive:true ~mix:ma_mix
      ~rate:60_000 ~requests ()
  in
  let r_f = Traffic.Report.of_run lg_f sys_f in
  let m_f = System.machine sys_f in
  Format.printf
    "faulted run: %d/%d completed, %d packet(s) dropped, %d in flight, \
     audit %d finding(s)@."
    r_f.Traffic.Report.r_completed r_f.Traffic.Report.r_injected
    (Engine.packets_dropped m_f)
    (Engine.reliable_in_flight m_f)
    (List.length audit_f);
  List.iter (fun v -> Format.printf "audit: %s@." v) audit_f;
  if
    audit_f <> []
    || Engine.reliable_in_flight m_f <> 0
    || Engine.packets_dropped m_f = 0
    || r_f.Traffic.Report.r_timeouts <> 0
  then begin
    Format.printf "FAILED multiactive exactly-once gate@.";
    exit 1
  end;

  (* Replay gate: admission decisions route through the engine's
     decision points ("ma.admit.defer", "ma.pump.pick"), so a recorded
     run of the multiactive workload must replay bit-identically. *)
  let wl = Option.get (Check.Workloads.find "multiactive") in
  let o = Check.Explore.run_recorded wl ~seed:1 in
  let rp = Check.Explore.replay wl o.Check.Explore.o_trace in
  let replay_identical =
    rp.Check.Explore.rp_identical
    && rp.Check.Explore.rp_outcome.Check.Explore.o_hash
       = o.Check.Explore.o_hash
    && not (Check.Explore.failed o)
  in
  Format.printf "determinism: record %016x replay %016x %s@."
    o.Check.Explore.o_hash rp.Check.Explore.rp_outcome.Check.Explore.o_hash
    (if replay_identical then "ok" else "MISMATCH");
  if not replay_identical then begin
    Format.printf "FAILED multiactive replay gate@.";
    exit 1
  end;

  (* Metrics file for CI artifacts + the regression gate. *)
  Services.Bench_json.write ~path:"BENCH_multiactive.json"
    (Services.Bench_json.
       [
         ("smoke", Bool smoke);
         ("knee_serialized_rps", Int (eff ser_knee));
         ("knee_multiactive_rps", Int (eff ma_knee));
         ("knee_ratio", Float ratio);
         ("capacity_ratio", Float cap_ratio);
         ("peak_overlap", Int !peak);
         ("admissions", Int (Simcore.Stats.get st "ma.admit"));
         ("queued", Int (Simcore.Stats.get st "ma.queued"));
         ("overlapped_starts", Int (Simcore.Stats.get st "ma.overlap"));
         ("conflicts", Int conflicts);
         ("faulted_p99_ns", Int (int_of_float r_f.Traffic.Report.r_p99_ns));
         ("replay_identical", Bool replay_identical);
         ("timeline_hash", Str (Printf.sprintf "%016x" o.Check.Explore.o_hash));
       ]
    @ perf_fields ());
  Format.printf "metrics written to BENCH_multiactive.json@.";

  (* Knee regression gate against a checked-in baseline: the annotated
     build's knee must not move left. *)
  match baseline with
  | None -> ()
  | Some path -> (
      match
        Services.Bench_json.read_int_field ~path ~key:"knee_multiactive_rps"
      with
      | None ->
          Format.printf "FAILED: baseline %s has no knee_multiactive_rps@."
            path;
          exit 1
      | Some want ->
          Format.printf
            "knee regression gate: %d req/s vs baseline %d req/s@."
            (eff ma_knee) want;
          if eff ma_knee < want then begin
            Format.printf "FAILED multiactive knee regression gate@.";
            exit 1
          end)

(* ------------------------------------------------------------------ *)
(* Parallel engine: domain-sharded simulation, conservative lookahead  *)
(* ------------------------------------------------------------------ *)

(* A fresh saturated open-loop workload per measurement (a system is
   single-run): sharded arrivals with Zipf skew on the KV tier — the
   parallel engine's supported envelope (no faults, no migration, no
   gossip), and enough per-node work that domain sharding has
   something to overlap. *)
let parallel_workload ~nodes ~requests ~rate () =
  let kv = Apps.Kv_store.create ~shards:nodes ~keys_per_shard:16 ~mget_fan:3 () in
  let sys = System.boot ~nodes ~classes:(Apps.Kv_store.classes kv) () in
  Apps.Kv_store.spawn kv sys;
  let cfg =
    {
      Traffic.Loadgen.default_config with
      rate_rps = rate;
      requests;
      key_dist = Traffic.Loadgen.Zipf 1.0;
    }
  in
  let lg = Traffic.Loadgen.launch_sharded cfg sys kv in
  (sys, lg)

let parallel_bench ~smoke ~baseline ~domains () =
  header "Parallel engine: nodes sharded across domains, conservative lookahead";
  section_start ();
  let nodes = 8 in
  let requests = if smoke then 2_000 else 10_000 in
  let rate = 400_000 in
  let cores = Domain.recommended_domain_count () in
  (* One measurement: build the workload fresh, run it under [run], wall
     clock it, and collect the run's audit + Timeline hash. *)
  let measure run =
    let sys, lg = parallel_workload ~nodes ~requests ~rate () in
    let tl = Services.Timeline.attach sys in
    let t0 = Unix.gettimeofday () in
    run sys;
    let wall = Unix.gettimeofday () -. t0 in
    note_events sys;
    let audit = Traffic.Loadgen.audit lg sys in
    (wall, Services.Timeline.hash tl, audit,
     Machine.Engine.events_processed (System.machine sys))
  in
  let check_audit label audit =
    if audit <> [] then begin
      List.iter (fun v -> Format.printf "audit(%s): %s@." label v) audit;
      Format.printf "FAILED parallel workload audit (%s)@." label;
      exit 1
    end
  in
  Format.printf "host cores: %d; lookahead: %d ns; %d nodes, %d requests at %d req/s@."
    cores
    (let sys, _ = parallel_workload ~nodes ~requests:1 ~rate () in
     Machine.Engine.lookahead_ns (System.machine sys))
    nodes requests rate;
  let seq_wall, _seq_hash, seq_audit, seq_events =
    measure (fun sys -> System.run sys)
  in
  check_audit "sequential" seq_audit;
  Format.printf "%10s %12s %12s %10s  %s@." "engine" "wall(s)" "events/s"
    "speedup" "timeline hash";
  Format.printf "%10s %12.3f %12.0f %9.2fx@." "seq" seq_wall
    (float_of_int seq_events /. seq_wall)
    1.0;
  let counts = [ 1; 2; 4; 8 ] in
  let rows =
    List.map
      (fun d ->
        let wall, hash, audit, events =
          measure (fun sys -> System.run_parallel sys ~domains:d)
        in
        check_audit (Printf.sprintf "domains=%d" d) audit;
        Format.printf "%8s %2d %12.3f %12.0f %9.2fx  %016x@." "domains" d wall
          (float_of_int events /. wall)
          (seq_wall /. wall) hash;
        (d, wall, hash, events))
      counts
  in
  (* Determinism gate (unconditional, any host): every domain count must
     produce the same canonical observation stream. *)
  let _, _, h1, _ = List.hd rows in
  List.iter
    (fun (d, _, h, _) ->
      if h <> h1 then begin
        Format.printf
          "FAILED parallel determinism gate: hash %016x at %d domain(s) <> \
           %016x at 1@."
          h d h1;
        exit 1
      end)
    rows;
  Format.printf "determinism: identical Timeline hash at 1/2/4/8 domains@.";
  (* Speedup gate — only meaningful when the host actually has the
     cores; a 1- or 2-core CI runner reports the curve but cannot fail
     it. *)
  let wall_at d = match List.find_opt (fun (d', _, _, _) -> d' = d) rows with
    | Some (_, w, _, _) -> w
    | None -> nan
  in
  let speedup_4 = seq_wall /. wall_at 4 in
  if cores >= 4 then begin
    Format.printf "speedup at 4 domains: %.2fx (gate: >= 1.5x)@." speedup_4;
    if speedup_4 < 1.5 then begin
      Format.printf "FAILED parallel speedup gate@.";
      exit 1
    end
  end
  else
    Format.printf
      "speedup at 4 domains: %.2fx (gate skipped: host has %d core(s))@."
      speedup_4 cores;
  let total_events = List.fold_left (fun a (_, _, _, e) -> a + e) 0 rows in
  (* Per-feature envelope rows: the hostile-network constructs (fault
     plans, coalescing, crash recovery) under the same determinism
     regime, so CI trends their hashes alongside the clean KV
     workload's. Domain-count determinism does not depend on host
     cores, so these rows always run. *)
  let feat_domains = if domains > 1 then domains else 4 in
  let env_rows =
    List.map
      (fun feature ->
        let h, fields = envelope_section ~feature ~smoke ~domains:feat_domains () in
        (envelope_feature_name feature, h, fields))
      [ Env_faults; Env_coalesce; Env_recover ]
  in
  let env_fields = List.concat_map (fun (_, _, f) -> f) env_rows in
  Services.Bench_json.write ~path:"BENCH_parallel.json"
    (Services.Bench_json.
       [
         ("smoke", Bool smoke);
         ("config_requests", Int requests);
         ("cores", Int cores);
         ("seq_wall_s", Float seq_wall);
         ("wall_1_s", Float (wall_at 1));
         ("wall_2_s", Float (wall_at 2));
         ("wall_4_s", Float (wall_at 4));
         ("wall_8_s", Float (wall_at 8));
         ("speedup_4", Float speedup_4);
         ("speedup_gated", Bool (cores >= 4));
         ("timeline_hash", Str (Printf.sprintf "%016x" h1));
         ("timeline_hash_int", Int h1);
         ("total_events", Int total_events);
       ]
    @ env_fields @ perf_fields ~domains:4 ());
  Format.printf "metrics written to BENCH_parallel.json@.";
  (* Baseline gate: the canonical observation stream is a pure function
     of the workload, so against a baseline recorded at the same
     request count the hash must match exactly. *)
  match baseline with
  | None -> ()
  | Some path -> (
      match Services.Bench_json.read_int_field ~path ~key:"config_requests" with
      | Some want_req when want_req <> requests ->
          Format.printf
            "baseline %s was recorded at %d request(s), this run used %d — \
             hash gate skipped@."
            path want_req requests
      | _ -> (
          match
            Services.Bench_json.read_int_field ~path ~key:"timeline_hash_int"
          with
          | None ->
              Format.printf "FAILED: baseline %s has no timeline_hash_int@."
                path;
              exit 1
          | Some want ->
              Format.printf
                "baseline hash gate: %016x vs baseline %016x %s@." h1 want
                (if h1 = want then "(ok)" else "(MISMATCH)");
              if h1 <> want then begin
                Format.printf "FAILED parallel baseline hash gate@.";
                exit 1
              end;
              (* Per-feature hash gates, against baselines recorded at
                 the same scale. Absent keys are reported, not failed,
                 so an older baseline file stays usable. *)
              List.iter
                (fun (nm, h, _) ->
                  match
                    Services.Bench_json.read_int_field ~path
                      ~key:(nm ^ "_hash_int")
                  with
                  | None ->
                      Format.printf
                        "baseline has no %s_hash_int — feature hash gate \
                         skipped@."
                        nm
                  | Some want_f ->
                      Format.printf
                        "baseline %s hash gate: %016x vs baseline %016x %s@."
                        nm h want_f
                        (if h = want_f then "(ok)" else "(MISMATCH)");
                      if h <> want_f then begin
                        Format.printf
                          "FAILED parallel baseline feature hash gate (%s)@."
                          nm;
                        exit 1
                      end)
                env_rows))

(* ------------------------------------------------------------------ *)
(* Schedule explorer: sweep perturbed schedules, shrink failures       *)
(* ------------------------------------------------------------------ *)

let explore ~smoke ~schedules ~seed ~workload ~replay ~out_dir () =
  header "Schedule explorer";
  match replay with
  | Some path ->
      let r = Check.Explore.replay_file path in
      let o = r.Check.Explore.rp_outcome in
      Format.printf "workload %s, %d choice(s)@." o.Check.Explore.o_workload
        (Array.length o.Check.Explore.o_trace);
      List.iter
        (fun (p, d) -> Format.printf "violation: %s: %s@." p d)
        o.Check.Explore.o_violations;
      (match o.Check.Explore.o_crash with
      | Some e -> Format.printf "crash: %s@." e
      | None -> ());
      Format.printf "replay hashes: %016x / %016x@." o.Check.Explore.o_hash
        r.Check.Explore.rp_second_hash;
      if not r.Check.Explore.rp_identical then begin
        Format.printf "FAILED: replay is not bit-identical@.";
        exit 1
      end;
      Format.printf "replay bit-identical: yes@.";
      if Check.Explore.failed o then
        Format.printf "schedule still failing (as a reproducer should)@."
      else Format.printf "schedule passes: the pinned bug stays fixed@."
  | None ->
      let workloads =
        match workload with
        | None -> Check.Workloads.all
        | Some n -> (
            match Check.Workloads.find n with
            | Some w -> [ w ]
            | None ->
                Format.printf "unknown workload %s@." n;
                exit 2)
      in
      let schedules =
        match schedules with Some n -> n | None -> if smoke then 6 else 40
      in
      (* Determinism gate first: a recorded schedule must replay
         bit-identically on every workload. *)
      List.iter
        (fun w ->
          let o = Check.Explore.run_recorded w ~seed in
          let r = Check.Explore.replay w o.Check.Explore.o_trace in
          let ident =
            r.Check.Explore.rp_identical
            && (Option.is_some o.Check.Explore.o_crash
               || r.Check.Explore.rp_outcome.Check.Explore.o_hash
                  = o.Check.Explore.o_hash)
          in
          Format.printf "%-10s determinism: record %016x replay %016x %s@."
            w.Check.Workloads.w_name o.Check.Explore.o_hash
            r.Check.Explore.rp_outcome.Check.Explore.o_hash
            (if ident then "ok" else "MISMATCH");
          if not ident then begin
            Format.printf "FAILED: replay of a recorded schedule diverged@.";
            exit 1
          end)
        workloads;
      let out_dir = Option.value out_dir ~default:"." in
      let summary =
        Check.Explore.sweep ~out_dir
          ~log:(fun s -> Format.printf "  %s@." s)
          ~workloads ~schedules ~seed ()
      in
      Format.printf "%d run(s) across %d workload(s): %d failing schedule(s)@."
        summary.Check.Explore.runs (List.length workloads)
        (List.length summary.Check.Explore.failures);
      if summary.Check.Explore.failures <> [] then begin
        List.iter
          (fun f ->
            let o = f.Check.Explore.f_outcome in
            Format.printf "FAIL %s (seed %s): %s@."
              o.Check.Explore.o_workload
              (match o.Check.Explore.o_seed with
              | Some s -> string_of_int s
              | None -> "-")
              (match
                 (o.Check.Explore.o_violations, o.Check.Explore.o_crash)
               with
              | (p, d) :: _, _ -> p ^ ": " ^ d
              | [], Some e -> "crash: " ^ e
              | [], None -> "?"))
          summary.Check.Explore.failures;
        exit 1
      end

(* ------------------------------------------------------------------ *)
(* Bechamel: wall-clock cost of the simulator itself                   *)
(* ------------------------------------------------------------------ *)

let bechamel () =
  header "Bechamel: simulator wall-clock microbenchmarks";
  let open Bechamel in
  let open Toolkit in
  let nqueens_small ~rt_config () =
    ignore (Apps.Nqueens_par.run ~rt_config ~nodes:4 ~n:6 ())
  in
  let tests =
    Test.make_grouped ~name:"repro"
      [
        Test.make ~name:"table1-intra-ops"
          (Staged.stage (fun () -> ignore (Apps.Microbench.measure ())));
        Test.make ~name:"table2-dormant-dispatch"
          (Staged.stage (fun () -> ignore (Apps.Ring.run ~nodes:2 ~laps:8 ())));
        Test.make ~name:"table3-now-roundtrip"
          (Staged.stage (fun () -> ignore (Apps.Fib.run ~nodes:2 ~n:6 ())));
        Test.make ~name:"table4-fig5-nqueens"
          (Staged.stage (nqueens_small ~rt_config:System.default_rt_config));
        Test.make ~name:"fig6-nqueens-naive"
          (Staged.stage (nqueens_small ~rt_config:System.naive_rt_config));
      ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:(Some 10) ()
  in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold (fun name result acc -> (name, result) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter
    (fun (name, result) ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Format.printf "%-28s %12.0f ns/run@." name est
      | Some _ | None -> Format.printf "%-28s (no estimate)@." name)
    rows

(* ------------------------------------------------------------------ *)

let section_names =
  [ "table1"; "table2"; "table3"; "table4"; "fig5"; "fig6"; "ablations"; "faults";
    "migrate"; "dgc"; "coalesce"; "recover"; "traffic"; "multiactive"; "parallel";
    "bechamel"; "all"; "explore" ]

let int_options = [ "--schedules"; "--seed"; "--requests"; "--domains" ]
let string_options = [ "--workload"; "--replay"; "--out"; "--baseline" ]

let usage =
  "usage: main.exe [SECTION...] [--full] [--smoke] [--domains D] [--requests N] \
   [--baseline FILE] [--schedules N] [--seed N] [--workload NAME] [--out DIR] \
   [--replay FILE]\nsections: " ^ String.concat " " section_names

(* A misspelt section or flag would otherwise run nothing and exit 0. *)
let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("main.exe: " ^ msg);
      prerr_endline usage;
      exit 2)
    fmt

(* Returns the option values (latest wins), the bare flags and the
   sections, in order. *)
let parse_args args =
  let rec go opts flags sections = function
    | [] -> (opts, flags, List.rev sections)
    | k :: rest when List.mem k int_options || List.mem k string_options -> (
        match rest with
        | v :: rest ->
            if List.mem k int_options && int_of_string_opt v = None then
              usage_error "%s takes an integer, not %S" k v;
            go ((k, v) :: opts) flags sections rest
        | [] -> usage_error "%s needs a value" k)
    | (("--full" | "--smoke") as f) :: rest -> go opts (f :: flags) sections rest
    | a :: _ when String.starts_with ~prefix:"-" a -> usage_error "unknown option %s" a
    | s :: rest when List.mem s section_names -> go opts flags (s :: sections) rest
    | s :: _ -> usage_error "unknown section %s" s
  in
  go [] [] [] args

let () =
  Format.set_margin 200;
  let opts, flags, sections = parse_args (List.tl (Array.to_list Sys.argv)) in
  let opt k = List.assoc_opt k opts in
  let int_opt k = Option.map int_of_string (opt k) in
  let baseline = opt "--baseline" and requests_opt = int_opt "--requests" in
  let domains = Option.value (int_opt "--domains") ~default:1 in
  let full = List.mem "--full" flags and smoke = List.mem "--smoke" flags in
  let sections = if sections = [] then [ "all" ] else sections in
  let want s = List.mem s sections || List.mem "all" sections in
  (* The explorer is a checker, not a benchmark: it only runs when asked
     for by name (never under "all"). *)
  if List.mem "explore" sections then
    explore ~smoke ~schedules:(int_opt "--schedules")
      ~seed:(Option.value (int_opt "--seed") ~default:1)
      ~workload:(opt "--workload") ~replay:(opt "--replay") ~out_dir:(opt "--out") ();
  if want "table1" then table1 ();
  if want "table2" then table2 ();
  if want "table3" then table3 ();
  if want "table4" then table4 ~full ();
  if want "fig5" then fig5 ~full ();
  if want "fig6" then fig6 ~full ();
  if want "ablations" then ablations ();
  if want "faults" then faults ~smoke ~domains ();
  if want "migrate" then migrate_bench ~smoke ();
  if want "dgc" then dgc_bench ~smoke ();
  if want "coalesce" then coalesce_bench ~smoke ~domains ();
  if want "recover" then recover_bench ~smoke ~domains ();
  if want "traffic" then traffic_bench ~smoke ~baseline ~requests_opt ~domains ();
  if want "multiactive" then multiactive_bench ~smoke ~baseline ();
  if want "parallel" then parallel_bench ~smoke ~baseline ~domains ();
  if want "bechamel" then bechamel ();
  Format.printf "@."
