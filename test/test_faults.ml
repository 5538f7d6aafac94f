(* Tests for the fault-injection fabric and the reliable-delivery layer:
   exactly-once per-channel FIFO dispatch under drops/duplicates/jitter,
   crash-window recovery, and the bit-identical fault-free guarantee. *)

module Engine = Machine.Engine
module Node = Machine.Node
module Am = Machine.Am
module Faults = Network.Faults

type Am.payload += Marker of int

let faulty_config plan = { Engine.default_config with Engine.faults = Some plan }

let test_exactly_once_fifo () =
  (* A network this hostile loses or duplicates most packets; the reliable
     layer must still hand every channel its messages once, in order. *)
  let plan = Faults.plan ~seed:5 ~drop:0.3 ~duplicate:0.3 ~jitter_ns:5_000 () in
  let m = Engine.create ~config:(faulty_config plan) ~nodes:4 () in
  Alcotest.(check bool) "fault layer live" true (Engine.faults_active m);
  let seen = Array.make 4 [] in
  let h =
    Engine.register_handler m Am.Service ~name:"mark" (fun _ node am ->
        match am.Am.payload with
        | Marker k ->
            let d = Node.id node in
            seen.(d) <- k :: seen.(d)
        | _ -> assert false)
  in
  let n0 = Engine.node m 0 in
  for k = 1 to 40 do
    Engine.send_am m ~src:n0 ~dst:1 ~handler:h ~size_bytes:4 (Marker k);
    Engine.send_am m ~src:n0 ~dst:2 ~handler:h ~size_bytes:4 (Marker k)
  done;
  Engine.run m;
  let expect = List.init 40 (fun i -> i + 1) in
  Alcotest.(check (list int)) "dst 1: exactly-once FIFO" expect
    (List.rev seen.(1));
  Alcotest.(check (list int)) "dst 2: exactly-once FIFO" expect
    (List.rev seen.(2));
  Alcotest.(check bool) "faults actually fired" true
    (Engine.packets_dropped m > 0 && Engine.packets_duplicated m > 0);
  Alcotest.(check int) "nothing left unacknowledged" 0
    (Engine.reliable_in_flight m)

let test_crash_window_fast_retransmit () =
  (* Node 1's interface is dark while node 0 streams to it: the window
     kills whole flights, and after it the first ack answers a
     retransmission. That ack clocks out the next lost frame at once (a
     fast retransmit) instead of waiting out the backed-off timer.
     Delivery must stay exactly-once FIFO on both channels. *)
  let plan =
    Faults.plan ~seed:3 ~drop:0.01
      ~crashes:[ { Faults.node = 1; from_ns = 30_000; until_ns = 400_000 } ]
      ()
  in
  let m = Engine.create ~config:(faulty_config plan) ~nodes:4 () in
  let seen = Array.make 4 [] in
  let h =
    Engine.register_handler m Am.Service ~name:"mark" (fun _ node am ->
        match am.Am.payload with
        | Marker k -> seen.(Node.id node) <- k :: seen.(Node.id node)
        | _ -> assert false)
  in
  let rounds = 12 and burst = 16 in
  for r = 0 to rounds - 1 do
    Engine.schedule_at m ~time:(r * 20_000) (fun () ->
        let n0 = Engine.node m 0 in
        Engine.post m n0 (fun () ->
            for i = 1 to burst do
              let k = (r * burst) + i in
              Engine.send_am m ~src:n0 ~dst:1 ~handler:h ~size_bytes:8 (Marker k);
              Engine.send_am m ~src:n0 ~dst:2 ~handler:h ~size_bytes:8 (Marker k)
            done))
  done;
  Engine.run m;
  let expect = List.init (rounds * burst) (fun i -> i + 1) in
  Alcotest.(check (list int)) "dst 1: exactly-once FIFO across the window" expect
    (List.rev seen.(1));
  Alcotest.(check (list int)) "dst 2: exactly-once FIFO" expect (List.rev seen.(2));
  Alcotest.(check bool) "the window killed packets" true (Engine.crash_dropped m > 0);
  let st = Engine.stats m in
  Alcotest.(check bool) "ack-clocked fast retransmits happened" true
    (Simcore.Stats.get st "reliable.fast_retransmit" > 0);
  Alcotest.(check int) "one RTO sample per retransmission"
    (Simcore.Stats.get st "reliable.retransmit"
    + Simcore.Stats.get st "reliable.fast_retransmit")
    (Simcore.Histogram.count
       (Option.get (Simcore.Stats.get_histogram st "reliable.rto")));
  Alcotest.(check int) "nothing left unacknowledged" 0 (Engine.reliable_in_flight m)

let test_zero_plan_inert () =
  (* An all-zero plan must be normalised away entirely: no reliable layer,
     and runs bit-identical to the fault-free build. *)
  let m = Engine.create ~config:(faulty_config (Faults.plan ())) ~nodes:2 () in
  Alcotest.(check bool) "zero plan leaves faults off" false
    (Engine.faults_active m);
  Alcotest.(check bool) "no reliable state" true
    (Option.is_none (Engine.reliable m));
  let base = Apps.Nqueens_par.run ~nodes:6 ~n:6 () in
  let zero =
    Apps.Nqueens_par.run
      ~machine_config:(faulty_config (Faults.plan ()))
      ~nodes:6 ~n:6 ()
  in
  Alcotest.(check bool) "bit-identical result record" true (base = zero)

let test_nqueens_under_faults () =
  (* The acceptance scenario: 5% drop + duplication + jitter on a 16-node
     8-queens run still finds all 92 solutions and quiesces cleanly. *)
  let plan =
    Faults.plan ~seed:42 ~drop:0.05 ~duplicate:0.025 ~jitter_ns:2_000 ()
  in
  let r, sys =
    Apps.Nqueens_par.run_sys ~machine_config:(faulty_config plan) ~nodes:16
      ~n:8 ()
  in
  Alcotest.(check int) "all 92 solutions" 92 r.Apps.Nqueens_par.solutions;
  let d = Core.Diagnostics.survey sys in
  Alcotest.(check bool) "clean quiescence" true (Core.Diagnostics.is_clean d);
  Alcotest.(check bool) "losses happened" true
    (d.Core.Diagnostics.packets_dropped > 0);
  let st = Core.System.stats sys in
  Alcotest.(check bool) "retransmissions repaired the losses" true
    (Simcore.Stats.get st "reliable.retransmit"
     + Simcore.Stats.get st "reliable.fast_retransmit"
    > 0);
  Alcotest.(check int) "no message lost for good" 0
    (Machine.Engine.reliable_in_flight (Core.System.machine sys))

let test_crash_recovery () =
  (* Node 3's network interface is down for a millisecond early in the
     run; every message to or from it during the window is lost, yet
     retransmission carries the computation across the outage. *)
  let plan =
    Faults.plan ~seed:7 ~drop:0.01
      ~crashes:[ { Faults.node = 3; from_ns = 100_000; until_ns = 1_100_000 } ]
      ()
  in
  let r, sys =
    Apps.Nqueens_par.run_sys ~machine_config:(faulty_config plan) ~nodes:8 ~n:7
      ()
  in
  let base = Apps.Nqueens_par.run ~nodes:8 ~n:7 () in
  Alcotest.(check int) "solutions survive the outage"
    base.Apps.Nqueens_par.solutions r.Apps.Nqueens_par.solutions;
  Alcotest.(check bool) "clean quiescence" true
    (Core.Diagnostics.is_clean (Core.Diagnostics.survey sys));
  Alcotest.(check bool) "the outage cost time" true (r.elapsed > base.elapsed)

let test_faulty_determinism () =
  let run seed =
    let plan = Faults.plan ~seed ~drop:0.08 ~duplicate:0.04 ~jitter_ns:3_000 () in
    let r =
      Apps.Nqueens_par.run ~machine_config:(faulty_config plan) ~nodes:9 ~n:6 ()
    in
    (r.Apps.Nqueens_par.elapsed, r.messages, r.solutions)
  in
  Alcotest.(check (triple int int int)) "same seed, same virtual history"
    (run 3) (run 3);
  let _, _, s1 = run 3 and _, _, s2 = run 99 in
  Alcotest.(check int) "different seed, same answer" s1 s2

let () =
  Alcotest.run "faults"
    [
      ( "reliable",
        [
          Alcotest.test_case "exactly-once FIFO" `Quick test_exactly_once_fifo;
          Alcotest.test_case "crash window fast retransmit" `Quick
            test_crash_window_fast_retransmit;
          Alcotest.test_case "zero plan inert" `Quick test_zero_plan_inert;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "n-queens under faults" `Quick
            test_nqueens_under_faults;
          Alcotest.test_case "crash recovery" `Quick test_crash_recovery;
          Alcotest.test_case "determinism" `Quick test_faulty_determinism;
        ] );
    ]
