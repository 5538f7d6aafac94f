(* Tests for the Category-4 service layer: termination combining, load
   gossip, the GC export analysis, and the bench artifact writer. *)

open Core

let p_run = Pattern.intern "tsv_run" ~arity:0
let p_ack = Pattern.intern "tsv_ack" ~arity:1

let test_termination_combining () =
  let result = ref None in
  let cls =
    Class_def.define ~name:"tsv_comb" ~state:[| "pending"; "acc" |]
      ~init:(fun _ -> [| Value.int 0; Value.int 0 |])
      ~methods:
        [
          ( p_run,
            fun ctx _msg ->
              Services.Termination.begin_wait ctx ~pending_slot:0 ~acc_slot:1
                ~expected:3;
              let self = Ctx.self ctx in
              List.iter
                (fun k -> Ctx.send ctx self p_ack [ Value.int k ])
                [ 5; 7; 30 ] );
          ( p_ack,
            fun ctx msg ->
              let count = Value.to_int (Message.arg msg 0) in
              match
                Services.Termination.record_ack ctx ~pending_slot:0 ~acc_slot:1
                  ~count
              with
              | Some total -> result := Some total
              | None ->
                  Alcotest.(check bool)
                    "still pending" true
                    (Services.Termination.pending ctx ~pending_slot:0 > 0) );
        ]
      ()
  in
  let sys = System.boot ~nodes:1 ~classes:[ cls ] () in
  let a = System.create_root sys ~node:0 cls [] in
  System.send_boot sys a p_run [];
  System.run sys;
  Alcotest.(check (option int)) "combined on last ack" (Some 42) !result

let test_termination_errors () =
  let failure = ref None in
  let cls =
    Class_def.define ~name:"tsv_err" ~state:[| "pending"; "acc" |]
      ~init:(fun _ -> [| Value.int 0; Value.int 0 |])
      ~methods:
        [
          ( p_run,
            fun ctx _msg ->
              (match
                 Services.Termination.begin_wait ctx ~pending_slot:0 ~acc_slot:1
                   ~expected:0
               with
              | () -> ()
              | exception Invalid_argument m -> failure := Some m);
              match
                Services.Termination.record_ack ctx ~pending_slot:0 ~acc_slot:1
                  ~count:1
              with
              | _ -> Alcotest.fail "ack without expectation must fail"
              | exception Invalid_argument _ -> () );
        ]
      ()
  in
  let sys = System.boot ~nodes:1 ~classes:[ cls ] () in
  let a = System.create_root sys ~node:0 cls [] in
  System.send_boot sys a p_run [];
  System.run sys;
  Alcotest.(check (option string)) "zero expectation rejected"
    (Some "Termination.begin_wait: expected <= 0")
    !failure

let p_gossip = Pattern.intern "tsv_gossip" ~arity:0
let p_tickle = Pattern.intern "tsv_tickle" ~arity:0

let test_load_gossip () =
  let service = ref None in
  let cls =
    Class_def.define ~name:"tsv_load"
      ~methods:
        [
          ( p_gossip,
            fun ctx _msg ->
              Services.Load.broadcast (Option.get !service) ctx );
          (p_tickle, fun _ _ -> ());
        ]
      ()
  in
  let sys = System.boot ~nodes:9 ~classes:[ cls ] () in
  let load = Services.Load.attach sys in
  service := Some load;
  let a = System.create_root sys ~node:0 cls [] in
  System.send_boot sys a p_gossip [];
  (* Two further scheduling-queue items are pending while the broadcast
     runs, so the advertised load is 2. *)
  let machine = System.machine sys in
  Machine.Engine.post machine (Machine.Engine.node machine 0) (fun () -> ());
  Machine.Engine.post machine (Machine.Engine.node machine 0) (fun () -> ());
  System.run sys;
  Alcotest.(check int) "one broadcast" 1 (Services.Load.broadcasts load);
  let topo = Machine.Engine.topology (System.machine sys) in
  let neighbors = Network.Topology.neighbors topo 0 in
  List.iter
    (fun nb ->
      Alcotest.(check bool)
        (Printf.sprintf "neighbor %d heard node 0's load" nb)
        true
        (Services.Load.known_load load ~node:nb ~about:0 = 2))
    neighbors;
  (* Idle machine: every candidate currently has load 0, so the least-
     loaded pick must be a valid candidate (self wins ties). *)
  Alcotest.(check int) "pick on idle machine" 0
    (Services.Load.local_load load ~node:0)

let test_load_aware_placement () =
  (* Queens under the gossip-backed placement still computes correctly
     and keeps a larger share of messages local than global round-robin.
     Auto-gossip is required: a neighbour that never gossiped reads as
     unknown, so without it every placement would fall back to self. *)
  let placement, install = Services.Load.deferred_placement () in
  let rt_config =
    {
      System.default_rt_config with
      Kernel.placement;
      gossip_interval_ns = 20_000;
    }
  in
  let cls = Apps.Nqueens_par.solver_cls () in
  let sys = System.boot ~rt_config ~nodes:16 ~classes:[ cls ] () in
  install (Services.Load.attach sys);
  let root =
    System.create_root sys ~node:0 cls
      [ Value.int 7; Value.int Apps.Queens_board.empty_packed; Value.unit ]
  in
  System.send_boot sys root (Pattern.intern "expand" ~arity:0) [];
  System.run sys;
  let st = System.stats sys in
  let local = Simcore.Stats.get st "send.local.dormant" in
  let remote = Simcore.Stats.get st "send.remote" in
  Alcotest.(check bool) "work actually spread and stayed partly local" true
    (local > 0 && remote > 0);
  (* Compare against global round robin: locality must be higher. *)
  let rr = Apps.Nqueens_par.run ~nodes:16 ~n:7 () in
  Alcotest.(check int) "same solution count" rr.Apps.Nqueens_par.solutions 40;
  let frac_local = float_of_int local /. float_of_int (local + remote) in
  Alcotest.(check bool) "locality beats 1/16 round robin" true
    (frac_local > 1.2 /. 16.)

let test_pick_least_unknown_fallback () =
  (* Neighbours that never gossiped are unknown, not load 0: even a
     loaded node keeps work local rather than dumping it on a node it
     knows nothing about. *)
  let sys = System.boot ~nodes:9 ~classes:[] () in
  let load = Services.Load.attach sys in
  let machine = System.machine sys in
  Machine.Engine.post machine (Machine.Engine.node machine 0) (fun () -> ());
  Machine.Engine.post machine (Machine.Engine.node machine 0) (fun () -> ());
  Alcotest.(check int) "self is loaded" 2 (Services.Load.local_load load ~node:0);
  Alcotest.(check (option int)) "neighbor 1 unknown" None
    (Services.Load.known_load_opt load ~node:0 ~about:1);
  Alcotest.(check int) "falls back to self" 0
    (Services.Load.pick_least_for load ~node:0)

let test_pick_least_tiebreak () =
  (* Node 0's torus neighbours on 9 nodes are 1, 2, 3 and 6. Nodes 1 and
     3 gossip load 0; with node 0 itself at load 2 the pick must be the
     lowest-id tied neighbour. *)
  let sys = System.boot ~nodes:9 ~classes:[] () in
  let load = Services.Load.attach sys in
  Services.Load.broadcast_node load ~node:1;
  Services.Load.broadcast_node load ~node:3;
  System.run sys;
  let machine = System.machine sys in
  Machine.Engine.post machine (Machine.Engine.node machine 0) (fun () -> ());
  Machine.Engine.post machine (Machine.Engine.node machine 0) (fun () -> ());
  Alcotest.(check (option int)) "heard 1" (Some 0)
    (Services.Load.known_load_opt load ~node:0 ~about:1);
  Alcotest.(check (option int)) "heard 3" (Some 0)
    (Services.Load.known_load_opt load ~node:0 ~about:3);
  Alcotest.(check int) "lowest-id tied neighbor wins" 1
    (Services.Load.pick_least_for load ~node:0)

let test_auto_gossip_torus () =
  (* With gossip_interval_ns set, load information propagates across the
     whole torus without any application cooperation: after a busy run,
     every node has heard from each of its neighbours. *)
  let rt_config =
    { System.default_rt_config with Kernel.gossip_interval_ns = 10_000 }
  in
  let cls = Apps.Nqueens_par.solver_cls () in
  let sys = System.boot ~rt_config ~nodes:9 ~classes:[ cls ] () in
  let load = Services.Load.attach sys in
  let root =
    System.create_root sys ~node:0 cls
      [ Value.int 6; Value.int Apps.Queens_board.empty_packed; Value.unit ]
  in
  System.send_boot sys root (Pattern.intern "expand" ~arity:0) [];
  System.run sys;
  Alcotest.(check bool) "every node gossiped at least once" true
    (Services.Load.broadcasts load >= 9);
  let topo = Machine.Engine.topology (System.machine sys) in
  for node = 0 to 8 do
    List.iter
      (fun nb ->
        Alcotest.(check bool)
          (Printf.sprintf "node %d heard neighbor %d" node nb)
          true
          (Services.Load.known_load_opt load ~node ~about:nb <> None))
      (Network.Topology.neighbors topo node)
  done

let test_deferred_placement_two_phase () =
  (* Phase 1 (before install): the policy has no service yet and must
     place locally. Phase 2 (after install): it consults gossiped
     loads. *)
  let placement, install = Services.Load.deferred_placement () in
  let pick =
    match placement with
    | Kernel.Custom_policy f -> f
    | _ -> Alcotest.fail "deferred_placement must be a custom policy"
  in
  Alcotest.(check int) "pre-install places on self" 2 (pick 2);
  let sys = System.boot ~nodes:4 ~classes:[] () in
  let load = Services.Load.attach sys in
  install load;
  Services.Load.broadcast_node load ~node:1;
  System.run sys;
  let machine = System.machine sys in
  Machine.Engine.post machine (Machine.Engine.node machine 0) (fun () -> ());
  Machine.Engine.post machine (Machine.Engine.node machine 0) (fun () -> ());
  Alcotest.(check int) "post-install picks gossiped idle neighbor" 1 (pick 0)

let p_hold = Pattern.intern "tsv_hold" ~arity:1

let test_gc_analysis () =
  let holder =
    Class_def.define ~name:"tsv_holder" ~state:[| "peer" |]
      ~init:(fun _ -> [| Value.unit |])
      ~methods:
        [ (p_hold, fun ctx msg -> Ctx.set ctx 0 (Message.arg msg 0)) ]
      ()
  in
  let sys = System.boot ~nodes:2 ~classes:[ holder ] () in
  let a = System.create_root sys ~node:0 holder [] in
  let b = System.create_root sys ~node:1 holder [] in
  let c = System.create_root sys ~node:1 holder [] in
  ignore c;
  (* a (node 0) holds a reference to b (node 1): b is exported. *)
  System.send_boot sys a p_hold [ Value.addr b ];
  (* b holds a local reference to c: c stays local-only. *)
  System.send_boot sys b p_hold [ Value.addr c ];
  System.run sys;
  let r = Services.Gc_analysis.survey sys in
  Alcotest.(check int) "three objects" 3 r.Services.Gc_analysis.total;
  Alcotest.(check int) "no embryos" 0 r.embryos;
  Alcotest.(check int) "b exported" 1 r.exported;
  Alcotest.(check int) "a and c movable" 2 r.local_only;
  ignore (Format.asprintf "%a" Services.Gc_analysis.pp_report r)

let test_gc_analysis_embryo () =
  let sys = System.boot ~nodes:2 ~classes:[] () in
  let rt1 = System.rt sys 1 in
  ignore (Sched.lookup_or_embryo rt1 0);
  let r = Services.Gc_analysis.survey sys in
  Alcotest.(check int) "embryo counted" 1 r.Services.Gc_analysis.embryos

(* --- timeline --- *)

let test_timeline () =
  let cls = Apps.Nqueens_par.solver_cls () in
  let sys = System.boot ~nodes:8 ~classes:[ cls ] () in
  let tl = Services.Timeline.attach sys in
  let root =
    System.create_root sys ~node:0 cls
      [ Value.int 7; Value.int Apps.Queens_board.empty_packed; Value.unit ]
  in
  System.send_boot sys root (Pattern.intern "expand" ~arity:0) [];
  System.run sys;
  Services.Timeline.detach tl;
  Alcotest.(check bool) "slices recorded" true (Services.Timeline.slices tl > 10);
  Alcotest.(check bool) "deliveries recorded" true
    (Services.Timeline.deliveries tl > 100);
  let busy0 = Services.Timeline.busy_fraction tl ~node:0 in
  Alcotest.(check bool) "node 0 busy fraction in (0,1]" true
    (busy0 > 0. && busy0 <= 1.0);
  let chart = Services.Timeline.render ~width:40 tl in
  Alcotest.(check bool) "chart shows busy buckets" true
    (String.contains chart '#' || String.contains chart '.');
  (match Services.Timeline.message_matrix tl with
  | (_, _, heaviest) :: _ -> Alcotest.(check bool) "traffic sorted" true (heaviest > 0)
  | [] -> Alcotest.fail "no traffic recorded")

let test_bench_json_duplicate_key () =
  let path = Filename.temp_file "bench_dup" ".json" in
  let module J = Services.Bench_json in
  Alcotest.check_raises "a repeated key is refused"
    (Invalid_argument "Bench_json.write: duplicate key \"domains\"")
    (fun () -> J.write ~path [ ("domains", J.Int 4); ("x", J.Int 1); ("domains", J.Int 1) ]);
  J.write ~path [ ("domains", J.Int 4); ("x", J.Int 1) ];
  Alcotest.(check (option int)) "distinct keys are written" (Some 4)
    (J.read_int_field ~path ~key:"domains");
  Sys.remove path

let () =
  Alcotest.run "services"
    [
      ( "termination",
        [
          Alcotest.test_case "combining" `Quick test_termination_combining;
          Alcotest.test_case "errors" `Quick test_termination_errors;
        ] );
      ( "load",
        [
          Alcotest.test_case "gossip" `Quick test_load_gossip;
          Alcotest.test_case "load-aware placement" `Quick
            test_load_aware_placement;
          Alcotest.test_case "unknown falls back to self" `Quick
            test_pick_least_unknown_fallback;
          Alcotest.test_case "tie-break to lowest id" `Quick
            test_pick_least_tiebreak;
          Alcotest.test_case "auto-gossip over torus" `Quick
            test_auto_gossip_torus;
          Alcotest.test_case "deferred placement two-phase" `Quick
            test_deferred_placement_two_phase;
        ] );
      ( "gc_analysis",
        [
          Alcotest.test_case "export survey" `Quick test_gc_analysis;
          Alcotest.test_case "embryos" `Quick test_gc_analysis_embryo;
        ] );
      ( "timeline",
        [ Alcotest.test_case "records and renders" `Quick test_timeline ] );
      ( "bench_json",
        [
          Alcotest.test_case "duplicate key rejected" `Quick
            test_bench_json_duplicate_key;
        ] );
    ]

