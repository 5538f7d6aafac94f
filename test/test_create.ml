(* Tests for object creation: lazy initialisation, explicit and
   policy-driven placement, the chunk-stock protocol and the Figure 4
   initialisation race. *)

open Core

let p_inc = Pattern.intern "tc_inc" ~arity:0
let _p_get = Pattern.intern "tc_get" ~arity:0
let p_go = Pattern.intern "tc_go" ~arity:1
let p_make = Pattern.intern "tc_make" ~arity:2

let counter_cls () =
  Class_def.define ~name:"tc_counter" ~state:[| "n" |]
    ~init:(fun args ->
      match args with
      | [ v ] -> [| v |]
      | _ -> [| Value.int 0 |])
    ~methods:
      [
        Class_def.meth "tc_inc" ~arity:0 (fun ctx _ ->
            Ctx.set ctx 0 (Value.int (Value.to_int (Ctx.get ctx 0) + 1)));
        Class_def.meth "tc_get" ~arity:0 (fun ctx msg ->
            Ctx.reply ctx msg (Ctx.get ctx 0));
      ]
    ()

let test_lazy_init () =
  let counter = counter_cls () in
  let sys = System.boot ~nodes:1 ~classes:[ counter ] () in
  let a = System.create_root sys ~node:0 counter [ Value.int 10 ] in
  let obj = Option.get (System.lookup_obj sys a) in
  Alcotest.(check bool) "not initialised at creation" false
    obj.Kernel.initialized;
  Alcotest.(check int) "state box empty" 0 (Array.length obj.Kernel.state);
  Alcotest.(check string) "init table" "init" (Sched.mode_of obj);
  System.send_boot sys a p_inc [];
  System.run sys;
  Alcotest.(check bool) "initialised on first message" true
    obj.Kernel.initialized;
  Alcotest.(check int) "ctor args applied then incremented" 11
    (Value.to_int obj.Kernel.state.(0));
  Alcotest.(check string) "dormant table afterwards" "dormant"
    (Sched.mode_of obj)

let test_placement_policies () =
  let counter = counter_cls () in
  let with_policy placement =
    let rt_config = { System.default_rt_config with Kernel.placement } in
    let sys = System.boot ~rt_config ~nodes:8 ~classes:[ counter ] () in
    System.rt sys 3
  in
  let rt = with_policy Kernel.Round_robin in
  let picks = List.init 8 (fun _ -> Create.pick_node rt) in
  Alcotest.(check (list int)) "round robin starts at the next node"
    [ 4; 5; 6; 7; 0; 1; 2; 3 ] picks;
  let rt = with_policy Kernel.Self_node in
  Alcotest.(check int) "self" 3 (Create.pick_node rt);
  let rt = with_policy (Kernel.Fixed_node 5) in
  Alcotest.(check int) "fixed" 5 (Create.pick_node rt);
  let rt = with_policy Kernel.Random_node in
  for _ = 1 to 50 do
    let p = Create.pick_node rt in
    if p < 0 || p >= 8 then Alcotest.fail "random pick out of range"
  done;
  let rt = with_policy Kernel.Neighbor_round_robin in
  let topo = Network.Topology.square_for 8 in
  let allowed = 3 :: Network.Topology.neighbors topo 3 in
  for _ = 1 to 20 do
    let p = Create.pick_node rt in
    if not (List.mem p allowed) then
      Alcotest.failf "neighbor pick %d outside self+neighbours" p
  done;
  let rt = with_policy (Kernel.Custom_policy (fun my -> my + 100)) in
  Alcotest.(check int) "custom policy wraps into range" ((3 + 100) mod 8)
    (Create.pick_node rt)

let test_chunk_stall_and_resume () =
  let counter = counter_cls () in
  let spawner =
    Class_def.define ~name:"tc_burst"
      ~methods:
        [
          ( p_go,
            fun ctx msg ->
              let k = Value.to_int (Message.arg msg 0) in
              for _ = 1 to k do
                let child = Ctx.create_on ctx ~target:1 counter [ Value.int 0 ] in
                Ctx.send ctx child p_inc []
              done );
        ]
      ()
  in
  let rt_config = { System.default_rt_config with Kernel.stock_size = 1 } in
  let sys = System.boot ~rt_config ~nodes:2 ~classes:[ counter; spawner ] () in
  let sp = System.create_root sys ~node:0 spawner [] in
  System.send_boot sys sp p_go [ Value.int 5 ];
  System.run sys;
  let st = System.stats sys in
  Alcotest.(check int) "all created despite stalls" 5
    (Simcore.Stats.get st "create.remote");
  Alcotest.(check int) "all initialised" 5
    (Simcore.Stats.get st "create.remote.applied");
  Alcotest.(check bool) "stalled at least once" true
    (Simcore.Stats.get st "chunk.stall" >= 3);
  Alcotest.(check int) "stock replenished per creation" 5
    (Simcore.Stats.get st "chunk.refill")

(* Stalled creators wait per target: with one-slot stocks, contexts on
   node 0 stall on targets 1 and 2 interleaved. Each target's waiters
   resume oldest first, and only a chunk from their own target wakes
   them: a waiter woken by the other target's chunk would find its
   stock still empty and stall a second time. *)
let test_chunk_waiters_per_target () =
  let counter = counter_cls () in
  let sys = ref None in
  let expected_stalls = ref 0 and peak = Array.make 3 0 and finished = ref [] in
  let waiter =
    Class_def.define ~name:"tc_waiter"
      ~methods:
        [
          ( p_make,
            fun ctx msg ->
              let target = Value.to_int (Message.arg msg 0) in
              let tag = Value.to_int (Message.arg msg 1) in
              let rt0 = System.rt (Option.get !sys) 0 in
              let waiting = Queue.length rt0.Kernel.chunk_waiters.(target) in
              peak.(target) <- max peak.(target) waiting;
              if Queue.is_empty rt0.Kernel.stocks.(target) then incr expected_stalls;
              let child = Ctx.create_on ctx ~target counter [] in
              finished := (target, tag, child.Value.node) :: !finished );
        ]
      ()
  in
  (* Busy targets: creation requests sit unprocessed until the spin
     ends, so every later creator for that target stalls before any
     replenishing chunk comes back. *)
  let busy =
    Class_def.define ~name:"tc_busy"
      ~methods:[ (p_inc, fun ctx _ -> Ctx.charge ctx 1_000_000) ]
      ()
  in
  let rt_config = { System.default_rt_config with Kernel.stock_size = 1 } in
  let s = System.boot ~rt_config ~nodes:3 ~classes:[ counter; waiter; busy ] () in
  sys := Some s;
  List.iter
    (fun node -> System.send_boot s (System.create_root s ~node busy []) p_inc [])
    [ 1; 2 ];
  let per_target = 4 in
  for tag = 1 to per_target do
    List.iter
      (fun target ->
        let w = System.create_root s ~node:0 waiter [] in
        System.send_boot s w p_make [ Value.int target; Value.int tag ])
      [ 1; 2 ]
  done;
  System.run s;
  let order target =
    List.rev !finished
    |> List.filter (fun (t, _, _) -> t = target)
    |> List.map (fun (_, tag, _) -> tag)
  in
  Alcotest.(check (list int)) "target 1 waiters oldest first" [ 1; 2; 3; 4 ] (order 1);
  Alcotest.(check (list int)) "target 2 waiters oldest first" [ 1; 2; 3; 4 ] (order 2);
  List.iter
    (fun (target, _, node) -> Alcotest.(check int) "created on its target" target node)
    !finished;
  Alcotest.(check bool) "both targets had several waiters at once" true
    (peak.(1) >= 2 && peak.(2) >= 2);
  Alcotest.(check int) "each stalled context stalled exactly once" !expected_stalls
    (Simcore.Stats.get (System.stats s) "chunk.stall");
  let d = Diagnostics.survey s in
  Alcotest.(check int) "no chunk waiters at quiescence" 0 d.Diagnostics.chunk_waiters;
  Alcotest.(check bool) "clean quiescence" true (Diagnostics.is_clean d)

(* The Figure 4 race, driven at the protocol level: a message to a fresh
   chunk address reaches the target before the creation request. The
   pre-initialised fault table must buffer it; initialisation must then
   process it. *)
let test_figure4_race () =
  let counter = counter_cls () in
  let sys = System.boot ~nodes:2 ~classes:[ counter ] () in
  let machine = System.machine sys in
  let rt0 = System.rt sys 0 in
  let node0 = Machine.Engine.node machine 0 in
  (* Step 1 of Section 5.2: node 0 obtains a chunk address on node 1
     locally from its stock. *)
  let slot = Queue.take rt0.Kernel.stocks.(1) in
  let inc_msg = Message.make ~pattern:p_inc ~args:[] ~src_node:0 () in
  Machine.Engine.post machine node0 (fun () ->
      (* The ordinary message is injected first and so arrives first
         (per-channel FIFO) — as if it had been relayed via a third
         node ahead of the creation request. *)
      Machine.Engine.send_am machine ~src:node0 ~dst:1
        ~handler:rt0.Kernel.shared.Kernel.h_obj_msg
        ~size_bytes:(Protocol.obj_msg_bytes inc_msg)
        (Protocol.P_obj_msg { slot; msg = inc_msg });
      Machine.Engine.send_am machine ~src:node0 ~dst:1
        ~handler:rt0.Kernel.shared.Kernel.h_create
        ~size_bytes:(Protocol.create_bytes [ Value.int 5 ])
        (Protocol.P_create
           {
             slot;
             cls_id = counter.Kernel.cls_id;
             args = [ Value.int 5 ];
             gc_refs = [];
           }));
  System.run sys;
  let st = System.stats sys in
  Alcotest.(check int) "early message hit the fault table" 1
    (Simcore.Stats.get st "recv.remote.fault");
  let obj = Option.get (System.lookup_obj sys { Value.node = 1; slot }) in
  Alcotest.(check bool) "object initialised" true obj.Kernel.initialized;
  Alcotest.(check int) "buffered message was processed after init" 6
    (Value.to_int obj.Kernel.state.(0))

let test_invalid_slot () =
  let sys = System.boot ~nodes:1 ~classes:[] () in
  let rt0 = System.rt sys 0 in
  Alcotest.(check bool) "unallocated slot rejected" true
    (match Sched.lookup_or_embryo rt0 999_999 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_remote_create_address_available_immediately () =
  let counter = counter_cls () in
  let holder =
    Class_def.define ~name:"tc_holder" ~state:[| "child" |]
      ~init:(fun _ -> [| Value.unit |])
      ~methods:
        [
          ( p_go,
            fun ctx _msg ->
              let before = Ctx.now ctx in
              let child = Ctx.create_on ctx ~target:1 counter [ Value.int 0 ] in
              let after = Ctx.now ctx in
              (* Latency hiding: obtaining the address must not wait a
                 network round trip (~9 us); it is a local operation. *)
              if after - before > Simcore.Time.of_us 5. then
                Alcotest.fail "remote creation blocked the requester";
              Ctx.set ctx 0 (Value.addr child) );
        ]
      ()
  in
  let sys = System.boot ~nodes:2 ~classes:[ counter; holder ] () in
  let h = System.create_root sys ~node:0 holder [] in
  System.send_boot sys h p_go [ Value.int 0 ];
  System.run sys;
  let obj = Option.get (System.lookup_obj sys h) in
  let child = Value.to_addr obj.Kernel.state.(0) in
  Alcotest.(check int) "created on node 1" 1 child.Value.node

let test_create_remote_policy_spread () =
  let counter = counter_cls () in
  let spawner =
    Class_def.define ~name:"tc_spread" ~state:[| "kids" |]
      ~init:(fun _ -> [| Value.list [] |])
      ~methods:
        [
          ( p_go,
            fun ctx msg ->
              let k = Value.to_int (Message.arg msg 0) in
              let kids = ref [] in
              for _ = 1 to k do
                let child = Ctx.create_remote ctx counter [ Value.int 0 ] in
                kids := Value.addr child :: !kids
              done;
              Ctx.set ctx 0 (Value.list !kids) );
        ]
      ()
  in
  let sys = System.boot ~nodes:4 ~classes:[ counter; spawner ] () in
  let sp = System.create_root sys ~node:0 spawner [] in
  System.send_boot sys sp p_go [ Value.int 8 ];
  System.run sys;
  let obj = Option.get (System.lookup_obj sys sp) in
  let kids = Value.to_list obj.Kernel.state.(0) in
  let nodes =
    List.map (fun v -> (Value.to_addr v).Value.node) kids
    |> List.sort_uniq compare
  in
  Alcotest.(check (list int)) "round robin touches every node" [ 0; 1; 2; 3 ]
    nodes

let () =
  Alcotest.run "create"
    [
      ( "creation",
        [
          Alcotest.test_case "lazy init" `Quick test_lazy_init;
          Alcotest.test_case "placement policies" `Quick test_placement_policies;
          Alcotest.test_case "latency hiding" `Quick
            test_remote_create_address_available_immediately;
          Alcotest.test_case "policy spread" `Quick
            test_create_remote_policy_spread;
          Alcotest.test_case "invalid slot" `Quick test_invalid_slot;
        ] );
      ( "chunk stock",
        [
          Alcotest.test_case "stall and resume" `Quick
            test_chunk_stall_and_resume;
          Alcotest.test_case "figure 4 race" `Quick test_figure4_race;
          Alcotest.test_case "waiters per target" `Quick
            test_chunk_waiters_per_target;
        ] );
    ]
