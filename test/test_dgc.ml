(* Tests for the distributed garbage collector: weighted reference
   counting (grants, splits, indirections, debits), batched decrements,
   reclamation + chunk-stock recycling, reclamation of migrated objects
   and their forwarding chains, and safety/liveness under random fault
   plans and migration schedules. *)

open Core
module Engine = Machine.Engine
module Faults = Network.Faults

let p_poke = Pattern.intern "dgc_poke" ~arity:1
let p_ask = Pattern.intern "dgc_ask" ~arity:0
let p_spawn = Pattern.intern "dgc_spawn" ~arity:1
let p_adopt = Pattern.intern "dgc_adopt" ~arity:1
let p_share = Pattern.intern "dgc_share" ~arity:1
let p_drop = Pattern.intern "dgc_drop" ~arity:0
let p_churn = Pattern.intern "dgc_churn" ~arity:2
let p_probe = Pattern.intern "dgc_probe" ~arity:1

(* A value cell: poke stores, ask replies. *)
let cell_cls () =
  Class_def.define ~name:"dgc_cell" ~state:[| "v" |]
    ~init:(fun _ -> [| Value.int 0 |])
    ~methods:
      [
        (p_poke, fun ctx msg -> Ctx.set ctx 0 (Message.arg msg 0));
        (p_ask, fun ctx msg -> Ctx.reply ctx msg (Ctx.get ctx 0));
      ]
    ()

(* A holder keeps a list of cell addresses in a state variable — the
   references the collector must respect. [spawn target] creates a cell
   remotely and adopts it; [share other] re-exports the newest ref;
   [drop] forgets everything; [churn i n] spawns one cell per slice,
   keeping only the newest (constant live set, linear garbage). *)
let holder_cls ~cell () =
  Class_def.define ~name:"dgc_holder" ~state:[| "refs" |]
    ~init:(fun _ -> [| Value.List [] |])
    ~methods:
      [
        ( p_spawn,
          fun ctx msg ->
            let target = Value.to_int (Message.arg msg 0) in
            let a = Ctx.create_on ctx ~target cell [] in
            Ctx.send ctx a p_poke [ Value.int 42 ];
            match Ctx.get ctx 0 with
            | Value.List vs -> Ctx.set ctx 0 (Value.List (Value.Addr a :: vs))
            | _ -> assert false );
        ( p_adopt,
          fun ctx msg ->
            match Ctx.get ctx 0 with
            | Value.List vs ->
                Ctx.set ctx 0 (Value.List (Message.arg msg 0 :: vs))
            | _ -> assert false );
        ( p_share,
          fun ctx msg ->
            match (Ctx.get ctx 0, Message.arg msg 0) with
            | Value.List (first :: _), Value.Addr other ->
                Ctx.send ctx other p_adopt [ first ]
            | _ -> () );
        (p_drop, fun ctx _ -> Ctx.set ctx 0 (Value.List []));
        ( p_churn,
          fun ctx msg ->
            let i = Value.to_int (Message.arg msg 0) in
            let n = Value.to_int (Message.arg msg 1) in
            if i < n then begin
              let target = i mod Ctx.node_count ctx in
              let a = Ctx.create_on ctx ~target cell [] in
              Ctx.send ctx a p_poke [ Value.int i ];
              Ctx.set ctx 0 (Value.List [ Value.Addr a ]);
              Ctx.send ctx (Ctx.self ctx) p_churn
                [ Value.int (i + 1); Value.int n ]
            end );
        ( p_probe,
          fun ctx msg ->
            (* now-type round-trip to a remote cell: exercises exported
               reply destinations *)
            match Message.arg msg 0 with
            | Value.Addr a -> ignore (Ctx.send_now ctx a p_ask [])
            | _ -> assert false );
      ]
    ()

(* Records carrying this canonical address, of any kind (live record,
   immigrant, forwarding stub). Full reclamation means zero. *)
let records_of sys canon =
  let n = System.node_count sys in
  let count = ref 0 in
  for node = 0 to n - 1 do
    Hashtbl.iter
      (fun _ (o : Kernel.obj) -> if o.Kernel.self = canon then incr count)
      (System.rt sys node).Kernel.objects
  done;
  !count

(* The live (non-forwarding) record, wherever migration put it. *)
let live_record sys canon =
  let n = System.node_count sys in
  let found = ref None in
  for node = 0 to n - 1 do
    Hashtbl.iter
      (fun _ (o : Kernel.obj) ->
        if
          o.Kernel.self = canon
          && (match o.Kernel.vftp.Kernel.vft_kind with
             | Kernel.Vft_forward _ -> false
             | _ -> true)
          && !found = None
        then found := Some o)
      (System.rt sys node).Kernel.objects
  done;
  !found

let holder_refs sys h =
  match System.lookup_obj sys h with
  | Some o when Array.length o.Kernel.state > 0 -> (
      match o.Kernel.state.(0) with
      | Value.List vs ->
          List.filter_map
            (function Value.Addr a -> Some a | _ -> None)
            vs
      | _ -> [])
  | Some _ | None -> []

let check_audit g = Alcotest.(check (list string)) "weights balance" [] (Dgc.audit g)

let swept g sys =
  Alcotest.(check bool)
    "sweeps actually ran" true
    (Simcore.Stats.get (System.stats sys) "dgc.sweeps" > 0);
  ignore g

(* --- basic safety and reclamation --------------------------------- *)

let test_remote_ref_keeps_alive () =
  let cell = cell_cls () in
  let holder = holder_cls ~cell () in
  let sys = System.boot ~nodes:2 ~classes:[ cell; holder ] () in
  let g = Dgc.attach sys in
  let h = System.create_root sys ~node:0 holder [] in
  System.send_boot sys h p_spawn [ Value.int 1 ];
  System.run sys;
  Dgc.settle g;
  swept g sys;
  let canon =
    match holder_refs sys h with [ a ] -> a | _ -> Alcotest.fail "one ref"
  in
  Alcotest.(check int) "cell owned by node 1" 1 canon.Value.node;
  Alcotest.(check bool) "cell survives sweeps" true (live_record sys canon <> None);
  Alcotest.(check bool)
    "owner scion positive" true
    (Dgc.scion_weight g ~node:1 ~slot:canon.Value.slot > 0);
  check_audit g;
  (* the surviving reference still works *)
  System.send_boot sys canon p_poke [ Value.int 7 ];
  System.run sys;
  match live_record sys canon with
  | Some o -> Alcotest.(check int) "poke landed" 7 (Value.to_int o.Kernel.state.(0))
  | None -> Alcotest.fail "record vanished"

let test_drop_reclaims_and_restocks () =
  let cell = cell_cls () in
  let holder = holder_cls ~cell () in
  let sys = System.boot ~nodes:2 ~classes:[ cell; holder ] () in
  let g = Dgc.attach sys in
  let h = System.create_root sys ~node:0 holder [] in
  System.send_boot sys h p_spawn [ Value.int 1 ];
  System.run sys;
  let canon =
    match holder_refs sys h with [ a ] -> a | _ -> Alcotest.fail "one ref"
  in
  System.send_boot sys h p_drop [];
  System.run sys;
  Dgc.settle g;
  Alcotest.(check int) "record gone everywhere" 0 (records_of sys canon);
  Alcotest.(check bool) "reclaimed counted" true (Dgc.reclaimed g >= 1);
  Alcotest.(check bool) "slot restocked" true (Dgc.restocked g >= 1);
  Alcotest.(check int) "scion drained" 0
    (Dgc.scion_weight g ~node:1 ~slot:canon.Value.slot);
  Alcotest.(check bool) "stub gone" false (Dgc.has_stub g ~node:0 ~canon);
  check_audit g;
  (* the freed slot feeds the next allocation on its node: creation is
     served from the recycled pool (GC as the stock refill path) *)
  let before = (System.rt sys 1).Kernel.slots_recycled in
  System.send_boot sys h p_spawn [ Value.int 1 ];
  System.run sys;
  Alcotest.(check bool)
    "new creation drew on recycled slots" true
    ((System.rt sys 1).Kernel.slots_recycled > before)

let test_weight_split_and_indirection () =
  let cell = cell_cls () in
  let holder = holder_cls ~cell () in
  let sys = System.boot ~nodes:4 ~classes:[ cell; holder ] () in
  (* minimum grant: the second re-export cannot split and must go
     through an indirection entry *)
  let g = Dgc.attach ~grant_weight:2 sys in
  let h0 = System.create_root sys ~node:0 holder [] in
  let h1 = System.create_root sys ~node:1 holder [] in
  let h2 = System.create_root sys ~node:2 holder [] in
  System.send_boot sys h0 p_spawn [ Value.int 3 ];
  System.run sys;
  System.send_boot sys h0 p_share [ Value.Addr h1 ];
  System.run sys;
  System.send_boot sys h1 p_share [ Value.Addr h2 ];
  System.run sys;
  Dgc.settle g;
  let stats = System.stats sys in
  Alcotest.(check bool) "weight was split" true
    (Simcore.Stats.get stats "dgc.splits" > 0);
  Alcotest.(check bool) "indirection was needed" true
    (Simcore.Stats.get stats "dgc.indirections" > 0);
  check_audit g;
  let canon =
    match holder_refs sys h0 with [ a ] -> a | _ -> Alcotest.fail "one ref"
  in
  Alcotest.(check bool) "cell alive with three holders" true
    (live_record sys canon <> None);
  (* all three drop; the indirection chain unwinds backer by backer *)
  List.iter
    (fun h ->
      System.send_boot sys h p_drop [];
      System.run sys)
    [ h0; h1; h2 ];
  Dgc.settle g;
  Alcotest.(check int) "record gone everywhere" 0 (records_of sys canon);
  Alcotest.(check bool) "stubs freed on all holders" true
    (Dgc.stubs_freed g >= 3);
  check_audit g

let test_exported_reply_slot_recycled () =
  let cell = cell_cls () in
  let holder = holder_cls ~cell () in
  let sys = System.boot ~nodes:2 ~classes:[ cell; holder ] () in
  let g = Dgc.attach sys in
  let h = System.create_root sys ~node:0 holder [] in
  System.send_boot sys h p_spawn [ Value.int 1 ];
  System.run sys;
  let canon =
    match holder_refs sys h with [ a ] -> a | _ -> Alcotest.fail "one ref"
  in
  (* a now-type round trip exports the reply destination to node 1; the
     reply object is disposed on reply, so only its drained scion keeps
     the slot out of circulation until the cleanup pass runs *)
  System.send_boot sys h p_probe [ Value.Addr canon ];
  System.run sys;
  Dgc.settle g;
  Alcotest.(check bool) "reply slot restocked" true (Dgc.restocked g >= 1);
  check_audit g

(* --- local sweep vs migration artefacts (regression) --------------- *)

let test_local_sweep_spares_migration_stub () =
  let cell = cell_cls () in
  let holder = holder_cls ~cell () in
  let sys = System.boot ~nodes:3 ~classes:[ cell; holder ] () in
  let m = Migrate.attach sys in
  let h = System.create_root sys ~node:0 holder [] in
  System.send_boot sys h p_spawn [ Value.int 1 ];
  System.run sys;
  let canon =
    match holder_refs sys h with [ a ] -> a | _ -> Alcotest.fail "one ref"
  in
  Alcotest.(check bool) "moved" true (Migrate.move m ~canon ~to_:2);
  System.run sys;
  Alcotest.(check int) "stub on node 1" 1 (Migrate.stub_count m ~node:1);
  (* a purely local sweep on the stub's node must not free it *)
  (match Services.Local_gc.sweep sys ~node:1 with
  | Services.Local_gc.Swept _ -> ()
  | Services.Local_gc.Skipped _ -> Alcotest.fail "sweep refused to run");
  Alcotest.(check int) "stub survives local sweep" 1
    (Migrate.stub_count m ~node:1);
  (* and it still forwards *)
  System.send_boot sys canon p_poke [ Value.int 9 ];
  System.run sys;
  match live_record sys canon with
  | Some o -> Alcotest.(check int) "poke forwarded" 9 (Value.to_int o.Kernel.state.(0))
  | None -> Alcotest.fail "record vanished"

let test_migrated_then_dropped_fully_reclaimed () =
  let cell = cell_cls () in
  let holder = holder_cls ~cell () in
  let sys = System.boot ~nodes:3 ~classes:[ cell; holder ] () in
  let m = Migrate.attach sys in
  let g = Dgc.attach ~migrate:m sys in
  let h = System.create_root sys ~node:0 holder [] in
  System.send_boot sys h p_spawn [ Value.int 1 ];
  System.run sys;
  let canon =
    match holder_refs sys h with [ a ] -> a | _ -> Alcotest.fail "one ref"
  in
  Alcotest.(check bool) "moved away from home" true
    (Migrate.move m ~canon ~to_:2);
  System.run sys;
  System.send_boot sys h p_drop [];
  System.run sys;
  Dgc.settle g;
  Alcotest.(check bool) "recall-home was issued" true (Dgc.recalls g >= 1);
  Alcotest.(check int) "no trace of the object anywhere" 0
    (records_of sys canon);
  Alcotest.(check bool) "forwarding stubs dismantled" true (Dgc.unstubs g >= 1);
  for node = 0 to 2 do
    Alcotest.(check int)
      (Printf.sprintf "no stubs on node %d" node)
      0
      (Migrate.stub_count m ~node)
  done;
  Alcotest.(check (list (pair int int)))
    "diagnostics sees no stub on any node" []
    (Diagnostics.survey sys).Diagnostics.forwarding_stubs;
  check_audit g

(* --- churn with the periodic timer --------------------------------- *)

let test_timer_driven_churn () =
  let cell = cell_cls () in
  let holder = holder_cls ~cell () in
  let sys = System.boot ~nodes:4 ~classes:[ cell; holder ] () in
  let g = Dgc.attach ~interval_ns:200_000 sys in
  let h = System.create_root sys ~node:0 holder [] in
  System.send_boot sys h p_churn [ Value.int 0; Value.int 120 ];
  System.run sys;
  (* the periodic rounds collected garbage while the run was going *)
  Alcotest.(check bool) "timer sweeps ran" true
    (Simcore.Stats.get (System.stats sys) "dgc.sweeps" > 0);
  Alcotest.(check bool) "most dead cells collected during the run" true
    (Dgc.reclaimed g > 60);
  Dgc.settle g;
  Alcotest.(check bool) "all but the kept cell reclaimed" true
    (Dgc.reclaimed g >= 119);
  check_audit g;
  match holder_refs sys h with
  | [ kept ] ->
      Alcotest.(check bool) "kept cell survives" true
        (live_record sys kept <> None)
  | _ -> Alcotest.fail "holder keeps exactly one ref"

(* --- properties: safety and liveness under faults + migration ------ *)

let run_random ~p ~cells ~salt ~fault_kind ~moves =
  (* qcheck shrinkers can wander below the generator's range *)
  let p = max 2 p and cells = max 1 cells in
  let faults =
    match fault_kind with
    | 0 -> None
    | 1 -> Some (Faults.plan ~seed:salt ~drop:0.1 ~jitter_ns:2_000 ())
    | _ ->
        Some
          (Faults.plan ~seed:salt ~drop:0.05 ~duplicate:0.1 ~jitter_ns:1_000 ())
  in
  let machine_config =
    { Engine.default_config with Engine.faults } in
  let cell = cell_cls () in
  let holder = holder_cls ~cell () in
  let sys = System.boot ~machine_config ~nodes:p ~classes:[ cell; holder ] () in
  let m = Migrate.attach sys in
  let g = Dgc.attach ~migrate:m ~grant_weight:4 sys in
  let holders =
    Array.init p (fun node -> System.create_root sys ~node holder [])
  in
  let rng = Random.State.make [| salt; p; cells |] in
  for i = 0 to cells - 1 do
    let owner = holders.(i mod p) in
    System.send_boot sys owner p_spawn
      [ Value.int (Random.State.int rng p) ];
    System.run sys
  done;
  (* random migration schedule over every cell *)
  let all_refs =
    Array.to_list holders |> List.concat_map (fun h -> holder_refs sys h)
  in
  for _ = 1 to moves do
    match all_refs with
    | [] -> ()
    | _ ->
        let a = List.nth all_refs (Random.State.int rng (List.length all_refs)) in
        ignore (Migrate.move m ~canon:a ~to_:(Random.State.int rng p));
        System.run sys
  done;
  (* odd holders drop everything; even holders keep their refs *)
  let kept = ref [] and dropped = ref [] in
  Array.iteri
    (fun i h ->
      if i mod 2 = 1 then begin
        dropped := holder_refs sys h @ !dropped;
        System.send_boot sys h p_drop [];
        System.run sys
      end
      else kept := holder_refs sys h @ !kept)
    holders;
  Dgc.settle g;
  (sys, g, m, !kept, !dropped)

let prop_safety =
  QCheck.Test.make ~count:15 ~name:"live remote refs never reclaimed"
    QCheck.(
      quad (int_range 2 4) (int_range 3 8) (int_range 0 1000) (int_range 0 2))
    (fun (p, cells, salt, fault_kind) ->
      let sys, g, _, kept, _ =
        run_random ~p ~cells ~salt ~fault_kind ~moves:(cells / 2)
      in
      List.for_all (fun a -> live_record sys a <> None) kept
      && Simcore.Stats.get (System.stats sys) "dgc.sweeps" > 0
      && Dgc.audit g = [])

let prop_liveness =
  QCheck.Test.make ~count:15 ~name:"fully dropped refs eventually reclaimed"
    QCheck.(
      quad (int_range 2 4) (int_range 3 8) (int_range 0 1000) (int_range 0 2))
    (fun (p, cells, salt, fault_kind) ->
      let sys, g, _, _, dropped =
        run_random ~p ~cells ~salt ~fault_kind ~moves:(cells / 2)
      in
      ignore g;
      List.for_all (fun a -> records_of sys a = 0) dropped)

let () =
  Alcotest.run "dgc"
    [
      ( "basics",
        [
          Alcotest.test_case "remote ref keeps alive" `Quick
            test_remote_ref_keeps_alive;
          Alcotest.test_case "drop reclaims and restocks" `Quick
            test_drop_reclaims_and_restocks;
          Alcotest.test_case "weight split and indirection" `Quick
            test_weight_split_and_indirection;
          Alcotest.test_case "exported reply slot recycled" `Quick
            test_exported_reply_slot_recycled;
        ] );
      ( "migration",
        [
          Alcotest.test_case "local sweep spares stubs" `Quick
            test_local_sweep_spares_migration_stub;
          Alcotest.test_case "migrated then dropped" `Quick
            test_migrated_then_dropped_fully_reclaimed;
        ] );
      ( "churn",
        [ Alcotest.test_case "timer-driven churn" `Quick test_timer_driven_churn ]
      );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_safety;
          QCheck_alcotest.to_alcotest prop_liveness;
        ] );
    ]
