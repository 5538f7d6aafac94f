open Kernel
module Cost_model = Machine.Cost_model

let local rt cls args =
  let c = cost rt in
  charge_work rt c.Cost_model.local_create;
  Machine.Node.heap_alloc_words rt.node (8 + Array.length cls.state_names);
  let slot = Sched.alloc_slot rt in
  let obj =
    {
      self = { Value.node = Machine.Node.id rt.node; slot };
      phys_slot = slot;
      cls = Some cls;
      state = [||];
      vftp = Vft.init cls;
      mq = Queue.create ();
      in_sched_q = false;
      blocked = None;
      initialized = false;
      pending_ctor_args = args;
      exported = false;
      gc_pinned = false;
      ma = None;
    }
  in
  Sched.register_obj rt obj;
  bump (ctrs rt).c_create_local;
  obj.self

let rec take_chunk rt target =
  match Queue.take_opt rt.stocks.(target) with
  | Some slot ->
      let remaining = Queue.length rt.stocks.(target) in
      if remaining < rt.stock_low_water then rt.stock_low_water <- remaining;
      slot
  | None -> (
      rt.stock_low_water <- 0;
      (* The stock is empty: only now does remote creation block, to be
         resumed by the next replenishing chunk reply (Section 5.2).
         Under a fault plan a lost creation request or Chunk_reply is
         retransmitted by the machine's reliable-delivery layer, so the
         stock is replenished (and this context resumed) rather than
         wedged forever; the stall duration below is how degradation
         shows up in the fault benches. *)
      let t0 = Machine.Node.now rt.node in
      match Sched.block rt (Wait_chunk target) with
      | R_go ->
          Simcore.Stats.bump_n (ctrs rt).c_chunk_stall_wait
            (Machine.Node.now rt.node - t0);
          take_chunk rt target
      | R_reply _ | R_msg _ -> assert false)

let on rt ~target cls args =
  let my_id = Machine.Node.id rt.node in
  if target = my_id then local rt cls args
  else begin
    let c = cost rt in
    charge_work rt c.Cost_model.remote_create_request;
    let slot = take_chunk rt target in
    charge rt c.Cost_model.msg_setup_send;
    bump (ctrs rt).c_create_remote;
    Sched.mark_exports rt args None;
    let gc_refs =
      match rt.shared.gc with
      | Some g -> g.gc_grant rt args None
      | None -> []
    in
    Machine.Engine.send_am (machine rt) ~src:rt.node ~dst:target
      ~handler:rt.shared.h_create
      ~size_bytes:(Protocol.create_bytes args)
      (Protocol.P_create { slot; cls_id = cls.cls_id; args; gc_refs });
    let a = { Value.node = target; slot } in
    (* The creator now holds a remote address nobody minted weight for:
       the object was conjured at a pre-reserved chunk, not imported.
       Conjure a counted claim; the owner's matching mint is applied
       when the creation request is processed ([gc_conjured]), so the
       FIFO channel orders it before any decrement we later send. *)
    (match rt.shared.gc with
    | Some g -> g.gc_accept rt [ g.gc_conjure rt a ]
    | None -> ());
    a
  end

let pick_node rt =
  let n = Machine.Engine.node_count (machine rt) in
  let my_id = Machine.Node.id rt.node in
  match rt.shared.config.placement with
  | Round_robin ->
      let pick = rt.rr_cursor mod n in
      rt.rr_cursor <- rt.rr_cursor + 1;
      pick
  | Neighbor_round_robin ->
      let candidates =
        my_id
        :: Network.Topology.neighbors
             (Machine.Engine.topology (machine rt))
             my_id
      in
      let k = List.length candidates in
      let pick = List.nth candidates (rt.rr_cursor mod k) in
      rt.rr_cursor <- rt.rr_cursor + 1;
      pick
  | Random_node -> Simcore.Rng.int rt.rng n
  | Self_node -> my_id
  | Fixed_node k -> k mod n
  | Custom_policy f -> ((f my_id mod n) + n) mod n

let remote rt cls args = on rt ~target:(pick_node rt) cls args
