(* The repository benchmark. See README.md beside this file.

     perf.exe [--workload NAME]... [--reps N] [--seed S] [--seconds S]
              [--trace 0|1] [--smoke] [--out DIR]
     perf.exe compare PARENT CHANGE

   Each workload runs in its own process: untraced repetitions (at least
   --reps, and for at least --seconds of host time), then one traced
   pass. The last line
   of standard output is one JSON object: correct, attempted, failed
   and the metrics. The exit code is 1 when any correctness check
   fails, 2 on a usage error. *)

open Workload

let usage =
  "usage: perf.exe [--workload NAME]... [--reps N] [--seed S] [--seconds S]\n\
  \                [--trace 0|1] [--smoke] [--out DIR]\n\
  \       perf.exe compare PARENT CHANGE   (each a perf.json, or a directory of runs)\n\
   workloads: kv-open kv-lossy nqueens kv-par (default: all four)\n\
   --trace 0 runs only the timed repetitions and reports the end-to-end\n\
   metrics; --trace 1 reports the per-layer metrics; without it, both."

let usage_error msg =
  prerr_endline ("perf.exe: " ^ msg);
  prerr_endline usage;
  exit 2

type opts = {
  workloads : string list;
  reps : int option;
  seed : int;
  seconds : int;
  trace : bool option;
  smoke : bool;
  out : string option;
}

let nproc = Domain.recommended_domain_count ()
let table = Workload.all ~nproc

let parse args =
  let int flag v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> usage_error (Printf.sprintf "%s expects an integer, got %S" flag v)
  in
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: rest ->
        if not (List.exists (fun t -> t.name = w) table) then
          usage_error (Printf.sprintf "unknown workload %S" w);
        go { o with workloads = o.workloads @ [ w ] } rest
    | "--reps" :: n :: rest ->
        let n = int "--reps" n in
        if n < 1 then usage_error "--reps must be at least 1";
        go { o with reps = Some n } rest
    | "--seed" :: s :: rest -> go { o with seed = int "--seed" s } rest
    | "--seconds" :: s :: rest ->
        let s = int "--seconds" s in
        if s < 0 then usage_error "--seconds must not be negative";
        go { o with seconds = s } rest
    | "--trace" :: ("0" | "1" as t) :: rest -> go { o with trace = Some (t = "1") } rest
    | "--smoke" :: rest -> go { o with smoke = true } rest
    | "--out" :: d :: rest -> go { o with out = Some d } rest
    | [ ("--workload" | "--reps" | "--seed" | "--seconds" | "--trace" | "--out") as f ] ->
        usage_error (f ^ " expects a value")
    | "--trace" :: v :: _ -> usage_error (Printf.sprintf "--trace expects 0 or 1, got %S" v)
    | a :: _ -> usage_error (Printf.sprintf "unknown argument %S" a)
  in
  go
    {
      workloads = [];
      reps = None;
      seed = 1;
      seconds = 0;
      trace = None;
      smoke = false;
      out = None;
    }
    args

(* ---- one workload ------------------------------------------------------ *)

type result = {
  w : Workload.t;
  reps : outcome list;
  findings : string list;
  attempted : int;
  failed : int;
  end_to_end : (string * float list) list;  (** samples per metric *)
  per_layer : (string * float) list;  (** empty with --trace 0 *)
}

let quartiles = Metric.quartiles
let median = Metric.median

(* The first deterministic value on which two runs disagree. *)
let sim_mismatch a b =
  if List.length a.sim <> List.length b.sim then Some "the set of counters"
  else
    List.find_map
      (fun ((k, x), (k', y)) -> if k <> k' || x <> y then Some k else None)
      (List.combine a.sim b.sim)

let get o k = Option.value (List.assoc_opt k o.sim) ~default:0.
let ratio a b = if b = 0. then 0. else a /. b

(* Per-layer metrics, in registry order, from the untraced repetitions
   (host costs), the traced pass (counts and the Timeline) and the
   workload's extras. *)
let layer_metrics ~setups ~reps ~traced ~extra ~micro ~par =
  let stat k = get traced ("stats." ^ k) in
  let events = get traced "engine.events" in
  let ops = float_of_int traced.ops in
  let packets = get traced "fabric.packets" in
  let run_med = median (List.map (fun o -> o.run_s) reps) in
  let tl = Option.get traced.timeline in
  let dormant = stat "send.local.dormant" +. stat "send.local.inlined" in
  let local =
    List.fold_left
      (fun a k -> a +. stat ("send.local." ^ k))
      dormant
      [ "active"; "fault"; "restore"; "naive_buffered"; "depth_limited" ]
  in
  let computed =
    [
      ("engine.events_per_op", ratio events ops);
      ("engine.host_ns_per_event", ratio (run_med *. 1e9) events);
      ( "engine.alloc_words_per_event",
        ratio (median (List.map (fun o -> o.alloc_words) reps)) events );
      ("engine.slices", float_of_int (Services.Timeline.slices tl));
      ("engine.deliveries", float_of_int (Services.Timeline.deliveries tl));
      ("engine.busy_ns_per_op", ratio (get traced "engine.busy_ns") ops);
      ("fabric.packets_per_op", ratio packets ops);
      ("fabric.bytes_per_packet", ratio (get traced "fabric.bytes") packets);
      ("reliable.retransmit_frac", ratio (stat "reliable.retransmit") packets);
      ("sched.local_dormant_frac", ratio dormant local);
      ("chunk.stall_frac", ratio (stat "chunk.stall") (stat "create.remote"));
      ( "chunk.stall_wait_us_per_create",
        ratio (stat "chunk.stall.wait_ns" /. 1e3) (stat "create.remote") );
      ("kv.cas_win_frac", ratio (get traced "kv.cas_ok")
                            (get traced "kv.cas_ok" +. get traced "kv.cas_fail"));
      ("setup.boot_s", median (List.map (fun (b, _, _) -> b) setups));
      ("setup.spawn_s", median (List.map (fun (_, s, _) -> s) setups));
      ("setup.launch_s", median (List.map (fun (_, _, l) -> l) setups));
      ("report.of_run_s", median (List.map (fun o -> o.report_s) reps));
      ("check.audit_s", median (List.map (fun o -> o.audit_s) reps));
      ("trace.overhead_frac", (traced.run_s /. run_med) -. 1.);
    ]
    @ (match par with
      | Some one ->
          [
            ("engine.par.wall_1d_s", one.run_s);
            ("engine.par.wall_over_1d", traced.run_s /. one.run_s);
          ]
      | None -> [])
    @ extra @ micro
  in
  List.map
    (fun { Metric.name; _ } ->
      let v =
        match List.assoc_opt name computed with
        | Some v -> v
        | None -> (
            match List.assoc_opt name traced.sim with
            | Some v -> v
            | None -> stat name)
      in
      (name, v))
    Metric.per_layer

(* Set-up takes tens of microseconds, so before each untraced
   repetition a run also times it this many times on its own: the
   samples spread over the whole run, like the repetitions. *)
let setup_samples = 20

let run_workload o (w : Workload.t) =
  let seed = o.seed and smoke = o.smoke in
  let min_reps = Option.value o.reps ~default:(if smoke then 1 else 5) in
  (* Every set-up and run starts from a collected heap, so no garbage
     is charged to the next. Track [i] of the Chrome trace. *)
  let repetition i ~traced ~engine =
    Gc.full_major ();
    rep := i;
    (w.setup ~seed ~smoke).finish ~traced ~engine
  in
  let sampled i =
    rep := -1;
    let setups =
      List.init setup_samples (fun _ ->
          Gc.full_major ();
          (* keep the timings only: [finish] holds the whole system *)
          let s = w.setup ~seed ~smoke in
          (s.boot_s, s.spawn_s, s.launch_s))
    in
    (setups, repetition i ~traced:false ~engine:w.engine)
  in
  (* The warm-up repetition grows the heap to its working size: it is
     checked but not timed, and its peak heap is heap_peak_mb (the peak
     only grows, so reading it later would depend on the rep count). *)
  let warm_setups, warm = sampled 0 in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.
  in
  let t0 = now () in
  let rec timed_reps acc i =
    if i > min_reps && now () -. t0 >= float_of_int o.seconds then List.rev acc
    else timed_reps (sampled i :: acc) (i + 1)
  in
  let setups, reps = List.split (timed_reps [] 1) in
  let setups = List.concat (warm_setups :: setups) in
  let n = List.length reps in
  let traced_runs, per_layer, trace_findings =
    if o.trace = Some false then ([], [], [])
    else begin
      let traced = repetition (n + 1) ~traced:true ~engine:w.engine in
      let par, par_findings =
        match w.engine with
        | Seq -> (None, [])
        | Par d ->
            let one = repetition (n + 2) ~traced:true ~engine:(Par 1) in
            let hash r = Services.Timeline.hash (Option.get r.timeline) in
            ( Some one,
              if hash one = hash traced then []
              else
                [
                  Printf.sprintf "Timeline hash %016x at %d domains <> %016x at 1"
                    (hash traced) d (hash one);
                ] )
      in
      let extra, extra_findings = fst (timed "extra" (fun () -> w.extra ~seed ~smoke)) in
      let micro, _ =
        timed "simcore.micro" (fun () -> Micro.run ~smoke ~domains:(min 2 nproc))
      in
      ( traced :: Option.to_list par,
        layer_metrics ~setups ~reps ~traced ~extra ~micro ~par,
        par_findings @ extra_findings )
    end
  in
  let runs = (warm :: reps) @ traced_runs in
  (* Simulated results are a function of the seed alone: every run,
     traced or not, at any domain count, must agree with the warm-up. *)
  let determinism =
    List.filter_map
      (fun r ->
        Option.map
          (Printf.sprintf "simulated results differ between runs at %s")
          (sim_mismatch warm r))
      runs
  in
  let findings =
    List.concat_map (fun (r : outcome) -> r.findings) runs @ determinism @ trace_findings
  in
  let sum f = List.fold_left (fun a (r : outcome) -> a + f r) 0 runs in
  {
    w;
    reps;
    findings;
    attempted = sum (fun r -> r.attempted);
    failed = sum (fun r -> r.failed) + List.length determinism + List.length trace_findings;
    end_to_end =
      [
        ("wall_s", List.map (fun r -> r.run_s) reps);
        ("setup_s", List.map (fun (b, s, l) -> b +. s +. l) setups);
        ("alloc_mwords", List.map (fun r -> r.alloc_words /. 1e6) reps);
        ("heap_peak_mb", [ heap_mb ]);
      ];
    per_layer;
  }

(* ---- output -------------------------------------------------------------- *)

let print_result o r =
  Printf.printf "== %s: %d repetition(s), seed %d, %s engine\n" r.w.name (List.length r.reps) o.seed
    (match r.w.engine with Seq -> "sequential" | Par d -> Printf.sprintf "%d-domain" d);
  Printf.printf "  %-40s %14s %14s %14s %3s  %s\n" "end-to-end" "median" "p25" "p75" "n" "unit";
  List.iter
    (fun { Metric.name; unit; _ } ->
      let xs = List.assoc name r.end_to_end in
      let p25, med, p75 = quartiles xs in
      Printf.printf "  %-40s %14.6g %14.6g %14.6g %3d  %s\n" name med p25 p75 (List.length xs) unit)
    Metric.end_to_end;
  if r.per_layer <> [] then begin
    Printf.printf "  %-40s %14s  %-10s %-17s %s\n" "per-layer" "value" "unit" "layer" "what";
    List.iter
      (fun { Metric.name; unit; layer; doc; _ } ->
        Printf.printf "  %-40s %14.6g  %-10s %-17s %s\n" name (List.assoc name r.per_layer)
          unit layer doc)
      Metric.per_layer
  end;
  List.iter (Printf.printf "  FAILED: %s\n") r.findings;
  Printf.printf "  %s: %d attempted, %d failed\n%!"
    (if r.findings = [] then "correct" else "INCORRECT")
    r.attempted r.failed

let value unit v = Json.(Obj [ ("value", Num v); ("unit", Str unit) ])
let int n = Json.Num (float_of_int n)

let layer_values r =
  if r.per_layer = [] then []
  else
    List.map
      (fun { Metric.name; unit; _ } -> (name, value unit (List.assoc name r.per_layer)))
      Metric.per_layer

(* The metrics of the result line: end-to-end medians and/or per-layer
   values. *)
let result_metrics o r =
  let e2e =
    if o.trace = Some true then []
    else
      List.map
        (fun { Metric.name; unit; _ } -> (name, value unit (median (List.assoc name r.end_to_end))))
        Metric.end_to_end
  in
  e2e @ layer_values r

let workload_json r =
  let open Json in
  let e2e { Metric.name; unit; _ } =
    let xs = List.assoc name r.end_to_end in
    let p25, med, p75 = quartiles xs in
    ( name,
      Obj
        [
          ("unit", Str unit);
          ("median", Num med);
          ("p25", Num p25);
          ("p75", Num p75);
          ("n", int (List.length xs));
          ("samples", Arr (List.map (fun x -> Num x) xs));
        ] )
  in
  Obj
    ([
       ("name", Str r.w.name);
       ("correct", Bool (r.findings = []));
       ("attempted", int r.attempted);
       ("failed", int r.failed);
       ("findings", Arr (List.map (fun s -> Str s) r.findings));
       ("end_to_end", Obj (List.map e2e Metric.end_to_end));
     ]
    @ if r.per_layer = [] then [] else [ ("per_layer", Obj (layer_values r)) ])

let artifact o workloads =
  Json.(
    Obj
      [
        ("nproc", int nproc);
        ("seed", int o.seed);
        ("smoke", Bool o.smoke);
        ("workloads", Arr workloads);
      ])

(* Host phase spans as Chrome trace-event JSON (complete events, one
   track per repetition; the traced pass comes after the timed ones). *)
let chrome_trace (r : result) spans =
  let open Json in
  let reps = List.length r.reps in
  let track tid =
    if tid < 0 then "set-up samples"
    else if tid = 0 then "warm-up"
    else if tid <= reps then Printf.sprintf "rep %d" tid
    else if tid = reps + 1 then "traced"
    else "traced, 1 domain"
  in
  let tids = List.sort_uniq compare (List.map (fun (_, tid, _, _) -> tid) spans) in
  Obj
    [
      ( "traceEvents",
        Arr
          (List.map
             (fun tid ->
               Obj
                 [
                   ("name", Str "thread_name");
                   ("ph", Str "M");
                   ("pid", Num 1.);
                   ("tid", int tid);
                   ("args", Obj [ ("name", Str (track tid)) ]);
                 ])
             tids
          @ List.rev_map
              (fun (name, tid, t0, t1) ->
                Obj
                  [
                    ("name", Str name);
                    ("cat", Str r.w.name);
                    ("ph", Str "X");
                    ("ts", Num (t0 *. 1e6));
                    ("dur", Num ((t1 -. t0) *. 1e6));
                    ("pid", Num 1.);
                    ("tid", int tid);
                  ])
              spans) );
      ("displayTimeUnit", Str "ms");
    ]

let write_file path v =
  let oc = open_out_bin path in
  output_string oc (Json.to_string v);
  output_char oc '\n';
  close_out oc

let artifact_file d = Filename.concat d "perf.json"

let result_line ~correct ~attempted ~failed metrics =
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", int attempted);
            ("failed", int failed);
            ("metrics", Json.Obj metrics);
          ]))

let run_one o w =
  let r = run_workload o w in
  print_result o r;
  Option.iter
    (fun d ->
      write_file (Filename.concat d ("trace-" ^ w.name ^ ".json")) (chrome_trace r !spans);
      write_file (artifact_file d) (artifact o [ workload_json r ]))
    o.out;
  let correct = r.findings = [] in
  result_line ~correct ~attempted:r.attempted ~failed:r.failed (result_metrics o r);
  exit (if correct then 0 else 1)

(* Several workloads run one child process each, so that no workload's
   heap peak, garbage or warm caches carry into the next. The parent
   echoes each child's output, then merges the result lines (metric
   names prefixed with the workload) and the artifacts. *)
let run_children o chosen =
  let child w =
    let args =
      [ "--workload"; w.name; "--seed"; string_of_int o.seed ]
      @ [ "--seconds"; string_of_int o.seconds ]
      @ (match o.reps with Some n -> [ "--reps"; string_of_int n ] | None -> [])
      @ (match o.trace with Some t -> [ "--trace"; if t then "1" else "0" ] | None -> [])
      @ (if o.smoke then [ "--smoke" ] else [])
      @ match o.out with Some d -> [ "--out"; d ] | None -> []
    in
    let exe = Sys.executable_name in
    Option.iter
      (fun d -> if Sys.file_exists (artifact_file d) then Sys.remove (artifact_file d))
      o.out;
    let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
    let rec echo last =
      match input_line ic with
      | l ->
          print_endline l;
          echo l
      | exception End_of_file -> last
    in
    let last = echo "" in
    ignore (Unix.close_process_in ic);
    let line = try Some (Json.of_string last) with Json.Error _ -> None in
    let artifact =
      Option.bind o.out (fun d ->
          try Some (Json.of_file (artifact_file d)) with Sys_error _ | Json.Error _ -> None)
    in
    (w, line, artifact)
  in
  let children = List.map child chosen in
  let num k line = int_of_float Json.(to_num (member k line)) in
  let sum f = List.fold_left (fun a c -> a + f c) 0 children in
  let correct =
    List.for_all
      (function _, Some line, _ -> Json.member "correct" line = Json.Bool true | _ -> false)
      children
  in
  Option.iter
    (fun d ->
      write_file (artifact_file d)
        (artifact o
           (List.concat_map
              (fun (_, _, a) ->
                match a with Some a -> Json.(to_list (member "workloads" a)) | None -> [])
              children)))
    o.out;
  result_line ~correct
    ~attempted:(sum (function _, Some l, _ -> num "attempted" l | _ -> 0))
    (* a child that printed no result line failed as a whole *)
    ~failed:(sum (function _, Some l, _ -> num "failed" l | _ -> 1))
    (List.concat_map
       (function
         | w, Some l, _ ->
             List.map (fun (k, v) -> (w.name ^ "." ^ k, v)) Json.(to_obj (member "metrics" l))
         | _, None, _ -> [])
       children);
  exit (if correct then 0 else 1)

let main o =
  let chosen =
    if o.workloads = [] then table
    else List.filter (fun t -> List.mem t.name o.workloads) table
  in
  Option.iter (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755) o.out;
  match chosen with [ w ] -> run_one o w | _ -> run_children o chosen

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: args -> (
      match args with
      | [ parent; change ] -> (
          match Compare.run ~oc:stdout ~benchmark:"BENCHMARK.json" ~parent ~change with
          | verdicts, sim_diffs ->
              let ok v = v = Compare.Same || v = Compare.Better in
              exit (if List.for_all ok verdicts && sim_diffs = 0 then 0 else 1)
          | exception (Json.Error msg | Sys_error msg) -> usage_error msg)
      | _ -> usage_error "compare expects PARENT CHANGE")
  | args -> main (parse args)
