(* Checks the benchmark against its declaration.

     test_artifact.exe PERF_EXE BENCHMARK_JSON

   - the JSON reader refuses duplicate keys;
   - BENCHMARK.json declares exactly the metrics perf.exe reports, with
     the same units and directions;
   - perf.exe rejects unknown flags and workloads with exit code 2;
   - a smoke run passes its own correctness checks, and its result line
     and artifacts carry every declared metric with its declared unit
     and a finite number;
   - the compare rule gives the verdicts its definition says. *)

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL: %s\n%!" what
  end

let perf, benchmark =
  match Sys.argv with
  | [| _; perf; benchmark |] ->
      ((if Filename.is_implicit perf then Filename.concat Filename.current_dir_name perf else perf),
       benchmark)
  | _ ->
      prerr_endline "usage: test_artifact.exe PERF_EXE BENCHMARK_JSON";
      exit 2

(* Runs perf.exe; returns its exit code and standard output lines. Its
   standard error (usage messages) is discarded. *)
let run args =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
  let pid = Unix.create_process perf (Array.of_list (perf :: args)) Unix.stdin out_w null in
  Unix.close out_w;
  Unix.close null;
  let ic = Unix.in_channel_of_descr out_r in
  let rec lines acc =
    match input_line ic with l -> lines (l :: acc) | exception End_of_file -> List.rev acc
  in
  let out = lines [] in
  close_in ic;
  let code =
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1
  in
  (code, out)

let last l = List.nth l (List.length l - 1)

let keys = function Json.Obj l -> List.map fst l | _ -> []

let () =
  (* Duplicate keys, at the top level and nested. *)
  List.iter
    (fun s ->
      check
        (Printf.sprintf "duplicate key accepted in %s" s)
        (match Json.of_string s with _ -> false | exception Json.Error _ -> true))
    [ {|{"domains": 4, "x": 1, "domains": 1}|}; {|{"a": [{"b": 1, "b": 2}]}|} ];
  check "round trip" (Json.of_string {|{"a": [1, 2.5, "x\n", true, null]}|}
                     = Json.(Obj [ ("a", Arr [ Num 1.; Num 2.5; Str "x\n"; Bool true; Null ]) ]))

(* BENCHMARK.json and the registry agree. *)
let decl = Json.of_file benchmark

let declared section =
  List.map
    (fun e -> Json.(to_str (member "name" e), to_str (member "unit" e), to_str (member "better" e)))
    Json.(to_list (member section decl))

let registry l =
  List.map (fun m -> (m.Metric.name, m.Metric.unit, Metric.better_to_string m.Metric.better)) l

let workloads = List.map (fun w -> Json.(to_str (member "name" w))) Json.(to_list (member "workloads" decl))

let () =
  check "BENCHMARK.json keys"
    (List.sort compare (keys decl)
    = [ "command"; "end_to_end"; "paths"; "per_layer"; "run_seconds"; "workloads" ]);
  check "end_to_end matches the registry" (declared "end_to_end" = registry Metric.end_to_end);
  check "per_layer matches the registry" (declared "per_layer" = registry Metric.per_layer);
  let bounds =
    List.map
      (fun e -> Json.(to_str (member "name" e), to_num (member "bound" e)))
      Json.(to_list (member "end_to_end" decl))
  in
  check "bounds within (0, 0.25]" (List.for_all (fun (_, b) -> b > 0. && b <= 0.25) bounds);
  check "setup_s has the largest bound"
    (List.for_all (fun (_, b) -> b <= List.assoc "setup_s" bounds) bounds)

(* A strict command line. *)
let () =
  List.iter
    (fun args ->
      check
        (Printf.sprintf "perf.exe %s should exit 2" (String.concat " " args))
        (fst (run args) = 2))
    [
      [ "--bogus" ];
      [ "--workload"; "nope" ];
      [ "--trace"; "2" ];
      [ "--reps"; "0" ];
      [ "--seed" ];
      [ "compare"; "only-one.json" ];
    ]

let metric_ok line name unit =
  match Json.(member name (member "metrics" line)) with
  | Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ] -> u = unit && Float.is_finite v
  | _ | (exception Json.Error _) -> false

let names l = List.map (fun (n, _, _) -> n) l

(* The full smoke run: every workload, timed and traced. *)
let () =
  let out = "smoke-out" in
  let code, lines = run [ "--smoke"; "--out"; out ] in
  check "smoke run exits 0" (code = 0);
  let line = Json.of_string (last lines) in
  check "result keys" (keys line = [ "correct"; "attempted"; "failed"; "metrics" ]);
  check "correct" (Json.member "correct" line = Json.Bool true);
  check "failed = 0" (Json.(to_num (member "failed" line)) = 0.);
  check "attempted >= 1" (Json.(to_num (member "attempted" line)) >= 1.);
  List.iter
    (fun w ->
      List.iter
        (fun (name, unit, _) ->
          check (Printf.sprintf "%s.%s present in %s" w name unit)
            (metric_ok line (w ^ "." ^ name) unit))
        (declared "end_to_end" @ declared "per_layer"))
    workloads;
  let artifact = Json.of_file (Filename.concat out "perf.json") in
  check "artifact holds every workload"
    (List.map (fun w -> Json.(to_str (member "name" w))) Json.(to_list (member "workloads" artifact))
    = workloads);
  List.iter
    (fun w ->
      let t = Json.of_file (Filename.concat out ("trace-" ^ w ^ ".json")) in
      check (w ^ " trace has events") (Json.(to_list (member "traceEvents" t)) <> []))
    workloads;
  let path = Filename.concat out "perf.json" in
  let verdicts, sim_diffs =
    Out_channel.with_open_text "compare.txt" (fun oc ->
        Compare.run ~oc ~benchmark ~parent:path ~change:path)
  in
  check "compare gives a row per workload and end-to-end metric"
    (List.length verdicts = List.length workloads * List.length (declared "end_to_end"));
  check "an artifact is no worse than itself" (not (List.mem Compare.Worse verdicts));
  check "an artifact's simulated values equal its own" (sim_diffs = 0);
  (* The directory form: one run per subdirectory, run medians as samples. *)
  List.iter
    (fun run ->
      let d = Filename.concat "runs" run in
      List.iter (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755) [ "runs"; d ];
      Out_channel.with_open_text (Filename.concat d "perf.json") (fun oc ->
          output_string oc (Json.to_string artifact)))
    [ "1"; "2" ];
  let verdicts, sim_diffs =
    Out_channel.with_open_text "compare-runs.txt" (fun oc ->
        Compare.run ~oc ~benchmark ~parent:"runs" ~change:"runs")
  in
  check "runs compare the same as themselves"
    (List.for_all (( = ) Compare.Same) verdicts && sim_diffs = 0)

(* The form BENCHMARK.json's command runs: one workload, one kind of
   metric, bare names. *)
let () =
  List.iter
    (fun (trace, section) ->
      let code, lines =
        run [ "--smoke"; "--workload"; "nqueens"; "--seed"; "2"; "--seconds"; "0"; "--trace"; trace ]
      in
      check ("--trace " ^ trace ^ " exits 0") (code = 0);
      let line = Json.of_string (last lines) in
      check ("--trace " ^ trace ^ " reports exactly " ^ section)
        (keys (Json.member "metrics" line) = names (declared section));
      List.iter
        (fun (name, unit, _) -> check (name ^ " value and unit") (metric_ok line name unit))
        (declared section))
    [ ("0", "end_to_end"); ("1", "per_layer") ]

(* The compare rule. Samples are host seconds, lower is better. *)
let () =
  let v parent change = Compare.verdict ~bound:0.1 ~better:Metric.Lower ~parent ~change in
  let tight = [ 1.0; 1.01; 0.99; 1.0; 1.0 ] in
  check "same" (v tight tight = Compare.Same);
  check "worse" (v tight (List.map (( *. ) 1.3) tight) = Compare.Worse);
  check "better" (v tight (List.map (( *. ) 0.7) tight) = Compare.Better);
  let noisy = [ 0.7; 1.0; 1.3; 0.8; 1.2 ] in
  check "unresolved" (v noisy (List.map (( *. ) 1.05) noisy) = Compare.Unresolved);
  check "separated beats a wide spread"
    (v [ 1.0; 1.1; 1.2; 1.3; 1.4 ] [ 2.0; 2.2; 2.4; 2.6; 2.8 ] = Compare.Worse);
  check "higher is better"
    (Compare.verdict ~bound:0.1 ~better:Metric.Higher ~parent:tight
       ~change:(List.map (( *. ) 1.3) tight)
    = Compare.Better);
  check "python quartiles" (Metric.quartiles [ 5.; 1.; 4.; 2.; 3.; 9.; 7.; 8.; 6.; 10. ] = (2.75, 5.5, 8.25))

let () =
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
