(* Comparing two artifacts of the benchmark (the [perf.json] that
   [perf.exe --out DIR] writes), one row per (workload, end-to-end
   metric), by the no-regression rule: the change's median may not be
   worse than the parent's by more than the metric's bound. A metric
   whose p25-p75 spread exceeds its bound on either side is
   unresolved, unless every run of one side beats every run of the
   other. Simulated-clock metrics must be bit-identical. *)

type verdict = Better | Same | Worse | Unresolved

let verdict_to_string = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

let verdict ~bound ~better ~parent ~change =
  let p25p, medp, p75p = Metric.quartiles parent in
  let p25c, medc, p75c = Metric.quartiles change in
  (* > 0 when [a] reads worse than [b] *)
  let worse a b =
    match better with Metric.Lower -> a -. b | Metric.Higher -> b -. a
  in
  let rel x d = if d = 0. then (if x = 0. then 0. else Float.infinity) else x /. Float.abs d in
  let spread = Float.max (rel (p75p -. p25p) medp) (rel (p75c -. p25c) medc) in
  let beats a b = List.for_all (fun x -> List.for_all (fun y -> worse x y < 0.) b) a in
  let resolved = spread <= bound || beats change parent || beats parent change in
  let delta = rel (worse medc medp) medp in
  if not resolved then Unresolved
  else if delta > bound then Worse
  else if delta < -.bound then Better
  else Same

(* A side is one artifact, whose repetitions are the samples, or a
   directory of runs, one artifact per subdirectory (DIR/*/perf.json),
   whose run medians are the samples. A slow spell of the host can
   last a whole run, so a claim needs the directory form with ten runs
   a side. *)
let load path =
  let runs =
    if Sys.is_directory path then
      List.filter_map
        (fun d ->
          let f = Filename.concat (Filename.concat path d) "perf.json" in
          if Sys.file_exists f then Some (d, Json.of_file f) else None)
        (List.sort compare (Array.to_list (Sys.readdir path)))
    else [ ("", Json.of_file path) ]
  in
  if runs = [] then raise (Json.Error (path ^ ": no DIR/*/perf.json artifacts"));
  runs

let workload w artifact =
  List.find_opt
    (fun e -> Json.(to_str (member "name" e)) = w)
    Json.(to_list (member "workloads" artifact))

let samples runs w name =
  let entry e = Json.(member name (member "end_to_end" e)) in
  match runs with
  | [ (_, a) ] ->
      Option.fold ~none:[]
        ~some:(fun e -> List.map Json.to_num Json.(to_list (member "samples" (entry e))))
        (workload w a)
  | _ ->
      List.filter_map
        (fun (_, a) -> Option.map (fun e -> Json.(to_num (member "median" (entry e)))) (workload w a))
        runs

(* The simulated-clock per-layer values of one workload's entry. *)
let sim e =
  match Json.member "per_layer" e with
  | exception Json.Error _ -> []
  | l ->
      List.filter_map
        (fun (k, v) ->
          match List.find_opt (fun m -> m.Metric.name = k) Metric.per_layer with
          | Some { Metric.clock = Metric.Sim; _ } -> Some (k, Json.(to_num (member "value" v)))
          | _ -> None)
        (Json.to_obj l)

(* Prints the rows; returns every end-to-end verdict and the number of
   simulated-clock values that differ between runs of the same seed. *)
let run ~oc ~benchmark ~parent ~change =
  let bounds =
    List.map
      (fun e ->
        Json.
          ( to_str (member "name" e),
            (to_num (member "bound" e), Metric.better_of_string (to_str (member "better" e))) ))
      Json.(to_list (member "end_to_end" (of_file benchmark)))
  in
  let parent = load parent and change = load change in
  let names =
    List.map (fun e -> Json.(to_str (member "name" e))) Json.(to_list (member "workloads" (snd (List.hd parent))))
  in
  (* Runs compared value by value: the two artifacts, or the runs of
     the same name on both sides. *)
  let pairs =
    match (parent, change) with
    | [ (_, p) ], [ (_, c) ] -> [ ("", p, c) ]
    | _ -> List.filter_map (fun (n, p) -> Option.map (fun c -> (n, p, c)) (List.assoc_opt n change)) parent
  in
  let verdicts = ref [] and sim_diffs = ref 0 in
  Printf.fprintf oc "%-10s %-16s %14s %14s %8s %7s  %s\n" "workload" "metric" "parent"
    "change" "delta" "bound" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun (name, (bound, better)) ->
          match (samples parent w name, samples change w name) with
          | [], _ | _, [] ->
              verdicts := Unresolved :: !verdicts;
              Printf.fprintf oc "%-10s %-16s missing from one side\n" w name
          | ps, cs ->
              let v = verdict ~bound ~better ~parent:ps ~change:cs in
              verdicts := v :: !verdicts;
              let _, mp, _ = Metric.quartiles ps and _, mc, _ = Metric.quartiles cs in
              Printf.fprintf oc "%-10s %-16s %14.6g %14.6g %+7.1f%% %6.0f%%  %s\n" w name mp mc
                (100. *. (mc -. mp) /. mp) (100. *. bound) (verdict_to_string v))
        bounds;
      let compared = ref 0 in
      List.iter
        (fun (run, p, c) ->
          match (workload w p, workload w c) with
          | Some pe, Some ce ->
              let sp = sim pe and sc = sim ce in
              compared := !compared + List.length sp;
              List.iter
                (fun (k, v) ->
                  if List.assoc_opt k sc <> Some v then begin
                    incr sim_diffs;
                    Printf.fprintf oc "%-10s %-32s %s%g -> %s  simulated value differs\n" w k
                      (if run = "" then "" else run ^ ": ")
                      v
                      (match List.assoc_opt k sc with
                      | Some c -> Printf.sprintf "%g" c
                      | None -> "missing")
                  end)
                sp
          | _ -> ())
        pairs;
      Printf.fprintf oc "%-10s %d simulated-clock values compared\n" w !compared)
    names;
  (List.rev !verdicts, !sim_diffs)
