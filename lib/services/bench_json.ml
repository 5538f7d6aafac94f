type v = Int of int | Float of float | Bool of bool | Str of string

let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let pp_v oc = function
  | Int i -> Printf.fprintf oc "%d" i
  | Float f ->
      (* %g would print 1e+06, which some consumers reject; %f keeps it
         a plain JSON number. *)
      Printf.fprintf oc "%.3f" f
  | Bool b -> Printf.fprintf oc "%b" b
  | Str s -> Printf.fprintf oc "\"%s\"" (escape s)

let write ~path fields =
  (* A JSON object with a repeated key is legal to print and ambiguous
     to read: each consumer keeps a different copy. Refuse it before the
     file is touched. *)
  let rec check seen = function
    | [] -> ()
    | (k, _) :: rest ->
        if List.mem k seen then
          invalid_arg (Printf.sprintf "Bench_json.write: duplicate key %S" k);
        check (k :: seen) rest
  in
  check [] fields;
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  List.iteri
    (fun i (k, value) ->
      Printf.fprintf oc "  \"%s\": %a%s\n" (escape k) pp_v value
        (if i = List.length fields - 1 then "" else ","))
    fields;
  Printf.fprintf oc "}\n";
  close_out oc

let perf_fields ~wall_clock_s ~events ~domains =
  let eps =
    if wall_clock_s > 0. then float_of_int events /. wall_clock_s else 0.
  in
  [
    ("wall_clock_s", Float wall_clock_s);
    ("events_per_sec", Float eps);
    ("domains", Int domains);
  ]

let read_int_field ~path ~key =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      let needle = Printf.sprintf "\"%s\":" key in
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line -> (
            match String.index_opt line ':' with
            | Some _ when
                (let t = String.trim line in
                 String.length t >= String.length needle
                 && String.sub t 0 (String.length needle) = needle) ->
                let t = String.trim line in
                let v =
                  String.sub t (String.length needle)
                    (String.length t - String.length needle)
                  |> String.trim
                in
                let v =
                  match String.index_opt v ',' with
                  | Some i -> String.sub v 0 i
                  | None -> v
                in
                int_of_string_opt v
            | _ -> scan ())
      in
      let r = scan () in
      close_in ic;
      r
