(* perfbench: the repository benchmark.

     main.exe --workload fleet|hotspot|storm --seed N --seconds S --trace 0|1

   Prints one JSON object as the last (and only) line of stdout: the
   end-to-end metrics with [--trace 0], the per-layer table with
   [--trace 1]. Human-readable detail goes to stderr. Exits 1 without a
   result when a correctness check fails, 2 on a usage error. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload fleet|hotspot|storm --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref 10 and trace = ref 0 in
  let int_arg s = match int_of_string_opt s with Some n -> n | None -> usage () in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
        workload := (match Scenario.of_name v with Some k -> Some k | None -> usage ());
        parse rest
    | "--seed" :: v :: rest ->
        seed := Some (int_arg v);
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := int_arg v;
        parse rest
    | "--trace" :: v :: rest ->
        trace := int_arg v;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let kind, seed =
    match (!workload, !seed) with
    | Some k, Some s when !seconds >= 1 && (!trace = 0 || !trace = 1) -> (k, s)
    | _ -> usage ()
  in
  match
    if !trace = 0 then Bench.end_to_end ~size:Full ~seed ~seconds:!seconds kind
    else Bench.per_layer ~size:Full ~seed kind
  with
  | o ->
      let line = Bench.json o in
      List.iter (fun l -> Printf.eprintf "perfbench %s: %s\n" (Scenario.name kind) l) o.Bench.summary;
      List.iter
        (fun (x : Measure.metric) ->
          Printf.eprintf "  %-48s %18.6f %s\n" x.Measure.name x.Measure.value x.Measure.unit)
        o.Bench.metrics;
      print_endline line
  | exception Measure.Check_failed reason ->
      Printf.eprintf "perfbench: workload %s seed %d: correctness check failed: %s\n"
        (Scenario.name kind) seed reason;
      exit 1
