(* Self-tests of the benchmark at tiny size: every workload runs through
   both modes and passes the correctness gate, the fleet's simulated
   outcome is the same at engine_jobs 1 and 2, the traced run equals the
   untraced one (checked inside [Bench.per_layer]), every metric name is
   well formed and listed in BENCHMARK.json, and a second seed passes
   every check.

     dune build @perfbench/selftest *)

(* The metric names BENCHMARK.json lists under the [section] key, in
   order, up to the next top-level key (the file puts [per_layer] last). *)
let declared json section =
  let find sub from =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length json then None
      else if String.sub json i n = sub then Some i
      else go (i + 1)
    in
    go from
  in
  let start = Option.get (find (Printf.sprintf "%S" section) 0) in
  let stop =
    Option.value (find "\"per_layer\"" (start + 1)) ~default:(String.length json)
  in
  let key = "\"name\": \"" in
  let rec scan from acc =
    match find key from with
    | Some i when i < stop ->
        let v = i + String.length key in
        let e = String.index_from json v '"' in
        scan e (String.sub json v (e - v) :: acc)
    | _ -> List.rev acc
  in
  scan start []

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" what
  end
  else Printf.printf "ok   %s\n%!" what

let guard what f =
  match f () with
  | v -> Some v
  | exception Measure.Check_failed reason ->
      check (what ^ ": " ^ reason) false;
      None

let names (o : Bench.outcome) = List.map (fun (x : Measure.metric) -> x.Measure.name) o.Bench.metrics

let well_formed o =
  let ns = names o in
  List.for_all Bench.valid_name ns && List.length (List.sort_uniq compare ns) = List.length ns

let () =
  let json = In_channel.with_open_text Sys.argv.(1) In_channel.input_all in
  let expected_end_to_end = declared json "end_to_end" in
  let expected_per_layer = declared json "per_layer" in
  let size = Scenario.Tiny in
  List.iter
    (fun seed ->
      List.iter
        (fun kind ->
          let label = Printf.sprintf "%s seed %d" (Scenario.name kind) seed in
          (match guard label (fun () -> Bench.end_to_end ~size ~seed ~seconds:1 kind) with
          | Some o ->
              check (label ^ ": end-to-end metric names") (names o = expected_end_to_end);
              check (label ^ ": request accounting") (o.Bench.failed = 0 && o.Bench.attempted > 0);
              ignore (Bench.json o)
          | None -> ());
          match guard (label ^ " traced") (fun () -> Bench.per_layer ~size ~seed kind) with
          | Some o ->
              check (label ^ ": traced equals untraced, per-layer names well formed") (well_formed o);
              check (label ^ ": per-layer names as declared") (names o = expected_per_layer);
              ignore (Bench.json o)
          | None -> ())
        Scenario.kinds)
    [ 1; 2 ];
  let sim jobs = (Measure.rep ~engine_jobs:jobs ~traced:false ~size ~seed:1 Scenario.Fleet).Measure.sim in
  check "fleet: identical simulated outcome at engine_jobs 1 and 2" (sim 1 = sim 2);
  if !failures > 0 then begin
    Printf.printf "%d self-test failures\n" !failures;
    exit 1
  end
