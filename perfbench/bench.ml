(* A benchmark run: repeated untraced repetitions for the end-to-end
   metrics, or one untraced plus one traced repetition (and the layer
   micro-timings) for the per-layer table. *)

open Measure

type outcome = {
  attempted : int;
  failed : int;  (** requests left without any answer *)
  metrics : metric list;
  summary : string list;  (** human-readable lines for stderr *)
}

let min_reps = 3

let min_setups = 9

(* A run never outlives this, whatever [--seconds] asks for. *)
let hard_cap_s = 150.0

let replies_per_s r = float_of_int (counted r.sim) /. r.run_s

let sim_lines s =
  [
    Printf.sprintf
      "issued %d: committed %d, rejected %d, unavailable %d, shed %d, timed out %d, no reply %d (retries %d)"
      s.issued s.committed s.rejected s.unavailable s.shed s.timed_out s.no_reply s.retries;
    Printf.sprintf "commit latency over %d samples: p50 %.3f ms, p99 %.3f ms, p99.9 %.3f ms"
      s.samples s.p50 s.p99 s.p999;
  ]

let end_to_end ?engine_jobs ~size ~seed ~seconds kind =
  let t0 = Unix.gettimeofday () in
  let elapsed () = Unix.gettimeofday () -. t0 in
  (* Peak RSS of the first repetition: later ones only add allocator
     fragmentation, and how many fit in [seconds] depends on the host. *)
  let rss = ref nan in
  let rec loop acc =
    let n = List.length acc in
    let typical = if acc = [] then 0.0 else median (List.map (fun r -> r.wall_s) acc) in
    let more =
      n < min_reps || elapsed () +. typical <= float_of_int seconds
    in
    if more && (n = 0 || elapsed () +. typical <= hard_cap_s) then begin
      Gc.compact ();
      let r = rep ?engine_jobs ~traced:false ~size ~seed kind in
      if acc = [] then rss := peak_rss_mb ();
      (match acc with
      | first :: _ when first.sim <> r.sim ->
          fail "a repetition's simulated outcome differs from the first one's"
      | _ -> ());
      loop (acc @ [ r ])
    end
    else acc
  in
  let reps = loop [] in
  (* Set-up is cheap next to a replay on some workloads: top its samples
     up with set-up-only repetitions, within a fifth of the run. *)
  let setups = List.map (fun r -> r.times.Scenario.setup_s) reps in
  let budget = 0.2 *. float_of_int seconds in
  let rec top_up acc spent =
    if List.length acc >= min_setups || spent +. median acc > budget then acc
    else begin
      Gc.compact ();
      let p = Scenario.prepare ?engine_jobs ~size ~seed kind in
      List.iter (fun build -> ignore (build () : Scenario.part)) p.Scenario.parts;
      let s = (Scenario.times p).Scenario.setup_s in
      top_up (s :: acc) (spent +. s)
    end
  in
  let setups = top_up setups 0.0 in
  let s = (List.hd reps).sim in
  let med f = median (List.map f reps) in
  {
    attempted = s.issued;
    failed = s.no_reply;
    metrics =
      [
        m "setup_s" "s" (median setups);
        m "wall_s" "s" (med (fun r -> r.wall_s));
        m "replies_per_s" "1/s" (med replies_per_s);
        m "peak_rss_mb" "MB" !rss;
        m "committed_tps" "1/s" s.tps;
        m "commit_p50_ms" "ms" s.p50;
        m "commit_p99_ms" "ms" s.p99;
        m "commit_p999_ms" "ms" s.p999;
        m "failed_share" "ratio" s.failed_share;
      ];
    summary =
      Printf.sprintf "%d repetitions, %d set-ups" (List.length reps) (List.length setups)
      :: (let run = List.map (fun r -> r.run_s) reps in
          Printf.sprintf "replay per repetition: min %.3f s, median %.3f s, max %.3f s"
            (List.fold_left Float.min infinity run)
            (median run)
            (List.fold_left Float.max 0.0 run))
      :: ("replay seconds in run order: "
         ^ String.concat " " (List.map (fun r -> Printf.sprintf "%.3f" r.run_s) reps))
      :: sim_lines s;
  }

(* Untraced, traced, untraced: the two untraced replays bracket the
   traced one, so a host slowing down or speeding up over the run does
   not show as tracing overhead. *)
let per_layer ?engine_jobs ~size ~seed kind =
  let untraced () =
    Gc.compact ();
    rep ?engine_jobs ~traced:false ~size ~seed kind
  in
  let base = untraced () in
  Gc.compact ();
  let traced = rep ?engine_jobs ~traced:true ~size ~seed kind in
  let after = untraced () in
  if traced.sim <> base.sim || after.sim <> base.sim then
    fail "the traced run's simulated outcome differs from the untraced run's";
  let micros = Micro.run ~size ~seed in
  {
    attempted = base.sim.issued;
    failed = base.sim.no_reply;
    metrics = layer_table ~base ~after ~traced ~micros;
    summary = sim_lines base.sim;
  }

let valid_name name =
  name <> ""
  && String.length name <= 64
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       name

let json o =
  let b = Buffer.create 4096 in
  Printf.bprintf b "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {" o.attempted
    o.failed;
  List.iteri
    (fun i x ->
      if not (Float.is_finite x.value) then fail "metric %s is not finite" x.name;
      if not (valid_name x.name) then fail "metric name %S is malformed" x.name;
      Printf.bprintf b "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}"
        (if i = 0 then "" else ", ")
        x.name x.value x.unit)
    o.metrics;
  Buffer.add_string b "}}";
  Buffer.contents b
