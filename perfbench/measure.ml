(* One replay of a prepared workload through [Harness.Driver.run], its
   simulated outcome, the correctness gate, and the per-layer table of a
   traced replay. *)

module D = Harness.Driver

(* The simulated outcome: a pure function of the workload and seed, so a
   pure speed-up leaves every field bit-identical. *)
type sim = {
  issued : int;  (** requests, counting grant-driven releases, not retries *)
  committed : int;
  rejected : int;
  unavailable : int;
  shed : int;
  timed_out : int;
  no_reply : int;  (** requests left with neither an answer nor a timeout *)
  attempts : int;
  retries : int;
  lost_attempts : int;  (** attempts whose reply never arrived *)
  samples : int;  (** committed latencies behind the percentiles *)
  p50 : float;
  p99 : float;
  p999 : float;
  tps : float;
  failed_share : float;
  post_heal_ratio : float;
      (** storm: post-heal over pre-fault committed throughput, summed
          over episodes; 0 on workloads without faults *)
}

let counted s = s.committed + s.rejected + s.unavailable + s.shed + s.timed_out

let post_heal_ratio (p : Scenario.prepared) results =
  let sum_in (r : D.result) start =
    List.fold_left
      (fun acc (t, v) ->
        if t >= start && t < start +. Scenario.recovery_window_ms then acc +. v else acc)
      0.0
      (Stats.Throughput.series r.D.throughput ())
  in
  let total pick =
    List.fold_left
      (fun acc r ->
        List.fold_left (fun acc w -> acc +. sum_in r (pick w)) acc p.Scenario.recovery)
      0.0 results
  in
  let pre = total fst and post = total snd in
  if pre > 0.0 then post /. pre else 0.0

(* The pooled outcome of every part's replay. *)
let sim_of (p : Scenario.prepared) (probe : Probe.t) results =
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
  let committed = sum (fun r -> r.D.committed)
  and rejected = sum (fun r -> r.D.rejected)
  and unavailable = sum (fun r -> r.D.unavailable)
  and shed = sum (fun r -> r.D.shed)
  and timed_out = sum (fun r -> r.D.timed_out)
  and retries = sum (fun r -> r.D.retries) in
  let latencies = Stats.Sample_set.create () in
  List.iter (fun (r : D.result) -> Stats.Sample_set.merge_into r.D.latencies ~into:latencies) results;
  let duration_ms = List.fold_left (fun acc (r : D.result) -> acc +. r.D.duration_ms) 0.0 results in
  let attempts = Atomic.get probe.Probe.attempts in
  let issued = attempts - retries in
  let no_reply = issued - (committed + rejected + unavailable + shed + timed_out) in
  let failed = rejected + unavailable + shed + timed_out + no_reply in
  let pct q = Stats.Sample_set.percentile latencies q in
  {
    issued;
    committed;
    rejected;
    unavailable;
    shed;
    timed_out;
    no_reply;
    attempts;
    retries;
    lost_attempts = sum (fun r -> r.D.no_reply);
    samples = Stats.Sample_set.count latencies;
    p50 = pct 50.0;
    p99 = pct 99.0;
    p999 = pct 99.9;
    tps = float_of_int committed /. (duration_ms /. 1000.0);
    failed_share = (if issued > 0 then float_of_int failed /. float_of_int issued else 0.0);
    post_heal_ratio = post_heal_ratio p results;
  }

(* The accounting half of the correctness gate. [no_reply] is what the
   five outcome classes leave of the issued requests, so it must not be
   negative. A request with no reply is settled by the client's timeout
   when a watchdog is armed, so then none may be left; otherwise each
   one is an attempt whose reply the driver saw go missing. *)
let check_accounting (p : Scenario.prepared) s =
  if s.no_reply < 0 then
    Error
      (Printf.sprintf "%d outcomes for %d issued requests" (counted s) s.issued)
  else if p.Scenario.watchdog && s.no_reply <> 0 then
    Error (Printf.sprintf "%d requests neither answered nor timed out" s.no_reply)
  else if (not p.Scenario.watchdog) && s.no_reply <> s.lost_attempts then
    Error
      (Printf.sprintf "%d requests without an outcome, but the driver lost %d attempts"
         s.no_reply s.lost_attempts)
  else if s.committed = 0 then Error "no request committed"
  else Ok ()

(* Per-layer counts of a traced repetition, summed over its parts as each
   part's replay ends (the part is dropped right after). *)
type layers = {
  mutable keys : int;
  mutable hot_entities : int;
  mutable lanes : int;
  mutable site : Samya.Site.stats list;
  mutable proto : Samya.Avantan_core.stats;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable shed_deadline : int;
  mutable shed_admission : int;
  mutable shed_expired : int;
  mutable durable_syncs : int;
  mutable breaker_trips : int;
  mutable borrows : int;
  mutable borrow_tokens : int;
  mutable switches : int;
  mutable recorded : int;
  mutable rec_dropped : int;
  mutable incidents : int;
  mutable detect_s : float;
  mutable hh_err : int;
  mutable hh_total : int;
}

let layers () =
  {
    keys = 0;
    hot_entities = 0;
    lanes = 0;
    site = [];
    proto = Samya.Avantan_core.zero_stats;
    sent = 0;
    delivered = 0;
    dropped = 0;
    shed_deadline = 0;
    shed_admission = 0;
    shed_expired = 0;
    durable_syncs = 0;
    breaker_trips = 0;
    borrows = 0;
    borrow_tokens = 0;
    switches = 0;
    recorded = 0;
    rec_dropped = 0;
    incidents = 0;
    detect_s = 0.0;
    hh_err = 0;
    hh_total = 0;
  }

let collect l (part : Scenario.part) =
  let c = part.Scenario.cluster in
  let sites = Samya.Cluster.sites c in
  let sum f = Array.fold_left (fun acc site -> acc + f site) 0 sites in
  let net = Samya.Cluster.network c in
  let fstats = part.Scenario.facade.Harness.Systems.stats () in
  l.keys <- l.keys + Samya.Cluster.entity_count c;
  l.hot_entities <- l.hot_entities + Samya.Cluster.hot_entities c;
  l.lanes <- max l.lanes (Samya.Cluster.lanes c);
  l.site <- Samya.Cluster.aggregate_site_stats c :: l.site;
  l.proto <- Samya.Avantan_core.add_stats l.proto (Samya.Cluster.aggregate_protocol_stats c);
  l.sent <- l.sent + Geonet.Network.stats_sent net;
  l.delivered <- l.delivered + Geonet.Network.stats_delivered net;
  l.dropped <- l.dropped + Geonet.Network.stats_dropped net;
  l.shed_deadline <- l.shed_deadline + sum Samya.Site.shed_deadline;
  l.shed_admission <- l.shed_admission + sum Samya.Site.shed_admission;
  l.shed_expired <- l.shed_expired + sum Samya.Site.shed_queue_expired;
  l.durable_syncs <- l.durable_syncs + sum Samya.Site.durable_syncs;
  Array.iter
    (fun (entity, _) ->
      l.breaker_trips <- l.breaker_trips + sum (fun site -> Samya.Site.breaker_trips site ~entity))
    part.Scenario.keys;
  l.borrows <- l.borrows + fstats.Facade.borrows;
  l.borrow_tokens <- l.borrow_tokens + fstats.Facade.borrow_tokens;
  l.switches <- l.switches + fstats.Facade.mechanism_switches;
  Option.iter
    (fun f ->
      let t0 = Unix.gettimeofday () in
      let incidents = Obs.Watchdog.detect (Obs.Flight_recorder.events f) in
      l.detect_s <- l.detect_s +. (Unix.gettimeofday () -. t0);
      l.incidents <- l.incidents + List.length incidents;
      l.recorded <- l.recorded + Obs.Flight_recorder.recorded f;
      l.rec_dropped <- l.rec_dropped + Obs.Flight_recorder.dropped f)
    part.Scenario.flight;
  Option.iter
    (fun w ->
      let sketch = Obs.Heavy_hitters.Windowed.cumulative w in
      l.hh_err <- l.hh_err + Obs.Heavy_hitters.error sketch;
      l.hh_total <- l.hh_total + Obs.Heavy_hitters.total sketch)
    part.Scenario.hot

type rep = {
  times : Scenario.times;
  sim : sim;
  probe : Probe.t;
  layers : layers option;  (** traced repetitions only *)
  run_s : float;  (** inside [Driver.run], summed over parts *)
  audit_s : float;
  wall_s : float;
  minor_words : float;  (** GC deltas around [Driver.run], summed over parts *)
  promoted_words : float;
  major_collections : int;
  top_heap_words : int;
}

exception Check_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

(* Set up, replay and audit every part of the workload: one repetition.
   Raises [Check_failed] when the gate fails. *)
let rep ?engine_jobs ~traced ~size ~seed kind =
  let t0 = Unix.gettimeofday () in
  let p = Scenario.prepare ?engine_jobs ~size ~seed kind in
  let probe = Probe.create ~timed:traced in
  let layers = if traced then Some (layers ()) else None in
  let run_s = ref 0.0 and audit_s = ref 0.0 in
  let minor = ref 0.0 and promoted = ref 0.0 and major = ref 0 in
  let results =
    List.map
      (fun build ->
        let part = build () in
        if traced then Probe.attach probe part.Scenario.cluster;
        let facade = Probe.wrap probe part.Scenario.facade in
        let g0 = Gc.quick_stat () in
        let r0 = Unix.gettimeofday () in
        let result = D.run ~t_system:facade part.Scenario.spec in
        run_s := !run_s +. (Unix.gettimeofday () -. r0);
        let g1 = Gc.quick_stat () in
        minor := !minor +. (g1.Gc.minor_words -. g0.Gc.minor_words);
        promoted := !promoted +. (g1.Gc.promoted_words -. g0.Gc.promoted_words);
        major := !major + (g1.Gc.major_collections - g0.Gc.major_collections);
        let a0 = Unix.gettimeofday () in
        (match Scenario.audit part with
        | Ok () -> ()
        | Error e -> fail "token conservation: %s" e);
        audit_s := !audit_s +. (Unix.gettimeofday () -. a0);
        Option.iter (fun l -> collect l part) layers;
        result)
      p.Scenario.parts
  in
  let sim = sim_of p probe results in
  (match check_accounting p sim with
  | Ok () -> ()
  | Error e -> fail "request accounting: %s" e);
  {
    times = Scenario.times p;
    sim;
    probe;
    layers;
    run_s = !run_s;
    audit_s = !audit_s;
    wall_s = Unix.gettimeofday () -. t0;
    minor_words = !minor;
    promoted_words = !promoted;
    major_collections = !major;
    top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words;
  }

(* Process peak resident set (VmHWM), MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* ------------------------------------------------------------------ *)
(* The per-layer table                                                  *)

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

let ratio a b = if b > 0.0 then a /. b else 0.0

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let count name v = m name "count" (float_of_int v)

(* [base] is an untraced repetition (host times, GC), [traced] the traced
   repetition of the same seed (counts, self times), [after] a second
   untraced repetition run after it. *)
let layer_table ~base ~after ~traced ~micros =
  let probe = traced.probe in
  let l = match traced.layers with Some l -> l | None -> invalid_arg "layer_table" in
  let s = base.sim in
  let replies = float_of_int (counted s) in
  let site f = List.fold_left (fun acc x -> acc + f x) 0 l.site in
  let proto = l.proto in
  let sent = l.sent and delivered = l.delivered and dropped = l.dropped in
  let bt = base.times in
  let timers =
    List.concat
      (List.mapi
         (fun i label ->
           [
             count (Printf.sprintf "des.timer.%s.fired" label) probe.Probe.fired.(i);
             count (Printf.sprintf "des.timer.%s.cancelled" label) probe.Probe.cancelled.(i);
             m (Printf.sprintf "samya.timer_s.%s" label) "s" (Probe.secs probe.Probe.timer_ns.(i));
           ])
         (Array.to_list Probe.timer_labels))
  in
  let attributed = Probe.attributed_s probe in
  [
    m "trace.gen_s" "s" bt.Scenario.gen_s;
    m "samya.cluster.create_s" "s" bt.Scenario.create_s;
    m "samya.entity_map.register_s" "s" bt.Scenario.register_s;
    count "samya.entity_map.keys" l.keys;
    count "samya.entity_map.hot_entities" l.hot_entities;
    m "harness.driver.run_s" "s" base.run_s;
    m "runtime.gc.minor_words_per_reply" "words" (ratio base.minor_words replies);
    m "runtime.gc.promoted_words_per_reply" "words" (ratio base.promoted_words replies);
    count "runtime.gc.major_collections" base.major_collections;
    m "runtime.gc.top_heap_mb" "MB"
      (float_of_int (base.top_heap_words * (Sys.word_size / 8)) /. 1048576.0);
    count "des.events" probe.Probe.events;
    m "des.events_per_reply" "count" (ratio (float_of_int probe.Probe.events) replies);
    m "des.event_ns" "ns" (ratio (base.run_s *. 1e9) (float_of_int probe.Probe.events));
    count "des.queue.depth_peak" probe.Probe.depth_peak;
    count "des.shard.lanes" l.lanes;
    m "des.unlabelled_event_s" "s" (Probe.secs probe.Probe.unlabelled_ns);
    m "des.residual_s" "s" (traced.run_s -. attributed);
  ]
  @ timers
  @ [
      count "geonet.sent" sent;
      count "geonet.delivered" delivered;
      count "geonet.dropped" dropped;
      m "geonet.msgs_per_commit" "count" (ratio (float_of_int sent) (float_of_int s.committed));
      m "geonet.drop_share" "ratio" (ratio (float_of_int dropped) (float_of_int sent));
      m "samya.site.deliver_s" "s" (Probe.secs probe.Probe.deliver_ns);
      m "samya.site.deliver_ns_per_msg" "ns"
        (ratio (float_of_int probe.Probe.deliver_ns) (float_of_int delivered));
      count "samya.request_handler.served_acquires" (site (fun x -> x.Samya.Site.served_acquires));
      count "samya.request_handler.served_releases" (site (fun x -> x.Samya.Site.served_releases));
      count "samya.request_handler.served_reads" (site (fun x -> x.Samya.Site.served_reads));
      count "samya.request_handler.rejected" (site (fun x -> x.Samya.Site.rejected));
      count "samya.request_handler.queued_peak"
        (List.fold_left (fun acc x -> max acc x.Samya.Site.queued_peak) 0 l.site);
      count "samya.request_handler.reactive_triggers" (site (fun x -> x.Samya.Site.reactive_triggers));
      count "samya.request_handler.shed_deadline" l.shed_deadline;
      count "samya.request_handler.shed_admission" l.shed_admission;
      count "samya.request_handler.shed_expired" l.shed_expired;
      count "samya.avantan.started" proto.Samya.Avantan_core.led_started;
      count "samya.avantan.decided" proto.Samya.Avantan_core.led_decided;
      count "samya.avantan.aborted" proto.Samya.Avantan_core.led_aborted;
      count "samya.avantan.participated" proto.Samya.Avantan_core.participated;
      count "samya.avantan.recoveries" proto.Samya.Avantan_core.recoveries;
      m "samya.avantan.decided_share" "ratio"
        (ratio
           (float_of_int proto.Samya.Avantan_core.led_decided)
           (float_of_int proto.Samya.Avantan_core.led_started));
      m "samya.avantan.msgs_per_decision" "count"
        (ratio (float_of_int sent) (float_of_int proto.Samya.Avantan_core.led_decided));
      count "samya.redistributions.started" (site (fun x -> x.Samya.Site.redistributions_started));
      count "samya.redistributions.aborted" (site (fun x -> x.Samya.Site.redistributions_aborted));
      count "samya.redistributions.led" (site (fun x -> x.Samya.Site.redistributions_led));
      count "samya.breaker.trips" l.breaker_trips;
      count "samya.mechanism.borrows" l.borrows;
      count "samya.mechanism.borrow_tokens" l.borrow_tokens;
      count "samya.mechanism.switches" l.switches;
      count "storage.durable_syncs" l.durable_syncs;
      m "samya.audit_s" "s" base.audit_s;
      m "harness.driver.submit_s" "s" (Probe.secs probe.Probe.submit_ns);
      m "harness.driver.reply_s" "s" (Probe.secs probe.Probe.reply_ns);
      count "harness.driver.retries" s.retries;
      m "harness.driver.retry_share" "ratio" (ratio (float_of_int s.retries) (float_of_int s.attempts));
      m "harness.driver.post_heal_goodput_ratio" "ratio" s.post_heal_ratio;
      count "obs.flight_recorder.recorded" l.recorded;
      count "obs.flight_recorder.dropped" l.rec_dropped;
      count "obs.heavy_hitters.err" l.hh_err;
      count "obs.heavy_hitters.total" l.hh_total;
      count "obs.watchdog.incidents" l.incidents;
      m "obs.watchdog.detect_s" "s" l.detect_s;
    ]
  @ micros
  @ [
      m "bench.trace_overhead_share" "ratio"
        (ratio traced.run_s ((base.run_s +. after.run_s) /. 2.0) -. 1.0);
    ]
