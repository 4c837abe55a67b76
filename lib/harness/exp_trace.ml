type capture = Capture.t

(* Accept the registry spellings of the headline run too. *)
let experiments =
  [
    "headline"; "table2b"; "fig3b"; "prediction"; "gateway"; "retrystorm";
    "contention";
  ]

(* The fig3f pair — prediction on vs off — captured through the same
   facade/obs path as the headline systems, so the ablation is explainable
   and SLO-monitored like everything else.

   Trace capture pins [engine_jobs] to 0: full observability forces
   sequential window drains on a sharded system anyway, so sharding buys
   nothing here — pinning keeps trace/explain/SLO output byte-identical at
   every --engine-jobs setting. *)
let prediction_builders ctx : (string * (unit -> Systems.facade)) list =
  let maj = Exp_common.samya_config Samya.Config.Majority in
  let forecaster = Lab.runtime_forecaster ctx in
  let samya ~name config () =
    Systems.samya ~engine_jobs:0 ~seed:Exp_common.seed ~name ~config
      ~regions:(Exp_common.client_regions ())
      ~forecaster ~entity:Exp_common.entity ~maximum:Exp_common.maximum ()
  in
  [
    ("Samya w/ prediction", samya ~name:"Samya w/ prediction" maj);
    ( "Samya w/o prediction",
      samya ~name:"Samya w/o prediction"
        { maj with Samya.Config.prediction_enabled = false } );
  ]

let capture ctx ~quick ~builders =
  (* Tracing is for inspecting behaviour, not reproducing the paper's
     numbers: a shorter horizon keeps the trace loadable (every message
     hop and protocol instance becomes a span). *)
  (* The first proactive redistribution trigger fires around 90 s of
     virtual time, so even the quick horizon runs past it. *)
  let duration_ms = if quick then 100_000.0 else 180_000.0 in
  let clients = Exp_common.client_regions () in
  (* Start at the daily peak with an inflated usage footprint (the
     fig3e/fig3c setup) so the short window still shows redistributions —
     otherwise the protocol lanes of the trace would be empty. *)
  let requests =
    Lab.workload ctx ~client_regions:clients ~duration_ms ~usage_scale:2.2
      ~start_hours:6.0 ~seed:Exp_common.seed ()
  in
  Pool.map
    (fun (label, build) ->
      let spec =
        {
          (Driver.default_spec ~client_regions:clients ~requests ~duration_ms) with
          drain_ms = 10_000.0;
        }
      in
      Capture.run ~label ~observe:true ~hot_k:8 ~hot_window_ms:10_000.0
        ~slo_window_ms:10_000.0 ~audit:ignore (build ()) spec)
    builders

(* The scenario experiments capture their headline arm; [engine_jobs] is
   pinned like the other trace captures (see above). *)
let run ctx ~quick ~experiment =
  if experiment = "gateway" then begin
    let c = Exp_gateway.capture ~engine_jobs:0 ~observe:true ~quick () in
    Ok [ c.Exp_gateway.run ]
  end
  else if experiment = "retrystorm" then begin
    (* The headline resilience arm (backoff clients + the full
       deadline/admission/breaker stack): retries appear in the trace as
       linked attempts on one root and sheds as driver.shed counters. *)
    let arm =
      List.find
        (fun a -> a.Exp_retrystorm.a_id = "admission")
        Exp_retrystorm.arms
    in
    let c = Exp_retrystorm.capture ~engine_jobs:0 ~observe:true ~quick ~arm () in
    Ok [ c.Exp_retrystorm.run ]
  end
  else if experiment = "contention" then begin
    (* The adaptive arm of the skew ramp: mechanism switches appear as
       zero-width mech.switch phases, borrow conversations as mech.borrow
       phases on the requests they parked. *)
    let arm =
      List.find
        (fun a -> a.Exp_contention.a_id = "adaptive")
        Exp_contention.arms
    in
    let c = Exp_contention.capture ~engine_jobs:0 ~observe:true ~quick ~arm () in
    Ok [ c.Exp_contention.run ]
  end
  else if experiment = "prediction" then
    Ok (capture ctx ~quick ~builders:(prediction_builders ctx))
  else if List.mem experiment experiments then
    Ok (capture ctx ~quick ~builders:(Exp_headline.builders ~engine_jobs:0 ctx))
  else
    Error
      (Printf.sprintf "unknown traceable experiment %S; known: %s" experiment
         (String.concat ", " experiments))

let trace_json captures =
  let buf = Buffer.create (1 lsl 16) in
  Obs.Export.trace_json buf
    (List.map
       (fun c -> (c.Capture.label, c.Capture.sink.Obs.Sink.spans))
       captures);
  Buffer.contents buf

let metrics_json ?meta captures =
  let buf = Buffer.create (1 lsl 14) in
  Obs.Export.metrics_json buf ?meta
    (List.map
       (fun c -> (c.Capture.label, c.Capture.sink.Obs.Sink.metrics))
       captures);
  Buffer.contents buf

let slo_json ?meta captures =
  let buf = Buffer.create (1 lsl 12) in
  Obs.Export.slo_json buf ?meta
    (List.map
       (fun c ->
         ( c.Capture.label,
           Obs.Slo.window_ms c.Capture.slo,
           Obs.Slo.report c.Capture.slo ))
       captures);
  Buffer.contents buf

let summary fmt captures =
  Report.table fmt ~title:"trace capture"
    ~header:[ "system"; "committed"; "spans+instants"; "messages" ]
    ~rows:
      (List.map
         (fun c ->
           [
             c.Capture.label;
             string_of_int c.Capture.result.Driver.committed;
             string_of_int (Obs.Span.event_count c.Capture.sink.Obs.Sink.spans);
             string_of_int c.Capture.stats.Systems.messages_sent;
           ])
         captures)

(* ------------------------------------------------------------------ *)
(* Critical-path explanation                                            *)

let breakdowns c =
  Obs.Critical_path.analyze (Obs.Causal.events c.Capture.sink.Obs.Sink.causal)

let pct x = Printf.sprintf "%.1f%%" (100.0 *. x)

(* Folds critical-path component names into the token-movement mechanism
   (or transport/serving layer) that produced the time — the
   [explain --mechanism] view. Controller switches are zero-width
   markers, so "controller" is attribution of the switch instant, not a
   cost pool. *)
let mechanism_bucket comp =
  let has_prefix p = String.starts_with ~prefix:p comp in
  if has_prefix "protocol.mech.switch" then "controller"
  else if comp = "queue.borrow" || has_prefix "protocol.mech.borrow" then
    "borrow"
  else if comp = "queue.redistribution" || has_prefix "protocol." then
    "redistribute"
  else if comp = "queue.cpu" || comp = "local.service" then "local"
  else if comp = "wan.client" then "client wan"
  else if has_prefix "wan." then "replication"
  else "other"

let explain fmt ?(by_mechanism = false) ~slowest captures =
  List.iter
    (fun c ->
      let events = Obs.Causal.events c.Capture.sink.Obs.Sink.causal in
      let bds = Obs.Critical_path.analyze events in
      let n = List.length bds in
      Format.fprintf fmt "@.== %s ==@." c.Capture.label;
      if n = 0 then Format.fprintf fmt "no completed traced requests@."
      else begin
        let fractions = List.map Obs.Critical_path.attributed_fraction bds in
        let min_f = List.fold_left Float.min 1.0 fractions in
        let mean_f = List.fold_left ( +. ) 0.0 fractions /. float_of_int n in
        Report.kv fmt
          [
            ( "traced requests",
              Printf.sprintf "%d submitted, %d completed"
                (Obs.Critical_path.submitted_count events)
                n );
            ( "latency attributed",
              Printf.sprintf "mean %s, min %s of wall time" (pct mean_f) (pct min_f)
            );
          ];
        (* Aggregate attribution across every completed request. *)
        let totals : (string, float) Hashtbl.t = Hashtbl.create 16 in
        let wall_total = ref 0.0 in
        List.iter
          (fun (b : Obs.Critical_path.breakdown) ->
            wall_total := !wall_total +. b.Obs.Critical_path.wall_ms;
            List.iter
              (fun (comp : Obs.Critical_path.component) ->
                let v =
                  Option.value
                    (Hashtbl.find_opt totals comp.Obs.Critical_path.comp)
                    ~default:0.0
                in
                Hashtbl.replace totals comp.Obs.Critical_path.comp
                  (v +. comp.Obs.Critical_path.ms))
              b.Obs.Critical_path.components)
          bds;
        (* Largest first, ties by name. *)
        let share_rows tbl =
          Hashtbl.fold (fun name ms acc -> (name, ms) :: acc) tbl []
          |> List.sort (fun (na, ma) (nb, mb) ->
                 let c = Float.compare mb ma in
                 if c <> 0 then c else String.compare na nb)
          |> List.map (fun (name, ms) ->
                 [
                   name;
                   Report.ms ms;
                   (if !wall_total > 0.0 then pct (ms /. !wall_total) else "-");
                 ])
        in
        Report.table fmt ~title:"where the time went (all completed requests)"
          ~header:[ "component"; "total"; "share of wall" ]
          ~rows:(share_rows totals);
        if by_mechanism then begin
          let buckets : (string, float) Hashtbl.t = Hashtbl.create 8 in
          Hashtbl.iter
            (fun comp ms ->
              let b = mechanism_bucket comp in
              Hashtbl.replace buckets b
                (Option.value (Hashtbl.find_opt buckets b) ~default:0.0 +. ms))
            totals;
          Report.table fmt ~title:"where the time went, by mechanism"
            ~header:[ "mechanism"; "total"; "share of wall" ]
            ~rows:(share_rows buckets)
        end;
        let top = Obs.Critical_path.slowest slowest bds in
        Report.table fmt
          ~title:(Printf.sprintf "slowest %d requests" (List.length top))
          ~header:[ "trace"; "kind"; "outcome"; "wall"; "critical path" ]
          ~rows:
            (List.map
               (fun (b : Obs.Critical_path.breakdown) ->
                 let path =
                   b.Obs.Critical_path.components
                   |> List.map (fun (comp : Obs.Critical_path.component) ->
                          Printf.sprintf "%s %s" comp.Obs.Critical_path.comp
                            (Report.ms comp.Obs.Critical_path.ms))
                   |> String.concat ", "
                 in
                 [
                   string_of_int b.Obs.Critical_path.trace;
                   (* entity-named requests (the gateway fleet) show their
                      key; the bound-entity experiments stay as before *)
                   (if b.Obs.Critical_path.entity = "" then
                      b.Obs.Critical_path.kind
                    else
                      b.Obs.Critical_path.kind ^ "@" ^ b.Obs.Critical_path.entity);
                   b.Obs.Critical_path.outcome;
                   Report.ms b.Obs.Critical_path.wall_ms;
                   path;
                 ])
               top)
      end)
    captures

let slo_summary fmt captures =
  List.iter
    (fun c ->
      let lines = Obs.Slo.report c.Capture.slo in
      Format.fprintf fmt "@.== %s (window %.0f s) ==@." c.Capture.label
        (Obs.Slo.window_ms c.Capture.slo /. 1000.0);
      Report.table fmt
        ~title:
          (if Obs.Slo.healthy lines then "SLO: healthy"
           else "SLO: VIOLATED")
        ~header:[ "objective"; "target"; "windows"; "violations"; "worst"; "overall" ]
        ~rows:
          (List.map
             (fun (l : Obs.Slo.report_line) ->
               let value v =
                 if Float.is_nan v then "-"
                 else if l.Obs.Slo.kind = "latency" then Report.ms v
                 else pct v
               in
               [
                 l.Obs.Slo.name;
                 (if l.Obs.Slo.kind = "latency" then Report.ms l.Obs.Slo.target
                  else pct l.Obs.Slo.target);
                 string_of_int l.Obs.Slo.windows;
                 string_of_int l.Obs.Slo.violations;
                 value l.Obs.Slo.worst;
                 value l.Obs.Slo.overall;
               ])
             lines))
    captures
