type t = {
  label : string;
  sink : Obs.Sink.t;
  slo : Obs.Slo.t;
  result : Driver.result;
  stats : Systems.stats;
  flight : Obs.Flight_recorder.t;
  hot : Obs.Heavy_hitters.Windowed.w;
  incidents : Obs.Watchdog.incident list;
}

let run ~label ~observe ~hot_k ~hot_window_ms ~slo_window_ms ~audit
    (t_system : Systems.facade) (spec : Driver.spec) =
  let sink =
    if observe then begin
      let sink =
        Obs.Sink.create ~now:(fun () -> Des.Engine.now t_system.Systems.engine) ()
      in
      t_system.Systems.subscribe sink;
      sink
    end
    else Obs.Sink.null
  in
  (* The always-on incident layer rides along on every run (a no-op on
     baselines), so `report` renders the black box for every system. *)
  let flight = Obs.Flight_recorder.create () in
  let hot = Obs.Heavy_hitters.Windowed.create ~k:hot_k ~window_ms:hot_window_ms () in
  t_system.Systems.arm { Obs.Flight_recorder.recorder = flight; hot = Some hot };
  let slo = Obs.Slo.create ~window_ms:slo_window_ms () in
  let result =
    Driver.run ~t_system
      {
        spec with
        obs = (if observe then Some sink else None);
        slo = Some slo;
        flight = Some flight;
      }
  in
  audit flight;
  {
    label;
    sink;
    slo;
    result;
    stats = t_system.Systems.stats ();
    flight;
    hot;
    incidents = Obs.Watchdog.detect (Obs.Flight_recorder.events flight);
  }

let slo_rows c =
  List.map
    (fun (l : Obs.Slo.report_line) ->
      let value v =
        if Float.is_nan v then "-"
        else if l.Obs.Slo.kind = "latency" then Report.ms v
        else Report.pct v
      in
      [
        l.Obs.Slo.name;
        value l.Obs.Slo.target;
        string_of_int l.Obs.Slo.windows;
        string_of_int l.Obs.Slo.violations;
        value l.Obs.Slo.overall;
      ])
    (Obs.Slo.report c.slo)

let by_rule ~none incidents =
  match Obs.Watchdog.count_by_rule incidents with
  | [] -> none
  | counts ->
      String.concat ", "
        (List.map (fun (rule, n) -> Printf.sprintf "%s %d" rule n) counts)

let pp_conservation fmt ~label = function
  | Ok () -> Format.fprintf fmt "token conservation (%s): OK@." label
  | Error reason ->
      Format.fprintf fmt "token conservation (%s): VIOLATED: %s@." label reason
