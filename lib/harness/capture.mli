(** One instrumented scenario run: the record the scenario experiments
    (gateway, retrystorm, contention) and the trace commands share, and
    the one {!run} that produces it. *)

type t = {
  label : string;
  sink : Obs.Sink.t;  (** {!Obs.Sink.null} unless captured with [~observe] *)
  slo : Obs.Slo.t;
  result : Driver.result;
  stats : Systems.stats;
  flight : Obs.Flight_recorder.t;  (** the always-on black box *)
  hot : Obs.Heavy_hitters.Windowed.w;  (** request-path hot-key sketch *)
  incidents : Obs.Watchdog.incident list;
      (** watchdog verdict over the recorder dump, default rules *)
}

val run :
  label:string ->
  observe:bool ->
  hot_k:int ->
  hot_window_ms:float ->
  slo_window_ms:float ->
  audit:(Obs.Flight_recorder.t -> unit) ->
  Systems.facade ->
  Driver.spec ->
  t
(** Subscribe a full observability sink when [observe] (the
    [trace]/[explain]/[slo] path), arm the flight recorder and a
    [hot_k]-entry windowed hot-key sketch, create the SLO monitor, run the
    driver with all three wired into [spec], then call [audit] (after the
    drain: record invariant failures so the watchdog sees them; [ignore]
    for none) and detect incidents. *)

val slo_rows : t -> string list list
(** One row per SLO objective: name, target, windows, violations and the
    overall value, latencies in ms and ratios in percent. *)

val by_rule : none:string -> Obs.Watchdog.incident list -> string
(** ["rule n, rule n"] in first-seen order, or [none]. *)

val pp_conservation :
  Format.formatter -> label:string -> (unit, string) result -> unit
(** The per-arm "token conservation (label): OK" line. *)
