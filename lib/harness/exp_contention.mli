(** The adaptive-contention scenario — the Mechanism API headline.

    One hot entity on a five-site cluster is driven through a
    three-phase skew ramp: cold and uniform (local escrow suffices),
    moderately home-skewed (a peer borrow is cheaper than consensus),
    then sustained global pressure (only batched Avantan re-division
    tracks demand). Four arms replay the identical stream through the
    contention controller — three with the token-movement mechanism
    pinned and one adaptive. Output: per-arm outcome table with
    mechanism traffic, per-phase committed-throughput and p99 tables,
    the throughput figure, the verdict table (the adaptive arm must
    meet or beat the best static per phase on both axes, within
    tolerance), per-arm SLO summaries and a token-conservation audit. *)

type phase_def = {
  ph_name : string;
  ph_until_ms : float;  (** phase end, absolute *)
  ph_rate_per_s : float;
  ph_affinity : float;  (** probability an arrival issues from home *)
}

type scale = {
  phases : phase_def list;  (** contiguous; the last end is the stream end *)
  duration_ms : float;
  hold_ms : float;  (** grant lifetime: the driver's grant-driven release *)
  quota : int;  (** the hot entity's global maximum *)
}

val scale : quick:bool -> scale

type arm = {
  a_id : string;  (** stable key: "escrow", "borrow", "redistribute", "adaptive" *)
  a_label : string;
  a_policy : Samya.Config.Controller.policy;
}

val arms : arm list
(** The four policies, in report order; the adaptive arm is last. *)

type capture = {
  run : Capture.t;  (** labelled "Samya skew ramp (<arm label>)" *)
  scale : scale;
  arm : arm;
  cluster : Samya.Cluster.t;
  offered : int;
  final_mechanism : string;  (** the home site's mechanism at the end *)
}

val capture :
  ?engine_jobs:int -> ?observe:bool -> quick:bool -> arm:arm -> unit -> capture
(** Build one arm's cluster with its controller policy, replay the
    skew-ramp stream, return the instrumented outcome. [engine_jobs]
    defaults to the process-wide {!Pool} setting; [observe] (default
    false) additionally subscribes a full observability sink — the
    [explain]/[slo] command path. *)

type phase_row = { v_name : string; v_tps : float; v_p99 : float }

val phase_rows : capture -> phase_row list
(** Committed txn/s over each phase's wall time and the p99 of its
    committed latencies, in phase order. *)

type verdict_row = {
  w_phase : string;
  w_best : string;  (** the benchmark static arm's label *)
  w_best_tps : float;
  w_best_p99 : float;
  w_adaptive_tps : float;
  w_adaptive_p99 : float;
  w_ok : bool;
}

val verdicts : capture list -> verdict_row list
(** Per phase: the benchmark is the static arm with the highest
    committed throughput (ties broken by lower p99); [w_ok] holds when
    the adaptive arm meets that arm's throughput and p99 within
    tolerance. *)

val run : Lab.context -> quick:bool -> Format.formatter -> unit
(** The registry experiment: all four arms, tables, figure, verdict. *)
