(** The retry-storm scenario — the overload-resilience headline.

    A flash sale spikes one entity's demand past its home site's CPU
    capacity just after a partition cuts the home region off from its
    peers, so redistribution aborts repeatedly and the circuit breaker
    trips mid-storm. Four
    client populations replay the identical stream — no retries, naive
    immediate retries, exponential backoff with jitter, and backoff
    against the full overload-resilience stack (deadline propagation,
    the CoDel-style admission gate, the redistribution circuit breaker).
    Output: the per-arm outcome and server-resilience tables, the
    throughput figure, the recovery verdict (post-heal goodput vs each
    arm's own pre-fault goodput: naive retries stay metastable, backoff
    plus admission recovers), per-arm SLO summaries with the abort-class
    breakdown, and a token-conservation audit. *)

type scale = {
  base_rate_per_s : float;
  spike_rate_per_s : float;
  spike_start_ms : float;
  spike_end_ms : float;
  partition_at_ms : float;
  partition_heal_ms : float;
  duration_ms : float;
  hold_ms : float;
  quota : int;
  timeout_ms : float;
  pre_from_ms : float;
  post_from_ms : float;
}

val scale : quick:bool -> scale

type arm = {
  a_id : string;  (** stable key: "none", "naive", "backoff", "admission" *)
  a_label : string;
  a_retry : Driver.retry option;
  a_admission : bool;
      (** deadlines + admission gate + circuit breaker on the cluster *)
}

val arms : arm list
(** The four client populations, in report order. *)

type capture = {
  run : Capture.t;  (** labelled "Samya flash sale (<arm label>)" *)
  scale : scale;
  arm : arm;
  cluster : Samya.Cluster.t;
  offered : int;
  shed_deadline : int;
  shed_admission : int;
  shed_expired : int;
  queue_peak : int;
  breaker_trips : int;
}

val capture :
  ?engine_jobs:int -> ?observe:bool -> quick:bool -> arm:arm -> unit -> capture
(** Build one arm's cluster, replay the flash-sale stream through its
    retry policy, return the instrumented outcome. [engine_jobs] defaults
    to the process-wide {!Pool} setting; [observe] (default false)
    additionally subscribes a full observability sink — the
    [explain]/[slo] command path. *)

val recovery : capture -> float * float * float
(** [(pre_fault_tps, post_heal_tps, post/pre)] — the metastability
    measure ([nan] ratio if the pre-fault window saw no commits). *)

val run : Lab.context -> quick:bool -> Format.formatter -> unit
(** The registry experiment: all four arms, tables, figure, verdict. *)
