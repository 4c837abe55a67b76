(** The gateway-fleet experiment — the multi-entity headline.

    One Samya cluster holds the rate-limiter keys of an API-gateway
    fleet: a million keys bulk-registered cold (quick mode: 20k), Zipfian
    open-loop demand at 100k req/s offered (quick: 5k), per-key quotas
    sized by Little's law. The hot head of the popularity curve heats
    into full per-entity machines and redistributes through the
    site-level batched Avantan instances; the cold tail is served from
    the compact core ledgers. Output: fleet KPIs, the throughput figure,
    the per-key attribution table, the rendered [samya-slo/1] report and
    a key-by-key token-conservation audit. *)

type scale = {
  keys : int;
  rate_per_s : float;
  duration_ms : float;
  hold_ms : float;
  batch : int;
  shards : int;
}

val scale : quick:bool -> scale

val key_name : int -> string
(** Key of popularity rank [r] (0 = hottest). *)

type capture = {
  run : Capture.t;  (** includes the per-key [by_entity] driver stats *)
  scale : scale;
  quotas : int array;  (** per-rank quota (Little's law) *)
  cluster : Samya.Cluster.t;
  offered : int;  (** requests in the generated stream *)
  hot_entities : int;  (** materialised hot entities, summed over sites *)
}

val capture : ?engine_jobs:int -> ?observe:bool -> quick:bool -> unit -> capture
(** Build the fleet, replay the Zipfian stream, return the instrumented
    outcome. [engine_jobs] defaults to the process-wide {!Pool} setting;
    [observe] (default false) additionally subscribes a full
    observability sink — the [explain]/[slo] command path. *)

val audit : capture -> int * (string * string) list
(** Key-by-key token conservation (Equation 1 against each key's quota):
    number of conserving keys, plus up to five violations. *)

val run : Lab.context -> quick:bool -> Format.formatter -> unit
(** The registry experiment. *)
