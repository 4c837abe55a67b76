(* The benchmark's three workloads, built only from public library APIs:
   the request stream comes from [Trace.Workload], the cluster from
   [Samya.Cluster.create] plus key registration, and the facade from
   [Facade.of_samya_cluster]. [prepare] times each set-up phase so the
   per-layer table can attribute set-up time; the replay itself lives in
   [Measure].

   - fleet: a gateway-shaped rate-limiter fleet (many cold keys, Zipfian
     demand) on the sharded engine at one lane-draining domain, with the
     flight recorder and hot-key sketch armed;
   - hotspot: one hot aggregate on five sites driven through the
     contention skew ramp under the adaptive contention controller,
     replayed on independent clusters and pooled, recorder off, default
     engine;
   - storm: a single-entity flash sale in repeated partition -> spike ->
     heal episodes with retrying clients, deadlines, admission gate and
     breaker on, and a crash-amnesia restart of a non-home site per
     episode. *)

type kind = Fleet | Hotspot | Storm

let kinds = [ Fleet; Hotspot; Storm ]

let name = function Fleet -> "fleet" | Hotspot -> "hotspot" | Storm -> "storm"

let of_name s = List.find_opt (fun k -> name k = s) kinds

(* [Tiny] is the self-test size: the same shape, seconds of simulated
   time instead of minutes. *)
type size = Full | Tiny

let n_sites = 5

type times = {
  gen_s : float;  (** stream generation (and fleet quotas) *)
  create_s : float;  (** [Cluster.create] + facade *)
  register_s : float;  (** key registration *)
  setup_s : float;  (** everything up to each part's first replayed request *)
}

(* One simulated deployment: a cluster, its facade and the replay spec. *)
type part = {
  cluster : Samya.Cluster.t;
  facade : Harness.Systems.facade;
  spec : Harness.Driver.spec;
  keys : (string * int) array;  (** every registered key with its quota *)
  flight : Obs.Flight_recorder.t option;
  hot : Obs.Heavy_hitters.Windowed.w option;
}

(* Set-up clocks, summed over the parts of a workload as they are built. *)
type clocks = {
  mutable gen : float;
  mutable create : float;
  mutable register : float;
  mutable setup : float;
}

type prepared = {
  kind : kind;
  parts : (unit -> part) list;
      (** replayed in order, each built just before its replay so only one
          cluster is alive at a time; hotspot has one per ramp *)
  watchdog : bool;
      (** clients abandon attempts at a finite timeout, so every request
          ends with an answer or a timeout *)
  recovery : (float * float) list;
      (** storm: per episode, the pre-fault and post-heal goodput windows
          (start ms; each is [recovery_window_ms] long) *)
  clocks : clocks;
}

let times p =
  {
    gen_s = p.clocks.gen;
    create_s = p.clocks.create;
    register_s = p.clocks.register;
    setup_s = p.clocks.setup;
  }

let recovery_window_ms = 10_000.0

let seconds_since t0 = Unix.gettimeofday () -. t0

let rng ~seed stream = Des.Rng.stream (Int64.of_int seed) stream

(* ------------------------------------------------------------------ *)
(* fleet                                                                *)

type fleet_scale = { keys : int; rate_per_s : float; duration_ms : float }

let fleet_scale = function
  | Full -> { keys = 200_000; rate_per_s = 20_000.0; duration_ms = 8_000.0 }
  | Tiny -> { keys = 2_000; rate_per_s = 1_000.0; duration_ms = 2_000.0 }

let fleet_hold_ms = 1_000.0

let fleet_read_ratio = 0.05

let key_name r = Printf.sprintf "key%07d" r

(* Keys the fleet no longer registers: every 25th rank of the cold tail.
   Clients keep calling with them (1.7 % of arrivals) and the limiter
   refuses them on arrival — the fleet's steady, parking-free refusal
   path, which keeps [failed_share] away from zero. *)
let revoked r = r >= 1_000 && r mod 25 = 0

(* Little's law per key: expected in-flight tokens (acquire rate x hold
   time) with 10x headroom, floored at 10 tokens per site. With the
   gateway experiment's 5x sizing the fleet parks requests behind batched
   redistributions: p99 sits at 1.3-2 s, grows over the run and swings by
   a third between seeds. At 10x the tail is the global-read fan-out,
   steady across seeds, and the hot head still redistributes. *)
let fleet_quota s zipf r =
  let expected =
    s.rate_per_s
    *. Trace.Zipf.probability zipf r
    *. (1.0 -. fleet_read_ratio)
    *. (fleet_hold_ms /. 1000.0)
  in
  max (10 * n_sites) (int_of_float (ceil (10.0 *. expected)))

let fleet_config s =
  {
    (Harness.Exp_common.samya_config Samya.Config.Majority) with
    Samya.Config.prediction_enabled = false;
    local_processing_ms = 0.01;
    redistribution_cooldown_ms = 500.0;
    protocol_batch = 256;
    entity_shards = 256;
    entity_capacity = s.keys;
  }

(* ------------------------------------------------------------------ *)
(* hotspot                                                              *)

(* The adaptive controller's outcome on a single ramp swings with the
   stream (1-9 % of a ramp's requests refused, with tails to match), and
   a cluster keeps the regime it fell into for several ramps. So the
   workload replays independent ramps, each on a fresh cluster, and pools
   them. 32 ramps keep every simulated metric's spread across seeds
   within a third of its bound or close to it (64 did no better), and a
   repetition short enough that a 30 s run holds about six of them: the
   host's speed swings by a third within seconds, and a median over only
   three repetitions let that through. *)
let hotspot_ramps = function Full -> 32 | Tiny -> 2

(* One contention ramp: cold and uniform, then home-skewed, then
   sustained global pressure near the quota. *)
let hotspot_ramp =
  [
    { Trace.Workload.until_ms = 5_000.0; rate_per_s = 100.0; home_affinity = 0.2 };
    { Trace.Workload.until_ms = 15_000.0; rate_per_s = 600.0; home_affinity = 0.9 };
    { Trace.Workload.until_ms = 25_000.0; rate_per_s = 1_800.0; home_affinity = 0.4 };
  ]

let hotspot_ramp_ms = List.fold_left (fun _ p -> p.Trace.Workload.until_ms) 0.0 hotspot_ramp

let hotspot_quota = 2_000

let hotspot_config () =
  {
    (Harness.Exp_common.samya_config Samya.Config.Majority) with
    Samya.Config.prediction_enabled = false;
    local_processing_ms = 0.2;
    redistribution_cooldown_ms = 500.0;
    controller =
      {
        Samya.Config.Controller.enabled = true;
        policy = Samya.Config.Controller.Adaptive;
        window_ms = 500.0;
        escalate_contention = 0.1;
        deescalate_margin = 0.5;
        borrow_fail_escalate = 0.3;
        p99_target_ms = 250.0;
        dwell_ms = 1_000.0;
        cooldown_ms = 500.0;
        borrow_quantum = 150;
        borrow_patience_ms = 500.0;
      };
  }

(* ------------------------------------------------------------------ *)
(* storm                                                                *)

let storm_episodes = function Full -> 6 | Tiny -> 1

(* Offsets inside one 60 s episode. *)
let storm_episode_ms = 60_000.0

let storm_partition_ms = 19_800.0

let storm_spike_ms = 20_000.0

let storm_spike_end_ms = 25_000.0

let storm_heal_ms = 27_000.0

let storm_crash_ms = 32_000.0

let storm_restart_ms = 36_000.0

let storm_quota = 3_000

let storm_timeout_ms = 1_000.0

(* The hot entity lives at site 0; site 3 is the non-home site that takes
   the crash-amnesia restart. *)
let storm_crash_site = 3

let storm_config () =
  {
    (Harness.Exp_common.samya_config Samya.Config.Majority) with
    Samya.Config.prediction_enabled = false;
    local_processing_ms = 0.5;
    redistribution_cooldown_ms = 500.0;
    amnesia_on_crash = true;
    deadline_budget_ms = storm_timeout_ms;
    admission = { Samya.Config.Admission.target_ms = 50.0; interval_ms = 100.0 };
    breaker = { Samya.Config.Breaker.threshold = 2; probe_ms = 2_000.0 };
  }

(* ------------------------------------------------------------------ *)

let build ~engine_jobs ~config ~label ~entity =
  let hooks = Facade.samya_hooks () in
  let regions = Harness.Exp_common.client_regions () in
  let cluster =
    Samya.Cluster.create ~seed:Harness.Exp_common.seed ~engine_jobs ~config ~regions
      ~on_protocol_event:(Facade.protocol_event_hook hooks)
      ~obs:(Facade.obs_port hooks) ()
  in
  let facade = Facade.of_samya_cluster ~name:label ~hooks ~regions ~entity cluster in
  (cluster, facade)

let arm facade ~k =
  let flight = Obs.Flight_recorder.create () in
  let hot = Obs.Heavy_hitters.Windowed.create ~k ~window_ms:2_000.0 () in
  facade.Harness.Systems.arm { Obs.Flight_recorder.recorder = flight; hot = Some hot };
  (flight, hot)

let base_spec ~requests ~duration_ms =
  {
    (Harness.Driver.default_spec
       ~client_regions:(Harness.Exp_common.client_regions ())
       ~requests ~duration_ms)
    with
    drain_ms = 5_000.0;
    window_ms = 1_000.0;
  }

let timed add f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  add (seconds_since t0);
  v

let prepare ?engine_jobs ~size ~seed kind =
  let c = { gen = 0.0; create = 0.0; register = 0.0; setup = 0.0 } in
  (* A part's set-up runs when the part is built. *)
  let part build () = timed (fun d -> c.setup <- c.setup +. d) build in
  let gen f = timed (fun d -> c.gen <- c.gen +. d) f in
  let create ~default ~config ~label ~entity =
    timed
      (fun d -> c.create <- c.create +. d)
      (fun () ->
        build ~engine_jobs:(Option.value engine_jobs ~default) ~config ~label ~entity)
  in
  let register f = timed (fun d -> c.register <- c.register +. d) f in
  let program_default = Harness.Pool.engine_jobs () in
  let parts, watchdog, recovery =
    match kind with
    | Fleet ->
        let s = fleet_scale size in
        let fleet () =
        let keys, requests =
          gen (fun () ->
              let zipf = Trace.Zipf.create s.keys in
              let keys =
                List.init s.keys Fun.id
                |> List.filter (fun r -> not (revoked r))
                |> List.map (fun r -> (key_name r, fleet_quota s zipf r))
                |> Array.of_list
              in
              ( keys,
                Trace.Workload.gateway ~rng:(rng ~seed 1009) ~zipf ~key_name
                  ~key_home:(fun r -> r mod n_sites)
                  ~n_clients:n_sites ~rate_per_s:s.rate_per_s ~duration_ms:s.duration_ms
                  ~read_ratio:fleet_read_ratio () ))
        in
        let cluster, facade =
          create ~default:1 ~config:(fleet_config s) ~label:"fleet" ~entity:(key_name 0)
        in
        register (fun () -> Samya.Cluster.register_entities cluster (Array.to_list keys));
        let flight, hot = arm facade ~k:16 in
        let spec =
          {
            (base_spec ~requests ~duration_ms:s.duration_ms) with
            grant_driven_release_ms = Some fleet_hold_ms;
            slo = Some (Obs.Slo.create ~window_ms:2_000.0 ());
            flight = Some flight;
          }
        in
        { cluster; facade; spec; keys; flight = Some flight; hot = Some hot }
        in
        ([ part fleet ], false, [])
    | Hotspot ->
        let entity = "hotkey" in
        let parts =
          List.init (hotspot_ramps size) (fun e ->
              part @@ fun () ->
              let requests =
                gen (fun () ->
                    Trace.Workload.skew_ramp ~rng:(rng ~seed (1019 + e)) ~entity ~home:0
                      ~n_clients:n_sites ~phases:hotspot_ramp ())
              in
              let cluster, facade =
                create ~default:program_default ~config:(hotspot_config ()) ~label:"hotspot"
                  ~entity
              in
              register (fun () -> Samya.Cluster.init_entity cluster ~entity ~maximum:hotspot_quota);
              let spec =
                {
                  (base_spec ~requests ~duration_ms:hotspot_ramp_ms) with
                  grant_driven_release_ms = Some 1_000.0;
                }
              in
              { cluster; facade; spec; keys = [| (entity, hotspot_quota) |]; flight = None; hot = None })
        in
        (parts, false, [])
    | Storm ->
        let entity = "sale" in
        let episodes = storm_episodes size in
        let recovery =
          List.init episodes (fun e ->
              let start = float_of_int e *. storm_episode_ms in
              ( start +. storm_spike_ms -. recovery_window_ms,
                start +. storm_episode_ms -. recovery_window_ms ))
        in
        let storm () =
        let requests =
          gen (fun () ->
              Array.concat
                (List.init episodes (fun e ->
                     let offset = float_of_int e *. storm_episode_ms in
                     Trace.Workload.flash_sale ~rng:(rng ~seed (1013 + e)) ~entity ~home:0
                       ~n_clients:n_sites ~base_rate_per_s:600.0 ~spike_rate_per_s:2_000.0
                       ~spike_start_ms:storm_spike_ms ~spike_end_ms:storm_spike_end_ms
                       ~duration_ms:storm_episode_ms ()
                     |> Array.map (fun (r : Trace.Workload.request) ->
                            { r with time_ms = r.time_ms +. offset }))))
        in
        let cluster, facade =
          create ~default:program_default ~config:(storm_config ()) ~label:"storm" ~entity
        in
        register (fun () -> Samya.Cluster.init_entity cluster ~entity ~maximum:storm_quota);
        let flight, hot = arm facade ~k:8 in
        let others = List.init (n_sites - 1) (fun i -> i + 1) in
        let events =
          List.concat
            (List.init episodes (fun e ->
                 let at d = (float_of_int e *. storm_episode_ms) +. d in
                 let open Harness.Driver in
                 [
                   {
                     at_ms = at storm_partition_ms;
                     action = (fun () -> facade.Harness.Systems.partition [ [ 0 ]; others ]);
                   };
                   { at_ms = at storm_heal_ms; action = (fun () -> facade.Harness.Systems.heal ()) };
                   {
                     at_ms = at storm_crash_ms;
                     action = (fun () -> facade.Harness.Systems.crash_site storm_crash_site);
                   };
                   {
                     at_ms = at storm_restart_ms;
                     action = (fun () -> facade.Harness.Systems.recover_site storm_crash_site);
                   };
                 ]))
        in
        let spec =
          {
            (base_spec ~requests ~duration_ms:(float_of_int episodes *. storm_episode_ms)) with
            events;
            client_timeout_ms = storm_timeout_ms;
            grant_driven_release_ms = Some 1_000.0;
            slo = Some (Obs.Slo.create ~window_ms:2_000.0 ());
            flight = Some flight;
            retry =
              Some
                {
                  Harness.Driver.max_attempts = 4;
                  base_backoff_ms = 500.0;
                  max_backoff_ms = 4_000.0;
                  jitter = 0.5;
                  jitter_seed = Int64.of_int (seed + 7_767);
                };
            deadline_budget_ms = storm_timeout_ms;
          }
        in
        {
          cluster;
          facade;
          spec;
          keys = [| (entity, storm_quota) |];
          flight = Some flight;
          hot = Some hot;
        }
        in
        ([ part storm ], true, recovery)
  in
  { kind; parts; watchdog; recovery; clocks = c }

(* Token conservation on every registered key (Equation 1 against the
   key's own quota), after the drain. *)
let audit (part : part) =
  let bad = ref 0 and first = ref None in
  Array.iter
    (fun (entity, maximum) ->
      match Samya.Cluster.check_invariant part.cluster ~entity ~maximum with
      | Ok () -> ()
      | Error reason ->
          incr bad;
          if !first = None then first := Some (entity ^ ": " ^ reason))
    part.keys;
  match !first with
  | None -> Ok ()
  | Some reason -> Error (Printf.sprintf "%d keys violate conservation (first %s)" !bad reason)
