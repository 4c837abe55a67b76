(* Layer micro-timings for the public calls the traced run cannot
   separate, each shaped like the workload that exercises it: the obs
   taps and the entity arena at the fleet's key count and Zipf mix, the
   geonet hop and Algorithm 2 at five sites. Each figure is the median
   over batches of the nanoseconds per call. *)

let batches = 7

(* [run n] performs [n] calls; returns the median ns per call. *)
let time_per_call ~n run =
  run n;
  Measure.median
    (List.init batches (fun _ ->
         let t0 = Probe.now_ns () in
         run n;
         float_of_int (Probe.now_ns () - t0) /. float_of_int n))

let zipf_ranks ~seed ~keys n =
  let zipf = Trace.Zipf.create keys in
  let rng = Scenario.rng ~seed 2003 in
  Array.init n (fun _ -> Trace.Zipf.sample zipf rng)

let run ~size ~seed =
  let keys = (Scenario.fleet_scale size).Scenario.keys in
  let n = 100_000 in
  let ranks = zipf_ranks ~seed ~keys n in
  let names = Array.map Scenario.key_name ranks in
  let heavy_hitters =
    let sketch = Obs.Heavy_hitters.create ~k:16 () in
    time_per_call ~n (fun n ->
        for i = 0 to n - 1 do
          Obs.Heavy_hitters.observe sketch names.(i)
        done)
  in
  let quantile_sketch =
    let rng = Scenario.rng ~seed 2011 in
    let samples = Array.init n (fun _ -> Float.exp (Des.Rng.gaussian rng ~mean:1.0 ~std:1.5)) in
    let sketch = Obs.Quantile_sketch.create () in
    time_per_call ~n (fun n ->
        for i = 0 to n - 1 do
          Obs.Quantile_sketch.add sketch samples.(i)
        done)
  in
  let flight_recorder =
    let recorder = Obs.Flight_recorder.create () in
    time_per_call ~n (fun n ->
        for i = 0 to n - 1 do
          Obs.Flight_recorder.record recorder ~lane:(i mod Scenario.n_sites)
            ~ts:(float_of_int i) ~kind:Obs.Flight_recorder.Shed ~site:(i mod Scenario.n_sites)
            ~entity:names.(i) "admission"
        done)
  in
  let entity_map =
    let map = Samya.Entity_map.create ~shards:256 ~capacity:keys () in
    for r = 0 to keys - 1 do
      ignore (Samya.Entity_map.register map ~entity:(Scenario.key_name r) ~tokens:1 : unit Samya.Entity_map.core)
    done;
    time_per_call ~n (fun n ->
        for i = 0 to n - 1 do
          ignore (Samya.Entity_map.find map names.(i) : unit Samya.Entity_map.core option)
        done)
  in
  let send_deliver =
    let engine = Des.Engine.create ~seed:(Int64.of_int seed) () in
    let regions = Harness.Exp_common.client_regions () in
    let net = Geonet.Network.create engine ~regions () in
    let received = ref 0 in
    Array.iteri (fun node _ -> Geonet.Network.register net ~node (fun _ -> incr received)) regions;
    let per_call =
      time_per_call ~n:20_000 (fun n ->
          for i = 0 to n - 1 do
            Geonet.Network.send net ~src:(i mod 5) ~dst:((i + 1 + (i / 5 mod 4)) mod 5) i
          done;
          Des.Engine.run engine)
    in
    if !received = 0 then failwith "geonet micro delivered nothing";
    per_call
  in
  let redistribute =
    let rng = Scenario.rng ~seed 2017 in
    let inputs =
      Array.init 1_024 (fun _ ->
          List.init Scenario.n_sites (fun site ->
              {
                Samya.Reallocation.site;
                tokens_left = Des.Rng.int rng 1_000;
                tokens_wanted = (if Des.Rng.bool rng 0.4 then Des.Rng.int rng 800 else 0);
              }))
    in
    time_per_call ~n:20_000 (fun n ->
        for i = 0 to n - 1 do
          ignore (Samya.Reallocation.redistribute inputs.(i land 1023) : Samya.Reallocation.grant list)
        done)
  in
  Measure.
    [
      m "obs.heavy_hitters.observe_ns" "ns" heavy_hitters;
      m "obs.quantile_sketch.add_ns" "ns" quantile_sketch;
      m "obs.flight_recorder.record_ns" "ns" flight_recorder;
      m "samya.entity_map.find_ns" "ns" entity_map;
      m "geonet.send_deliver_ns" "ns" send_deliver;
      m "samya.reallocation.redistribute_ns" "ns" redistribute;
    ]
