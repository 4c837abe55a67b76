(* The traced run's instrumentation, installed only from outside the
   library: an engine tracer on every lane engine, a geonet tracer, and
   timed wrappers around the facade's [submit] and the driver's [reply]
   closures. The shard barrier hook is left alone (it is last-wins and
   the flight recorder drains through it).

   Self time. Every executed event ends with the engine's [after_step].
   An event whose start is visible — a geonet delivery ([on_deliver]) or
   a labelled timer ([on_timer_fired]) — is timed from that hook to its
   [after_step]. Any other event is timed from the previous [after_step]
   on the same lane (so its interval includes its own heap pop). Wrapper
   time nested in an event is subtracted from the event and reported
   under the wrapper. An interval that starts on another lane spans a
   lane switch, window barrier or channel flush and is left unattributed:
   the residual is the traced run's wall time minus every attributed
   interval. All of this assumes one domain drains the lanes, which
   [attach] enforces. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* The program's timer labels; anything else lands in [other]. *)
let timer_labels =
  [| "redistribution"; "avantan.timer"; "samya.borrow.patience"; "driver.retry.timeout";
     "samya.read.timeout" |]

let other = Array.length timer_labels

let label_index label =
  let rec go i =
    if i = other then other else if String.equal timer_labels.(i) label then i else go (i + 1)
  in
  go 0

(* Open-event kinds. *)
let k_none = -2

let k_deliver = -1

type t = {
  mutable events : int;
  mutable depth_peak : int;
  fired : int array;
  cancelled : int array;
  timer_ns : int array;
  mutable deliver_ns : int;
  mutable unlabelled_ns : int;
  mutable submit_ns : int;
  mutable reply_ns : int;
  attempts : int Atomic.t;
      (** facade calls; atomic because an untraced sharded run may call
          the facade from several domains *)
  (* the event being executed: its kind (a timer label index, [k_deliver]
     or [k_none]) and hook time *)
  mutable open_kind : int;
  mutable open_ns : int;
  (* wrapper time nested in the current frame *)
  mutable child_ns : int;
  mutable last_ns : int;
  mutable last_lane : int;
  timed : bool;
}

let create ~timed =
  {
    events = 0;
    depth_peak = 0;
    fired = Array.make (other + 1) 0;
    cancelled = Array.make (other + 1) 0;
    timer_ns = Array.make (other + 1) 0;
    deliver_ns = 0;
    unlabelled_ns = 0;
    submit_ns = 0;
    reply_ns = 0;
    attempts = Atomic.make 0;
    open_kind = k_none;
    open_ns = 0;
    child_ns = 0;
    last_ns = 0;
    last_lane = -1;
    timed;
  }

let engine_tracer p ~lane =
  {
    Des.Engine.on_timer_fired =
      (fun ~label ~armed_ms:_ ~now_ms:_ ->
        let i = label_index label in
        p.fired.(i) <- p.fired.(i) + 1;
        p.open_kind <- i;
        p.open_ns <- now_ns ());
    on_timer_cancelled =
      (fun ~label ~armed_ms:_ ~now_ms:_ ->
        let i = label_index label in
        p.cancelled.(i) <- p.cancelled.(i) + 1);
    after_step =
      (fun ~now_ms:_ ~pending ->
        let t = now_ns () in
        p.events <- p.events + 1;
        if pending > p.depth_peak then p.depth_peak <- pending;
        let k = p.open_kind in
        if k >= 0 then p.timer_ns.(k) <- p.timer_ns.(k) + (t - p.open_ns - p.child_ns)
        else if k = k_deliver then p.deliver_ns <- p.deliver_ns + (t - p.open_ns - p.child_ns)
        else if p.last_lane = lane then
          p.unlabelled_ns <- p.unlabelled_ns + (t - p.last_ns - p.child_ns);
        p.open_kind <- k_none;
        p.child_ns <- 0;
        p.last_ns <- t;
        p.last_lane <- lane);
  }

let network_tracer p =
  {
    Geonet.Network.on_send = (fun ~src:_ ~dst:_ ~now_ms:_ -> ());
    on_deliver =
      (fun ~src:_ ~dst:_ ~sent_at:_ ~now_ms:_ ->
        p.open_kind <- k_deliver;
        p.open_ns <- now_ns ());
    on_drop = (fun ~src:_ ~dst:_ ~sent_at:_ ~now_ms:_ -> ());
  }

(* Time [f] as a frame of its own: its self time goes to [add], its full
   duration counts as child time of the enclosing frame. *)
let frame p add f =
  let t0 = now_ns () in
  let outer = p.child_ns in
  p.child_ns <- 0;
  f ();
  let d = now_ns () - t0 in
  add (d - p.child_ns);
  p.child_ns <- outer + d

(* The facade the driver sees. Untimed, it only counts attempts (the
   issued count is attempts less retries); timed, it also measures the
   submit and reply closures. *)
let wrap p (f : Harness.Systems.facade) =
  let submit ~region request ~reply =
    Atomic.incr p.attempts;
    if p.timed then
      let reply response =
        frame p (fun d -> p.reply_ns <- p.reply_ns + d) (fun () -> reply response)
      in
      frame p
        (fun d -> p.submit_ns <- p.submit_ns + d)
        (fun () -> f.Harness.Systems.submit ~region request ~reply)
    else f.Harness.Systems.submit ~region request ~reply
  in
  { f with Harness.Systems.submit }

let attach_engines p cluster =
  match Samya.Cluster.shard cluster with
  | None -> Des.Engine.set_tracer (Samya.Cluster.engine cluster) (Some (engine_tracer p ~lane:0))
  | Some shard ->
      Des.Shard.force_sequential shard;
      Array.iteri
        (fun lane e -> Des.Engine.set_tracer e (Some (engine_tracer p ~lane)))
        (Des.Shard.engines shard)

(* Trace a cluster's next replay; the first interval (which spans set-up
   and the driver's prologue) stays unattributed. *)
let attach p cluster =
  attach_engines p cluster;
  Geonet.Network.set_tracer (Samya.Cluster.network cluster) (Some (network_tracer p));
  p.last_lane <- -1

let secs ns = float_of_int ns /. 1e9

let timer_s p = Array.fold_left ( + ) 0 p.timer_ns |> secs

(* Everything attributed to a measured callback or event, in seconds. *)
let attributed_s p =
  secs p.deliver_ns +. timer_s p +. secs p.unlabelled_ns +. secs p.submit_ns +. secs p.reply_ns
