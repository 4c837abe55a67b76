(** The protocol-facing module of a site: instantiates the configured
    Avantan variant per entity ({!Avantan_core}), applies decided values to
    the local pool, and owns the recovery path over the bounded decided
    log.

    With [Config.protocol_batch > 1] the per-entity machines are replaced
    by one site-level machine: triggered entities queue, each instance
    freezes a scope of up to [protocol_batch] of them, and one WAN round
    piggybacks every scoped entity's deltas. Decided values then carry one
    group per entity, applied as independent per-entity projections.

    Decision application is idempotent per (entity, instance)
    (origin-keyed) and conserving under races: each site moves its own
    tokens by the delta between its InitVal contribution and the grant the
    reallocation policy computes from the decided group. *)

type t

val create :
  config:Config.t ->
  engine:Des.Engine.t ->
  site_id:int ->
  n_sites:int ->
  send:(entity:Types.entity -> dst:int -> Protocol.msg -> unit) ->
  set_timer:(delay_ms:float -> (unit -> unit) -> Des.Engine.timer) ->
  refresh_wanted:(Entity_state.t -> unit) ->
  register_outcome:(Entity_state.t -> aborted:bool -> satisfied:bool -> unit) ->
  on_event:(Types.entity -> Avantan_core.event -> unit) ->
  ?persist:(Entity_state.t -> unit) ->
  ?obs:Obs.Sink.port ->
  unit ->
  t
(** [persist] is the crash-amnesia durability hook, invoked whenever an
    entity's protocol-critical state changes (see
    {!Avantan_core.env.persist}) and after recovery replay; defaults to a
    no-op (freeze model). [obs] is the late-bound observability port (see
    {!Request_handler.create}): with a sink attached, decisions, aborts
    and applied token deltas feed the [samya.*] metrics. *)

val set_drain : t -> (Entity_state.t -> unit) -> unit
(** Wire the request handler's queue replay, called when an instance
    ends. Deferred past construction to break the handler/driver cycle. *)

val set_resolve : t -> (Types.entity -> Entity_state.t Entity_map.core option) -> unit
(** Wire the site's entity-map lookup (required in batched mode). *)

val set_heat : t -> (Entity_state.t Entity_map.core -> Entity_state.t) -> unit
(** Wire the site's hot-state materialiser (required in batched mode:
    decided groups heat the entities they involve). *)

val batch_channel : Types.entity
(** The reserved entity label ([""]) the site-level machine's messages
    travel under; real entities are validated non-empty. *)

val attach : t -> ?restore:Avantan_core.image -> Entity_state.t -> unit
(** Create the entity's protocol instance and store it in the state
    record. [restore] rebuilds the fresh machine from a durable image and
    resumes any surviving acceptance (crash-amnesia recovery). Per-entity
    mode only — under batching entities share the site-level machine. *)

val trigger : t -> Entity_state.t -> unit
(** Start a redistribution as leader (no-op while already
    participating). In batched mode this enqueues the entity for the
    site-level machine's next scope instead. *)

val handle : t -> Entity_state.t -> src:int -> Protocol.msg -> unit

val handle_batch : t -> src:int -> Protocol.msg -> unit
(** Deliver a message from the site-level batch channel. *)

val apply_value : t -> Entity_state.t -> Protocol.value -> bool option
(** Apply one decided value. [Some satisfied] when this site contributed
    an InitVal and the value was new; [None] when it does not involve
    this site or was already applied. *)

val recovery_decisions : t -> Entity_state.t -> peer:int -> Protocol.value list
(** What to answer a recovering peer: the retained decisions whose
    participant set includes it. *)

val apply_recovery : t -> Entity_state.t -> Protocol.value list -> unit
(** Apply a peer's recovery reply in instance (ballot) order. *)

val protocol_stats : t -> Entity_state.t -> Avantan_core.stats

val batch_stats : t -> Avantan_core.stats
(** The site-level machine's counters (zero when none was ever created). *)
