(** The Avantan phase machine, for either of the paper's two variants.

    Both redistribution protocols of the paper — Avantan[(n+1)/2]
    (Algorithm 1, §4.3.1) and Avantan[*] (§4.3.2) — run the same five
    phases over the same message vocabulary:

    + {b Election-GetValue}: the triggering site increments its ballot and
      solicits the entity state of its cohorts.
    + {b ElectionOk-Value}: cohorts promise, refresh their [TokensWanted]
      from their own prediction, and reply with their InitVal (plus any
      previously accepted value under Avantan[(n+1)/2]).
    + {b Accept-Value}: once the construction quorum is met the leader
      constructs [AcceptVal] and distributes it.
    + {b Accept-Ok}: cohorts acknowledge the accepted value.
    + {b Decision}: once the decision quorum acknowledges, the leader
      decides and distributes the decision asynchronously.

    The {!Config.variant} given to {!create} selects what differs: the
    construction quorum (a majority of all sites vs. any subset whose
    pooled tokens satisfy the leader), the decision quorum (majority vs.
    {e all} participants), whether accept state persists across instances
    (Paxos-style supersession vs. single-instance locking), and the two
    recovery disciplines (re-running the leader code with a higher ballot
    vs. interrogating the participant set with Status-Query).

    Avantan[*] details (§4.3.2): the leader stops collecting
    ElectionOk-Values once the pooled [TokensLeft] covers its own
    [TokensWanted], the responders plus the leader form the participant
    set [R_t] and everyone else is told to discard the instance; a cohort
    is locked to one instance at a time and rejects other elections; a
    cohort that times out with no accepted value aborts unilaterally, with
    one it interrogates [R_t] with Status-Query. Decided values are
    applied as deltas against each site's InitVal, at most once per
    instance, so the races this variant admits can delay tokens but never
    mint or destroy them. *)

module Ballot = Consensus.Ballot

(** {1 Protocol events}

    A structured feed of instance milestones, for harnesses and tests that
    want to observe elections, accepts, aborts and round counts without
    scraping logs. The hook must not mutate protocol state. *)

type event =
  | Election_started of { ballot : Ballot.t; round : int }
      (** this site started (or retried) an instance as leader *)
  | Election_joined of { ballot : Ballot.t; leader : int }
      (** this site promised an election and exposed its InitVal *)
  | Value_constructed of { ballot : Ballot.t; participants : int }
      (** the leader assembled its quorum and constructed a value *)
  | Value_accepted of { ballot : Ballot.t; leader : int }
      (** this site accepted a value as cohort *)
  | Recovery_started of { ballot : Ballot.t }
      (** leader-failure recovery began (either discipline) *)
  | Decided of { origin : Ballot.t; participants : int; led : bool; rounds : int }
      (** a decision was applied here; [rounds] counts this site's own
          election attempts within the instance (0 for pure cohorts) *)
  | Instance_aborted of { ballot : Ballot.t; led : bool; rounds : int }

val pp_event : Format.formatter -> event -> unit

(** {1 Environment} *)

type env = {
  self : int;
  n_sites : int;
  send : int -> Protocol.msg -> unit;
  set_timer : delay_ms:float -> (unit -> unit) -> Des.Engine.timer;
  local_state : scope:string list -> Protocol.contrib list;
      (** snapshot of [TokensLeft]/[TokensWanted] at this site for each
          entity in [scope] ([scope = []] on per-entity machines: the one
          bound entity, labelled [""]) *)
  refresh_wanted : scope:string list -> unit;
      (** Algorithm 1 lines 9–11: re-predict and raise [TokensWanted]
          before answering an election (a no-op when prediction is
          disabled) *)
  my_scope : unit -> string list;
      (** called once when this site starts leading an instance: the
          entities to piggyback on it. Per-entity machines return [[]];
          the batched driver drains its pending set here. *)
  on_outcome : Protocol.outcome -> unit;
      (** participation ended: a value was decided (apply it and drain the
          queue) or the instance aborted *)
  on_event : event -> unit;  (** structured observation hook; use [ignore] *)
  persist : unit -> unit;
      (** durability hook, called whenever protocol-critical state
          (promised ballot, accepted value, applied ledger) changes and
          {e before} the message that reveals the change is sent — the
          Paxos write-ahead discipline. The site wires this to its durable
          image under crash-amnesia; use [ignore] for the freeze model. *)
  election_timeout_ms : float;
  accept_timeout_ms : float;
  cohort_timeout_ms : float;
  status_retry_ms : float;  (** Status-Query retry period while blocked *)
}

(** {1 The machine} *)

type t

val create : variant:Config.variant -> env -> t

val start : t -> unit
(** Trigger a redistribution as leader. No-op while {!participating}. *)

val handle : t -> src:int -> Protocol.msg -> unit

val participating : t -> bool
(** [true] while this site's InitVal is exposed to a live instance — the
    interval during which the owning site must queue client requests. *)

val ballot : t -> Ballot.t

(** {1 Durable image (crash-amnesia recovery)} *)

type image
(** The protocol-critical state that must survive a crash for the safety
    argument to hold: the promised ballot, any accepted (possibly-decided)
    value, and the applied-instance log that answers Status-Query. *)

val snapshot : t -> image

val restore : t -> image -> unit
(** Rebuild a freshly-created machine from a durable image and resume:
    under Avantan[(n+1)/2] a restored accepted value re-runs the leader
    code under a higher ballot (it may have been decided); under
    Avantan[*] a restored cohort acceptance re-enters [Cohort_accepted] with the
    failure detector re-armed. Call once, immediately after {!create}. *)

(** {1 Statistics} *)

type stats = {
  led_started : int;  (** instances this site started or recovered *)
  led_decided : int;  (** instances this site drove to decision *)
  led_aborted : int;  (** phase-1 aborts *)
  participated : int;  (** instances joined as cohort *)
  decisions_applied : int;
  recoveries : int;  (** Status-Query interrogations started (Avantan[*]) *)
}

val zero_stats : stats

val add_stats : stats -> stats -> stats

val stats : t -> stats
