(** Plain-text tables and series for the experiment output — formatted to
    read side by side with the paper's tables and figures. *)

val table :
  Format.formatter -> title:string -> header:string list -> rows:string list list -> unit
(** Column-aligned table with a title rule. *)

val series :
  Format.formatter ->
  title:string ->
  unit_label:string ->
  (string * (float * float) list) list ->
  unit
(** Multi-line time series, one column per labelled series, rows indexed by
    the first series' x values (minutes). *)

val kv : Format.formatter -> (string * string) list -> unit
(** Aligned "key: value" lines. *)

val f1 : float -> string
(** One decimal place. *)

val f2 : float -> string

val pct : float -> string
(** A ratio as a percentage with two decimals, e.g. "12.50%". *)

val ms : float -> string
(** Milliseconds with adaptive precision, e.g. "1.40 ms". *)

val minutes_of_ms : float -> float
