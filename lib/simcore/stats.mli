(** Named counters and histograms collected during a simulation run.

    A [Stats.t] is attached to a machine and is the one place every
    runtime layer counts into, under its layer's name prefix
    ([reliable.*], [coalesce.*], [dgc.*], ...); a [.node<i>] suffix
    marks a per-node cell. Counter creation is cached, so the hot path
    is one hashtable lookup amortised to a {!bump} on the cached
    {!cell}.

    Cells are sharded per simulation domain: {!bump} writes a private
    padded slot indexed by {!Domain_ctx.current}, and {!read} sums the
    slots. Bumping is therefore safe from any domain of a parallel run
    with no synchronisation, and the merged totals are independent of
    the domain count (sums commute) — counters never perturb the
    engine's bit-identical replay guarantee. Call {!shard} before
    spawning domains so every cell has a slot per domain. *)

type t
type cell

type hist
(** A named histogram cell (see {!histogram}). *)

val create : unit -> t

val counter : t -> string -> cell
(** The counter cell registered under the given name (created at zero on
    first use). Callers may keep the cell for repeated increments. *)

val bump : cell -> unit
(** Adds 1 to the calling domain's slot. *)

val bump_n : cell -> int -> unit

val read : cell -> int
(** Sum over all domain slots. Only exact once domains have joined (or
    between barrier phases); mid-window cross-domain reads may miss
    in-flight increments. *)

val shard : t -> int -> unit
(** [shard t n] widens every cell (current and future) to [n] domain
    slots. Idempotent; never shrinks. Must be called before domains
    that will bump are spawned. *)

val incr : t -> string -> unit

val add : t -> string -> int -> unit

val get : t -> string -> int
(** Current value; 0 if the counter was never touched. *)

val names : t -> string list
(** All registered counter names, sorted. *)

val to_alist : t -> (string * int) list
(** Sorted (name, value) pairs. *)

val reset : t -> unit
(** Zeroes every counter and empties every histogram (registrations are
    kept). *)

(** {2 Histograms}

    Sharded like counters: {!observe} writes the calling domain's own
    {!Histogram.t}, and reads merge the shards with
    {!Histogram.merge_into}, so the merged summary is independent of
    the domain count. *)

val histogram : ?bucket_width:int -> t -> string -> hist
(** The histogram registered under the given name (created empty on
    first use, with [bucket_width] as in {!Histogram.create}; later
    calls return the existing cell and ignore [bucket_width]). *)

val observe : hist -> int -> unit

val read_histogram : hist -> Histogram.t
(** A fresh merge of all domain shards (same exactness caveat as
    {!read}). *)

val get_histogram : t -> string -> Histogram.t option
(** [None] if no histogram was ever registered under the name. *)

val histograms : t -> (string * Histogram.t) list
(** Sorted (name, merged histogram) pairs. *)

val pp : Format.formatter -> t -> unit
(** One line per counter and histogram, in name order — so each layer's
    cells print as one block. *)

val pp_layer : prefix:string -> Format.formatter -> t -> unit
(** {!pp} restricted to the names starting with [prefix]:
    [pp_layer ~prefix:"reliable."] prints one layer. *)
