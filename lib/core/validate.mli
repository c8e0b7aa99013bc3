(** Structural validation and sanity diagnostics for nets.

    The paper's Section 4.4 motivates catching modeling bugs (e.g. "a
    non-zero timing in a transition" breaking a mutual-exclusion pair)
    before trusting performance numbers.  These checks are static; dynamic
    verification lives in [Pnut_tracer] and [Pnut_reach]. *)

type severity =
  | Error    (** the net cannot behave meaningfully *)
  | Warning  (** suspicious, frequently a modeling mistake *)

type diagnostic = {
  severity : severity;
  subject : string;  (** place or transition name, or "net" *)
  message : string;
}

val check : Net.t -> diagnostic list
(** All diagnostics, errors first.  Errors: malformed durations (an
    invalid uniform range, a non-positive exponential mean, an empty
    choice, a negative choice value or a non-positive choice weight)
    and durations, predicates or actions referring to unbound variables
    or tables.
    Warnings: transitions with no input arc, inhibitor arc or predicate
    (always enabled), and places that are read but never marked (dead
    inputs), written but never read (often a typo) or connected to no
    transition (isolated). *)

val errors : diagnostic list -> diagnostic list
val warnings : diagnostic list -> diagnostic list

val pp_diagnostic : Format.formatter -> diagnostic -> unit

val assert_valid : Net.t -> unit
(** Raises [Invalid_argument] carrying the rendered errors if [check]
    reports any [Error]. *)
