(** A dense GTH (Grassmann–Taksar–Heyman) solve of an exponential
    GSPN, the independent oracle for {!Pnut_analytic.Gspn.analyze}.

    Every transition must have a zero firing time and an
    [Exponential mean] enabling delay, so every marking is tangible and
    the reachability graph is the continuous-time Markov chain itself
    (single-server rates [1 / mean]).  The markings are enumerated here,
    by a hash table over marking arrays and the net's own arc lists, with
    none of {!Pnut_reach}'s packed store; the generator is a dense
    matrix; and GTH elimination computes the stationary distribution
    with no subtraction, so it is exact to rounding on any irreducible
    chain, periodic ones included. *)

type result = {
  states : int;
  place_means : float array;  (** by place id *)
  throughputs : float array;  (** by transition id *)
}

val analyze : ?max_states:int -> Pnut_core.Net.t -> result
(** Default cap: 500 markings.  Raises [Invalid_argument] on a
    transition that is not exponentially timed, a predicate, an action,
    more than [max_states] markings, or a chain that is not irreducible
    (some marking cannot return to the initial one). *)
