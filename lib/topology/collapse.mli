(** Elementary simplicial collapses and discrete-Morse reduction.

    A nonmaximal simplex [s] is a {e free face} when it is properly
    contained in exactly one other simplex [t] (necessarily of dimension
    [dim s + 1]).  Removing the pair [(s, t)] is an elementary collapse; it
    preserves the homotopy type, hence homology and connectivity.  The
    greedy sequence of such removals is an acyclic (discrete-Morse)
    matching whose unmatched simplices are the {e critical cells}.

    The implementation indexes the complex once into dense integer ids and
    maintains coface counts incrementally under removals, so a full
    collapse costs one pass plus O(1) bookkeeping per removed pair — no
    per-sweep recomputation.  Protocol complexes are highly collapsible,
    and the critical core can be orders of magnitude smaller; still,
    collapsing then eliminating was measured slower than eliminating
    directly ({!Homology}) on every registry complex, so the numeric path
    does not precollapse.  This module serves the paper experiments and
    collapsibility certificates. *)

val collapse : Complex.t -> Complex.t
(** Greedily performs elementary collapses until none remains.  The result
    is homotopy equivalent to the input. *)

val reduce : Complex.t -> Complex.t * int
(** [reduce c] is [(core, removed)]: the critical-cell core left by the
    greedy Morse matching (equal to [collapse c]) together with the number
    of simplices eliminated.  [core] is homotopy equivalent to [c], so its
    reduced Z/2 homology — and hence connectivity — is identical. *)

val matching : Complex.t -> (Simplex.t * Simplex.t) list * Simplex.t list
(** The discrete-Morse matching the greedy collapse found: the list of
    collapsed pairs [(free face, coface)] in removal order, and the
    critical (unmatched) simplices.  The two partition the simplices of the
    input. *)

val is_collapsible_to_point : Complex.t -> bool
(** Does greedy collapsing end at a single vertex?  (A sufficient but not
    necessary condition for contractibility.) *)

val free_faces : Complex.t -> (Simplex.t * Simplex.t) list
(** The current free-face pairs [(s, t)] with [t] the unique coface. *)
