(** Abstract simplexes.

    A simplex is a finite set of distinct vertices; an [n]-simplex has
    [n + 1] vertices.  Following the paper's convention, a simplex of
    dimension [d < 0] is the empty simplex.  The representation is a strictly
    sorted vertex array, so structural equality coincides with set
    equality. *)

type t

val empty : t

val of_list : Vertex.t list -> t
(** Sorts and deduplicates. *)

val of_sorted_list : Vertex.t list -> t
(** Unchecked fast path: the list must already be strictly sorted by
    {!Vertex.compare}.  Used by bulk constructors (e.g. pseudosphere
    realization) that produce vertices in order by construction. *)

val of_procs : (Pid.t * Label.t) list -> t
(** Convenience: a chromatic simplex from (pid, label) pairs. *)

val proc_simplex : int -> t
(** [proc_simplex n] is the paper's base simplex [P^n]: [n + 1] vertices
    labelled [P0 ... Pn], each with the [Unit] label. *)

val dim : t -> int
(** [-1] for the empty simplex. *)

val cardinal : t -> int

val is_empty : t -> bool

val vertices : t -> Vertex.t list

val vertex_array : t -> Vertex.t array
(** The underlying sorted array (do not mutate). *)

val mem : Vertex.t -> t -> bool

val subset : t -> t -> bool
(** [subset s t]: is [s] a (not necessarily proper) face of [t]? *)

val proper_subset : t -> t -> bool

val equal : t -> t -> bool

val compare : t -> t -> int

val pp : Format.formatter -> t -> unit

val add : Vertex.t -> t -> t

val remove : Vertex.t -> t -> t

val union : t -> t -> t
(** Vertex-set union (the join's vertex set). *)

val inter : t -> t -> t

val diff : t -> t -> t

val facets : t -> t list
(** All codimension-1 faces (empty list for the empty simplex). *)

val faces : t -> t list
(** All faces, proper and improper, {e including} the empty simplex. *)

val proper_faces : t -> t list
(** All nonempty proper faces. *)

val map : (Vertex.t -> Vertex.t) -> t -> t
(** Image under a vertex map; collapsing (non-injective) maps shrink the
    simplex. *)

val ids : t -> Pid.Set.t
(** Process ids of the [Proc] vertices — the paper's [ids(S)]. *)

val labels : t -> Label.t list
(** Labels of the [Proc] vertices — the paper's [vals(S)]. *)

val label_of : Pid.t -> t -> Label.t option
(** The label of the vertex coloured by the given pid, if present. *)

val is_chromatic : t -> bool
(** All vertices are [Proc] vertices with pairwise distinct pids. *)

val without_ids : Pid.Set.t -> t -> t
(** [without_ids k s] is the paper's [S \ K]: the face of [s] spanned by the
    [Proc] vertices whose pid is not in [k]. *)

val restrict_ids : Pid.Set.t -> t -> t
(** The face spanned by the [Proc] vertices whose pid {e is} in the set. *)

val numbering : unit -> t -> int array
(** [numbering ()] starts a fresh vertex numbering for one computation and
    returns its lookup: applied to a simplex, it gives the ids of the
    simplex's vertices in canonical order, numbering each vertex densely
    (0, 1, ...) on first sight.  Within one numbering two simplexes are
    equal iff their id arrays are, and the arrays are safe for polymorphic
    hashing.  The table lives only as long as the lookup and is not
    synchronized: use one numbering per computation and per domain. *)
