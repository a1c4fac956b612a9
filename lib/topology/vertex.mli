(** Vertices of simplicial complexes.

    The paper's complexes are {e chromatic}: each vertex is a pair
    [(process id, label)] and no simplex contains two vertices with the same
    process id.  We additionally support anonymous vertices (for classical
    test spaces such as the torus) and barycentre vertices (created by
    barycentric subdivision). *)

type t =
  | Proc of Pid.t * Label.t  (** a process with a local state *)
  | Anon of int  (** an unlabelled combinatorial vertex *)
  | Bary of t list
      (** barycentre of the simplex spanned by the (sorted, distinct) listed
          vertices; produced by {!Subdivision.barycentric} *)

val proc : Pid.t -> Label.t -> t

val anon : int -> t

val compare : t -> t -> int

val equal : t -> t -> bool

val hash : t -> int
(** Structural hash, consistent with {!equal}: sets inside labels are
    folded in canonical element order, so equal vertices hash equally
    however they were built, in every process.  Use it (never polymorphic
    [Hashtbl.hash]) to hash vertices; content keys are built on it. *)

val pp : Format.formatter -> t -> unit

val pid : t -> Pid.t option
(** The process id of a [Proc] vertex, [None] otherwise. *)

val label : t -> Label.t option
(** The label of a [Proc] vertex, [None] otherwise. *)

val relabel : (Label.t -> Label.t) -> t -> t
(** [relabel f v] applies [f] to the label of a [Proc] vertex; other vertices
    are returned unchanged. *)

module Set : Stdlib.Set.S with type elt = t

module Map : Stdlib.Map.S with type key = t

module Tbl : Stdlib.Hashtbl.S with type key = t
(** Hash tables keyed by {!hash} and {!equal}. *)
