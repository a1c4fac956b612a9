(** Canonical content addresses for complexes.

    [of_complex] hashes the full simplex set in canonical order with the
    pure structural vertex hash {!Psph_topology.Vertex.hash}, so
    structurally equal complexes get equal keys regardless of construction
    history or process — the property the memo store's cache slots and
    on-disk persistence both rely on.  (Hashing the set rather than the
    facets skips the expensive maximality extraction; see key.ml.)  Keys
    are 124 bits (two 62-bit halves); collisions are treated as
    impossible. *)

open Psph_topology

type t

val of_complex : Complex.t -> t

val of_string : string -> t
(** Key a canonical spec string (the same two-accumulator fold over its
    bytes).  Identifies answers derived symbolically, without realizing
    the complex the string denotes. *)

val equal : t -> t -> bool

val compare : t -> t -> int

val hash : t -> int

val to_hex : t -> string
(** 32 lowercase hex digits; the wire and on-disk representation. *)

val of_hex_opt : string -> t option
