(** The hot query: the one typed request every layer speaks.

    A [betti]/[connectivity]/[psph]/[model-complex] request is parsed
    once into a {!t} — which measurements ({!want}), of which complex
    ({!target}), under which solver {!Engine.mode} — and everything
    downstream works on that value: {!spec} hands it to the engine,
    {!shard_key} places it on the router's ring, {!answer} evaluates it,
    and the reply is one {!reply} value with one JSON rendering
    ({!reply_json}).  [Serve] is the JSON front end of this module and
    the binary codec ([Psph_net.Codec]) is a byte layout of the same
    values, so the two protocols cannot drift apart.

    The JSON grammar ({!of_json}; see docs/ENGINE.md "Wire protocol"):

    {v
    {"op":"betti",         "facets":["0:i0 ; 1:i1", ...]}   Betti, Facets
    {"op":"connectivity",  "facets":[...]}                  Connectivity, Facets
    {"op":"connectivity",  "model":"sync","n":3,...}        Connectivity, Model
    {"op":"connectivity",  "n":2,"values":3}                Connectivity, Psph
    {"op":"psph",          "n":2,"values":3}                Both, Psph
    {"op":"model-complex", "model":"sync","n":3,"r":2}      Both, Model
    v}

    Any of them may carry ["solver"]
    (["auto"|"symbolic"|"numeric"|"check"], default auto).  Model
    parameters [f]/[k]/[p]/[r] default like the [psc] flags; a model's
    declared extension parameters are read by name, as integers or as
    names its own parser accepts. *)

open Psph_obs

type want = Both | Betti | Connectivity

type target =
  | Psph of { n : int; values : int }
  | Facets of string list  (** {!Psph_topology.Complex_io} simplex strings *)
  | Model of { model : string; spec : Pseudosphere.Model_complex.spec }

type t = { want : want; target : target; mode : Engine.mode }

val of_json : Jsonl.t -> (t, string) result
(** Parse a request object.  [Error] carries the message [Serve]
    answers with (e.g. ["missing integer field \"n\""],
    ["unknown model \"x\" (available: ...)"], ["unknown op \"x\""]). *)

val to_json : ?id:Jsonl.t -> t -> string
(** The JSON-lines request for a query, [id] first when given.  Inverse
    of {!of_json} on the queries JSON can express; the two the grammar
    has no op for map to the nearest one: [Betti] over [Psph]/[Model]
    asks [psph]/[model-complex] (a superset of the fields) and [Both]
    over [Facets] asks [betti]. *)

val spec : t -> Engine.spec
(** The engine spec the query denotes (facet strings are parsed and the
    complex built here).
    @raise Failure on a bad facet string or an unknown model name. *)

val shard_key : t -> string
(** The router's placement key, independent of [want] and [mode]: psph
    by parameters, a model by its own normalized encoding (so two
    spellings of one spec, and the [connectivity] and [model-complex]
    forms of it, share a key), explicit facets by their content
    address. *)

type reply =
  | Result of {
      id : int;  (** transport id (binary codec); 0 elsewhere *)
      key : string;  (** canonical content key, lowercase hex *)
      cached : bool;
      betti : int array option;
      connectivity : int option;
      solver : Engine.provenance option;
          (** [None] only in replies parsed from a peer that predates
              the provenance field *)
    }
  | Failed of { id : int; message : string }

val lookup : Engine.t -> t -> Engine.result option
(** The fast path: {!Engine.lookup} of the query's spec under its mode
    — [Some] when a warm cache slot answers it.  [None] at once, without
    building anything, for a [Facets] target.  Bounded work, safe on an
    event loop; never raises. *)

val answer : ?id:int -> ?probed:Engine.result option -> Engine.t -> t -> reply
(** Evaluate a query: [Connectivity] through the tiered
    {!Engine.eval_conn}, the Betti-bearing wants through {!Engine.eval},
    both under the query's mode.  [probed] is {!lookup}'s outcome when
    it was already taken: a hit is answered from it, a miss continues
    without probing again.  Never raises: invalid parameters, a failed
    solver check or an unexpected exception come back as [Failed] with
    the message [Serve] has always answered. *)

val reply_json : ?id:Jsonl.t -> reply -> Jsonl.t
(** The serve-shaped response object, [id] first when given: [ok],
    [key], [betti]/[connectivity] as present, [cached], [solver] — or
    [ok]/[error] for a failure.  The one reply renderer. *)

val reply_of_json : string -> reply option
(** Parse a serve-shaped response line back into a {!reply} ([None]
    when the line is not one).  [id] is the response's "id" member when
    it is an integer in [0, 2{^32}), else 0. *)
