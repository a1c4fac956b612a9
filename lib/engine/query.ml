(* The hot query and its reply: the JSON grammar, the engine spec, the
   shard key, evaluation and the reply's JSON form, each defined once.
   Error messages are part of the wire contract (clients and tests match
   on them), so the parser raises them in the order a request's fields
   are read: op, target fields, facets in order, then the solver mode. *)

open Psph_obs
open Psph_topology
module MC = Pseudosphere.Model_complex

type want = Both | Betti | Connectivity

type target =
  | Psph of { n : int; values : int }
  | Facets of string list
  | Model of { model : string; spec : MC.spec }

type t = { want : want; target : target; mode : Engine.mode }

(* ------------------------------------------------------------------ *)
(* the JSON grammar                                                    *)
(* ------------------------------------------------------------------ *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let int_field ?default req name =
  match Jsonl.member name req with
  | Some v -> (
      match Jsonl.to_int_opt v with
      | Some i -> i
      | None -> bad "field %S must be an integer" name)
  | None -> (
      match default with
      | Some d -> d
      | None -> bad "missing integer field %S" name)

let modes =
  [
    ("auto", Engine.Auto);
    ("symbolic", Engine.Symbolic_only);
    ("numeric", Engine.Numeric_only);
    ("check", Engine.Check);
  ]

let mode_of req =
  match Option.bind (Jsonl.member "solver" req) Jsonl.to_string_opt with
  | None -> Engine.Auto
  | Some s -> (
      match List.assoc_opt s modes with
      | Some m -> m
      | None -> bad "unknown solver mode %S (auto|symbolic|numeric|check)" s)

let unknown_model name =
  Printf.sprintf "unknown model %S (available: %s)" name
    (String.concat ", " (MC.names ()))

(* a model's declared extension parameters, read by declared name:
   integers directly, strings through the parameter's own parser (enum
   names like "adv":"rooted").  Absent keys are left for the model's
   [normalize] to default. *)
let ext_of req m =
  List.filter_map
    (fun ep ->
      let name = ep.MC.ep_name in
      match Jsonl.member name req with
      | None -> None
      | Some v -> (
          match Jsonl.to_int_opt v with
          | Some i -> Some (name, i)
          | None -> (
              match Jsonl.to_string_opt v with
              | None -> bad "field %S must be an integer or string" name
              | Some s -> (
                  match ep.ep_parse s with
                  | Ok i -> Some (name, i)
                  | Error e -> bad "%s" e))))
    (MC.ext_params_of m)

let model_of req =
  match Option.bind (Jsonl.member "model" req) Jsonl.to_string_opt with
  | None -> bad "missing string field \"model\""
  | Some model -> (
      match MC.find model with
      | None -> raise (Bad (unknown_model model))
      | Some m ->
          (* fields are read last to first, the order the wire contract
             has always reported the first bad one in *)
          let d = MC.default_spec in
          let ext = ext_of req m in
          let r = int_field ~default:d.r req "r" in
          let p = int_field ~default:d.p req "p" in
          let k = int_field ~default:d.k req "k" in
          let f = int_field ~default:d.f req "f" in
          Model { model; spec = { n = int_field req "n"; f; k; p; r; ext } })

let psph_of req =
  let values = int_field req "values" in
  Psph { n = int_field req "n"; values }

let facet s =
  try Complex_io.simplex_of_string s with Failure m -> failwith ("bad facet: " ^ m)

let target_of req =
  match Option.bind (Jsonl.member "op" req) Jsonl.to_string_opt with
  | None -> bad "missing \"op\""
  | Some (("betti" | "connectivity") as op) -> (
      match Option.bind (Jsonl.member "facets" req) Jsonl.to_list_opt with
      | Some entries ->
          (* parsed here only to reject bad strings in request order;
             [spec] builds the complex *)
          let strs =
            List.map
              (fun e ->
                match Jsonl.to_string_opt e with
                | None -> bad "facets entries must be strings"
                | Some s ->
                    ignore (facet s);
                    s)
              entries
          in
          ((if op = "betti" then Betti else Connectivity), Facets strs)
      | None when op = "connectivity" && Jsonl.member "model" req <> None ->
          (Connectivity, model_of req)
      | None when op = "connectivity" && Jsonl.member "values" req <> None ->
          (Connectivity, psph_of req)
      | None ->
          if op = "connectivity" then
            bad "connectivity needs \"facets\", \"model\", or \"n\"+\"values\""
          else bad "%s needs a \"facets\" array" op)
  | Some "psph" -> (Both, psph_of req)
  | Some "model-complex" -> (Both, model_of req)
  | Some op -> bad "unknown op %S" op

let of_json req =
  match
    let want, target = target_of req in
    { want; target; mode = mode_of req }
  with
  | q -> Ok q
  | exception (Bad m | Invalid_argument m | Failure m) -> Error m

let to_json ?id q =
  (* the op asking for [q.want]; [full] is the target's other op *)
  let op full = Jsonl.Str (if q.want = Connectivity then "connectivity" else full) in
  let fields =
    match q.target with
    | Psph { n; values } ->
        [ ("op", op "psph"); ("n", Jsonl.int n); ("values", Jsonl.int values) ]
    | Facets facets ->
        [
          ("op", op "betti");
          ("facets", Jsonl.Arr (List.map (fun f -> Jsonl.Str f) facets));
        ]
    | Model { model; spec = { MC.n; f; k; p; r; ext } } ->
        [
          ("op", op "model-complex");
          ("model", Jsonl.Str model);
          ("n", Jsonl.int n);
          ("f", Jsonl.int f);
          ("k", Jsonl.int k);
          ("p", Jsonl.int p);
          ("r", Jsonl.int r);
        ]
        @ List.map (fun (key, v) -> (key, Jsonl.int v)) ext
  in
  let solver =
    if q.mode = Engine.Auto then []
    else [ ("solver", Jsonl.Str (fst (List.find (fun (_, m) -> m = q.mode) modes))) ]
  in
  let id = match id with Some v -> [ ("id", v) ] | None -> [] in
  Jsonl.to_string (Jsonl.Obj (id @ fields @ solver))

(* ------------------------------------------------------------------ *)
(* engine spec and shard key                                           *)
(* ------------------------------------------------------------------ *)

let spec q =
  match q.target with
  | Psph { n; values } -> Engine.Psph { n; values }
  | Facets strs ->
      Engine.Explicit (Complex.of_facets (List.map facet strs))
  | Model { model; spec } ->
      if MC.find model = None then failwith (unknown_model model);
      Engine.Model { model; params = spec }

(* canonicalizes like the engine's spec memo (Engine.spec_key_of) and
   content keys, so the router agrees with the backend caches about
   which requests are "the same" *)
let shard_key q =
  match q.target with
  | Psph { n; values } -> Printf.sprintf "psph:%d:%d" n values
  | Model { model; spec } -> (
      let raw () =
        Printf.sprintf "%s:%d:%d:%d:%d:%d:%s" model spec.n spec.f spec.k spec.p
          spec.r
          (String.concat ","
             (List.map (fun (kx, v) -> Printf.sprintf "%s=%d" kx v) spec.ext))
      in
      (* an invalid spec still shards deterministically on its raw form *)
      match MC.find model with
      | Some m -> ( try MC.encode m spec with _ -> raw ())
      | None -> raw ())
  | Facets strs -> (
      match
        List.map Complex_io.simplex_of_string strs
        |> Complex.of_facets |> Key.of_complex |> Key.to_hex
      with
      | hex -> "key:" ^ hex
      | exception _ -> "facets:" ^ String.concat ";" strs)

(* ------------------------------------------------------------------ *)
(* the reply                                                           *)
(* ------------------------------------------------------------------ *)

type reply =
  | Result of {
      id : int;
      key : string;
      cached : bool;
      betti : int array option;
      connectivity : int option;
      solver : Engine.provenance option;
    }
  | Failed of { id : int; message : string }

(* facets are never looked up: their spec is a complex built from the
   request, work that grows with it, and an [Explicit] spec has no probe *)
let lookup engine q =
  match q.target with
  | Facets _ -> None
  | Psph _ | Model _ -> (
      try Engine.lookup ~mode:q.mode engine (spec q) with _ -> None)

let answer ?(id = 0) ?probed engine q =
  match
    let spec = spec q in
    match q.want with
    | Connectivity -> Engine.eval_conn ~mode:q.mode ?probed engine spec
    | Both | Betti -> Engine.eval ~mode:q.mode ?probed engine spec
  with
  | r ->
      Result
        {
          id;
          key = Key.to_hex r.Engine.key;
          cached = r.cached;
          betti = (if q.want = Connectivity then None else Some r.answer.betti);
          connectivity =
            (if q.want = Betti then None else Some r.answer.connectivity);
          solver = Some r.solver;
        }
  | exception (Invalid_argument m | Failure m) -> Failed { id; message = m }
  | exception e ->
      Failed { id; message = "internal error: " ^ Printexc.to_string e }

let reply_json ?id reply =
  let fields =
    match reply with
    | Result { key; cached; betti; connectivity; solver; _ } ->
        [ ("ok", Jsonl.Bool true); ("key", Jsonl.Str key) ]
        @ (match betti with Some b -> [ ("betti", Jsonl.int_array b) ] | None -> [])
        @ (match connectivity with
          | Some c -> [ ("connectivity", Jsonl.int c) ]
          | None -> [])
        @ [ ("cached", Jsonl.Bool cached) ]
        @ (match solver with
          | Some p -> [ ("solver", Jsonl.Obj (Engine.provenance_fields p)) ]
          | None -> [])
    | Failed { message; _ } -> [ ("ok", Jsonl.Bool false); ("error", Jsonl.Str message) ]
  in
  Jsonl.Obj (match id with Some v -> ("id", v) :: fields | None -> fields)

let provenance_of_json s =
  let str name = Option.bind (Jsonl.member name s) Jsonl.to_string_opt in
  let num name = Option.bind (Jsonl.member name s) Jsonl.to_int_opt in
  let tier =
    match str "tier" with
    | Some "cached" -> Some Engine.Cached
    | Some "symbolic" -> Some Engine.Symbolic
    | Some "numeric" -> Some Engine.Numeric
    | _ -> None
  in
  Option.map
    (fun tier ->
      {
        Engine.tier;
        rule = str "rule";
        steps = num "steps";
        checked = num "checked";
      })
    tier

let reply_of_json line =
  match Jsonl.of_string_opt line with
  | Some (Jsonl.Obj _ as o) -> (
      let id =
        match Option.bind (Jsonl.member "id" o) Jsonl.to_int_opt with
        | Some i when i >= 0 && i <= 0xFFFFFFFF -> i
        | _ -> 0
      in
      match Jsonl.member "ok" o with
      | Some (Jsonl.Bool true) ->
          let betti =
            match Option.bind (Jsonl.member "betti" o) Jsonl.to_list_opt with
            | Some entries ->
                let ints = List.filter_map Jsonl.to_int_opt entries in
                if List.length ints = List.length entries then
                  Some (Array.of_list ints)
                else None
            | None -> None
          in
          Some
            (Result
               {
                 id;
                 key =
                   Option.value ~default:""
                     (Option.bind (Jsonl.member "key" o) Jsonl.to_string_opt);
                 cached = Jsonl.member "cached" o = Some (Jsonl.Bool true);
                 betti;
                 connectivity =
                   Option.bind (Jsonl.member "connectivity" o) Jsonl.to_int_opt;
                 solver = Option.bind (Jsonl.member "solver" o) provenance_of_json;
               })
      | Some (Jsonl.Bool false) ->
          let message =
            Option.value ~default:"unknown error"
              (Option.bind (Jsonl.member "error" o) Jsonl.to_string_opt)
          in
          Some (Failed { id; message })
      | _ -> None)
  | _ -> None
