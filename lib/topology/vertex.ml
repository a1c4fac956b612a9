type t = Proc of Pid.t * Label.t | Anon of int | Bary of t list

let proc p l = Proc (p, l)

let anon i = Anon i

let rank = function Proc _ -> 0 | Anon _ -> 1 | Bary _ -> 2

let rec compare a b =
  match (a, b) with
  | Proc (p, l), Proc (q, m) ->
      let c = Pid.compare p q in
      if c <> 0 then c else Label.compare l m
  | Anon i, Anon j -> Int.compare i j
  | Bary x, Bary y -> compare_list x y
  | (Proc _ | Anon _ | Bary _), _ -> Int.compare (rank a) (rank b)

and compare_list x y =
  match (x, y) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | a :: x', b :: y' ->
      let c = compare a b in
      if c <> 0 then c else compare_list x' y'

let equal a b = compare a b = 0

let rec pp ppf = function
  | Proc (p, Label.Unit) -> Pid.pp ppf p
  | Proc (p, l) -> Format.fprintf ppf "%a:%a" Pid.pp p Label.pp l
  | Anon i -> Format.fprintf ppf "v%d" i
  | Bary vs ->
      Format.fprintf ppf "b(%a)"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
           pp)
        vs

let pid = function Proc (p, _) -> Some p | Anon _ | Bary _ -> None

let label = function Proc (_, l) -> Some l | Anon _ | Bary _ -> None

let relabel f = function
  | Proc (p, l) -> Proc (p, f l)
  | (Anon _ | Bary _) as v -> v

(* Structural hash.  Polymorphic [Hashtbl.hash] is unsound here: a
   [Pid_set] label is a balanced tree whose shape depends on construction
   order, so sets are folded over their canonical element order instead.
   The constants and the seed are part of every persisted content key
   (see [Psph_engine.Key]); changing them re-keys stores and rings. *)
let mix h x = (h * 0x01000193) lxor (x land max_int)

let rec label_hash h l =
  match (l : Label.t) with
  | Unit -> mix h 1
  | Bool b -> mix (mix h 2) (Bool.to_int b)
  | Int i -> mix (mix h 3) i
  | Str s -> mix (mix h 4) (Hashtbl.hash s)
  | Pid p -> mix (mix h 5) (Pid.to_int p)
  | Pid_set s -> Pid.Set.fold (fun p h -> mix h (Pid.to_int p)) s (mix h 6)
  | Vec v -> Array.fold_left mix (mix h 7) v
  | Pair (a, b) -> label_hash (label_hash (mix h 8) a) b
  | List xs -> List.fold_left label_hash (mix h 9) xs

let rec hash_from h v =
  match v with
  | Proc (p, l) -> label_hash (mix (mix h 17) (Pid.to_int p)) l
  | Anon i -> mix (mix h 18) i
  | Bary vs -> List.fold_left hash_from (mix h 19) vs

let hash v = hash_from 0x811c9dc5 v

module Self = struct
  type nonrec t = t

  let compare = compare
  let equal = equal
  let hash = hash
end

module Set = Stdlib.Set.Make (Self)
module Map = Stdlib.Map.Make (Self)
module Tbl = Hashtbl.Make (Self)
