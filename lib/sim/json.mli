(** A small JSON value type with a printer and a parser.

    The bench results, the chaos summary and the gates that read recorded
    baselines back all go through this one type; the repository depends
    on no JSON library. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val int : int -> t

val fixed : int -> float -> t
(** [fixed d v] is [v] rounded to [d] decimals, exactly as [%.*f] prints
    it; [Null] when [v] is not finite. *)

val to_string : t -> string
(** Objects and arrays whose members are all scalars print on one line;
    larger ones break one member per line, indented two spaces a level.
    Integral numbers print without a fraction, others as the shortest
    decimal that reads back to the same float.
    @raise Invalid_argument on a non-finite number. *)

val of_string : string -> (t, string) result
(** Parse one JSON document (surrounding whitespace allowed).  The error
    names what was wrong and the byte offset. *)

val member : string -> t -> t option
(** The value under a key of an object; [None] for a missing key or a
    non-object. *)

val path : t -> string list -> (t, string) result
(** Follow object keys from the root.  The error names the dotted path
    up to and including the first key that is missing. *)

val number : t -> string list -> (float, string) result
(** {!path}, then require a number there. *)
