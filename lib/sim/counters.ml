type registry = {
  r_name : string;
  mutable r_names : string list;  (** newest first *)
  mutable r_count : int;
  mutable r_sealed : bool;  (** a scope exists, so the width is fixed *)
}

type counter = int

let registry name = { r_name = name; r_names = []; r_count = 0; r_sealed = false }

let counter r name =
  if r.r_sealed then
    invalid_arg
      (Printf.sprintf "Counters.counter: %s.%s declared after a scope was made"
         r.r_name name);
  if List.mem name r.r_names then
    invalid_arg (Printf.sprintf "Counters.counter: %s.%s declared twice" r.r_name name);
  let c = r.r_count in
  r.r_names <- name :: r.r_names;
  r.r_count <- c + 1;
  c

type scope = { reg : registry; values : int array; parent : scope option }

let scope ?parent reg =
  (match parent with
  | Some p when p.reg != reg ->
      invalid_arg
        (Printf.sprintf "Counters.scope: parent counts %s, not %s" p.reg.r_name
           reg.r_name)
  | _ -> ());
  reg.r_sealed <- true;
  { reg; values = Array.make reg.r_count 0; parent }

let rec add s c n =
  s.values.(c) <- s.values.(c) + n;
  match s.parent with Some p -> add p c n | None -> ()

let bump s c = add s c 1
let get s c = s.values.(c)

type snapshot = (string * int) list

let snapshot s = List.rev s.reg.r_names |> List.mapi (fun i name -> (name, s.values.(i)))

let zip what f a b =
  try List.map2 (fun (na, va) (nb, vb) ->
      if na <> nb then raise Exit;
      (na, f va vb)) a b
  with Exit | Invalid_argument _ ->
    invalid_arg (Printf.sprintf "Counters.%s: snapshots list different counters" what)

let diff after before = zip "diff" ( - ) after before

let sum = function
  | [] -> []
  | first :: rest -> List.fold_left (zip "sum" ( + )) first rest

let value snap name =
  match List.assoc_opt name snap with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Counters.value: no counter %S" name)

let json_members snap = List.map (fun (k, v) -> (k, Json.int v)) snap
