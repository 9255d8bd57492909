type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let int i = Num (float_of_int i)

let fixed d v =
  if Float.is_finite v then Num (float_of_string (Printf.sprintf "%.*f" d v)) else Null

(* Integral values print without a fraction; others with the fewest
   significant digits (15 to 17) that read back to the same double. *)
let number_to_string f =
  if not (Float.is_finite f) then invalid_arg "Json.to_string: non-finite number"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else
    let rec go p =
      let s = Printf.sprintf "%.*g" p f in
      if p = 17 || float_of_string s = f then s else go (p + 1)
    in
    go 15

let add_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Printf.bprintf buf "\\u%04x" (Char.code c)
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let is_scalar = function Arr _ | Obj _ -> false | _ -> true

let rec write buf indent v =
  (* A container of scalars stays on one line; any other puts each
     member on its own line. *)
  let members opening closing items write_item =
    let flat = List.for_all (fun (_, v) -> is_scalar v) items in
    let newline ind =
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make ind ' ')
    in
    Buffer.add_char buf opening;
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_string buf (if flat then ", " else ",");
        if not flat then newline (indent + 2);
        write_item item)
      items;
    if not (flat || items = []) then newline indent;
    Buffer.add_char buf closing
  in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Num f -> Buffer.add_string buf (number_to_string f)
  | Str s -> add_string buf s
  | Arr l ->
      members '[' ']' (List.map (fun v -> ("", v)) l) (fun (_, v) -> write buf (indent + 2) v)
  | Obj l ->
      members '{' '}' l (fun (k, v) ->
          add_string buf k;
          Buffer.add_string buf ": ";
          write buf (indent + 2) v)

let to_string v =
  let buf = Buffer.create 1024 in
  write buf 0 v;
  Buffer.contents buf

exception Parse_error of string

let of_string s =
  let n = String.length s and pos = ref 0 in
  let fail what = raise (Parse_error (Printf.sprintf "%s at offset %d" what !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c = if peek () = c then advance () else fail (Printf.sprintf "expected '%c'" c) in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail "bad literal"
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents buf
      | '\\' when !pos >= n -> fail "unterminated string"
      | '\\' ->
          let e = s.[!pos] in
          advance ();
          (match e with
          | '"' | '\\' | '/' -> Buffer.add_char buf e
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' -> (
              match int_of_string_opt ("0x" ^ String.sub s !pos (min 4 (n - !pos))) with
              | Some cp when !pos + 4 <= n && Uchar.is_valid cp ->
                  pos := !pos + 4;
                  Buffer.add_utf_8_uchar buf (Uchar.of_int cp)
              | _ -> fail "bad \\u escape")
          | _ -> fail "bad escape");
          go ()
      | c when Char.code c < 0x20 -> fail "control character in string"
      | c ->
          Buffer.add_char buf c;
          go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    while match peek () with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f when Float.is_finite f -> Num f
    | _ -> fail "bad number"
  in
  (* Comma-separated items up to [closing], each parsed by [item]. *)
  let sequence closing item =
    advance ();
    skip_ws ();
    if peek () = closing then begin
      advance ();
      []
    end
    else
      let rec go acc =
        let acc = item () :: acc in
        skip_ws ();
        if peek () = ',' then begin
          advance ();
          go acc
        end
        else begin
          expect closing;
          List.rev acc
        end
      in
      go []
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
        Obj
          (sequence '}' (fun () ->
               skip_ws ();
               let k = parse_string () in
               skip_ws ();
               expect ':';
               (k, value ())))
    | '[' -> Arr (sequence ']' value)
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> parse_number ()
  in
  match
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing characters";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

let member key = function Obj l -> List.assoc_opt key l | _ -> None

let path root keys =
  let rec go v seen = function
    | [] -> Ok v
    | k :: rest -> (
        let seen = k :: seen in
        match member k v with
        | Some v -> go v seen rest
        | None -> Error (String.concat "." (List.rev seen) ^ ": no such key"))
  in
  go root [] keys

let number root keys =
  match path root keys with
  | Ok (Num f) -> Ok f
  | Ok _ -> Error (String.concat "." keys ^ ": not a number")
  | Error _ as e -> e
