(* The project's one JSON codec (no JSON library ships with the
   toolchain): a value type, one printer with a compact and an indented
   layout, and one parser.  Every artifact — reports, telemetry, the
   sweep journal, progress streams, bench files and daemon frames — is
   built as a [t] next to the record it describes and printed here, so
   the string escape exists exactly once. *)

type t =
  | Null
  | Bool of bool
  | Number of float
  | Literal of string
      (** A number printed with exactly this text, so each field keeps
          its own format ([%d] counters, [%.6f] seconds, ...).  [parse]
          never yields it: the same number reads back as [Number]. *)
  | String of string
  | Array of t list
  | Object of (string * t) list

(* {1 Building} *)

let int n = Literal (string_of_int n)

(* [fixed d f] is [f] printed with [d] decimals, as [Printf "%.*f"]. *)
let fixed decimals f = Literal (Printf.sprintf "%.*f" decimals f)

let list f l = Array (List.map f l)
let strings l = list (fun s -> String s) l

let option f = function None -> Null | Some x -> f x

(* {1 Printing} *)

let escape_into buf s =
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

(* The body of a JSON string literal for [s], without the quotes.
   Bytes >= 0x80 pass through unchanged, so UTF-8 stays UTF-8. *)
let escape s =
  let buf = Buffer.create (String.length s + 8) in
  escape_into buf s;
  Buffer.contents buf

(* Integral values print without a fraction so ids and counts stay
   integers; other finite values print with the fewest digits that read
   back to the same float.  JSON has no infinities or NaN: [null]. *)
let number_text f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else if not (Float.is_finite f) then "null"
  else
    let text p = Printf.sprintf "%.*g" p f in
    match List.find_opt (fun p -> float_of_string (text p) = f) [ 15; 16 ] with
    | Some p -> text p
    | None -> text 17

(* [Compact] prints one line with no spaces.  [Indented] puts each
   member of the top two levels on its own line, two spaces deeper per
   level, and prints anything nested deeper on one line. *)
type layout =
  | Compact
  | Indented

let render ?(layout = Compact) v =
  let buf = Buffer.create 256 in
  let add = Buffer.add_string buf in
  let rec value depth v =
    match v with
    | Null -> add "null"
    | Bool b -> add (string_of_bool b)
    | Number f -> add (number_text f)
    | Literal s -> add s
    | String s -> string s
    | Array [] -> add "[]"
    | Object [] -> add "{}"
    | Array l -> members depth '[' ']' (fun v -> value (depth + 1) v) l
    | Object l ->
      members depth '{' '}'
        (fun (k, v) ->
           string k;
           add (if layout = Compact then ":" else ": ");
           value (depth + 1) v)
        l
  and string s =
    Buffer.add_char buf '"';
    escape_into buf s;
    Buffer.add_char buf '"'
  and members : 'a. int -> char -> char -> ('a -> unit) -> 'a list -> unit =
    fun depth opening closing member l ->
    let break = layout = Indented && depth < 2 in
    let newline d = add "\n"; add (String.make (2 * d) ' ') in
    Buffer.add_char buf opening;
    List.iteri
      (fun i m ->
         if i > 0 then Buffer.add_char buf ',';
         if break then newline (depth + 1)
         else if i > 0 && layout = Indented then Buffer.add_char buf ' ';
         member m)
      l;
    if break then newline depth;
    Buffer.add_char buf closing
  in
  value 0 v;
  Buffer.contents buf

(* {1 Parsing} *)

exception Fail of string

(* Accepts the full JSON grammar.  [\uXXXX] escapes, surrogate pairs
   included, decode to UTF-8; a lone surrogate decodes to ['?']. *)
let parse (s : string) : (t, string) result =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | Some _ | None -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail (Printf.sprintf "expected %c, found %c" c c')
    | None -> fail (Printf.sprintf "expected %c, found end of input" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  (* [\uXXXX], [!pos] just past the [u]: a surrogate pair combines into
     one code point, a lone surrogate is none and decodes to ['?'] *)
  let unicode_escape b =
    let hex4 () =
      if !pos + 4 > n then fail "truncated \\u escape";
      let hex = String.sub s !pos 4 in
      let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
      if not (String.for_all is_hex hex) then fail "bad \\u escape";
      pos := !pos + 4;
      int_of_string ("0x" ^ hex)
    in
    let high = hex4 () in
    let code =
      if high land 0xFC00 = 0xD800 && !pos + 6 <= n && String.sub s !pos 2 = "\\u"
      then begin
        let save = !pos in
        pos := !pos + 2;
        let low = hex4 () in
        if low land 0xFC00 = 0xDC00 then 0x10000 + ((high - 0xD800) lsl 10) + (low - 0xDC00)
        else begin
          pos := save;
          high
        end
      end
      else high
    in
    if Uchar.is_valid code then Buffer.add_utf_8_uchar b (Uchar.of_int code)
    else Buffer.add_char b '?'
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        let add c = Buffer.add_char b c; advance () in
        (match peek () with
         | Some ('"' | '\\' | '/' as c) -> add c
         | Some 'n' -> add '\n'
         | Some 't' -> add '\t'
         | Some 'r' -> add '\r'
         | Some 'b' -> add '\b'
         | Some 'f' -> add '\012'
         | Some 'u' ->
           advance ();
           unicode_escape b
         | Some c -> fail (Printf.sprintf "bad escape \\%c" c)
         | None -> fail "truncated escape");
        go ()
      | Some c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let numchar = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> numchar c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      let member () =
        skip_ws ();
        let key = parse_string () in
        skip_ws ();
        expect ':';
        (key, parse_value ())
      in
      Object (sequence '}' "object" member)
    | Some '[' -> Array (sequence ']' "array" parse_value)
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Number (parse_number ())
  (* the comma-separated items of an object or array, its opening
     bracket at [!pos] *)
  and sequence : 'a. char -> string -> (unit -> 'a) -> 'a list =
    fun closing what item ->
    advance ();
    skip_ws ();
    if peek () = Some closing then begin
      advance ();
      []
    end
    else begin
      let rec items acc =
        let x = item () in
        skip_ws ();
        match peek () with
        | Some ',' ->
          advance ();
          items (x :: acc)
        | Some c when c = closing ->
          advance ();
          List.rev (x :: acc)
        | _ -> fail (Printf.sprintf "expected , or %c in %s" closing what)
      in
      items []
    end
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Fail msg -> Error msg

(* {1 Reading} *)

let member key = function
  | Object fields -> List.assoc_opt key fields
  | Null | Bool _ | Number _ | Literal _ | String _ | Array _ -> None

let to_list = function Array l -> Some l | _ -> None
let to_string = function String s -> Some s | _ -> None

let to_number = function
  | Number f -> Some f
  | Literal s -> float_of_string_opt s
  | _ -> None

(* A number that is a whole value a float represents exactly (at most
   2^53 in magnitude); [None] for fractions, infinities and anything
   larger. *)
let to_int v =
  match to_number v with
  | Some f when Float.is_integer f && Float.abs f <= 0x1p53 -> Some (int_of_float f)
  | Some _ | None -> None
