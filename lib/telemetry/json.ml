type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* Non-finite floats have no JSON representation; render as null so the
   document always parses. "%.17g" round-trips every finite double. *)
let float_repr f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let rec emit buf ~indent ~level v =
  let nl pad =
    match indent with
    | None -> ()
    | Some step ->
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (step * pad) ' ')
  in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s -> escape_string buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        nl (level + 1);
        emit buf ~indent ~level:(level + 1) item)
      items;
    nl level;
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, item) ->
        if i > 0 then Buffer.add_char buf ',';
        nl (level + 1);
        escape_string buf k;
        Buffer.add_char buf ':';
        if indent <> None then Buffer.add_char buf ' ';
        emit buf ~indent ~level:(level + 1) item)
      fields;
    nl level;
    Buffer.add_char buf '}'

let render ~indent v =
  let buf = Buffer.create 1024 in
  emit buf ~indent ~level:0 v;
  Buffer.contents buf

let to_string v = render ~indent:None v
let to_string_pretty v = render ~indent:(Some 2) v ^ "\n"

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

exception Fail of string * int

let parse input =
  let n = String.length input in
  let pos = ref 0 in
  let fail msg = raise (Fail (msg, !pos)) in
  let peek () = if !pos < n then Some input.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match input.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let at c = !pos < n && input.[!pos] = c in
  let expect c =
    if at c then advance () else fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub input !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let add_utf8 buf code =
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else if code < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  (* the rest of a string whose unescaped prefix starts at [start] *)
  let parse_escaped start =
    let buf = Buffer.create 16 in
    Buffer.add_substring buf input start (!pos - start);
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      let c = input.[!pos] in
      advance ();
      if c = '"' then Buffer.contents buf
      else if c = '\\' then begin
        (if !pos >= n then fail "unterminated escape";
         let e = input.[!pos] in
         advance ();
         match e with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'n' -> Buffer.add_char buf '\n'
         | 'r' -> Buffer.add_char buf '\r'
         | 't' -> Buffer.add_char buf '\t'
         | 'u' ->
           (* exactly four hex digits ([int_of_string "0x…"] would also
              accept underscores and sign characters) *)
           let read_hex4 () =
             if !pos + 4 > n then fail "truncated \\u escape";
             let v = ref 0 in
             for _ = 1 to 4 do
               let d =
                 match input.[!pos] with
                 | '0' .. '9' as c -> Char.code c - Char.code '0'
                 | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
                 | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
                 | _ -> fail "bad \\u escape"
               in
               v := (!v lsl 4) lor d;
               advance ()
             done;
             !v
           in
           let code = read_hex4 () in
           let code =
             (* a high surrogate followed by [\uDC00-\uDFFF] combines
                into one supplementary code point (so "😀" is
                U+1F600); a lone surrogate stays as-is (WTF-8), matching
                the parser's otherwise lenient handling of raw bytes *)
             if
               code >= 0xD800 && code <= 0xDBFF
               && !pos + 1 < n
               && input.[!pos] = '\\'
               && input.[!pos + 1] = 'u'
             then begin
               let saved = !pos in
               pos := !pos + 2;
               let low = read_hex4 () in
               if low >= 0xDC00 && low <= 0xDFFF then
                 0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
               else begin
                 pos := saved;
                 code
               end
             end
             else code
           in
           add_utf8 buf code
         | _ -> fail "unknown escape");
        loop ()
      end
      else begin
        Buffer.add_char buf c;
        loop ()
      end
    in
    loop ()
  in
  (* a string without escapes is copied with one [String.sub] *)
  let parse_string () =
    expect '"';
    let start = !pos in
    while !pos < n && input.[!pos] <> '"' && input.[!pos] <> '\\' do
      advance ()
    done;
    if at '"' then begin
      advance ();
      String.sub input start (!pos - 1 - start)
    end
    else parse_escaped start
  in
  let parse_number () =
    let start = !pos in
    (* a JSON number starts with '-' or a digit; '+', '.', 'e' may only
       appear later (OCaml's [of_string] would accept "+1" and ".5") *)
    (match peek () with
    | Some ('-' | '0' .. '9') -> ()
    | _ -> fail "expected a value");
    let numchar c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && numchar input.[!pos] do
      advance ()
    done;
    if !pos = start then fail "expected a value";
    let s = String.sub input start (!pos - start) in
    let is_float =
      String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s
    in
    if is_float then
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> fail "bad number"
    else
      match int_of_string_opt s with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt s with
        | Some f -> Float f
        | None -> fail "bad number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some '[' ->
      advance ();
      skip_ws ();
      if at ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [ parse_value () ] in
        skip_ws ();
        while at ',' do
          advance ();
          items := parse_value () :: !items;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if at '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          (k, v)
        in
        let fields = ref [ field () ] in
        skip_ws ();
        while at ',' do
          advance ();
          fields := field () :: !fields;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !fields)
      end
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing input";
    v
  with
  | v -> Ok v
  | exception Fail (msg, at) ->
    Error (Printf.sprintf "%s at offset %d" msg at)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let equal (a : t) (b : t) = a = b
