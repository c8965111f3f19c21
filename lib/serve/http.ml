type request = {
  meth : string;
  path : string;
  params : (string * string) list;
  version : string;
  headers : (string * string) list;
  body : string;
}

type parse_result = Complete of request * int | Incomplete | Invalid of string

let status_reason = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 413 -> "Content Too Large"
  | 500 -> "Internal Server Error"
  | _ -> "Unknown"

let hex_val c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

(* s.[i .. j-1] has nothing to decode *)
let rec plain s i j =
  i = j || (s.[i] <> '+' && s.[i] <> '%' && plain s (i + 1) j)

(* [decode s i j]: the url-decoding of s.[i .. j-1] *)
let decode s i j =
  if plain s i j then String.sub s i (j - i)
  else begin
    let b = Buffer.create (j - i) in
    let k = ref i in
    while !k < j do
      (match s.[!k] with
      | '+' -> Buffer.add_char b ' '
      | '%' when !k + 2 < j -> (
        match (hex_val s.[!k + 1], hex_val s.[!k + 2]) with
        | Some hi, Some lo ->
          Buffer.add_char b (Char.chr ((hi * 16) + lo));
          k := !k + 2
        | _ -> Buffer.add_char b '%')
      | c -> Buffer.add_char b c);
      incr k
    done;
    Buffer.contents b
  end

let url_decode s = decode s 0 (String.length s)

(* RFC 9110 defines Content-Length as 1*DIGIT: no sign, base prefix or
   underscore, all of which [int_of_string] would accept. At most 18
   digits, so the value always fits in an OCaml int. *)
let decimal_length v =
  let n = String.length v in
  if n = 0 || n > 18 || not (String.for_all (fun c -> c >= '0' && c <= '9') v)
  then None
  else Some (int_of_string v)

(* The parser works on index ranges of the connection buffer and copies
   out only the fields it returns. *)

(* the first index of [c] in s.[i .. j-1], or [j] (for i <= j) *)
let rec index_in s c i j =
  if i >= j || s.[i] = c then i else index_in s c (i + 1) j

(* [String.trim]'s whitespace *)
let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let rec trim_left s i j = if i < j && is_space s.[i] then trim_left s (i + 1) j else i
let rec trim_right s i j = if j > i && is_space s.[j - 1] then trim_right s i (j - 1) else j

(* the query string s.[i .. j-1]: '&'-separated, empty pieces skipped *)
let parse_params s i j =
  let rec go i acc =
    if i >= j then List.rev acc
    else
      let e = index_in s '&' i j in
      if e = i then go (e + 1) acc
      else
        let eq = index_in s '=' i e in
        let kv =
          if eq = e then (decode s i e, "") else (decode s i eq, decode s (eq + 1) e)
        in
        go (e + 1) (kv :: acc)
  in
  go i []

(* the header lines of s.[i .. j-1], '\n'-separated; lines without a
   ':' (the empty ones among them) are skipped *)
let parse_headers s i j =
  let rec go i acc =
    if i >= j then List.rev acc
    else
      let e = index_in s '\n' i j in
      let colon = index_in s ':' i e in
      let acc =
        if colon = e then acc
        else
          let a = trim_left s i colon in
          let b = trim_right s a colon in
          let name = String.lowercase_ascii (String.sub s a (b - a)) in
          let a = trim_left s (colon + 1) e in
          let b = trim_right s a e in
          (name, String.sub s a (b - a)) :: acc
      in
      go (e + 1) acc
  in
  go i []

let rec assoc name = function
  | [] -> None
  | (k, v) :: rest -> if String.equal k name then Some v else assoc name rest

(* index of the first "\r\n\r\n" in s, searched in O(n) *)
let find_head_end s =
  let n = String.length s in
  let rec go i =
    if i + 3 >= n then None
    else if
      s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n'
    then Some i
    else go (i + 1)
  in
  go 0

let parse ?(max_head = 16 * 1024) ?(max_body = 64 * 1024) s =
  match find_head_end s with
  | None ->
    if String.length s > max_head then Invalid "header block too large"
    else Incomplete
  | Some head_end -> (
    if head_end > max_head then Invalid "header block too large"
    else
      let line_end = index_in s '\n' 0 head_end in
      let a = trim_left s 0 line_end in
      let b = trim_right s a line_end in
      (* exactly two spaces split the request line into three fields; a
         third would fall inside the version, which then fails to match *)
      let sp1 = index_in s ' ' a b in
      let sp2 = if sp1 = b then b else index_in s ' ' (sp1 + 1) b in
      let version = if sp2 = b then "" else String.sub s (sp2 + 1) (b - sp2 - 1) in
      if not (String.equal version "HTTP/1.1" || String.equal version "HTTP/1.0")
      then Invalid ("bad request line: " ^ String.sub s a (b - a))
      else
        let meth = String.sub s a (sp1 - a) in
        let q = index_in s '?' (sp1 + 1) sp2 in
        let path = String.sub s (sp1 + 1) (q - sp1 - 1) in
        let params = if q = sp2 then [] else parse_params s (q + 1) sp2 in
        let headers =
          if line_end = head_end then []
          else parse_headers s (line_end + 1) head_end
        in
        let content_length =
          match assoc "content-length" headers with
          | None -> Ok 0
          | Some v -> (
            match decimal_length v with
            | Some n -> Ok n
            | None -> Error ("bad content-length: " ^ v))
        in
        match content_length with
        | Error e -> Invalid e
        | Ok len ->
          if len > max_body then Invalid "body too large"
          else
            let body_start = head_end + 4 in
            if String.length s < body_start + len then Incomplete
            else
              Complete
                ( { meth; path; params; version; headers;
                    body = String.sub s body_start len },
                  body_start + len ))

let header req name = assoc (String.lowercase_ascii name) req.headers

let wants_close req =
  match Option.map String.lowercase_ascii (header req "connection") with
  | Some "close" -> true
  | Some "keep-alive" -> false
  | _ -> req.version = "HTTP/1.0"

(* [string_of_int] for n >= 0, without the printf machinery behind it,
   which costs more than the rest of framing a response *)
let decimal n =
  let rec width n = if n < 10 then 1 else 1 + width (n / 10) in
  let b = Bytes.create (width n) in
  let rec fill i n =
    Bytes.set b i (Char.chr (48 + (n mod 10)));
    if n >= 10 then fill (i - 1) (n / 10)
  in
  fill (Bytes.length b - 1) n;
  Bytes.unsafe_to_string b

(* [String.concat] sizes one buffer from its parts and blits each once *)
let response ?(status = 200) ?(content_type = "application/json") ?(close = false)
    body =
  String.concat ""
    [ "HTTP/1.1 "; decimal status; " "; status_reason status;
      "\r\nContent-Type: "; content_type; "\r\nContent-Length: ";
      decimal (String.length body); "\r\n";
      (if close then "Connection: close\r\n" else ""); "\r\n"; body ]
