(* The benchmark's own HTTP/1.1 client: one keep-alive connection,
   one request in flight, responses framed by Content-Length. It does
   not reuse Serve.Http, so that a change to the daemon's framing code
   cannot also change how the benchmark reads its answers. *)

type response = { status : int; body : string }

type parsed =
  | Complete of response * int  (* the response and the bytes it used *)
  | Incomplete
  | Invalid of string

(* Index of the first "\r\n\r\n" in [s], or -1. *)
let head_end s =
  let n = String.length s in
  let rec go i =
    if i + 4 > n then -1
    else if s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r' && s.[i + 3] = '\n'
    then i
    else go (i + 1)
  in
  go 0

(* Parse one response from the front of [s]. *)
let parse s =
  match head_end s with
  | -1 -> if String.length s > 16384 then Invalid "header block too large" else Incomplete
  | head_end -> (
    let lines = String.split_on_char '\n' (String.sub s 0 head_end) in
    let lines = List.map String.trim lines in
    match lines with
    | [] -> Invalid "empty response"
    | status_line :: headers -> (
      let status =
        match String.split_on_char ' ' status_line with
        | version :: code :: _ when String.length version >= 5
                                    && String.sub version 0 5 = "HTTP/" ->
          int_of_string_opt code
        | _ -> None
      in
      let length =
        List.find_map
          (fun h ->
            match String.index_opt h ':' with
            | Some i
              when String.lowercase_ascii (String.sub h 0 i) = "content-length" ->
              int_of_string_opt
                (String.trim (String.sub h (i + 1) (String.length h - i - 1)))
            | _ -> None)
          headers
      in
      match (status, length) with
      | None, _ -> Invalid ("bad status line: " ^ status_line)
      | _, None -> Invalid "no Content-Length"
      | Some _, Some len when len < 0 -> Invalid "negative Content-Length"
      | Some status, Some len ->
        let body_start = head_end + 4 in
        if String.length s < body_start + len then Incomplete
        else Complete ({ status; body = String.sub s body_start len }, body_start + len)))

(* A byte source plus the bytes read from it but not yet consumed. *)
type conn = {
  read : Bytes.t -> int -> int -> int;  (* like Unix.read; 0 at EOF *)
  write : string -> unit;
  pending : Buffer.t;
  chunk : Bytes.t;
}

let of_functions ~read ~write =
  { read; write; pending = Buffer.create 4096; chunk = Bytes.create 65536 }

(* Read until one full response is buffered, return it and keep what
   follows it. *)
let read_response c =
  let rec loop () =
    let s = Buffer.contents c.pending in
    match parse s with
    | Complete (r, used) ->
      Buffer.clear c.pending;
      Buffer.add_substring c.pending s used (String.length s - used);
      Ok r
    | Invalid e -> Error e
    | Incomplete -> (
      match c.read c.chunk 0 (Bytes.length c.chunk) with
      | 0 -> Error "connection closed mid-response"
      | n ->
        Buffer.add_subbytes c.pending c.chunk 0 n;
        loop ())
  in
  loop ()

let connect ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let write s =
    let n = String.length s in
    let pos = ref 0 in
    while !pos < n do
      pos := !pos + Unix.write_substring fd s !pos (n - !pos)
    done
  in
  (fd, of_functions ~read:(Unix.read fd) ~write)

let request c raw =
  match
    c.write raw;
    read_response c
  with
  | r -> r
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

let get_request path = Printf.sprintf "GET %s HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n" path

let post_request path body =
  Printf.sprintf
    "POST %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s"
    path (String.length body) body
