(** Minimal HTTP/1.1 framing — just enough for the serving daemon and
    its load generator, hand-rolled over strings in the style of
    {!Telemetry.Json}: no external dependencies, a parser for exactly
    what the serializer emits plus what standard clients send.

    Supports request pipelining (parse consumes one request from the
    front of a connection buffer and reports the byte count), keep-alive
    negotiation, and bounded header/body sizes so a misbehaving client
    cannot balloon a connection buffer. *)

type request = {
  meth : string;  (** verb, uppercased by the client convention *)
  path : string;  (** request-target before ['?'] *)
  params : (string * string) list;
      (** decoded query parameters, in order of appearance *)
  version : string;  (** ["HTTP/1.1"] *)
  headers : (string * string) list;  (** names lowercased *)
  body : string;
}

type parse_result =
  | Complete of request * int
      (** a full request and the bytes it consumed from the buffer *)
  | Incomplete  (** valid prefix; read more bytes *)
  | Invalid of string  (** protocol violation; close the connection *)

val parse : ?max_head:int -> ?max_body:int -> string -> parse_result
(** Parse one request from the front of [s]. Defaults: 16 KiB header
    block, 64 KiB body. *)

val header : request -> string -> string option
(** Case-insensitive header lookup. *)

val wants_close : request -> bool
(** [Connection: close], or HTTP/1.0 without [Connection: keep-alive]. *)

val response :
  ?status:int ->
  ?content_type:string ->
  ?close:bool ->
  string ->
  string
(** Serialize a full response (status line, [Content-Length], optional
    [Connection: close], blank line, body). Default status 200,
    content type [application/json]. *)

val status_reason : int -> string

val url_decode : string -> string
(** Percent- and [+]-decoding for query parameter names and values. *)

val assoc : string -> (string * 'a) list -> 'a option
(** [assoc name l]: the value of the first pair in [l] named [name],
    compared with [String.equal] (no polymorphic compare). *)
