(** The [bidir serve] daemon: a single-threaded [select] loop over
    keep-alive connections, hand-rolled on [Unix] with no external
    dependencies. Parallelism lives below, not in the socket plane:
    each loop round collects every request its ready connections have
    pipelined, answers the control endpoints inline, and hands the
    query endpoints to {!Service.respond_batch} — cache hits are free,
    the unique misses fan across {!Engine.Pool} onto warm per-domain
    LP solver slots.

    Endpoints:
    - [GET /v1/sumrate], [GET /v1/select], [GET /v1/region] — query
      parameters as in {!Query.of_params}; also accept POST with the
      same parameters in a JSON body.
    - [POST /v1/query] — JSON body with an explicit ["kind"] field.
    - [GET /healthz] — liveness + request count.
    - [GET /metrics] — the full {!Telemetry.Metrics} registry as JSON.
    - [POST /shutdown] — answer, flush, exit the loop (when enabled).

    Observability: [serve.connections] and [serve.http_errors]
    counters, per-request wall time in [serve.request_seconds] (from
    the read that completed the request to its response written), and —
    when [--live] streaming is on — progress records under the name
    ["serve"] so [bidir top] can watch a running daemon. *)

type config = {
  host : string;  (** bind address, e.g. "127.0.0.1" *)
  port : int;  (** 0 picks an ephemeral port *)
  port_file : string option;
      (** write the bound port as a single decimal line (how scripts
          find an ephemeral port) *)
  batch_max : int;  (** admit at most this many queries per batch *)
  max_requests : int option;
      (** stop after answering this many query requests *)
  allow_shutdown : bool;  (** serve [POST /shutdown] *)
  quiet : bool;  (** suppress the stderr banner *)
}

val default_config : config
(** 127.0.0.1:8090, batch 64, no request cap, shutdown enabled. *)

val run : config -> int
(** Bind, serve until [/shutdown] or the request cap, tear down every
    connection; returns the number of query requests answered. *)
