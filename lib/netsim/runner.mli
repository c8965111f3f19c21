(** Block-level execution of the four protocols on the discrete-event
    engine, moving real bits.

    Each block occupies [block_symbols] channel uses on the virtual
    clock and is split into the protocol's phases according to the
    schedule. Within a block the simulator:

    + draws the block's channel gains from the fading process,
    + generates random message payloads for both terminals
      ([floor (rate * block_symbols)] bits each, CRC-protected),
    + plays the phases as engine events: terminals transmit, the relay
      decodes (subject to the outage PHY), XORs the two payloads and
      broadcasts, and each terminal recovers the opposite message by
      XOR-ing its own message back out,
    + verifies the recovered bits against the originals, and accounts
      throughput / outages / (never-expected) undetected bit errors.

    Decode success follows the inner-bound expressions of Theorems 2, 3
    and 5 evaluated at the block's realised gains — the quasi-static
    abstraction under which those rates are achievable. When the relay
    fails to decode, terminals fall back to direct-link-only decoding
    (TDBC/HBC side information). *)

type mode =
  | Adaptive of { backoff : float }
    (** Full CSI: each block uses the LP-optimal schedule for its
        realised gains, with rates scaled by [1 - backoff]
        ([0 <= backoff < 1]). With any positive backoff the delivery is
        outage-free by construction. *)
  | Fixed of { deltas : float array; ra : float; rb : float }
    (** A schedule fixed across blocks (e.g. computed from mean gains):
        under fading this incurs outages. *)

type config = {
  protocol : Bidir.Protocol.t;
  power : float;                  (** linear transmit power P *)
  fading : Channel.Fading.t;
  mode : mode;
  block_symbols : int;            (** channel uses per block, >= 100 *)
  blocks : int;
  seed : int;                     (** payload / corruption randomness *)
}

val validate : config -> unit
(** Raises [Invalid_argument] on malformed configurations (shared with
    the detailed simulator). *)

type plan = {
  deltas : float array;
  ra : float;
  rb : float;
  optimum : float;
      (** the LP-optimal instantaneous sum rate at the block's gains *)
}
(** A block's schedule and its analytic benchmark. *)

val plan : config -> Channel.Gains.t -> plan
(** The schedule the configuration uses for a block with the given
    realised gains (the LP optimum for adaptive mode, the fixed schedule
    otherwise), and the optimum itself, from one
    {!Bidir.Optimize.sum_rate} call. Exposed for the detailed
    simulator. *)

type block_outcome = {
  relay_ok : bool;
      (** the relay decoded both messages, so the terminals decode
          through its XOR broadcast; always false for DT (no relay) and
          NAIVE (per-hop forwarding, no coding) *)
  b_gets_a : bool;   (** terminal b decoded a's message *)
  a_gets_b : bool;
  failed_phase : int option;  (** earliest phase whose constraint broke *)
}

val decode_outcome :
  Bidir.Protocol.t -> power:float -> gains:Channel.Gains.t ->
  deltas:float array -> ra:float -> rb:float -> block_outcome
(** The per-block decode logic (exposed for the ARQ layer and tests):
    evaluates the inner-bound expressions of Theorems 2, 3 and 5 at the
    given gains for normalised rates [ra], [rb] (bits per block use). *)

type result = {
  metrics : Metrics.t;
  analytic_mean_sum_rate : float;
    (** mean over blocks of the LP-optimal instantaneous sum rate — the
        full-CSI benchmark the measured throughput should approach *)
  elapsed_symbols : float;        (** final virtual-clock reading *)
}

val run : config -> result
(** Raises [Invalid_argument] on malformed configurations (bad backoff,
    wrong schedule arity, too-small blocks). *)

val default_config :
  ?blocks:int -> ?block_symbols:int -> ?seed:int ->
  protocol:Bidir.Protocol.t -> power_db:float -> gains:Channel.Gains.t ->
  unit -> config
(** Static channel, adaptive schedule with no backoff — the setup whose
    measured throughput must equal the analytic optimal sum rate. *)
