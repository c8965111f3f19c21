(** Simulator packets: message payloads with CRC protection. *)

type node_id = A | B | R

val node_name : node_id -> string

type t = {
  src : node_id;
  dst : node_id option; (** [None] = broadcast; [Some n] = addressed *)
  seq : int;            (** per-source sequence number *)
  payload : Coding.Bitvec.t;
  checksum_ok : bool;   (** false once the packet has been corrupted *)
}

val fresh : src:node_id -> ?dst:node_id -> seq:int -> Coding.Bitvec.t -> t
(** [fresh ~src ~seq payload] is a clean packet (payload wrapped with a
    CRC-16); broadcast unless [dst] is given. *)

val payload_bits : t -> int

val flip_bits : Prob.Rng.t -> Coding.Bitvec.t -> unit
(** Flip a handful of random bits of a framed payload in place: the
    damage {!corrupt} does to its copy, drawing the same numbers. *)

val corrupt : Prob.Rng.t -> t -> t
(** Flip a handful of random payload bits (what a receiver in outage
    would hand up) — the CRC then fails with overwhelming probability,
    which {!verify} reports. *)

val verify : t -> Coding.Bitvec.t option
(** CRC check; the payload when clean. *)

val xor_payloads : t -> t -> src:node_id -> seq:int -> t
(** The relay's network-coded combine of two packets into one
    (broadcast). *)

val readdress : t -> src:node_id -> dst:node_id -> t
(** Re-send a (clean) packet's payload from a new source to an explicit
    destination — plain store-and-forward routing. Raises
    [Invalid_argument] on a corrupted packet. *)
