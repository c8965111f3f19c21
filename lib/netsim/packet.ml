type node_id = A | B | R

let node_name = function A -> "a" | B -> "b" | R -> "r"

type t = {
  src : node_id;
  dst : node_id option;
  seq : int;
  payload : Coding.Bitvec.t;
  checksum_ok : bool;
}

let fresh ~src ?dst ~seq payload =
  { src; dst; seq; payload = Coding.Crc.append_crc16 payload; checksum_ok = true }

let payload_bits t = max 0 (Coding.Bitvec.length t.payload - 16)

let flip_bits rng bits =
  let len = Coding.Bitvec.length bits in
  if len > 0 then begin
    let flips = 1 + Prob.Rng.int rng (max 1 (len / 8)) in
    for _ = 1 to flips do
      let i = Prob.Rng.int rng len in
      Coding.Bitvec.set bits i (not (Coding.Bitvec.get bits i))
    done
  end

let corrupt rng t =
  let corrupted = Coding.Bitvec.copy t.payload in
  flip_bits rng corrupted;
  { t with payload = corrupted; checksum_ok = false }

let verify t = Coding.Crc.check_crc16 t.payload

let xor_payloads p1 p2 ~src ~seq =
  match Coding.Xor_relay.combine_framed p1.payload p2.payload with
  | Some payload -> { src; dst = None; seq; payload; checksum_ok = true }
  | None -> invalid_arg "Packet.xor_payloads: cannot combine corrupted packets"

let readdress p ~src ~dst =
  match verify p with
  | Some payload -> fresh ~src ~dst ~seq:p.seq payload
  | None -> invalid_arg "Packet.readdress: corrupted packet"
