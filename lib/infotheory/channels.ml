let bsc p =
  if p < 0. || p > 1. then invalid_arg "Channels.bsc: p outside [0,1]";
  Dmc.create [| [| 1. -. p; p |]; [| p; 1. -. p |] |]

let bec e =
  if e < 0. || e > 1. then invalid_arg "Channels.bec: e outside [0,1]";
  Dmc.create [| [| 1. -. e; 0.; e |]; [| 0.; 1. -. e; e |] |]
