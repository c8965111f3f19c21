(** Standard channel constructors. *)

val bsc : float -> Dmc.t
(** Binary symmetric channel with crossover probability [p]. *)

val bec : float -> Dmc.t
(** Binary erasure channel with erasure probability [e]; output symbol 2
    is the erasure. *)
