(* GC and allocation accounting. All numbers come from the runtime's
   own monotone counters ([Gc.quick_stat] and [Gc.minor_words] read
   this domain's counters without walking the heap), so sampling is
   cheap enough for per-span use — but it is still gated behind
   [enabled] so the default cost of the layer is one atomic load at
   every probe site.

   Allocated bytes are never taken from [Gc.allocated_bytes]: on OCaml
   5 its minor term ([Gc.counters]) only advances when a minor
   collection empties the minor heap. A scope without a collection
   then sees none of its small allocations, and a scope that a
   collection lands in is charged with everything the heap held (up to
   ~1.8 MB of other code's allocation), so the count depended on where
   collections fell. The live [Gc.minor_words] plus the major words
   net of promotions is exact at every instant. *)

let word_bytes = float_of_int (Sys.word_size / 8)

(* Words allocated directly on the major heap so far: promotions add
   to both terms at the same collection, so they cancel. *)
let major_net_words () =
  let _, promoted, major = Gc.counters () in
  major -. promoted

type sample = {
  s_minor_words : float;
  s_major_words : float;
  s_promoted_words : float;
  s_minor_collections : int;
  s_major_collections : int;
  s_alloc_bytes : float;
}

type delta = {
  minor_words : float;
  major_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
  alloc_bytes : float;
}

let tracking = Atomic.make false

let enabled () = Atomic.get tracking
let set_enabled b = Atomic.set tracking b

let with_enabled b f =
  let old = Atomic.get tracking in
  Atomic.set tracking b;
  Fun.protect ~finally:(fun () -> Atomic.set tracking old) f

let sample () =
  let q = Gc.quick_stat () in
  (* [quick_stat]'s minor_words only advances at collection boundaries
     on OCaml 5; [Gc.minor_words] reads the live allocation pointer, so
     small allocations are visible without waiting for a minor GC. *)
  { s_minor_words = Gc.minor_words ();
    s_major_words = q.Gc.major_words;
    s_promoted_words = q.Gc.promoted_words;
    s_minor_collections = q.Gc.minor_collections;
    s_major_collections = q.Gc.major_collections;
    (* [quick_stat]'s major words lag too (they fold in at a major
       slice); [major_net_words] reads the live ones *)
    s_alloc_bytes = (Gc.minor_words () +. major_net_words ()) *. word_bytes;
  }

let delta_since s0 =
  let s1 = sample () in
  (* the runtime counters are monotone, but clamp anyway so a delta can
     never go negative (e.g. across a [Gc.counters] reset) *)
  let dfloat a b = Float.max 0. (b -. a) in
  { minor_words = dfloat s0.s_minor_words s1.s_minor_words;
    major_words = dfloat s0.s_major_words s1.s_major_words;
    promoted_words = dfloat s0.s_promoted_words s1.s_promoted_words;
    minor_collections = max 0 (s1.s_minor_collections - s0.s_minor_collections);
    major_collections = max 0 (s1.s_major_collections - s0.s_major_collections);
    alloc_bytes = dfloat s0.s_alloc_bytes s1.s_alloc_bytes;
  }

let measure f =
  let s0 = sample () in
  let r = f () in
  (r, delta_since s0)

(* ------------------------------------------------------------------ *)
(* Registry aggregation                                                *)
(* ------------------------------------------------------------------ *)

(* Registered at module initialisation so the [gc.*] keys appear in
   every metrics dump (value 0 until something is accounted). *)
let minor_words_c = Metrics.counter "gc.minor_words"
let major_words_c = Metrics.counter "gc.major_words"
let promoted_words_c = Metrics.counter "gc.promoted_words"
let minor_collections_c = Metrics.counter "gc.minor_collections"
let major_collections_c = Metrics.counter "gc.major_collections"
let alloc_bytes_c = Metrics.counter "gc.alloc_bytes"

let add_to_registry d =
  Metrics.add minor_words_c (int_of_float d.minor_words);
  Metrics.add major_words_c (int_of_float d.major_words);
  Metrics.add promoted_words_c (int_of_float d.promoted_words);
  Metrics.add minor_collections_c d.minor_collections;
  Metrics.add major_collections_c d.major_collections;
  Metrics.add alloc_bytes_c (int_of_float d.alloc_bytes)

let account f =
  let s0 = sample () in
  Fun.protect ~finally:(fun () -> add_to_registry (delta_since s0)) f

let charge_alloc counter f =
  (* the minor counter is read last on entry and first on exit, so the
     probes' own boxes fall outside the window; [minor0] stays an
     unboxed float *)
  let major0 = major_net_words () in
  let minor0 = Gc.minor_words () in
  let r = f () in
  let minor = Gc.minor_words () -. minor0 in
  Metrics.add counter
    (int_of_float ((minor +. major_net_words () -. major0) *. word_bytes));
  r

(* ------------------------------------------------------------------ *)
(* Span argument rendering                                             *)
(* ------------------------------------------------------------------ *)

let span_args d =
  [ ("gc.minor_words", Json.Float d.minor_words);
    ("gc.major_words", Json.Float d.major_words);
    ("gc.minor_collections", Json.Int d.minor_collections);
    ("gc.major_collections", Json.Int d.major_collections);
    ("gc.alloc_bytes", Json.Float d.alloc_bytes);
  ]
