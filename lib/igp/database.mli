(** Link-state database: the freshest LSA per origin. *)

type t

val create : unit -> t

type verdict =
  | Installed
      (** newer than anything held — or same sequence with {e different}
          links, a topology change that must not be dropped: store and
          flood *)
  | Duplicate  (** identical copy already held: ignore *)
  | Stale  (** older than the held copy: ignore (and could re-flood ours) *)

val install : t -> Lsa.t -> verdict

val find : t -> Net.Ipv4.t -> Lsa.t option
val all : t -> Lsa.t list

val equal : t -> t -> bool
(** Same canonical {!snapshot} (origin sets and LSA contents agree). *)

val cardinal : t -> int
