(** Machine pages.

    A page is 4 KiB of real bytes: the XenLoop FIFOs and the netfront rings
    store actual packet payloads in pages, so tests can verify end-to-end
    data integrity, not just event ordering.

    The backing store is a [Bigarray] outside the OCaml heap: the GC never
    scans or copies page contents, and the accessors below are plain
    loads/stores after a single bounds check.  Multi-byte accessors are
    little-endian and have no alignment requirement. *)

type t

val size : int
(** 4096. *)

val create : unit -> t
(** A zeroed page on newly carved storage. *)

val renew : t -> t
(** A new page on [t]'s storage, with a fresh {!id}; the contents are
    whatever [t] holds.  The frame allocator's reuse path: the old handle
    still aliases the storage, so only a page nobody can reach through
    [t] any more (released, its grants ended) may be renewed. *)

val id : t -> int
(** Identity of this allocation, usable as a pseudo frame number.  Unique
    among live pages: every {!create} and {!renew} draws a new one, so a
    renewed page never shares the id its storage had before, and a stale
    handle to the old allocation cannot pass for the new one. *)

val write : t -> off:int -> src:Bytes.t -> src_off:int -> len:int -> unit
(** @raise Invalid_argument on out-of-bounds access (either side). *)

val read : t -> off:int -> dst:Bytes.t -> dst_off:int -> len:int -> unit

val get_u8 : t -> int -> int
val set_u8 : t -> int -> int -> unit

val get_u16 : t -> int -> int
val set_u16 : t -> int -> int -> unit

val get_u32 : t -> int -> int
(** Unboxed: the value is a plain non-negative [int] (OCaml ints are 63-bit,
    so a u32 always fits), which keeps ring-descriptor field reads off the
    minor heap — the old [int32] interface boxed every access. *)

val set_u32 : t -> int -> int -> unit
(** Stores the low 32 bits of the value. *)

val get_u64 : t -> int -> int64
val set_u64 : t -> int -> int64 -> unit

val zero : t -> unit
(** Clear the page (Xen zeroes pages exchanged between domains to prevent
    data leakage). *)

val is_zeroed : t -> bool

