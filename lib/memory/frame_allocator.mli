(** Machine-frame accounting.

    Tracks which domain owns each allocated page and enforces the machine's
    physical memory limit.  XenLoop channel FIFOs draw their pages from
    here, so a machine cannot hand out unbounded shared memory, and
    teardown must return every page (tests assert balance).

    Released pages are reused: {!release} scrubs the page and keeps its
    storage, and the next allocation hands that storage out again under
    a fresh {!Page.id} before carving new memory.  The caller releases a
    page only once no grant of it is left (XenLoop parks a [Still_mapped]
    page with a reaper until the peer unmaps it); otherwise a foreign
    mapping could reach the next owner's data.  {!release_all} never
    recycles.  Nothing here is charged to the cost model. *)

type t

type error = Out_of_frames

val create : total_frames:int -> t

val total_frames : t -> int
val free_frames : t -> int

val allocate : t -> owner:int -> (Page.t, error) result
(** A zeroed page charged to [owner], with an id no other allocation has
    had: released storage if any is kept, else newly carved storage. *)

val allocate_many : t -> owner:int -> count:int -> (Page.t array, error) result
(** All-or-nothing. *)

val release : t -> owner:int -> Page.t -> unit
(** Return the page and scrub it; its storage serves a later allocation.
    @raise Invalid_argument if the page is not currently owned by
    [owner] (double free or theft) — also for a stale handle whose
    storage has since been handed out again, since that allocation has
    its own id. *)

val owned_by : t -> int -> int
(** Frames currently charged to a domain. *)

val owners : t -> (int * int) list
(** Every (domid, frame count) with a nonzero balance, sorted by domid —
    the chaos invariant checker sums these against [free_frames] to prove
    conservation. *)

val release_all : t -> owner:int -> unit
(** Return every frame a domain owns (domain destruction).  The frames
    count as free again, but their storage is never reused: foreign
    mappings of the dead domain's grants may still exist. *)

val fresh_pages : t -> int
(** Pages this allocator has carved from new storage so far — the
    allocations its free list could not serve.  Host memory, not modelled
    memory: a teardown/bring-up cycle that reuses its predecessor's
    storage adds nothing here. *)

(** {2 Fault injection}

    The injector is consulted once per {!allocate} / {!allocate_many} call
    (not per page of a batch); returning [true] makes the call fail with
    [Out_of_frames] even though frames are free — a transient exhaustion
    the caller must handle like the real thing. *)

val set_fault_injector : t -> (owner:int -> count:int -> bool) option -> unit
val alloc_faults : t -> int
