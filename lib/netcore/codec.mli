(** Binary serialization of packets.

    Shared-memory data paths (the XenLoop FIFO, the netfront/netback rings)
    transport real bytes through real pages, so packets must round-trip
    through an on-the-wire format.  The format follows the actual protocols
    (Ethernet II, IPv4, ICMP echo, UDP, TCP) closely enough that headers
    and checksums are genuine; transport checksums are computed without the
    IPv4 pseudo-header. *)

type error =
  | Truncated
  | Bad_ethertype of int
  | Bad_protocol of int
  | Bad_checksum of string  (** which layer failed *)
  | Malformed of string

val pp_error : Format.formatter -> error -> unit

type sink = Bytes.t -> src_off:int -> dst_off:int -> len:int -> unit
(** Where a frame's bytes go: [sink src ~src_off ~dst_off ~len] stores
    [len] bytes of [src] from [src_off] at offset [dst_off] of the frame.
    A serialized buffer, a FIFO ring entry, or the pool slots of a
    descriptor. *)

val write : csum:bool -> Packet.t -> sink -> unit
(** The one serializer: hand [sink] the frame in two parts, the header
    prefix (at most {!header_room} bytes, built in a scratch buffer) at
    offset 0, then the payload straight from the packet's own bytes.  The
    transport checksum is computed from the two parts.  [~csum:false]
    leaves the transport checksum field zero (checksum elision on the
    trusted xenloop channel, DESIGN.md §15).  Such bytes parse only with
    [~verify_transport:false]; writing the packet again with
    [~csum:true] — as any netfront/physnet fallback does — reproduces the
    always-compute baseline bit for bit.  IPv4 header checksums are
    always computed.  Allocates nothing; the sink must not call [write]. *)

val serialize : ?csum:bool -> Packet.t -> Bytes.t
(** {!write} into one exact-size buffer ([csum] defaults to [true]). *)

val parse :
  ?verify_transport:bool -> ?len:int -> Bytes.t -> (Packet.t, error) result
(** Parse the frame in the first [len] bytes of the buffer (default: all
    of it).  [~verify_transport:false] skips the transport-checksum check
    (GRO on a channel whose descriptor carries the [csum_ok] flag); IPv4
    header checksums are still verified.
    @raise Invalid_argument if [len] is outside the buffer. *)

val header_room : int
(** Bytes of header in front of the payload in the longest header stack
    (Ethernet + IPv4 + TCP, 54 bytes). *)

val parse_scattered :
  len:int ->
  prefix:Bytes.t ->
  fill:(int -> Bytes.t -> unit) ->
  (Packet.t, error) result
(** [parse ~verify_transport:false] of a [len]-byte frame that is not in
    one buffer: [prefix] holds its first [min len header_room] bytes,
    which carry every header, and [fill off dst] must fill [dst] with the
    frame's bytes from offset [off] on.  [fill] is called at most once,
    for the payload (or fragment blob, or control body), so the frame is
    never assembled: each payload byte is copied once, straight into the
    packet.  Same result and same errors as [parse ~verify_transport:false]
    on the assembled frame.
    @raise Invalid_argument if [prefix] has the wrong length. *)

(** {1 Transport blobs}

    IP fragmentation slices the serialized transport-header+payload blob;
    these are the helpers the fragmenter and reassembler use. *)

val serialize_transport : ?csum:bool -> Transport.t -> payload:Bytes.t -> Bytes.t

(** Length of [serialize_transport transport ~payload] without building
    it — the fragmenter's fits-in-one-MTU test needs only the size. *)
val transport_length : Transport.t -> payload:Bytes.t -> int
val parse_transport :
  ?verify:bool -> Ipv4.protocol -> Bytes.t -> (Transport.t * Bytes.t, error) result
