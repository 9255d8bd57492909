type error =
  | Truncated
  | Bad_ethertype of int
  | Bad_protocol of int
  | Bad_checksum of string
  | Malformed of string

let pp_error fmt = function
  | Truncated -> Format.pp_print_string fmt "truncated frame"
  | Bad_ethertype e -> Format.fprintf fmt "unknown ethertype 0x%04x" e
  | Bad_protocol p -> Format.fprintf fmt "unknown IP protocol %d" p
  | Bad_checksum layer -> Format.fprintf fmt "bad %s checksum" layer
  | Malformed what -> Format.fprintf fmt "malformed %s" what

(* --- Writers ---

   Serialization targets an exact-size [Bytes.t] through a mutable write
   cursor.  The previous [Buffer]-based writers re-allocated on every
   doubling: for an MTU-sized frame the final backing block crosses the
   minor-heap large-object threshold, so every serialized packet paid a
   direct major-heap allocation plus the doubling garbage.  Sizes are
   known up front for every layer, so nothing here ever resizes. *)

type wcursor = { wdata : Bytes.t; mutable wpos : int }

let w8 w v =
  Bytes.unsafe_set w.wdata w.wpos (Char.unsafe_chr (v land 0xFF));
  w.wpos <- w.wpos + 1

let w16 w v =
  w8 w (v lsr 8);
  w8 w v

let w32 w (v : int32) =
  w16 w (Int32.to_int (Int32.shift_right_logical v 16));
  w16 w (Int32.to_int (Int32.logand v 0xFFFFl))

let wmac w mac =
  let v = Mac.to_int64 mac in
  for i = 5 downto 0 do
    w8 w (Int64.to_int (Int64.shift_right_logical v (8 * i)))
  done

let wip w ip = w32 w (Ip.to_int32 ip)

let wbytes w b =
  let len = Bytes.length b in
  Bytes.blit b 0 w.wdata w.wpos len;
  w.wpos <- w.wpos + len

let transport_header_length = function
  | Transport.Icmp _ -> 8
  | Transport.Udp _ -> 8
  | Transport.Tcp _ -> 20

let transport_length transport ~payload =
  transport_header_length transport + Bytes.length payload

(* --- Readers ---

   A read cursor over one frame of [limit] bytes.  Headers are read from
   [data], which holds either the whole frame or a prefix covering every
   header byte ({!header_room}); the one copy a parse makes, of the
   payload (or fragment blob, or control body), comes out of [data] in
   place or, for a frame still scattered across pool slots, through
   [scatter src_off dst], which fills [dst] from frame offset [src_off].
   So a parse copies each payload byte once and never copies a header. *)

exception Short

type cursor = {
  data : Bytes.t;
  limit : int;
  scatter : (int -> Bytes.t -> unit) option;
  mutable pos : int;
}

let r8 c =
  if c.pos >= c.limit || c.pos >= Bytes.length c.data then raise Short;
  let v = Char.code (Bytes.get c.data c.pos) in
  c.pos <- c.pos + 1;
  v

let r16 c =
  let hi = r8 c in
  (hi lsl 8) lor r8 c

let r32 c =
  let hi = r16 c in
  Int32.logor (Int32.shift_left (Int32.of_int hi) 16) (Int32.of_int (r16 c))

let rmac c =
  let v = ref 0L in
  for _ = 1 to 6 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (r8 c))
  done;
  Mac.of_int64 !v

let rip c = Ip.of_int32 (r32 c)

let rbytes c len =
  if len < 0 || c.pos + len > c.limit then raise Short;
  let b =
    match c.scatter with
    | None -> Bytes.sub c.data c.pos len
    | Some fill ->
        let b = Bytes.create len in
        fill c.pos b;
        b
  in
  c.pos <- c.pos + len;
  b

let remaining c = c.limit - c.pos

(* --- Transport --- *)

let tcp_flag_bits (f : Transport.tcp_flags) =
  (if f.fin then 0x01 else 0)
  lor (if f.syn then 0x02 else 0)
  lor (if f.rst then 0x04 else 0)
  lor (if f.psh then 0x08 else 0)
  lor if f.ack then 0x10 else 0

let tcp_flags_of_bits bits : Transport.tcp_flags =
  {
    fin = bits land 0x01 <> 0;
    syn = bits land 0x02 <> 0;
    rst = bits land 0x04 <> 0;
    psh = bits land 0x08 <> 0;
    ack = bits land 0x10 <> 0;
  }

(* Write the transport header into [w] and, unless [~csum:false], patch
   in the checksum over that header and [payload], which the caller puts
   right behind it: the sum is taken over the two parts, so the payload
   need not sit in the same buffer.  Every transport header has an even
   length, so the parts' sums add like the sum of the whole.  The elided
   field stays zero — the checksum-elision contract on the trusted
   xenloop channel (DESIGN.md §15): such bytes are only valid against
   [parse ~verify_transport:false], and any path that re-enters an
   untrusted transport (netfront, physnet) re-serializes, which
   recomputes. *)
let write_transport_header ~csum w transport ~payload =
  let start = w.wpos in
  let cksum_off =
    match transport with
    | Transport.Icmp i ->
        w8 w (match i.echo_kind with `Request -> 8 | `Reply -> 0);
        w8 w 0;
        w16 w 0;
        w16 w i.icmp_ident;
        w16 w i.icmp_seq;
        2
    | Transport.Udp u ->
        w16 w u.udp_src_port;
        w16 w u.udp_dst_port;
        w16 w (8 + Bytes.length payload);
        w16 w 0;
        6
    | Transport.Tcp t ->
        w16 w t.tcp_src_port;
        w16 w t.tcp_dst_port;
        w32 w t.seq;
        w32 w t.ack_seq;
        w16 w (0x5000 lor tcp_flag_bits t.flags);
        w16 w t.window;
        w16 w 0;
        w16 w 0;
        16
  in
  if csum then begin
    let sum =
      Checksum.ones_complement_sum w.wdata ~off:start ~len:(w.wpos - start)
      + Checksum.ones_complement_sum payload ~off:0 ~len:(Bytes.length payload)
    in
    let sum = (sum land 0xFFFF) + (sum lsr 16) in
    let cksum = lnot ((sum land 0xFFFF) + (sum lsr 16)) land 0xFFFF in
    Bytes.set_uint8 w.wdata (start + cksum_off) (cksum lsr 8);
    Bytes.set_uint8 w.wdata (start + cksum_off + 1) (cksum land 0xFF)
  end

let serialize_transport ?(csum = true) transport ~payload =
  let w =
    { wdata = Bytes.create (transport_length transport ~payload); wpos = 0 }
  in
  write_transport_header ~csum w transport ~payload;
  wbytes w payload;
  w.wdata

(* Parse the transport header at the cursor, in place; the transport
   segment runs to the end of the frame.  Only the payload is copied. *)
let parse_transport_at ~verify protocol c =
  let start = c.pos in
  let seg_len = remaining c in
  if verify && not (Checksum.verify c.data ~off:start ~len:seg_len) then
    Error (Bad_checksum "transport")
  else
    match
      match protocol with
      | Ipv4.Icmp ->
          let ty = r8 c in
          let _code = r8 c in
          let _cksum = r16 c in
          let icmp_ident = r16 c in
          let icmp_seq = r16 c in
          let echo_kind =
            match ty with
            | 8 -> `Request
            | 0 -> `Reply
            | _ -> raise Exit
          in
          Transport.Icmp { echo_kind; icmp_ident; icmp_seq }
      | Ipv4.Udp ->
          let udp_src_port = r16 c in
          let udp_dst_port = r16 c in
          let len = r16 c in
          let _cksum = r16 c in
          if len <> seg_len then raise Exit;
          Transport.Udp { udp_src_port; udp_dst_port }
      | Ipv4.Tcp ->
          let tcp_src_port = r16 c in
          let tcp_dst_port = r16 c in
          let seq = r32 c in
          let ack_seq = r32 c in
          let off_flags = r16 c in
          let window = r16 c in
          let _cksum = r16 c in
          let _urgent = r16 c in
          Transport.Tcp
            {
              tcp_src_port;
              tcp_dst_port;
              seq;
              ack_seq;
              flags = tcp_flags_of_bits (off_flags land 0x3F);
              window;
            }
    with
    | exception Exit -> Error (Malformed "transport header")
    | transport -> Ok (transport, rbytes c (remaining c))

let parse_transport ?(verify = true) protocol blob =
  let c = { data = blob; limit = Bytes.length blob; scatter = None; pos = 0 } in
  try parse_transport_at ~verify protocol c with Short -> Error Truncated

(* --- IPv4 --- *)

let serialize_ipv4_header w (h : Ipv4.header) ~content_length =
  let start = w.wpos in
  w8 w 0x45;
  w8 w 0;
  w16 w (Ipv4.header_length + content_length);
  w16 w h.ident;
  assert (h.frag_offset mod 8 = 0);
  w16 w (((if h.more_fragments then 1 else 0) lsl 13) lor (h.frag_offset / 8));
  w8 w h.ttl;
  w8 w (Ipv4.protocol_number h.protocol);
  w16 w 0;
  wip w h.src;
  wip w h.dst;
  let cksum = Checksum.compute w.wdata ~off:start ~len:Ipv4.header_length in
  Bytes.set_uint8 w.wdata (start + 10) (cksum lsr 8);
  Bytes.set_uint8 w.wdata (start + 11) (cksum land 0xFF)

let parse_ipv4 ?(verify_transport = true) c =
  let start = c.pos in
  let vihl = r8 c in
  if vihl <> 0x45 then Error (Malformed "IPv4 version/IHL")
  else begin
    let _tos = r8 c in
    let total_length = r16 c in
    let ident = r16 c in
    let flags_frag = r16 c in
    let ttl = r8 c in
    let proto = r8 c in
    let _cksum = r16 c in
    let src = rip c in
    let dst = rip c in
    if not (Checksum.verify c.data ~off:start ~len:Ipv4.header_length) then
      Error (Bad_checksum "IPv4")
    else
      match Ipv4.protocol_of_number proto with
      | None -> Error (Bad_protocol proto)
      | Some protocol ->
          let content_len = total_length - Ipv4.header_length in
          if content_len <> remaining c then Error Truncated
          else begin
            let header : Ipv4.header =
              {
                src;
                dst;
                protocol;
                ident;
                frag_offset = (flags_frag land 0x1FFF) * 8;
                more_fragments = flags_frag land 0x2000 <> 0;
                ttl;
              }
            in
            if Ipv4.is_fragment header then
              Ok
                (Packet.Ipv4_body
                   { header; content = Packet.Fragment (rbytes c content_len) })
            else
              match parse_transport_at ~verify:verify_transport protocol c with
              | Error e -> Error e
              | Ok (transport, payload) ->
                  Ok
                    (Packet.Ipv4_body
                       { header; content = Packet.Full { transport; payload } })
          end
  end

(* --- ARP --- *)

let arp_length = 28

let serialize_arp w (a : Arp.t) =
  w16 w 1;
  w16 w 0x0800;
  w8 w 6;
  w8 w 4;
  w16 w (match a.op with Arp.Request -> 1 | Arp.Reply -> 2);
  wmac w a.sender_mac;
  wip w a.sender_ip;
  wmac w a.target_mac;
  wip w a.target_ip

let parse_arp c =
  let htype = r16 c in
  let ptype = r16 c in
  let hlen = r8 c in
  let plen = r8 c in
  if htype <> 1 || ptype <> 0x0800 || hlen <> 6 || plen <> 4 then
    Error (Malformed "ARP header")
  else begin
    let opn = r16 c in
    let sender_mac = rmac c in
    let sender_ip = rip c in
    let target_mac = rmac c in
    let target_ip = rip c in
    match opn with
    | 1 | 2 ->
        let op = if opn = 1 then Arp.Request else Arp.Reply in
        Ok (Packet.Arp_body { Arp.op; sender_mac; sender_ip; target_mac; target_ip })
    | _ -> Error (Malformed "ARP op")
  end

(* --- Frames --- *)

let ethernet_header_length = 14

let body_length (body : Packet.body) =
  match body with
  | Packet.Ipv4_body { content = Packet.Full { transport; payload }; _ } ->
      Ipv4.header_length + transport_length transport ~payload
  | Packet.Ipv4_body { content = Packet.Fragment blob; _ } ->
      Ipv4.header_length + Bytes.length blob
  | Packet.Arp_body _ -> arp_length
  | Packet.Xenloop_body data -> 2 + Bytes.length data

type sink = Bytes.t -> src_off:int -> dst_off:int -> len:int -> unit

(* The one serializer.  The header prefix is built in [hdr] and the
   payload — the transport payload, a fragment's blob or a control body —
   goes to the sink straight from the packet's own bytes, so a frame
   becomes bytes only where the sink puts it. *)
let write_with ~hdr ~csum (p : Packet.t) (sink : sink) =
  let w = { wdata = hdr; wpos = 0 } in
  wmac w p.dst_mac;
  wmac w p.src_mac;
  w16 w (Packet.ethertype p.body);
  let payload =
    match p.body with
    | Packet.Ipv4_body { header; content = Packet.Full { transport; payload } }
      ->
        serialize_ipv4_header w header
          ~content_length:(transport_length transport ~payload);
        write_transport_header ~csum w transport ~payload;
        payload
    | Packet.Ipv4_body { header; content = Packet.Fragment blob } ->
        serialize_ipv4_header w header ~content_length:(Bytes.length blob);
        blob
    | Packet.Arp_body a ->
        serialize_arp w a;
        Bytes.empty
    | Packet.Xenloop_body data ->
        w16 w (Bytes.length data);
        data
  in
  sink hdr ~src_off:0 ~dst_off:0 ~len:w.wpos;
  if Bytes.length payload > 0 then
    sink payload ~src_off:0 ~dst_off:w.wpos ~len:(Bytes.length payload)

(* Ethernet + IPv4 + TCP, the longest header stack a frame carries; ARP
   (14 + 28) and the control header (14 + 2) are shorter. *)
let header_room = ethernet_header_length + Ipv4.header_length + 20

(* Where [write] builds header prefixes: the simulator is one thread, and
   [write] neither yields nor reenters. *)
let hdr_scratch = Bytes.create header_room

let write ~csum p sink = write_with ~hdr:hdr_scratch ~csum p sink

let serialize ?(csum = true) (p : Packet.t) =
  let frame =
    Bytes.create (ethernet_header_length + body_length p.body)
  in
  (* The header is built in place, so only the payload is copied. *)
  write_with ~hdr:frame ~csum p (fun src ~src_off ~dst_off ~len ->
      if src != frame then Bytes.blit src src_off frame dst_off len);
  frame

let parse_cursor ~verify_transport c =
  try
    let dst_mac = rmac c in
    let src_mac = rmac c in
    let ethertype = r16 c in
    let body =
      match ethertype with
      | 0x0800 -> parse_ipv4 ~verify_transport c
      | 0x0806 -> parse_arp c
      | 0x58D0 ->
          let len = r16 c in
          if len <> remaining c then Error Truncated
          else Ok (Packet.Xenloop_body (rbytes c len))
      | other -> Error (Bad_ethertype other)
    in
    Result.map (fun body -> { Packet.src_mac; dst_mac; body }) body
  with Short -> Error Truncated

let parse ?(verify_transport = true) ?len data =
  let limit = Option.value len ~default:(Bytes.length data) in
  if limit < 0 || limit > Bytes.length data then invalid_arg "Codec.parse: len";
  parse_cursor ~verify_transport { data; limit; scatter = None; pos = 0 }

let parse_scattered ~len ~prefix ~fill =
  if Bytes.length prefix <> min len header_room then
    invalid_arg "Codec.parse_scattered: prefix length";
  parse_cursor ~verify_transport:false
    { data = prefix; limit = len; scatter = Some fill; pos = 0 }
