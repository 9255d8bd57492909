(* Tests for addresses, checksums, packet codec, and IP fragmentation. *)

module Mac = Netcore.Mac
module Ip = Netcore.Ip
module Checksum = Netcore.Checksum
module Ipv4 = Netcore.Ipv4
module Transport = Netcore.Transport
module Arp = Netcore.Arp
module Packet = Netcore.Packet
module Codec = Netcore.Codec
module Fragment = Netcore.Fragment

let mac_a = Mac.of_domid ~machine:0 ~domid:1
let mac_b = Mac.of_domid ~machine:0 ~domid:2
let ip_a = Ip.make ~subnet:1 ~host:1
let ip_b = Ip.make ~subnet:1 ~host:2

(* ------------------------------------------------------------------ *)
(* Addresses *)

let test_mac_string_roundtrip () =
  let m = Mac.of_int64 0x0123456789ABL in
  Alcotest.(check string) "to_string" "01:23:45:67:89:ab" (Mac.to_string m);
  (match Mac.of_string "01:23:45:67:89:ab" with
  | Some m' -> Alcotest.(check bool) "roundtrip" true (Mac.equal m m')
  | None -> Alcotest.fail "parse failed");
  Alcotest.(check (option reject)) "garbage" None
    (Option.map ignore (Mac.of_string "zz:aa"));
  Alcotest.(check (option reject)) "wrong groups" None
    (Option.map ignore (Mac.of_string "01:23:45:67:89"))

let test_mac_broadcast () =
  Alcotest.(check string) "broadcast" "ff:ff:ff:ff:ff:ff" (Mac.to_string Mac.broadcast);
  Alcotest.(check bool) "is_broadcast" true (Mac.is_broadcast Mac.broadcast);
  Alcotest.(check bool) "unicast not broadcast" false (Mac.is_broadcast mac_a)

let test_mac_of_domid () =
  Alcotest.(check bool) "distinct per domain" false (Mac.equal mac_a mac_b);
  Alcotest.(check bool) "distinct per machine" false
    (Mac.equal mac_a (Mac.of_domid ~machine:1 ~domid:1));
  (* Xen OUI prefix. *)
  Alcotest.(check string) "oui" "00:16:3e"
    (String.sub (Mac.to_string mac_a) 0 8)

let test_ip_string_roundtrip () =
  let ip = Ip.of_octets 192 168 1 42 in
  Alcotest.(check string) "to_string" "192.168.1.42" (Ip.to_string ip);
  (match Ip.of_string "192.168.1.42" with
  | Some ip' -> Alcotest.(check bool) "roundtrip" true (Ip.equal ip ip')
  | None -> Alcotest.fail "parse failed");
  Alcotest.(check (option reject)) "out of range" None
    (Option.map ignore (Ip.of_string "1.2.3.256"));
  Alcotest.(check (option reject)) "not dotted quad" None
    (Option.map ignore (Ip.of_string "1.2.3"))

let test_ip_make () =
  Alcotest.(check string) "cluster scheme" "10.3.0.7"
    (Ip.to_string (Ip.make ~subnet:3 ~host:7))

(* ------------------------------------------------------------------ *)
(* Checksum *)

let test_checksum_known_vector () =
  (* Classic RFC 1071 example: 0001 f203 f4f5 f6f7 -> checksum 220d. *)
  let data = Bytes.of_string "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7" in
  Alcotest.(check int) "rfc1071" 0x220d (Checksum.compute data ~off:0 ~len:8)

let test_checksum_verify () =
  (* Checksum field (offset 2) starts zeroed; after embedding the computed
     checksum the whole range must verify. *)
  let data = Bytes.of_string "\x45\x00\x00\x00xyzabcdefhij" in
  let len = Bytes.length data in
  let ck = Checksum.compute data ~off:0 ~len in
  Bytes.set_uint8 data 2 (ck lsr 8);
  Bytes.set_uint8 data 3 (ck land 0xff);
  Alcotest.(check bool) "verifies" true (Checksum.verify data ~off:0 ~len);
  (* And corruption breaks verification. *)
  Bytes.set_uint8 data 5 (Bytes.get_uint8 data 5 lxor 1);
  Alcotest.(check bool) "corruption detected" false (Checksum.verify data ~off:0 ~len)

let test_checksum_odd_length () =
  let data = Bytes.of_string "abc" in
  let ck = Checksum.compute data ~off:0 ~len:3 in
  Alcotest.(check bool) "in range" true (ck >= 0 && ck <= 0xffff)

let prop_checksum_detects_single_bit_flips =
  QCheck.Test.make ~name:"checksum detects single corrupted byte" ~count:200
    QCheck.(pair (string_of_size Gen.(2 -- 64)) small_int)
    (fun (s, idx) ->
      QCheck.assume (String.length s >= 2);
      let data = Bytes.of_string s in
      let len = Bytes.length data in
      let ck = Checksum.compute data ~off:0 ~len in
      let idx = idx mod len in
      let original = Bytes.get_uint8 data idx in
      let corrupted = (original + 1) land 0xff in
      QCheck.assume (corrupted <> original);
      Bytes.set_uint8 data idx corrupted;
      Checksum.compute data ~off:0 ~len <> ck)

(* The production sum is accumulated 32 bits at a time in native byte
   order; this reference is the textbook big-endian byte-pair fold.  They
   must agree bit-for-bit on every input, offset, and length parity. *)
let reference_checksum data ~off ~len =
  let sum = ref 0 in
  let i = ref off in
  let stop = off + len in
  while !i + 1 < stop do
    sum :=
      !sum
      + (Char.code (Bytes.get data !i) lsl 8)
      + Char.code (Bytes.get data (!i + 1));
    i := !i + 2
  done;
  if !i < stop then sum := !sum + (Char.code (Bytes.get data !i) lsl 8);
  let s = ref !sum in
  while !s > 0xffff do
    s := (!s land 0xffff) + (!s lsr 16)
  done;
  lnot !s land 0xffff

let prop_checksum_matches_reference =
  QCheck.Test.make ~name:"wide checksum matches byte-pair reference" ~count:500
    QCheck.(pair (string_of_size Gen.(0 -- 80)) (int_bound 7))
    (fun (s, off) ->
      let data = Bytes.of_string s in
      QCheck.assume (off <= Bytes.length data);
      let len = Bytes.length data - off in
      Checksum.compute data ~off ~len = reference_checksum data ~off ~len)

let prop_checksum_incremental_matches_full =
  QCheck.Test.make ~name:"incremental update matches recomputation" ~count:200
    QCheck.(triple (string_of_size (QCheck.Gen.return 8)) (int_bound 3) (int_bound 0xffff))
    (fun (s, word_idx, new_word) ->
      let data = Bytes.of_string s in
      let old = Checksum.compute data ~off:0 ~len:8 in
      let old_word =
        (Bytes.get_uint8 data (2 * word_idx) lsl 8)
        lor Bytes.get_uint8 data ((2 * word_idx) + 1)
      in
      Bytes.set_uint8 data (2 * word_idx) (new_word lsr 8);
      Bytes.set_uint8 data ((2 * word_idx) + 1) (new_word land 0xff);
      let fresh = Checksum.compute data ~off:0 ~len:8 in
      let incremental = Checksum.incremental_update ~old_checksum:old ~old_word ~new_word in
      fresh = incremental)

(* ------------------------------------------------------------------ *)
(* Codec *)

let codec_error = Alcotest.testable Codec.pp_error ( = )

let roundtrip packet =
  match Codec.parse (Codec.serialize packet) with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse failed: %a" Codec.pp_error e

let test_codec_udp_roundtrip () =
  let p =
    Packet.udp ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:ip_a ~dst_ip:ip_b ~src_port:5000
      ~dst_port:53 ~ident:7 (Bytes.of_string "dns query")
  in
  Alcotest.(check bool) "roundtrip equal" true (Packet.equal p (roundtrip p))

let test_codec_tcp_roundtrip () =
  let header =
    {
      Transport.tcp_src_port = 43210;
      tcp_dst_port = 80;
      seq = 123456789l;
      ack_seq = 42l;
      flags = { Transport.no_flags with syn = true; ack = true };
      window = 65535;
    }
  in
  let p =
    Packet.tcp ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:ip_a ~dst_ip:ip_b ~header ~ident:3
      (Bytes.of_string "GET / HTTP/1.0\r\n")
  in
  Alcotest.(check bool) "roundtrip equal" true (Packet.equal p (roundtrip p))

let test_codec_icmp_roundtrip () =
  let p =
    Packet.icmp_echo ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:ip_a ~dst_ip:ip_b
      ~kind:`Request ~icmp_ident:99 ~icmp_seq:5 ~ident:11 (Bytes.of_string "ping")
  in
  Alcotest.(check bool) "roundtrip equal" true (Packet.equal p (roundtrip p))

let test_codec_arp_roundtrip () =
  let msg = Arp.request ~sender_mac:mac_a ~sender_ip:ip_a ~target_ip:ip_b in
  let p = Packet.arp ~src_mac:mac_a ~dst_mac:Mac.broadcast msg in
  Alcotest.(check bool) "roundtrip equal" true (Packet.equal p (roundtrip p))

let test_codec_xenloop_roundtrip () =
  let p =
    Packet.xenloop_ctrl ~src_mac:mac_a ~dst_mac:mac_b (Bytes.of_string "ANNOUNCE 1 2 3")
  in
  Alcotest.(check bool) "roundtrip equal" true (Packet.equal p (roundtrip p))

let test_codec_wire_length_matches () =
  let p =
    Packet.udp ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:ip_a ~dst_ip:ip_b ~src_port:1
      ~dst_port:2 (Bytes.of_string "0123456789")
  in
  Alcotest.(check int) "wire length" (Bytes.length (Codec.serialize p))
    (Packet.wire_length p)

let test_codec_rejects_corruption () =
  let p =
    Packet.udp ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:ip_a ~dst_ip:ip_b ~src_port:1
      ~dst_port:2 (Bytes.of_string "payload")
  in
  let raw = Codec.serialize p in
  (* Corrupt a payload byte: transport checksum must catch it. *)
  let last = Bytes.length raw - 1 in
  Bytes.set_uint8 raw last (Bytes.get_uint8 raw last lxor 0xFF);
  (match Codec.parse raw with
  | Error (Codec.Bad_checksum "transport") -> ()
  | Error e -> Alcotest.failf "unexpected error: %a" Codec.pp_error e
  | Ok _ -> Alcotest.fail "accepted corrupted payload");
  (* Corrupt the IP header. *)
  let raw2 = Codec.serialize p in
  Bytes.set_uint8 raw2 20 (Bytes.get_uint8 raw2 20 lxor 0xFF);
  match Codec.parse raw2 with
  | Error (Codec.Bad_checksum "IPv4") -> ()
  | Error e -> Alcotest.failf "unexpected error: %a" Codec.pp_error e
  | Ok _ -> Alcotest.fail "accepted corrupted header"

let test_codec_truncated () =
  let p = Packet.arp ~src_mac:mac_a ~dst_mac:Mac.broadcast
      (Arp.request ~sender_mac:mac_a ~sender_ip:ip_a ~target_ip:ip_b) in
  let raw = Codec.serialize p in
  Alcotest.(check (result reject codec_error)) "truncated" (Error Codec.Truncated)
    (Result.map ignore (Codec.parse (Bytes.sub raw 0 (Bytes.length raw - 3))))

let test_codec_bad_ethertype () =
  let raw = Bytes.make 20 '\000' in
  Bytes.set_uint8 raw 12 0xAB;
  Bytes.set_uint8 raw 13 0xCD;
  match Codec.parse raw with
  | Error (Codec.Bad_ethertype 0xABCD) -> ()
  | Error e -> Alcotest.failf "unexpected error: %a" Codec.pp_error e
  | Ok _ -> Alcotest.fail "accepted unknown ethertype"

let payload_gen = QCheck.Gen.(map Bytes.of_string (string_size (0 -- 2000)))

let arbitrary_udp_packet =
  QCheck.make
    ~print:(fun p -> Format.asprintf "%a" Packet.pp p)
    QCheck.Gen.(
      let* sp = 0 -- 0xffff and* dp = 0 -- 0xffff and* ident = 0 -- 0xffff in
      let* payload = payload_gen in
      return
        (Packet.udp ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:ip_a ~dst_ip:ip_b
           ~src_port:sp ~dst_port:dp ~ident payload))

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"serialize/parse roundtrip" ~count:200 arbitrary_udp_packet
    (fun p ->
      match Codec.parse (Codec.serialize p) with
      | Ok p' -> Packet.equal p p'
      | Error _ -> false)

let arbitrary_tcp_packet =
  QCheck.make
    ~print:(fun p -> Format.asprintf "%a" Packet.pp p)
    QCheck.Gen.(
      let* sp = 0 -- 0xffff and* dp = 0 -- 0xffff in
      let* seq = map Int32.of_int (0 -- 0x3FFFFFFF) in
      let* ack_seq = map Int32.of_int (0 -- 0x3FFFFFFF) in
      let* window = 0 -- 0xffff in
      let* syn = bool and* ack = bool and* fin = bool and* psh = bool and* rst = bool in
      let* payload = payload_gen in
      let header =
        {
          Transport.tcp_src_port = sp;
          tcp_dst_port = dp;
          seq;
          ack_seq;
          flags = { Transport.syn; ack; fin; psh; rst };
          window;
        }
      in
      return
        (Packet.tcp ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:ip_a ~dst_ip:ip_b ~header
           payload))

let prop_codec_tcp_roundtrip =
  QCheck.Test.make ~name:"tcp serialize/parse roundtrip (all flag combos)" ~count:300
    arbitrary_tcp_packet (fun p ->
      match Codec.parse (Codec.serialize p) with
      | Ok p' -> Packet.equal p p'
      | Error _ -> false)

(* Checksum-elision trust contract (DESIGN.md §15): a frame sent over
   the xenloop channel with its transport checksum elided, then bounced
   to netfront/physnet by the fallback (parse without verification,
   re-serialize with the default always-compute), must be bit for bit
   the frame the sender would have produced with no elision at all.
   Payloads are sliced out of a backing buffer at unaligned offsets and
   biased toward odd lengths, and zero length is generated, because the
   16-bit ones'-complement sum is exactly where odd tails and offset
   bugs hide. *)
let elision_payload_gen =
  QCheck.Gen.(
    let* backing = string_size (0 -- 2000) in
    let* off = 0 -- 7 in
    let off = min off (String.length backing) in
    let* len = 0 -- (String.length backing - off) in
    let* odd_bias = bool in
    let len = if odd_bias && len > 0 && len mod 2 = 0 then len - 1 else len in
    return (Bytes.sub (Bytes.of_string backing) off len))

let arbitrary_elision_tcp_packet =
  QCheck.make
    ~print:(fun p -> Format.asprintf "%a" Packet.pp p)
    QCheck.Gen.(
      let* sp = 0 -- 0xffff and* dp = 0 -- 0xffff in
      let* seq = map Int32.of_int (0 -- 0x3FFFFFFF) in
      let* ack = bool and* fin = bool and* psh = bool in
      let* payload = elision_payload_gen in
      let header =
        {
          Transport.tcp_src_port = sp;
          tcp_dst_port = dp;
          seq;
          ack_seq = 0l;
          flags = { Transport.syn = false; ack; fin; psh; rst = false };
          window = 0xffff;
        }
      in
      return
        (Packet.tcp ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:ip_a ~dst_ip:ip_b ~header
           payload))

let prop_csum_elision_fallback =
  QCheck.Test.make
    ~name:"csum elision + fallback recompute equals always-compute baseline"
    ~count:400 arbitrary_elision_tcp_packet (fun p ->
      let baseline = Codec.serialize p in
      let elided = Codec.serialize ~csum:false p in
      match Codec.parse ~verify_transport:false elided with
      | Error _ -> false
      | Ok p' -> Bytes.equal (Codec.serialize p') baseline)

(* In-place parsing (one copy per payload byte) against the reference
   it replaced: the two-copy parser below, kept verbatim in behaviour,
   which copied the whole IP content out of the frame and then the
   payload out of that copy.  Every frame — intact, truncated or with a
   flipped bit — must parse to the same packet or the same error under
   both, with transport verification on and off, and through
   [Codec.parse_scattered] as through [Codec.parse ~verify_transport:false]. *)
module Two_copy_parser = struct
  exception Short

  type cursor = { data : Bytes.t; mutable pos : int }

  let r8 c =
    if c.pos >= Bytes.length c.data then raise Short;
    let v = Bytes.get_uint8 c.data c.pos in
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
    if len < 0 || c.pos + len > Bytes.length c.data then raise Short;
    let b = Bytes.sub c.data c.pos len in
    c.pos <- c.pos + len;
    b

  let remaining c = Bytes.length c.data - c.pos

  let parse_transport ~verify protocol blob =
    let c = { data = blob; pos = 0 } in
    try
      if verify && not (Checksum.verify blob ~off:0 ~len:(Bytes.length blob)) then
        Error (Codec.Bad_checksum "transport")
      else begin
        let transport =
          match protocol with
          | Ipv4.Icmp ->
              let ty = r8 c in
              let _code = r8 c in
              let _cksum = r16 c in
              let icmp_ident = r16 c in
              let icmp_seq = r16 c in
              let echo_kind =
                match ty with 8 -> `Request | 0 -> `Reply | _ -> raise Exit
              in
              Transport.Icmp { echo_kind; icmp_ident; icmp_seq }
          | Ipv4.Udp ->
              let udp_src_port = r16 c in
              let udp_dst_port = r16 c in
              let len = r16 c in
              let _cksum = r16 c in
              if len <> Bytes.length blob then raise Exit;
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
              let bits = off_flags land 0x3F in
              Transport.Tcp
                {
                  tcp_src_port;
                  tcp_dst_port;
                  seq;
                  ack_seq;
                  flags =
                    {
                      Transport.fin = bits land 0x01 <> 0;
                      syn = bits land 0x02 <> 0;
                      rst = bits land 0x04 <> 0;
                      psh = bits land 0x08 <> 0;
                      ack = bits land 0x10 <> 0;
                    };
                  window;
                }
        in
        Ok (transport, rbytes c (remaining c))
      end
    with
    | Short -> Error Codec.Truncated
    | Exit -> Error (Codec.Malformed "transport header")

  let parse_ipv4 ~verify_transport c =
    let start = c.pos in
    let vihl = r8 c in
    if vihl <> 0x45 then Error (Codec.Malformed "IPv4 version/IHL")
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
        Error (Codec.Bad_checksum "IPv4")
      else
        match Ipv4.protocol_of_number proto with
        | None -> Error (Codec.Bad_protocol proto)
        | Some protocol ->
            let content_len = total_length - Ipv4.header_length in
            if content_len <> remaining c then Error Codec.Truncated
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
              let blob = rbytes c content_len in
              if Ipv4.is_fragment header then
                Ok (Packet.Ipv4_body { header; content = Packet.Fragment blob })
              else
                match parse_transport ~verify:verify_transport protocol blob with
                | Error e -> Error e
                | Ok (transport, payload) ->
                    Ok
                      (Packet.Ipv4_body
                         { header; content = Packet.Full { transport; payload } })
            end
    end

  let parse_arp c =
    let htype = r16 c in
    let ptype = r16 c in
    let hlen = r8 c in
    let plen = r8 c in
    if htype <> 1 || ptype <> 0x0800 || hlen <> 6 || plen <> 4 then
      Error (Codec.Malformed "ARP header")
    else begin
      let opn = r16 c in
      let sender_mac = rmac c in
      let sender_ip = rip c in
      let target_mac = rmac c in
      let target_ip = rip c in
      match opn with
      | 1 | 2 ->
          let op = if opn = 1 then Arp.Request else Arp.Reply in
          Ok
            (Packet.Arp_body
               { Arp.op; sender_mac; sender_ip; target_mac; target_ip })
      | _ -> Error (Codec.Malformed "ARP op")
    end

  let parse ~verify_transport data =
    let c = { data; pos = 0 } in
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
            if len <> remaining c then Error Codec.Truncated
            else Ok (Packet.Xenloop_body (rbytes c len))
        | other -> Error (Codec.Bad_ethertype other)
      in
      Result.map (fun body -> { Packet.src_mac; dst_mac; body }) body
    with Short -> Error Codec.Truncated
end

(* [Codec.parse_scattered] over [frame] cut into [chunk]-byte pieces, the
   way a jumbo lies across pool slots: the fill walks the pieces. *)
let parse_in_chunks ~chunk frame =
  let len = Bytes.length frame in
  let prefix = Bytes.sub frame 0 (min len Codec.header_room) in
  let fill src_off dst =
    let at = ref 0 in
    while !at < Bytes.length dst do
      let from = src_off + !at in
      let n = min (Bytes.length dst - !at) (chunk - (from mod chunk)) in
      Bytes.blit frame from dst !at n;
      at := !at + n
    done
  in
  Codec.parse_scattered ~len ~prefix ~fill

let same_result a b =
  match (a, b) with
  | Ok p, Ok q -> Packet.equal p q
  | Error e, Error f -> e = f
  | Ok _, Error _ | Error _, Ok _ -> false

(* A payload up to the largest a jumbo carries (64 KiB less the IPv4 and
   TCP headers), filled from a seed rather than byte by byte. *)
let jumbo_payload_gen =
  QCheck.Gen.(
    let* len = frequency [ (1, 0 -- 64); (1, 0 -- 2000); (2, 0 -- 65495) ] in
    let* seed = 0 -- 0xFFFF in
    return (Bytes.init len (fun i -> Char.chr ((seed + (i * 131) + (i lsr 7)) land 0xFF))))

let any_transport_packet_gen =
  QCheck.Gen.(
    let* sp = 0 -- 0xffff and* dp = 0 -- 0xffff and* ident = 0 -- 0xffff in
    let* payload = jumbo_payload_gen in
    let* seq = map Int32.of_int (0 -- 0x3FFFFFFF) in
    let* bits = 0 -- 0x1F and* window = 0 -- 0xffff in
    let* kind = 0 -- 2 and* reply = bool in
    return
      (match kind with
      | 0 ->
          let flags =
            {
              Transport.fin = bits land 1 <> 0;
              syn = bits land 2 <> 0;
              rst = bits land 4 <> 0;
              psh = bits land 8 <> 0;
              ack = bits land 16 <> 0;
            }
          in
          Packet.tcp ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:ip_a ~dst_ip:ip_b ~ident
            ~header:
              {
                Transport.tcp_src_port = sp;
                tcp_dst_port = dp;
                seq;
                ack_seq = Int32.of_int ident;
                flags;
                window;
              }
            payload
      | 1 ->
          Packet.udp ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:ip_a ~dst_ip:ip_b
            ~src_port:sp ~dst_port:dp ~ident payload
      | _ ->
          Packet.icmp_echo ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:ip_a ~dst_ip:ip_b
            ~kind:(if reply then `Reply else `Request)
            ~icmp_ident:sp ~icmp_seq:dp ~ident payload))

let print_packet p = Format.asprintf "%a" Packet.pp p

let prop_codec_jumbo_roundtrip =
  QCheck.Test.make ~name:"in-place parse roundtrip up to jumbo size" ~count:150
    (QCheck.make ~print:print_packet any_transport_packet_gen) (fun p ->
      let full = Codec.serialize p and elided = Codec.serialize ~csum:false p in
      let ok = function Ok q -> Packet.equal p q | Error _ -> false in
      ok (Codec.parse full)
      && ok (Codec.parse ~verify_transport:false full)
      && ok (Codec.parse ~verify_transport:false elided)
      && ok (parse_in_chunks ~chunk:4096 elided)
      && ok (parse_in_chunks ~chunk:7 full))

(* A damaged frame: cut short, or one bit flipped anywhere (the header
   bytes, the transport header most, get their own share of the flips).
   Fragments of a jumbo and ARP bodies ride along so every copy-out site
   is hit. *)
let damaged_frame_gen =
  QCheck.Gen.(
    let* p = any_transport_packet_gen in
    let* csum = bool in
    let* which = 0 -- 9 in
    let packet =
      match which with
      | 8 -> (
          match Netcore.Fragment.fragment ~mtu:1500 p with
          | f :: _ -> f
          | [] -> p)
      | 9 ->
          Packet.arp ~src_mac:mac_a ~dst_mac:Mac.broadcast
            (Arp.request ~sender_mac:mac_a ~sender_ip:ip_a ~target_ip:ip_b)
      | _ -> p
    in
    let frame = Codec.serialize ~csum packet in
    let len = Bytes.length frame in
    let* cut = bool in
    if cut then
      let* keep = 0 -- (len - 1) in
      return (Bytes.sub frame 0 keep)
    else
      let* pos =
        frequency
          [
            (1, 0 -- (len - 1));
            (1, 0 -- (min len Codec.header_room - 1));
            (2, min (len - 1) 34 -- (min len Codec.header_room - 1));
          ]
      in
      let* bit = 0 -- 7 in
      Bytes.set_uint8 frame pos (Bytes.get_uint8 frame pos lxor (1 lsl bit));
      return frame)

let prop_codec_damage_matches_two_copy =
  QCheck.Test.make ~name:"damaged frames: same error as the two-copy parser"
    ~count:300
    (QCheck.make
       ~print:(fun b -> Printf.sprintf "%d-byte frame" (Bytes.length b))
       damaged_frame_gen)
    (fun frame ->
      let reference v = Two_copy_parser.parse ~verify_transport:v frame in
      same_result (Codec.parse frame) (reference true)
      && same_result (Codec.parse ~verify_transport:false frame) (reference false)
      && same_result (parse_in_chunks ~chunk:4096 frame) (reference false)
      && same_result (parse_in_chunks ~chunk:5 frame) (reference false))

(* The same comparison made exhaustive over small frames of every kind:
   every truncation and every single-bit flip. *)
let test_codec_every_damage_matches_two_copy () =
  let payload = Bytes.of_string "in place" in
  let header =
    {
      Transport.tcp_src_port = 1;
      tcp_dst_port = 2;
      seq = 3l;
      ack_seq = 4l;
      flags = { Transport.no_flags with ack = true; psh = true };
      window = 5;
    }
  in
  let big =
    Packet.udp ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:ip_a ~dst_ip:ip_b ~src_port:7
      ~dst_port:8 (Bytes.make 3000 'f')
  in
  let packets =
    [
      Packet.tcp ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:ip_a ~dst_ip:ip_b ~header payload;
      Packet.udp ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:ip_a ~dst_ip:ip_b ~src_port:7
        ~dst_port:8 payload;
      Packet.icmp_echo ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:ip_a ~dst_ip:ip_b
        ~kind:`Reply ~icmp_ident:9 ~icmp_seq:10 payload;
      List.nth (Fragment.fragment ~mtu:1500 big) 1;
      Packet.arp ~src_mac:mac_a ~dst_mac:Mac.broadcast
        (Arp.request ~sender_mac:mac_a ~sender_ip:ip_a ~target_ip:ip_b);
      Packet.xenloop_ctrl ~src_mac:mac_a ~dst_mac:mac_b payload;
    ]
  in
  let check frame what =
    let reference v = Two_copy_parser.parse ~verify_transport:v frame in
    if
      not
        (same_result (Codec.parse frame) (reference true)
        && same_result (Codec.parse ~verify_transport:false frame) (reference false)
        && same_result (parse_in_chunks ~chunk:3 frame) (reference false))
    then Alcotest.failf "%s: differs from the two-copy parser" what
  in
  List.iteri
    (fun k p ->
      List.iter
        (fun csum ->
          let frame = Codec.serialize ~csum p in
          let len = Bytes.length frame in
          for keep = 0 to len - 1 do
            check (Bytes.sub frame 0 keep)
              (Printf.sprintf "packet %d csum %b cut to %d" k csum keep)
          done;
          for pos = 0 to min len 80 - 1 do
            for bit = 0 to 7 do
              let damaged = Bytes.copy frame in
              Bytes.set_uint8 damaged pos (Bytes.get_uint8 frame pos lxor (1 lsl bit));
              check damaged
                (Printf.sprintf "packet %d csum %b bit %d of byte %d" k csum bit pos)
            done
          done)
        [ true; false ])
    packets

let prop_mac_string_roundtrip =
  QCheck.Test.make ~name:"mac to_string/of_string roundtrip" ~count:200
    QCheck.(map Int64.of_int int)
    (fun v ->
      let m = Mac.of_int64 v in
      match Mac.of_string (Mac.to_string m) with
      | Some m' -> Mac.equal m m'
      | None -> false)

let prop_ip_string_roundtrip =
  QCheck.Test.make ~name:"ip to_string/of_string roundtrip" ~count:200
    QCheck.(quad (int_bound 255) (int_bound 255) (int_bound 255) (int_bound 255))
    (fun (a, b, c, d) ->
      let ip = Ip.of_octets a b c d in
      match Ip.of_string (Ip.to_string ip) with
      | Some ip' -> Ip.equal ip ip'
      | None -> false)

(* ------------------------------------------------------------------ *)
(* Fragmentation *)

let big_udp len =
  Packet.udp ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:ip_a ~dst_ip:ip_b ~src_port:9
    ~dst_port:10 ~ident:77
    (Bytes.init len (fun i -> Char.chr (i land 0xff)))

let test_fragment_small_packet_untouched () =
  let p = big_udp 100 in
  Alcotest.(check int) "singleton" 1 (List.length (Fragment.fragment ~mtu:1500 p))

let test_fragment_splits_and_offsets () =
  let p = big_udp 4000 in
  let frags = Fragment.fragment ~mtu:1500 p in
  Alcotest.(check bool) "several fragments" true (List.length frags >= 3);
  let offsets =
    List.filter_map
      (fun f -> Option.map (fun h -> h.Ipv4.frag_offset) (Packet.ip_header f))
      frags
  in
  Alcotest.(check int) "first at 0" 0 (List.hd offsets);
  List.iter
    (fun off -> Alcotest.(check int) "8-byte aligned" 0 (off mod 8))
    offsets;
  (* All but the last must have more_fragments set. *)
  let more_flags =
    List.filter_map
      (fun f -> Option.map (fun h -> h.Ipv4.more_fragments) (Packet.ip_header f))
      frags
  in
  Alcotest.(check bool) "last has no MF" false (List.nth more_flags (List.length more_flags - 1));
  List.iteri
    (fun i mf ->
      if i < List.length more_flags - 1 then
        Alcotest.(check bool) "MF set" true mf)
    more_flags;
  (* Every fragment respects the MTU. *)
  List.iter
    (fun f ->
      Alcotest.(check bool) "fits mtu" true
        (Packet.wire_length f - Packet.ethernet_header_length <= 1500))
    frags

let test_fragment_reassembles_in_order () =
  let p = big_udp 5000 in
  let frags = Fragment.fragment ~mtu:1500 p in
  let reasm = Fragment.create_reassembler () in
  let result =
    List.fold_left
      (fun acc f ->
        match Fragment.push reasm f with
        | Ok (Some whole) -> Some whole
        | Ok None -> acc
        | Error e -> Alcotest.failf "reassembly error: %a" Codec.pp_error e)
      None frags
  in
  match result with
  | None -> Alcotest.fail "never completed"
  | Some whole ->
      Alcotest.(check bool) "identical to original" true (Packet.equal p whole);
      Alcotest.(check int) "no pending state" 0 (Fragment.pending_datagrams reasm)

let test_fragment_reassembles_out_of_order () =
  let p = big_udp 6000 in
  let frags = Fragment.fragment ~mtu:1500 p in
  let shuffled = List.rev frags in
  let reasm = Fragment.create_reassembler () in
  let result =
    List.fold_left
      (fun acc f ->
        match Fragment.push reasm f with
        | Ok (Some whole) -> Some whole
        | Ok None -> acc
        | Error e -> Alcotest.failf "reassembly error: %a" Codec.pp_error e)
      None shuffled
  in
  match result with
  | None -> Alcotest.fail "never completed"
  | Some whole -> Alcotest.(check bool) "identical" true (Packet.equal p whole)

let test_fragment_incomplete_stays_pending () =
  let p = big_udp 4000 in
  let frags = Fragment.fragment ~mtu:1500 p in
  let reasm = Fragment.create_reassembler () in
  (match frags with
  | first :: _ -> (
      match Fragment.push reasm first with
      | Ok None -> ()
      | _ -> Alcotest.fail "single fragment completed a datagram")
  | [] -> Alcotest.fail "no fragments");
  Alcotest.(check int) "pending" 1 (Fragment.pending_datagrams reasm)

let test_fragment_interleaved_datagrams () =
  let p1 = big_udp 3000 in
  let p2 =
    Packet.udp ~src_mac:mac_a ~dst_mac:mac_b ~src_ip:ip_a ~dst_ip:ip_b ~src_port:9
      ~dst_port:10 ~ident:78 (Bytes.make 3000 'z')
  in
  let frags = Fragment.fragment ~mtu:1500 p1 @ Fragment.fragment ~mtu:1500 p2 in
  (* Interleave the two datagrams' fragments. *)
  let reasm = Fragment.create_reassembler () in
  let completed = ref [] in
  List.iter
    (fun f ->
      match Fragment.push reasm f with
      | Ok (Some whole) -> completed := whole :: !completed
      | Ok None -> ()
      | Error e -> Alcotest.failf "reassembly error: %a" Codec.pp_error e)
    frags;
  Alcotest.(check int) "both completed" 2 (List.length !completed)

let prop_fragment_roundtrip =
  QCheck.Test.make ~name:"fragment/reassemble roundtrip at random sizes" ~count:100
    QCheck.(pair (int_range 0 20000) (int_range 600 1500))
    (fun (len, mtu) ->
      let p = big_udp len in
      let frags = Fragment.fragment ~mtu p in
      let reasm = Fragment.create_reassembler () in
      let result =
        List.fold_left
          (fun acc f ->
            match Fragment.push reasm f with
            | Ok (Some whole) -> Some whole
            | Ok None -> acc
            | Error _ -> acc)
          None frags
      in
      match result with Some whole -> Packet.equal p whole | None -> false)

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suites =
  [
    ( "netcore.addresses",
      [
        Alcotest.test_case "mac string roundtrip" `Quick test_mac_string_roundtrip;
        Alcotest.test_case "broadcast" `Quick test_mac_broadcast;
        Alcotest.test_case "mac of domid" `Quick test_mac_of_domid;
        Alcotest.test_case "ip string roundtrip" `Quick test_ip_string_roundtrip;
        Alcotest.test_case "cluster addressing" `Quick test_ip_make;
      ]
      @ qsuite [ prop_mac_string_roundtrip; prop_ip_string_roundtrip ] );
    ( "netcore.checksum",
      [
        Alcotest.test_case "known vector" `Quick test_checksum_known_vector;
        Alcotest.test_case "verify embedded" `Quick test_checksum_verify;
        Alcotest.test_case "odd length" `Quick test_checksum_odd_length;
      ]
      @ qsuite
          [
            prop_checksum_detects_single_bit_flips;
            prop_checksum_matches_reference;
            prop_checksum_incremental_matches_full;
          ]
    );
    ( "netcore.codec",
      [
        Alcotest.test_case "udp roundtrip" `Quick test_codec_udp_roundtrip;
        Alcotest.test_case "tcp roundtrip" `Quick test_codec_tcp_roundtrip;
        Alcotest.test_case "icmp roundtrip" `Quick test_codec_icmp_roundtrip;
        Alcotest.test_case "arp roundtrip" `Quick test_codec_arp_roundtrip;
        Alcotest.test_case "xenloop ctrl roundtrip" `Quick test_codec_xenloop_roundtrip;
        Alcotest.test_case "wire length matches bytes" `Quick test_codec_wire_length_matches;
        Alcotest.test_case "rejects corruption" `Quick test_codec_rejects_corruption;
        Alcotest.test_case "rejects truncation" `Quick test_codec_truncated;
        Alcotest.test_case "rejects unknown ethertype" `Quick test_codec_bad_ethertype;
        Alcotest.test_case "every damage matches two-copy parser" `Quick
          test_codec_every_damage_matches_two_copy;
      ]
      @ qsuite
          [
            prop_codec_roundtrip;
            prop_codec_tcp_roundtrip;
            prop_csum_elision_fallback;
            prop_codec_jumbo_roundtrip;
            prop_codec_damage_matches_two_copy;
          ] );
    ( "netcore.fragment",
      [
        Alcotest.test_case "small packet untouched" `Quick
          test_fragment_small_packet_untouched;
        Alcotest.test_case "splits with correct offsets" `Quick
          test_fragment_splits_and_offsets;
        Alcotest.test_case "reassembles in order" `Quick test_fragment_reassembles_in_order;
        Alcotest.test_case "reassembles out of order" `Quick
          test_fragment_reassembles_out_of_order;
        Alcotest.test_case "incomplete stays pending" `Quick
          test_fragment_incomplete_stays_pending;
        Alcotest.test_case "interleaved datagrams" `Quick test_fragment_interleaved_datagrams;
      ]
      @ qsuite [ prop_fragment_roundtrip ] );
  ]
