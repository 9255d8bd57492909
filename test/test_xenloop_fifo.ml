(* Tests for the XenLoop lockless FIFO, the control protocol codec, and the
   mapping table. *)

module Fifo = Xenloop.Fifo
module Proto = Xenloop.Proto
module Mapping = Xenloop.Mapping_table
module Page = Memory.Page
module Mac = Netcore.Mac

let make_fifo ?(k = 6) () =
  let desc = Page.create () in
  let data = Array.init (Fifo.data_pages_for ~k) (fun _ -> Page.create ()) in
  Fifo.init ~desc ~data ~k;
  (desc, data, Fifo.attach ~desc ~data)

(* ------------------------------------------------------------------ *)
(* FIFO basics *)

let test_fifo_geometry () =
  let _, _, f = make_fifo ~k:6 () in
  Alcotest.(check int) "slots" 64 (Fifo.slots f);
  Alcotest.(check int) "max packet" (63 * 8) (Fifo.max_packet f);
  Alcotest.(check int) "free" 64 (Fifo.free_slots f);
  Alcotest.(check bool) "empty" true (Fifo.is_empty f);
  Alcotest.(check bool) "active" true (Fifo.is_active f);
  Alcotest.(check int) "default k is 64KiB" 8192 (1 lsl Fifo.default_k)

let test_fifo_push_pop_roundtrip () =
  let _, _, f = make_fifo () in
  let payload = Bytes.of_string "hello xenloop fifo" in
  Alcotest.(check bool) "pushed" true (Fifo.try_push f payload);
  Alcotest.(check bool) "not empty" false (Fifo.is_empty f);
  (match Fifo.pop f with
  | Some got -> Alcotest.(check bytes) "identical" payload got
  | None -> Alcotest.fail "pop returned nothing");
  Alcotest.(check bool) "empty again" true (Fifo.is_empty f);
  Alcotest.(check (option reject)) "pop on empty" None
    (Option.map ignore (Fifo.pop f))

let test_fifo_rejects_oversize () =
  let _, _, f = make_fifo ~k:6 () in
  Alcotest.(check bool) "max fits" true
    (Fifo.try_push f (Bytes.make (Fifo.max_packet f) 'x'));
  ignore (Fifo.pop f);
  Alcotest.(check bool) "over max rejected" false
    (Fifo.try_push f (Bytes.make (Fifo.max_packet f + 1) 'x'));
  Alcotest.(check bool) "empty payload rejected" false (Fifo.try_push f Bytes.empty)

let test_fifo_fills_and_frees () =
  let _, _, f = make_fifo ~k:6 () in
  (* Each 24-byte payload consumes 1 + 3 = 4 slots; 16 of them fill 64. *)
  let payload = Bytes.make 24 'f' in
  for i = 1 to 16 do
    Alcotest.(check bool) (Printf.sprintf "push %d" i) true (Fifo.try_push f payload)
  done;
  Alcotest.(check int) "full" 0 (Fifo.free_slots f);
  Alcotest.(check bool) "17th rejected" false (Fifo.try_push f payload);
  (match Fifo.pop f with Some _ -> () | None -> Alcotest.fail "pop failed");
  Alcotest.(check int) "freed 4 slots" 4 (Fifo.free_slots f);
  Alcotest.(check bool) "push fits again" true (Fifo.try_push f payload)

let test_fifo_inactive_flag_shared () =
  let desc, data, f = make_fifo () in
  (* A second view over the same pages — like the peer's mapping. *)
  let peer_view = Fifo.attach ~desc ~data in
  Fifo.mark_inactive f;
  Alcotest.(check bool) "peer sees inactive" false (Fifo.is_active peer_view)

let test_fifo_data_visible_through_second_view () =
  let desc, data, f = make_fifo () in
  let peer_view = Fifo.attach ~desc ~data in
  Alcotest.(check bool) "push via producer view" true
    (Fifo.try_push f (Bytes.of_string "shared-memory"));
  match Fifo.pop peer_view with
  | Some got -> Alcotest.(check string) "consumer view reads it" "shared-memory"
      (Bytes.to_string got)
  | None -> Alcotest.fail "peer view saw nothing"

let test_fifo_wraparound_32bit_indices () =
  (* Force the free-running indices near 2^32: pushes and pops must keep
     working across the wrap (paper: m = 32, no boundary special case). *)
  let desc, _data, f = make_fifo ~k:6 () in
  Fifo.force_indices ~desc (0xFFFFFFFF - 7);
  let payload = Bytes.make 50 'w' in
  for round = 1 to 8 do
    Alcotest.(check bool) (Printf.sprintf "push round %d" round) true
      (Fifo.try_push f payload);
    match Fifo.pop f with
    | Some got ->
        Alcotest.(check bytes) (Printf.sprintf "pop round %d" round) payload got
    | None -> Alcotest.fail "pop failed across wrap"
  done;
  (* Indices really did wrap past zero. *)
  Alcotest.(check bool) "front wrapped" true (Fifo.front f < 100)

let test_fifo_init_validation () =
  let desc = Page.create () in
  let wrong = [| Page.create () |] in
  (* k = 10 needs two data pages; one is a mismatch. *)
  Alcotest.check_raises "wrong page count"
    (Invalid_argument "Fifo.init: wrong number of data pages") (fun () ->
      Fifo.init ~desc ~data:wrong ~k:10);
  Alcotest.check_raises "k out of range"
    (Invalid_argument "Fifo.init: k out of range") (fun () ->
      Fifo.init ~desc ~data:wrong ~k:50)

let test_fifo_grefs_roundtrip () =
  let desc = Page.create () in
  let k = 6 in
  let data = Array.init (Fifo.data_pages_for ~k) (fun _ -> Page.create ()) in
  Fifo.init ~desc ~data ~k;
  let grefs = [ 17 ] in
  Fifo.write_grefs ~desc grefs;
  Alcotest.(check (list int)) "grefs" grefs (Fifo.read_grefs ~desc)

let prop_fifo_order_and_content =
  QCheck.Test.make ~name:"fifo preserves order and content under random ops"
    ~count:100
    QCheck.(list (pair bool (string_of_size QCheck.Gen.(1 -- 300))))
    (fun ops ->
      let _, _, f = make_fifo ~k:8 () in
      let model = Queue.create () in
      List.for_all
        (fun (is_push, payload) ->
          if is_push then begin
            let b = Bytes.of_string payload in
            let pushed = Fifo.try_push f b in
            if pushed then Queue.push b model;
            true
          end
          else
            match (Fifo.pop f, Queue.take_opt model) with
            | None, None -> true
            | Some got, Some expected -> Bytes.equal got expected
            | Some _, None | None, Some _ -> false)
        ops
      && Fifo.used_slots f
         = Queue.fold (fun acc b -> acc + 1 + ((Bytes.length b + 7) / 8)) 0 model)

let prop_fifo_wrap_stream =
  QCheck.Test.make ~name:"fifo streams correctly across the 2^32 wrap" ~count:30
    QCheck.(list_of_size QCheck.Gen.(10 -- 40) (string_of_size QCheck.Gen.(1 -- 100)))
    (fun payloads ->
      let desc = Page.create () in
      let k = 7 in
      let data = Array.init (Fifo.data_pages_for ~k) (fun _ -> Page.create ()) in
      Fifo.init ~desc ~data ~k;
      Fifo.force_indices ~desc (0xFFFFFFFF - 63);
      let f = Fifo.attach ~desc ~data in
      List.for_all
        (fun payload ->
          let b = Bytes.of_string payload in
          Fifo.try_push f b
          && match Fifo.pop f with Some got -> Bytes.equal got b | None -> false)
        payloads)

(* ------------------------------------------------------------------ *)
(* Control protocol *)

let sample_messages =
  [
    Proto.Announce [];
    Proto.Announce
      [
        {
          Proto.entry_domid = 1;
          entry_mac = Mac.of_domid ~machine:0 ~domid:1;
          entry_ip = Netcore.Ip.make ~subnet:2 ~host:1;
          entry_queues = 1;
          entry_zc = false;
          entry_loans = false;
          entry_gso = false;
        };
        {
          Proto.entry_domid = 2;
          entry_mac = Mac.of_domid ~machine:0 ~domid:2;
          entry_ip = Netcore.Ip.make ~subnet:2 ~host:2;
          entry_queues = 4;
          entry_zc = true;
          entry_loans = true;
          entry_gso = true;
        };
      ];
    Proto.Request_channel
      { requester_domid = 7; max_queues = 1; zerocopy = false; loans = false; gso = false };
    Proto.Request_channel
      { requester_domid = 7; max_queues = 8; zerocopy = true; loans = true; gso = true };
    Proto.Create_channel
      {
        listener_domid = 1;
        queues =
          [
            {
              Proto.qg_lc_gref = 123;
              qg_cl_gref = 456;
              qg_port = 3;
              qg_lc_pool = None;
              qg_cl_pool = None;
            };
          ];
      };
    Proto.Create_channel
      {
        listener_domid = 1;
        queues =
          [
            {
              Proto.qg_lc_gref = 123;
              qg_cl_gref = 456;
              qg_port = 3;
              qg_lc_pool = Some 77;
              qg_cl_pool = Some 88;
            };
            {
              Proto.qg_lc_gref = 789;
              qg_cl_gref = 1011;
              qg_port = 4;
              qg_lc_pool = Some 99;
              qg_cl_pool = Some 111;
            };
          ];
      };
    Proto.Channel_ack { connector_domid = 9 };
    Proto.App_payload
      {
        src_ip = Netcore.Ip.make ~subnet:2 ~host:1;
        src_port = 4000;
        dst_port = 53;
        payload = Bytes.of_string "raw shortcut payload";
      };
    Proto.App_payload
      {
        src_ip = Netcore.Ip.make ~subnet:2 ~host:1;
        src_port = 1;
        dst_port = 2;
        payload = Bytes.empty;
      };
  ]

let test_proto_roundtrip () =
  List.iter
    (fun msg ->
      match Proto.decode (Proto.encode msg) with
      | Ok got ->
          Alcotest.(check bool)
            (Format.asprintf "%a" Proto.pp msg)
            true (Proto.equal msg got)
      | Error e -> Alcotest.failf "decode failed: %s" e)
    sample_messages

let test_proto_rejects_garbage () =
  (match Proto.decode (Bytes.of_string "\xFFgarbage") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "decoded garbage tag");
  match Proto.decode (Bytes.of_string "\x03\x00") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "decoded truncated message"

(* Version gating: every message a single-queue endpoint can produce must
   encode to exactly the original wire format — same tags, same bytes — so
   a negotiated-to-1 handshake is indistinguishable from the paper-faithful
   module on the wire. *)
let test_proto_legacy_wire_format () =
  let check_bytes name expect msg =
    Alcotest.(check string) name expect (Bytes.to_string (Proto.encode msg))
  in
  check_bytes "request_channel q=1 is legacy tag 2" "\x02\x00\x07"
    (Proto.Request_channel
       { requester_domid = 7; max_queues = 1; zerocopy = false; loans = false; gso = false });
  check_bytes "create_channel single queue is legacy tag 3"
    "\x03\x00\x01\x00\x00\x00\x7b\x00\x00\x01\xc8\x00\x03"
    (Proto.Create_channel
       {
         listener_domid = 1;
         queues =
           [
             {
               Proto.qg_lc_gref = 123;
               qg_cl_gref = 456;
               qg_port = 3;
               qg_lc_pool = None;
               qg_cl_pool = None;
             };
           ];
       });
  let entry =
    {
      Proto.entry_domid = 1;
      entry_mac = Mac.of_domid ~machine:0 ~domid:1;
      entry_ip = Netcore.Ip.make ~subnet:2 ~host:1;
      entry_queues = 1;
      entry_zc = false;
      entry_loans = false;
      entry_gso = false;
    }
  in
  let tag_of msg = Char.code (Bytes.get (Proto.encode msg) 0) in
  Alcotest.(check int) "announce all-q1 is legacy tag 1" 1
    (tag_of (Proto.Announce [ entry ]));
  Alcotest.(check int) "announce with q>1 uses tag 6" 6
    (tag_of (Proto.Announce [ { entry with Proto.entry_queues = 4 } ]));
  Alcotest.(check int) "request q>1 uses tag 7" 7
    (tag_of
       (Proto.Request_channel
          { requester_domid = 7; max_queues = 4; zerocopy = false; loans = false; gso = false }));
  Alcotest.(check int) "multi-queue create uses tag 8" 8
    (tag_of
       (Proto.Create_channel
          {
            listener_domid = 1;
            queues =
              [
                {
                  Proto.qg_lc_gref = 1;
                  qg_cl_gref = 2;
                  qg_port = 3;
                  qg_lc_pool = None;
                  qg_cl_pool = None;
                };
                {
                  Proto.qg_lc_gref = 4;
                  qg_cl_gref = 5;
                  qg_port = 6;
                  qg_lc_pool = None;
                  qg_cl_pool = None;
                };
              ];
          }))

let prop_proto_announce_roundtrip =
  QCheck.Test.make ~name:"announce roundtrips for arbitrary entry lists" ~count:100
    QCheck.(
      list_of_size
        Gen.(0 -- 20)
        (triple (int_bound 0xFFFF) (int_bound 1000) (int_range 1 16)))
    (fun raw_entries ->
      let entries =
        List.map
          (fun (domid, m, queues) ->
            {
              Proto.entry_domid = domid;
              entry_mac = Mac.of_domid ~machine:m ~domid;
              entry_ip = Netcore.Ip.make ~subnet:(m land 0xff) ~host:(domid land 0xff);
              entry_queues = queues;
              entry_zc = queues land 1 = 0;
              entry_loans = queues land 3 = 0;
              entry_gso = queues land 5 = 0;
            })
          raw_entries
      in
      match Proto.decode (Proto.encode (Proto.Announce entries)) with
      | Ok (Proto.Announce got) -> got = entries
      | Ok _ | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Mapping table *)

let test_mapping_soft_state () =
  let t = Mapping.create () in
  let mac1 = Mac.of_domid ~machine:0 ~domid:1 in
  let mac2 = Mac.of_domid ~machine:0 ~domid:2 in
  let ip1 = Netcore.Ip.make ~subnet:2 ~host:1 in
  let ip2 = Netcore.Ip.make ~subnet:2 ~host:2 in
  Mapping.update t
    [
      {
        Proto.entry_domid = 1;
        entry_mac = mac1;
        entry_ip = ip1;
        entry_queues = 1;
        entry_zc = false;
        entry_loans = false;
        entry_gso = false;
      };
      {
        Proto.entry_domid = 2;
        entry_mac = mac2;
        entry_ip = ip2;
        entry_queues = 4;
        entry_zc = false;
        entry_loans = false;
        entry_gso = false;
      };
    ];
  Alcotest.(check (option int)) "lookup 1" (Some 1) (Mapping.lookup t mac1);
  Alcotest.(check (option int)) "lookup 2" (Some 2) (Mapping.lookup t mac2);
  (match Mapping.lookup_by_ip t ip1 with
  | Some e -> Alcotest.(check int) "lookup by ip" 1 e.Proto.entry_domid
  | None -> Alcotest.fail "ip lookup failed");
  Alcotest.(check bool) "mem" true (Mapping.mem_domid t 1);
  Alcotest.(check int) "size" 2 (Mapping.size t);
  (* Next announcement drops guest 1: soft state forgets it. *)
  Mapping.update t
    [
      {
        Proto.entry_domid = 2;
        entry_mac = mac2;
        entry_ip = ip2;
        entry_queues = 4;
        entry_zc = false;
        entry_loans = false;
        entry_gso = false;
      };
    ];
  Alcotest.(check (option int)) "1 gone" None (Mapping.lookup t mac1);
  Alcotest.(check bool) "1 not member" false (Mapping.mem_domid t 1);
  Mapping.clear t;
  Alcotest.(check int) "cleared" 0 (Mapping.size t)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let test_fifo_packet_frames_wrap_intact () =
  (* A packet is written into the ring in two parts, header prefix then
     payload, and either part may cross the end of the ring — which, for
     a ring smaller than a page, is inside the page.  Every frame must
     pop as the bytes [Codec.serialize] makes of it. *)
  let _, _, f = make_fifo ~k:6 () in
  let dst = Bytes.create (Fifo.max_packet f) in
  let mac = Mac.of_int64 0x00163e000001L and ip = Netcore.Ip.of_octets 10 0 0 1 in
  for i = 0 to 199 do
    let payload = Bytes.init ((i * 37) mod 400) (fun j -> Char.chr ((i + j) land 0xff)) in
    let p =
      Netcore.Packet.udp ~src_mac:mac ~dst_mac:mac ~src_ip:ip ~dst_ip:ip
        ~src_port:i ~dst_port:7 payload
    in
    let code =
      Fifo.push_frame f ~pool:None ~inline_max:max_int ~proto_hint:17 Fifo.packet p
    in
    Alcotest.(check int) "pushed inline" Fifo.pushed_inline code;
    let len = Fifo.pop_into f dst in
    Alcotest.(check string)
      (Printf.sprintf "frame %d intact" i)
      (Bytes.to_string (Netcore.Codec.serialize p))
      (Bytes.sub_string dst 0 len)
  done

let suites =
  [
    ( "xenloop.fifo",
      [
        Alcotest.test_case "geometry" `Quick test_fifo_geometry;
        Alcotest.test_case "push/pop roundtrip" `Quick test_fifo_push_pop_roundtrip;
        Alcotest.test_case "rejects oversize and empty" `Quick test_fifo_rejects_oversize;
        Alcotest.test_case "fills and frees slots" `Quick test_fifo_fills_and_frees;
        Alcotest.test_case "inactive flag shared" `Quick test_fifo_inactive_flag_shared;
        Alcotest.test_case "two views share data" `Quick
          test_fifo_data_visible_through_second_view;
        Alcotest.test_case "32-bit index wraparound" `Quick
          test_fifo_wraparound_32bit_indices;
        Alcotest.test_case "packet frames wrap the ring intact" `Quick
          test_fifo_packet_frames_wrap_intact;
        Alcotest.test_case "init validation" `Quick test_fifo_init_validation;
        Alcotest.test_case "grefs in descriptor page" `Quick test_fifo_grefs_roundtrip;
      ]
      @ qsuite [ prop_fifo_order_and_content; prop_fifo_wrap_stream ] );
    ( "xenloop.proto",
      [
        Alcotest.test_case "roundtrip" `Quick test_proto_roundtrip;
        Alcotest.test_case "rejects garbage" `Quick test_proto_rejects_garbage;
        Alcotest.test_case "legacy wire format at queues=1" `Quick
          test_proto_legacy_wire_format;
      ]
      @ qsuite [ prop_proto_announce_roundtrip ] );
    ( "xenloop.mapping",
      [ Alcotest.test_case "soft state semantics" `Quick test_mapping_soft_state ] );
  ]
