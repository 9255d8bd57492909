(* Tests for the XenSockets-style baseline (related-work comparator). *)

module Bs = Related.Bytestream
module Xs = Related.Xensocket
module Machine = Hypervisor.Machine
module Domain = Hypervisor.Domain
module Page = Memory.Page

let run_sim f =
  let engine = Sim.Engine.create () in
  let result = ref None in
  Sim.Engine.spawn engine (fun () -> result := Some (f engine));
  Sim.Engine.run ~until:(Sim.Time.add Sim.Time.zero (Sim.Time.sec 60)) engine;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "simulation deadlocked"

(* ------------------------------------------------------------------ *)
(* Bytestream *)

let make_stream ?(size = 4096) () =
  let desc = Page.create () in
  let data = Array.init (Bs.pages_for ~size) (fun _ -> Page.create ()) in
  Bs.init ~desc ~data ~size;
  Bs.attach ~desc ~data

let test_bytestream_roundtrip () =
  let bs = make_stream () in
  let msg = Bytes.of_string "stream of bytes without boundaries" in
  let wrote = Bs.write bs ~src:msg ~off:0 ~len:(Bytes.length msg) in
  Alcotest.(check int) "all written" (Bytes.length msg) wrote;
  Alcotest.(check int) "used" (Bytes.length msg) (Bs.used bs);
  let dst = Bytes.make 100 ' ' in
  let got = Bs.read bs ~dst ~off:0 ~len:100 in
  Alcotest.(check int) "all read" (Bytes.length msg) got;
  Alcotest.(check string) "content" (Bytes.to_string msg)
    (Bytes.sub_string dst 0 got)

let test_bytestream_fills_exactly () =
  let bs = make_stream ~size:1024 () in
  let big = Bytes.make 2000 'z' in
  let wrote = Bs.write bs ~src:big ~off:0 ~len:2000 in
  Alcotest.(check int) "capped at capacity" 1024 wrote;
  Alcotest.(check int) "full" 0 (Bs.free bs);
  Alcotest.(check int) "write on full accepts nothing" 0
    (Bs.write bs ~src:big ~off:0 ~len:10)

let test_bytestream_wraps () =
  let bs = make_stream ~size:1024 () in
  let scratch = Bytes.make 1024 ' ' in
  (* Drive head/tail far past the buffer size, with varying chunk sizes. *)
  let pattern i = Char.chr (i land 0xff) in
  let total = ref 0 in
  for round = 1 to 50 do
    let len = 1 + ((round * 97) mod 700) in
    let src = Bytes.init len (fun i -> pattern (!total + i)) in
    let wrote = Bs.write bs ~src ~off:0 ~len in
    Alcotest.(check int) "fits" len wrote;
    let got = Bs.read bs ~dst:scratch ~off:0 ~len in
    Alcotest.(check int) "drained" len got;
    for i = 0 to len - 1 do
      if Bytes.get scratch i <> pattern (!total + i) then
        Alcotest.failf "corruption at round %d offset %d" round i
    done;
    total := !total + len
  done

let test_bytestream_validation () =
  let desc = Page.create () in
  Alcotest.check_raises "non power of two"
    (Invalid_argument "Bytestream.init: size must be a power of two") (fun () ->
      Bs.init ~desc ~data:[| Page.create () |] ~size:3000);
  Alcotest.check_raises "wrong pages"
    (Invalid_argument "Bytestream.init: wrong number of data pages") (fun () ->
      Bs.init ~desc ~data:[| Page.create () |] ~size:8192)

let prop_bytestream_fifo =
  QCheck.Test.make ~name:"bytestream preserves byte order under random ops" ~count:60
    QCheck.(list (pair bool (int_range 1 600)))
    (fun ops ->
      let bs = make_stream ~size:2048 () in
      let sent = Buffer.create 256 and received = Buffer.create 256 in
      let counter = ref 0 in
      List.iter
        (fun (is_write, len) ->
          if is_write then begin
            let src =
              Bytes.init len (fun _ ->
                  incr counter;
                  Char.chr (!counter land 0xff))
            in
            let wrote = Bs.write bs ~src ~off:0 ~len in
            Buffer.add_subbytes sent src 0 wrote
          end
          else begin
            let dst = Bytes.make len ' ' in
            let got = Bs.read bs ~dst ~off:0 ~len in
            Buffer.add_subbytes received dst 0 got
          end)
        ops;
      (* Drain the rest. *)
      let dst = Bytes.make 2048 ' ' in
      let rec drain () =
        let got = Bs.read bs ~dst ~off:0 ~len:2048 in
        if got > 0 then begin
          Buffer.add_subbytes received dst 0 got;
          drain ()
        end
      in
      drain ();
      Buffer.contents sent = Buffer.contents received)

(* ------------------------------------------------------------------ *)
(* Xensocket pipe *)

let make_world engine =
  let machine = Machine.create ~engine ~params:Hypervisor.Params.default ~id:0 () in
  let d1 = Machine.create_domain machine ~name:"g1" ~ip:(Netcore.Ip.make ~subnet:6 ~host:1) in
  let d2 = Machine.create_domain machine ~name:"g2" ~ip:(Netcore.Ip.make ~subnet:6 ~host:2) in
  (machine, d1, d2)

let test_pipe_end_to_end () =
  run_sim (fun engine ->
      let machine, d1, d2 = make_world engine in
      (* d2 is the receiver; d1 writes.  The handle travels out of band. *)
      let reader, handle =
        Xs.create_pipe ~machine ~owner:d2 ~writer_domid:(Domain.domid d1) ()
      in
      let writer =
        match Xs.connect ~machine ~domain:d1 ~reader_domid:(Domain.domid d2) handle with
        | Ok w -> w
        | Error e -> Alcotest.failf "connect failed: %s" e
      in
      let n = 500_000 in
      let data = Bytes.init n (fun i -> Char.chr (i * 3 land 0xff)) in
      Sim.Engine.spawn engine (fun () -> Xs.send writer data);
      let buf = Buffer.create n in
      while Buffer.length buf < n do
        Buffer.add_bytes buf (Xs.recv reader ~max:65536)
      done;
      Alcotest.(check bool) "500 KB byte-identical" true
        (Bytes.equal data (Buffer.to_bytes buf));
      (* Receiver-side batching: far fewer signals than bytes/packets. *)
      Alcotest.(check bool) "writer signalled rarely" true (Xs.signals_sent writer < 50))

let test_pipe_blocking_backpressure () =
  run_sim (fun engine ->
      let machine, d1, d2 = make_world engine in
      let reader, handle =
        Xs.create_pipe ~machine ~owner:d2 ~writer_domid:(Domain.domid d1) ~size:4096 ()
      in
      let writer =
        match Xs.connect ~machine ~domain:d1 ~reader_domid:(Domain.domid d2) handle with
        | Ok w -> w
        | Error e -> Alcotest.failf "connect: %s" e
      in
      let sent = ref false in
      Sim.Engine.spawn engine (fun () ->
          Xs.send writer (Bytes.make 10_000 'x');
          sent := true);
      Sim.Engine.sleep (Sim.Time.ms 5);
      Alcotest.(check bool) "writer blocked on a full 4K pipe" false !sent;
      let drained = ref 0 in
      while !drained < 10_000 do
        drained := !drained + Bytes.length (Xs.recv reader ~max:4096)
      done;
      Sim.Engine.sleep (Sim.Time.ms 1);
      Alcotest.(check bool) "writer completed after drain" true !sent)

let test_pipe_close_delivers_eof () =
  run_sim (fun engine ->
      let machine, d1, d2 = make_world engine in
      let reader, handle =
        Xs.create_pipe ~machine ~owner:d2 ~writer_domid:(Domain.domid d1) ()
      in
      let writer =
        match Xs.connect ~machine ~domain:d1 ~reader_domid:(Domain.domid d2) handle with
        | Ok w -> w
        | Error e -> Alcotest.failf "connect: %s" e
      in
      Sim.Engine.spawn engine (fun () ->
          Xs.send writer (Bytes.of_string "last words");
          Xs.close_writer writer);
      let first = Xs.recv reader ~max:100 in
      Alcotest.(check string) "data" "last words" (Bytes.to_string first);
      let eof = Xs.recv reader ~max:100 in
      Alcotest.(check int) "eof" 0 (Bytes.length eof))

(* The reader closes while the writer still maps the pipe: its pages
   cannot go back to the machine yet, or the next allocation could hand
   storage the writer still writes through to someone else. *)
let test_pipe_close_keeps_mapped_pages () =
  run_sim (fun engine ->
      let machine, d1, d2 = make_world engine in
      let frames = Machine.frame_allocator machine in
      let reader, handle =
        Xs.create_pipe ~machine ~owner:d2 ~writer_domid:(Domain.domid d1) ()
      in
      let _writer =
        match Xs.connect ~machine ~domain:d1 ~reader_domid:(Domain.domid d2) handle with
        | Ok w -> w
        | Error e -> Alcotest.failf "connect: %s" e
      in
      let pipe_pages = Memory.Frame_allocator.owned_by frames (Domain.domid d2) in
      Xs.close_reader reader;
      Alcotest.(check int) "mapped pages stay charged to the reader" pipe_pages
        (Memory.Frame_allocator.owned_by frames (Domain.domid d2));
      let fresh = Memory.Frame_allocator.fresh_pages frames in
      ignore (Memory.Frame_allocator.allocate frames ~owner:(Domain.domid d1));
      Alcotest.(check int) "and none is handed out again" (fresh + 1)
        (Memory.Frame_allocator.fresh_pages frames))

let test_pipe_wrong_domain_cannot_connect () =
  run_sim (fun engine ->
      let machine, d1, d2 = make_world engine in
      let d3 =
        Machine.create_domain machine ~name:"g3" ~ip:(Netcore.Ip.make ~subnet:6 ~host:3)
      in
      let _reader, handle =
        Xs.create_pipe ~machine ~owner:d2 ~writer_domid:(Domain.domid d1) ()
      in
      match Xs.connect ~machine ~domain:d3 ~reader_domid:(Domain.domid d2) handle with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "third domain connected to a pipe granted to d1")

(* ------------------------------------------------------------------ *)
(* Xway-style TCP interception *)

module Xw = Related.Xway

let make_xway_world engine =
  let params = Hypervisor.Params.default in
  let machine = Machine.create ~engine ~params ~id:0 () in
  let mk i =
    let domain =
      Machine.create_domain machine ~name:(Printf.sprintf "g%d" i)
        ~ip:(Netcore.Ip.make ~subnet:6 ~host:i)
    in
    let stack =
      Netstack.Stack.create ~engine ~params ~cpu:(Domain.cpu domain)
        ~ip:(Domain.ip domain) ~mac:(Domain.mac domain) ()
    in
    let tcp = Netstack.Tcp.attach stack in
    (domain, Xw.attach ~machine ~domain ~tcp)
  in
  (machine, mk 1, mk 2)

let test_xway_shared_memory_path () =
  run_sim (fun engine ->
      let _, (d1, x1), (d2, x2) = make_xway_world engine in
      (* Manual peering, both directions — XWay has no discovery. *)
      Xw.register_peer x1 ~peer_ip:(Domain.ip d2) x2;
      Xw.register_peer x2 ~peer_ip:(Domain.ip d1) x1;
      let listener =
        match Xw.listen x2 ~port:80 with Ok l -> l | Error _ -> Alcotest.fail "listen"
      in
      let got = ref Bytes.empty in
      Sim.Engine.spawn engine (fun () ->
          let conn = Xw.accept listener in
          Alcotest.(check bool) "server side is shm" true (Xw.is_shared_memory conn);
          let buf = Buffer.create 1000 in
          while Buffer.length buf < 100_000 do
            Buffer.add_bytes buf (Xw.recv conn ~max:65536)
          done;
          got := Buffer.to_bytes buf);
      (match Xw.connect x1 ~dst:(Domain.ip d2) ~dst_port:80 with
      | Ok conn ->
          Alcotest.(check bool) "client side is shm" true (Xw.is_shared_memory conn);
          Xw.send conn (Bytes.init 100_000 (fun i -> Char.chr (i * 7 land 0xff)))
      | Error e -> Alcotest.failf "connect: %a" Netstack.Tcp.pp_error e);
      Sim.Engine.sleep (Sim.Time.ms 100);
      Alcotest.(check bool) "100 KB intact over shm stream" true
        (Bytes.equal !got (Bytes.init 100_000 (fun i -> Char.chr (i * 7 land 0xff)))))

let test_xway_falls_back_without_registration () =
  (* No manual peering: XWay cannot find the co-resident peer and the
     connection must take ordinary TCP — the administration burden the
     XenLoop paper calls out. *)
  run_sim (fun engine ->
      let _, (d1, x1), (d2, x2) = make_xway_world engine in
      ignore d1;
      (* There is no network between these stacks (no devices), so a real
         TCP connect fails outright: exactly what "fell back to TCP" means
         here. *)
      ignore x2;
      match Xw.connect x1 ~dst:(Domain.ip d2) ~dst_port:80 with
      | Ok conn -> Alcotest.(check bool) "not shm" false (Xw.is_shared_memory conn)
      | Error _ -> ()
      | exception Netstack.Stack.No_route _ -> () (* TCP path attempted *))

let test_xway_listener_required () =
  run_sim (fun engine ->
      let _, (d1, x1), (d2, x2) = make_xway_world engine in
      ignore d1;
      Xw.register_peer x1 ~peer_ip:(Domain.ip d2) x2;
      (* Peer registered but nothing listening on the port: no shm pipe. *)
      match Xw.connect x1 ~dst:(Domain.ip d2) ~dst_port:81 with
      | Ok conn -> Alcotest.(check bool) "not shm" false (Xw.is_shared_memory conn)
      | Error _ -> ()
      | exception Netstack.Stack.No_route _ -> () (* TCP path attempted *))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suites =
  [
    ( "related.bytestream",
      [
        Alcotest.test_case "roundtrip" `Quick test_bytestream_roundtrip;
        Alcotest.test_case "fills exactly" `Quick test_bytestream_fills_exactly;
        Alcotest.test_case "wraps" `Quick test_bytestream_wraps;
        Alcotest.test_case "validation" `Quick test_bytestream_validation;
      ]
      @ qsuite [ prop_bytestream_fifo ] );
    ( "related.xensocket",
      [
        Alcotest.test_case "end to end" `Quick test_pipe_end_to_end;
        Alcotest.test_case "blocking backpressure" `Quick test_pipe_blocking_backpressure;
        Alcotest.test_case "close delivers eof" `Quick test_pipe_close_delivers_eof;
        Alcotest.test_case "close keeps mapped pages" `Quick
          test_pipe_close_keeps_mapped_pages;
        Alcotest.test_case "grant isolation" `Quick test_pipe_wrong_domain_cannot_connect;
      ] );
    ( "related.xway",
      [
        Alcotest.test_case "shared-memory stream" `Quick test_xway_shared_memory_path;
        Alcotest.test_case "no registration, no shm" `Quick
          test_xway_falls_back_without_registration;
        Alcotest.test_case "listener required" `Quick test_xway_listener_required;
      ] );
  ]
