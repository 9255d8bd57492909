(* Multi-queue channel tests: queue-count negotiation, deterministic flow
   steering, per-queue notification independence, and stranded-frame
   reclaim across several queues at teardown. *)

module Setup = Scenarios.Setup
module Experiment = Scenarios.Experiment
module Gm = Xenloop.Guest_module
module Steering = Xenloop.Steering
module Stack = Netstack.Stack

let host_of (ep : Scenarios.Endpoint.t) =
  { Workloads.Host.stack = ep.Scenarios.Endpoint.stack; udp = ep.udp; tcp = ep.tcp }

let modules_of duo =
  match duo.Setup.modules with
  | [ m1; m2 ] -> (m1, m2)
  | _ -> Alcotest.fail "expected two xenloop modules"

(* Packets the flow hash put on this queue, from a per-queue snapshot. *)
let steered q = Sim.Counters.value q "steered_packets"

let client_ip duo = Stack.ip_addr duo.Setup.client.Scenarios.Endpoint.stack

(* Smallest source port >= [from] whose flow lands on queue [want]. *)
let port_on_queue ~proto ~src ~dst ~dport ~queues ~want ~from =
  let rec go p =
    if p > from + 4096 then Alcotest.fail "no port found for target queue"
    else
      let q =
        Steering.queue_index
          (Steering.ip_flow ~proto ~src ~dst ~sport:p ~dport)
          ~queues
      in
      if q = want then p else go (p + 1)
  in
  go from

(* ------------------------------------------------------------------ *)

let test_handshake_negotiates_min () =
  (* A queues=1 peer (the legacy wire format) meets a queues=4 peer: both
     sides must fall back to a single queue pair, and data still flows. *)
  let duo = Setup.build ~client_queues:1 ~server_queues:4 Setup.Xenloop_path in
  let m1, m2 = modules_of duo in
  let client = host_of duo.Setup.client and server = host_of duo.Setup.server in
  Experiment.execute duo (fun () ->
      Alcotest.(check int) "client advertises 1" 1 (Gm.max_queues m1);
      Alcotest.(check int) "server advertises 4" 4 (Gm.max_queues m2);
      Alcotest.(check int) "client negotiated down to 1" 1
        (Gm.queue_count m1 ~domid:2);
      Alcotest.(check int) "server negotiated down to 1" 1
        (Gm.queue_count m2 ~domid:1);
      Alcotest.(check int) "a single queue's stats" 1
        (Array.length (Gm.queue_counters m1 ~domid:2));
      let before = (Gm.stats m1).Gm.via_channel_tx in
      let r =
        Workloads.Netperf.udp_rr ~client ~server ~dst:duo.Setup.server_ip
          ~transactions:20 ()
      in
      Alcotest.(check int) "transactions completed" 20
        r.Workloads.Netperf.transactions;
      Alcotest.(check bool) "requests rode the single-queue channel" true
        ((Gm.stats m1).Gm.via_channel_tx >= before + 20))

let test_symmetric_default_negotiates_full () =
  let duo = Setup.build Setup.Xenloop_path in
  let m1, m2 = modules_of duo in
  Experiment.execute duo (fun () ->
      let expect = duo.Setup.params.Hypervisor.Params.xenloop_queues in
      Alcotest.(check int) "client side" expect (Gm.queue_count m1 ~domid:2);
      Alcotest.(check int) "server side" expect (Gm.queue_count m2 ~domid:1);
      Alcotest.(check int) "per-queue stats array" expect
        (Array.length (Gm.queue_counters m1 ~domid:2)))

let test_flow_to_queue_determinism () =
  let duo = Setup.build Setup.Xenloop_path in
  let m1, _ = modules_of duo in
  let client = host_of duo.Setup.client and server = host_of duo.Setup.server in
  Experiment.execute duo (fun () ->
      let src = client_ip duo and dst = duo.Setup.server_ip in
      (* Pure properties: stability, range, and the single-queue collapse. *)
      let key = Steering.ip_flow ~proto:6 ~src ~dst ~sport:1234 ~dport:80 in
      Alcotest.(check int) "same key, same queue"
        (Steering.queue_index key ~queues:4)
        (Steering.queue_index key ~queues:4);
      Alcotest.(check int) "queues=1 always queue 0" 0
        (Steering.queue_index key ~queues:1);
      List.iter
        (fun queues ->
          let q = Steering.queue_index key ~queues in
          Alcotest.(check bool) "index within range" true (q >= 0 && q < queues))
        [ 2; 4; 8 ];
      (* TCP 5-tuples spread: some nearby port must map elsewhere. *)
      let q0 = Steering.queue_index key ~queues:4 in
      let spread =
        List.exists
          (fun p ->
            Steering.queue_index
              (Steering.ip_flow ~proto:6 ~src ~dst ~sport:p ~dport:80)
              ~queues:4
            <> q0)
          (List.init 16 (fun i -> 1235 + i))
      in
      Alcotest.(check bool) "5-tuple hash spreads across queues" true spread;
      (* End to end: UDP steers on the 3-tuple, so every datagram — from
         either source port, fragmented or not — lands on one predicted
         queue. *)
      let nq = Gm.queue_count m1 ~domid:2 in
      let predicted =
        Steering.queue_index
          (Steering.ip_flow ~proto:17 ~src ~dst ~sport:0 ~dport:0)
          ~queues:nq
      in
      let server_sock =
        match Netstack.Udp.bind server.Workloads.Host.udp ~port:905 () with
        | Ok s -> s
        | Error _ -> Alcotest.fail "bind"
      in
      let sock_a =
        match Netstack.Udp.bind client.Workloads.Host.udp ~port:31000 () with
        | Ok s -> s
        | Error _ -> Alcotest.fail "bind"
      in
      let sock_b =
        match Netstack.Udp.bind client.Workloads.Host.udp ~port:32000 () with
        | Ok s -> s
        | Error _ -> Alcotest.fail "bind"
      in
      let before = Gm.queue_counters m1 ~domid:2 in
      for _ = 1 to 3 do
        Netstack.Udp.sendto sock_a ~dst ~dst_port:905 (Bytes.make 100 'a');
        Netstack.Udp.sendto sock_b ~dst ~dst_port:905 (Bytes.make 100 'b')
      done;
      (* Fragments carry no ports; the 3-tuple keeps them with their flow. *)
      Netstack.Udp.sendto sock_a ~dst ~dst_port:905 (Bytes.make 5000 'f');
      for _ = 1 to 7 do
        let (_ : Netcore.Ip.t * int * Bytes.t) =
          Netstack.Udp.recvfrom server_sock
        in
        ()
      done;
      let after = Gm.queue_counters m1 ~domid:2 in
      Array.iteri
        (fun q st ->
          let d = steered st - steered before.(q) in
          if q = predicted then
            Alcotest.(check bool) "all datagrams on the predicted queue" true
              (d >= 10)
          else
            Alcotest.(check int)
              (Printf.sprintf "queue %d untouched" q)
              0 d)
        after)

let test_per_queue_suppression_independence () =
  (* A bulk stream saturates its queue (notifications suppressed while the
     consumer stays active); a latency flow steered to a different queue
     must still ring its own doorbell. *)
  let duo = Setup.build Setup.Xenloop_path in
  let m1, _ = modules_of duo in
  let client = host_of duo.Setup.client and server = host_of duo.Setup.server in
  Experiment.execute duo (fun () ->
      let nq = Gm.queue_count m1 ~domid:2 in
      Alcotest.(check bool) "channel is multi-queue" true (nq >= 2);
      let src = client_ip duo and dst = duo.Setup.server_ip in
      let stream_q =
        Steering.queue_index
          (Steering.ip_flow ~proto:17 ~src ~dst ~sport:0 ~dport:0)
          ~queues:nq
      in
      let rr_port = 9200 in
      let rr_client_port =
        let rec pick p =
          if p > 44096 then Alcotest.fail "no off-queue port"
          else
            let q =
              Steering.queue_index
                (Steering.ip_flow ~proto:6 ~src ~dst ~sport:p ~dport:rr_port)
                ~queues:nq
            in
            if q <> stream_q then p else pick (p + 1)
        in
        pick 40001
      in
      let rr_q =
        Steering.queue_index
          (Steering.ip_flow ~proto:6 ~src ~dst ~sport:rr_client_port
             ~dport:rr_port)
          ~queues:nq
      in
      let before = Gm.queue_counters m1 ~domid:2 in
      let finished = ref false in
      let done_cond = Sim.Condition.create () in
      Sim.Engine.spawn duo.Setup.engine (fun () ->
          let (_ : Workloads.Netperf.stream_result) =
            Workloads.Netperf.udp_stream ~client ~server ~dst ~port:9100
              ~message_size:16384 ~total_bytes:(512 * 1024) ()
          in
          finished := true;
          Sim.Condition.broadcast done_cond);
      Sim.Engine.sleep (Sim.Time.us 50);
      let (_ : Workloads.Netperf.rr_result) =
        Workloads.Netperf.tcp_rr ~client ~server ~dst ~port:rr_port
          ~client_port:rr_client_port ~transactions:20 ()
      in
      while not !finished do
        Sim.Condition.await done_cond
      done;
      let after = Gm.queue_counters m1 ~domid:2 in
      let delta q f = f after.(q) - f before.(q) in
      Alcotest.(check bool) "stream queue suppressed notifications" true
        (delta stream_q (fun s -> Sim.Counters.value s "notifies_suppressed") > 0);
      Alcotest.(check bool) "rr queue rang its own doorbell" true
        (delta rr_q (fun s -> Sim.Counters.value s "notifies_sent") > 0);
      Alcotest.(check bool) "rr traffic steered to its queue" true
        (delta rr_q steered >= 20))

let test_multiqueue_stranded_teardown_reclaim () =
  (* Flood every queue of a tiny-FIFO channel with app payloads and unload
     the sender while frames still sit un-consumed in several out-FIFOs and
     waiting lists.  Teardown must reclaim the stranded frames from each
     queue and flush them via the standard path: nothing is lost, per-flow
     order holds, and every channel page goes back to the pool. *)
  let duo = Setup.build ~fifo_k:8 Setup.Xenloop_path in
  let m1, m2 = modules_of duo in
  let machine = Option.get duo.Setup.machine in
  let frames = Hypervisor.Machine.frame_allocator machine in
  Experiment.execute duo (fun () ->
      let nq = Gm.queue_count m1 ~domid:2 in
      Alcotest.(check bool) "channel is multi-queue" true (nq >= 2);
      let src = client_ip duo and dst = duo.Setup.server_ip in
      (* One app-payload flow per queue: shortcut payloads steer like UDP,
         so distinct source ports can be chosen to hit every queue. *)
      let flow_port =
        Array.init nq (fun want ->
            port_on_queue ~proto:17 ~src ~dst ~dport:7777 ~queues:nq ~want
              ~from:20000)
      in
      let received = Hashtbl.create 16 in
      Gm.set_app_payload_handler m2
        (fun ~src_ip:_ ~src_port ~dst_port:_ payload ->
          let seq = int_of_string (String.sub (Bytes.to_string payload) 0 4) in
          let prev =
            match Hashtbl.find_opt received src_port with
            | Some l -> l
            | None -> []
          in
          Hashtbl.replace received src_port (seq :: prev));
      let per_flow = 50 in
      let steered_before = Gm.queue_counters m1 ~domid:2 in
      (* Hog the server's vCPU for the duration of the burst so its drain
         handlers queue behind us: the frames provably pile up inside the
         channel rather than being consumed as fast as they are pushed. *)
      Sim.Engine.spawn duo.Setup.engine (fun () ->
          Sim.Resource.use
            (Stack.cpu duo.Setup.server.Scenarios.Endpoint.stack)
            (Sim.Time.ms 5));
      for seq = 0 to per_flow - 1 do
        Array.iter
          (fun sport ->
            let payload =
              Bytes.of_string (Printf.sprintf "%04d%s" seq (String.make 44 'x'))
            in
            Alcotest.(check bool) "payload accepted by the channel" true
              (Gm.send_app_payload m1 ~dst_ip:dst ~src_port:sport
                 ~dst_port:7777 payload))
          flow_port
      done;
      let steered_after = Gm.queue_counters m1 ~domid:2 in
      Array.iteri
        (fun q st ->
          Alcotest.(check bool)
            (Printf.sprintf "queue %d carried its flow" q)
            true
            (steered st - steered steered_before.(q) >= per_flow))
        steered_after;
      (* The 2 KiB per-queue FIFOs cannot hold 50 frames: at this instant
         frames are stranded in-flight on every queue. *)
      Alcotest.(check bool) "frames parked beyond the FIFOs" true
        (Gm.waiting_list_length m1 ~domid:2 > 0);
      Gm.unload m1;
      Sim.Engine.sleep (Sim.Time.ms 10);
      Array.iter
        (fun sport ->
          let seqs =
            match Hashtbl.find_opt received sport with
            | Some l -> List.rev l
            | None -> []
          in
          Alcotest.(check (list int))
            (Printf.sprintf "flow %d complete and in order" sport)
            (List.init per_flow Fun.id) seqs)
        flow_port;
      Alcotest.(check (list int)) "peer disengaged" []
        (Gm.connected_peer_ids m2);
      Alcotest.(check int) "all channel pages returned" 0
        (Memory.Frame_allocator.owned_by frames 1))

(* Queue scopes roll up into the module scope, so what a channel's queues
   counted stays in the module totals after the channel is retired —
   evicted by the bounded-state policy or torn down by an unload. *)
let test_totals_survive_retirement () =
  List.iter
    (fun (how, retire) ->
      let duo = Setup.build Setup.Xenloop_path in
      let m1, _ = modules_of duo in
      let client = host_of duo.Setup.client and server = host_of duo.Setup.server in
      Experiment.execute duo (fun () ->
          let (_ : Workloads.Netperf.stream_result) =
            Workloads.Netperf.udp_stream ~client ~server ~dst:duo.Setup.server_ip
              ~message_size:4096 ~total_bytes:(256 * 1024) ()
          in
          let queues = Gm.queue_counters m1 ~domid:2 in
          let queue_sum name =
            Array.fold_left (fun acc q -> acc + Sim.Counters.value q name) 0 queues
          in
          let before = Gm.counters m1 in
          Alcotest.(check bool) (how ^ ": traffic was steered") true
            (queue_sum "steered_packets" > 0);
          retire m1;
          Alcotest.(check int) (how ^ ": channel retired") 0
            (Array.length (Gm.queue_counters m1 ~domid:2));
          let after = Gm.counters m1 in
          List.iter
            (fun name ->
              Alcotest.(check int)
                (Printf.sprintf "%s: module %s keeps the queues' counts" how name)
                (queue_sum name) (Sim.Counters.value after name))
            [ "steered_packets"; "desc_tx"; "inline_tx"; "pool_fallbacks"; "loan_tx" ];
          Alcotest.(check int) (how ^ ": the stats view agrees")
            (Sim.Counters.value after "steered_packets")
            (Gm.stats m1).Gm.steered_packets;
          Alcotest.(check bool) (how ^ ": no module total fell") true
            (List.for_all2 (fun (_, b) (_, a) -> a >= b) before after)))
    [ ("evict", fun m -> ignore (Gm.evict_lru m)); ("unload", Gm.unload) ]

let suites =
  [
    ( "xenloop.multiqueue",
      [
        Alcotest.test_case "asymmetric handshake falls back to 1" `Quick
          test_handshake_negotiates_min;
        Alcotest.test_case "symmetric handshake keeps all queues" `Quick
          test_symmetric_default_negotiates_full;
        Alcotest.test_case "flow-to-queue steering is deterministic" `Quick
          test_flow_to_queue_determinism;
        Alcotest.test_case "per-queue suppression independence" `Quick
          test_per_queue_suppression_independence;
        Alcotest.test_case "stranded multi-queue teardown reclaim" `Quick
          test_multiqueue_stranded_teardown_reclaim;
        Alcotest.test_case "module totals survive channel retirement" `Quick
          test_totals_survive_retirement;
      ] );
  ]
