(* Allocation-regression tests: the simulator hot paths must not allocate
   on the minor heap in steady state.  Each test warms the path to steady
   state (pools populated, wheel slots touched), then measures
   [Gc.minor_words] across many iterations.

   The wheel and FIFO paths are plain mutation and must be EXACTLY zero.
   The engine paths carry a documented slack that is the OCaml effects
   runtime, not engine bookkeeping:

   - a sleep/wake cycle is an [Effect.perform] + [Effect.Deep.continue]
     pair, which allocates the suspended continuation (10 minor words per
     event as of OCaml 5.1);
   - every callback entry is an [Effect.Deep.match_with], which allocates
     a fresh fiber (5 minor words per event).

   If either number creeps above the bound, engine bookkeeping has started
   allocating again — the regression these tests exist to catch. *)

let minor_per_iter ~iters f =
  let before = Gc.minor_words () in
  for _ = 1 to iters do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int iters

let check_words name ~bound per =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.2f minor words/iter (bound %.1f)" name per bound)
    true (per <= bound)

let test_wheel_cycle_zero_alloc () =
  let module W = Sim.Wheel in
  let w = W.create ~dummy:0 in
  let seq = ref 0 in
  Array.iter
    (fun c ->
      c.W.c_time <- 1_000;
      c.W.c_seq <- !seq;
      incr seq;
      W.insert w c)
    (Array.init 64 (fun i -> W.make_cell w i));
  let per =
    minor_per_iter ~iters:50_000 (fun () ->
        let c = W.pop w in
        c.W.c_time <- c.W.c_time + 5_000;
        c.W.c_seq <- !seq;
        incr seq;
        W.insert w c)
  in
  check_words "wheel pop+insert" ~bound:0.0 per

let test_fifo_roundtrip_zero_alloc () =
  let module Page = Memory.Page in
  let module Fifo = Xenloop.Fifo in
  let k = 8 in
  let desc = Page.create () in
  let data = Array.init (Fifo.data_pages_for ~k) (fun _ -> Page.create ()) in
  Fifo.init ~desc ~data ~k;
  let tx = Fifo.attach ~desc ~data in
  let rx = Fifo.attach ~desc ~data in
  let payload = Bytes.make 1_400 'x' in
  let dst = Bytes.create (Fifo.max_packet rx) in
  (* Warm one cycle so first-touch effects are outside the window. *)
  ignore (Fifo.push_entry tx ~pool:None ~inline_max:max_int ~proto_hint:0 payload);
  ignore (Fifo.pop_into rx dst);
  let per =
    minor_per_iter ~iters:50_000 (fun () ->
        ignore (Fifo.push_entry tx ~pool:None ~inline_max:max_int ~proto_hint:0 payload);
        ignore (Fifo.pop_into rx dst))
  in
  check_words "fifo push_entry+pop_into" ~bound:0.0 per

let test_busy_poll_receive_zero_alloc () =
  (* A descriptor receive cycle on the zero-allocation entry points
     (DESIGN.md §10): producer writes a slot and publishes a descriptor;
     the consumer pops it with [pop_into], borrows the slot, reads it
     into a reusable scratch buffer, and releases the borrow.  Like the
     FIFO path it extends, it must allocate EXACTLY nothing.  (The test
     name dates from the removed busy-poll mode; the channel's own
     receive path pops with [pop_into] too.) *)
  let module Page = Memory.Page in
  let module Fifo = Xenloop.Fifo in
  let module Pool = Xenloop.Payload_pool in
  let k = 8 in
  let desc = Page.create () in
  let data = Array.init (Fifo.data_pages_for ~k) (fun _ -> Page.create ()) in
  Fifo.init ~desc ~data ~k;
  let tx = Fifo.attach ~desc ~data in
  let rx = Fifo.attach ~desc ~data in
  let slots = 8 in
  let pctrl = Page.create () in
  let pdata = Array.init slots (fun _ -> Page.create ()) in
  let pool =
    Pool.init ~max_loans:slots ~ctrl:pctrl ~data:pdata ~slots ~slot_pages:1
      ~inline_max:64 ()
  in
  let len = 1_400 in
  let payload = Bytes.make len 'x' in
  let scratch = Bytes.create (Fifo.max_packet rx) in
  let cycle () =
    let slot = Pool.alloc_slot pool in
    Pool.write_at pool ~slot ~off:0 ~src:payload ~src_off:0 ~len;
    ignore (Fifo.try_push_desc tx ~slot ~offset:0 ~len ~proto_hint:17 ());
    let code = Fifo.pop_into rx scratch in
    if code <> Fifo.popped_desc then Alcotest.fail "expected a descriptor";
    let s = Fifo.desc_slot rx in
    Pool.loan pool s;
    Pool.read_into pool ~slot:s ~off:0 ~len:(Fifo.desc_len rx) ~dst:scratch
      ~dst_off:0;
    Pool.release pool s
  in
  (* Warm one cycle so first-touch effects are outside the window. *)
  cycle ();
  let per = minor_per_iter ~iters:50_000 cycle in
  check_words "pop_into+loan+read_into+release" ~bound:0.0 per

let test_engine_sleep_wake_slack () =
  let e = Sim.Engine.create () in
  Sim.Engine.spawn e (fun () ->
      for _ = 1 to 1_000_000 do
        Sim.Engine.sleep (Sim.Time.us 1)
      done);
  Sim.Engine.spawn e (fun () ->
      for _ = 1 to 1_000_000 do
        Sim.Engine.sleep (Sim.Time.us 3)
      done);
  for _ = 1 to 100 do
    ignore (Sim.Engine.step e)
  done;
  let per = minor_per_iter ~iters:50_000 (fun () -> ignore (Sim.Engine.step e)) in
  (* 10 words = the perform/continue continuation; +2 headroom for future
     compiler versions, still far below one boxed closure per event. *)
  check_words "engine step, sleep/wake pair" ~bound:12.0 per

let test_engine_timer_fire_slack () =
  let e = Sim.Engine.create () in
  ignore (Sim.Engine.every e (Sim.Time.us 1) (fun () -> ()));
  for _ = 1 to 100 do
    ignore (Sim.Engine.step e)
  done;
  let per = minor_per_iter ~iters:50_000 (fun () -> ignore (Sim.Engine.step e)) in
  (* 5 words = the match_with fiber; +1 headroom. *)
  check_words "engine step, periodic timer fire" ~bound:6.0 per

(* Host copy budget of the XenLoop bulk path (DESIGN.md §10).  Frames
   of 64 KiB are far above the minor-heap size limit, so every host copy
   of a byte is one direct major-heap allocation of it: direct major
   words per delivered byte, times 8, counts the copies.  Three remain —
   the sender's retransmit copy, the receiver's payload read out of the
   pool slots and the socket's recv copy; the rest is per-connection and
   per-segment allocation.  The sender writes each jumbo from its packet
   straight into the pool slots, so a fourth copy (serializing the frame
   into a buffer of its own first) lands above 4.  Promoted words are
   left out, so when minor collections happen does not enter; the count
   is deterministic. *)
let test_xenloop_bulk_copy_budget () =
  let duo = Scenarios.Setup.build Scenarios.Setup.Xenloop_path in
  let host (ep : Scenarios.Endpoint.t) =
    { Workloads.Host.stack = ep.Scenarios.Endpoint.stack; udp = ep.udp; tcp = ep.tcp }
  in
  let direct_major () =
    (* The major-word count lags until the next minor collection. *)
    Gc.minor ();
    let st = Gc.quick_stat () in
    st.Gc.major_words -. st.Gc.promoted_words
  in
  let words, delivered =
    Scenarios.Experiment.execute duo (fun () ->
        let before = direct_major () in
        let r =
          Workloads.Netperf.tcp_stream ~client:(host duo.Scenarios.Setup.client)
            ~server:(host duo.Scenarios.Setup.server) ~dst:duo.Scenarios.Setup.server_ip
            ~message_size:65536 ~total_bytes:(8 * 1024 * 1024) ()
        in
        (direct_major () -. before, r.Workloads.Netperf.bytes_received))
  in
  Alcotest.(check bool) "whole stream delivered" true (delivered >= 8 * 1024 * 1024);
  let copies = words *. 8.0 /. float_of_int delivered in
  Alcotest.(check bool)
    (Printf.sprintf "%.3f host copies per delivered byte (bound 3.5)" copies)
    true (copies <= 3.5)

(* A counter bump at queue level walks up to the module scope; either
   level is plain array mutation. *)
let test_counter_bump_zero_alloc () =
  let module C = Sim.Counters in
  let reg = C.registry "alloc" in
  let a = C.counter reg "a" and b = C.counter reg "b" in
  let m = C.scope reg in
  let q = C.scope ~parent:m reg in
  let per =
    minor_per_iter ~iters:100_000 (fun () ->
        C.bump q a;
        C.add q b 3;
        C.bump m a)
  in
  check_words "counter bumps" ~bound:0.0 per

(* Host memory for channel churn: each bring-up on a cap-1 pair takes
   its pages from the storage the previous teardown released, so after
   the first cycle the machine carves nothing new.  A count of fresh
   pages, not RSS: deterministic and independent of the GC. *)
let test_channel_churn_reuses_frames () =
  let module Gm = Xenloop.Guest_module in
  let module Fa = Memory.Frame_allocator in
  Testutil.with_cap1_pair (fun t frames ->
      let m0 = t.Scenarios.Mesh.guests.(0).Scenarios.Mesh.g_module in
      let cycle () =
        Scenarios.Mesh.ping t ~src:0 ~dst:1;
        Sim.Engine.sleep (Sim.Time.ms 2);
        Alcotest.(check int) "channel up" 1 (Gm.active_channel_count m0);
        Alcotest.(check bool) "evicted" true (Gm.evict_lru m0);
        (* Past the cooldown and the reaper: every page is back. *)
        Sim.Engine.sleep (Sim.Time.ms 10)
      in
      cycle ();
      let after_first = Fa.fresh_pages frames in
      Alcotest.(check bool) "the first bring-up carved its pages" true
        (after_first > 0);
      for _ = 2 to 20 do
        cycle ()
      done;
      Alcotest.(check int) "19 more cycles carved nothing" after_first
        (Fa.fresh_pages frames);
      Alcotest.(check int) "all 20 bring-ups happened" 20
        (Gm.stats m0).Gm.channels_established)

let suites =
  [
    ( "sim.alloc",
      [
        Alcotest.test_case "wheel cycle allocates nothing" `Quick test_wheel_cycle_zero_alloc;
        Alcotest.test_case "fifo roundtrip allocates nothing" `Quick
          test_fifo_roundtrip_zero_alloc;
        Alcotest.test_case "busy-poll receive cycle allocates nothing" `Quick
          test_busy_poll_receive_zero_alloc;
        Alcotest.test_case "engine sleep/wake within effect slack" `Quick
          test_engine_sleep_wake_slack;
        Alcotest.test_case "engine timer fire within fiber slack" `Quick
          test_engine_timer_fire_slack;
        Alcotest.test_case "xenloop bulk stream within copy budget" `Quick
          test_xenloop_bulk_copy_budget;
        Alcotest.test_case "counter bumps allocate nothing" `Quick
          test_counter_bump_zero_alloc;
        Alcotest.test_case "channel churn carves no fresh pages" `Quick
          test_channel_churn_reuses_frames;
      ] );
  ]
