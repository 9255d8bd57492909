(* The three workloads.  Each repetition builds a fresh world through the
   public scenario API with [Hypervisor.Params.default] (mesh_churn
   lowers only the channel cap), warms it up, runs the measured function
   under [Scenarios.Experiment.run_process] with its default limit, and
   returns every metric of the catalogue plus the failed output checks.
   The seed drives only the inputs generated here. *)

module Setup = Scenarios.Setup
module Mesh = Scenarios.Mesh
module Experiment = Scenarios.Experiment
module Endpoint = Scenarios.Endpoint
module Gm = Xenloop.Guest_module
module Tcp = Netstack.Tcp
module Udp = Netstack.Udp
module Netperf = Workloads.Netperf

type workload = Bulk_tcp | Rr_loaded | Mesh_churn

let all = [ Bulk_tcp; Rr_loaded; Mesh_churn ]

let name = function
  | Bulk_tcp -> "bulk_tcp"
  | Rr_loaded -> "rr_loaded"
  | Mesh_churn -> "mesh_churn"

let of_name s = List.find_opt (fun w -> name w = s) all

type rep = {
  values : (string * float) list;  (** every catalogue metric but peak RSS and tracer overhead *)
  outcome : Pstats.outcome;
  errors : string list;  (** failed output checks *)
}

(* --- sizes ------------------------------------------------------------- *)

let mib = 1 lsl 20

(* bulk_tcp: one closed-loop connection moving 1 GiB in writes of 56 to
   64 KiB (1 KiB steps, drawn from the seed), so every write fits one
   64 KiB jumbo.  1 GiB gives 1024 per-MiB delivery samples, enough for
   a p99 with ten beyond it. *)
let bulk_total = 1024 * mib
let bulk_msg_max = 65536
let bulk_msg_sizes = 9

(* rr_loaded: closed-loop 1-byte TCP_RR beside an open-loop UDP
   background of [bg_burst] datagrams of 64..256 B every [bg_period_us],
   each burst jittered by up to [bg_jitter_us].  At twice this rate the
   channel's waiting list overflows onto netfront, which the fast-path
   check rejects. *)
let rr_transactions = 20_000
let bg_burst = 8
let bg_period_us = 100
let bg_jitter_us = 20
let bg_min_size = 64
let bg_max_size = 256

(* mesh_churn: 8 guests on 2 hosts, 4 per host, at most one channel per
   guest.  Each round one guest of one host (alternating) pings its
   co-resident ring successor, which evicts a channel on each side and
   bootstraps a new one, and every guest pings every guest on the other
   host over netfront, the bridge and the switch.  30 rounds give 1020
   pings (the co-resident contact is two: the bring-up and one over the
   new channel), 30 of them bring-ups: a p99 with ten samples beyond it,
   sitting among the bring-ups.  Bring-ups are kept few because each
   costs about 20 ms of host time and its channel memory (about 11 MiB)
   stays resident until the world is dropped. *)
let mesh_guests = 8
let mesh_hosts = 2
let mesh_cap = 1
let mesh_rounds = 30
let ping_min = 32
let ping_max = 1024

let nominal_hz = 1e9

(* --- shared helpers ---------------------------------------------------- *)

let now_s () = Unix.gettimeofday ()
let sim_s engine = Sim.Time.instant_to_sec_f (Sim.Engine.now engine)

let host_of (ep : Endpoint.t) =
  { Workloads.Host.stack = ep.Endpoint.stack; udp = ep.Endpoint.udp; tcp = ep.Endpoint.tcp }

let ok_or_fail what = function Ok v -> v | Error _ -> failwith ("perfbench: " ^ what)

(* Host timing of one repetition, filled in as it runs. *)
type clock = {
  mutable t0 : float;
  mutable built : float;
  mutable warm_start : float;
  mutable warm_end : float;
  mutable measured_end : float;
  mutable returned : float;
  mutable warm_sim_s : float;
  mutable events_at_measured_end : int;
  mutable events_at_return : int;
  mutable events_at_warm_end : int;
}

let new_clock () =
  {
    t0 = now_s ();
    built = 0.0;
    warm_start = 0.0;
    warm_end = 0.0;
    measured_end = 0.0;
    returned = 0.0;
    warm_sim_s = 0.0;
    events_at_measured_end = 0;
    events_at_return = 0;
    events_at_warm_end = 0;
  }

(* Counter deltas recorded at span boundaries in the traced run. *)
let span_counts (w : World.t) () =
  let s = World.snapshot w in
  [
    ("sim.events", float_of_int s.World.events);
    ("sim.minor_words", s.World.minor_words);
    ("xenloop.via_channel_tx", float_of_int s.World.via_channel_tx);
    ("xenloop.channels_established", float_of_int s.World.channels_established);
    ("memory.page_zeroes", float_of_int s.World.page_zeroes);
    ("xennet.vif_tx_packets", float_of_int s.World.vif_tx_packets);
  ]

(* Build the world, then run [warmup] and [measure] in one simulation
   process under the default limit.  The drain — the engine running on
   after [measure] returned, until [run_process]'s limit — is part of
   [run_s], as every experiment pays it. *)
let drive ~build ~world ~warmup ~measure =
  let c = new_clock () in
  let built = Spans.with_span ~sim_now:(fun () -> 0.0) "scenarios.build" build in
  c.built <- now_s ();
  let w : World.t = world built in
  let sim_now () = sim_s w.World.engine in
  let counts = span_counts w in
  let drain = ref None in
  let result =
    Experiment.run_process w.World.engine (fun () ->
        c.warm_start <- now_s ();
        Spans.with_span ~counts ~sim_now "scenarios.warmup" (fun () -> warmup built);
        c.warm_end <- now_s ();
        c.warm_sim_s <- sim_now ();
        c.events_at_warm_end <- Sim.Engine.events_executed w.World.engine;
        let r = measure built w ~sim_now ~counts in
        c.measured_end <- now_s ();
        c.events_at_measured_end <- Sim.Engine.events_executed w.World.engine;
        drain := Spans.open_span ~counts ~sim_now "sim.drain";
        r)
  in
  c.returned <- now_s ();
  c.events_at_return <- Sim.Engine.events_executed w.World.engine;
  Spans.close_span ~sim_now !drain;
  (w, c, result)

type measured = {
  s0 : World.snap;
  s1 : World.snap;
  ops : int;
  app_bytes : int;  (** application bytes delivered, all flows *)
  goodput_interval_s : float;  (** simulated interval [app_bytes] are counted over *)
  lat_p50_us : float;
  lat_p99_us : float;
  lat_n : int;  (** per-operation latency samples behind the percentiles *)
  udp_drops : int;
  outcome : Pstats.outcome;
  gen_late_us : float;
  pool_peak_bytes : int;
  errors : string list;
}

let fast_path_share (d : World.snap) (e : World.snap) =
  let via = e.World.via_channel_tx - d.World.via_channel_tx in
  let vif = e.World.vif_tx_packets - d.World.vif_tx_packets in
  Pstats.share ~num:via ~den:(via + vif)

(* The catalogue's values from one repetition. *)
let values_of ~(w : World.t) ~(c : clock) (m : measured) =
  let d = m.s0 and e = m.s1 in
  let dl f = f e - f d in
  let interval_s = Int64.to_float (Int64.sub e.World.sim_ns d.World.sim_ns) /. 1e9 in
  let per_op n = float_of_int n /. float_of_int (max 1 m.ops) in
  let busy = e.World.guest_busy_s -. d.World.guest_busy_s in
  let dom0_busy = e.World.dom0_busy_s -. d.World.dom0_busy_s in
  let run_s = c.returned -. c.warm_end in
  let i = float_of_int in
  [
    ("setup_s", c.built -. c.t0 +. (c.warm_end -. c.warm_start));
    ("run_s", run_s);
    ("goodput_mbps", i m.app_bytes *. 8.0 /. m.goodput_interval_s /. 1e6);
    ("lat_p50_us", m.lat_p50_us);
    ("lat_p99_us", m.lat_p99_us);
    ("cycles_per_byte", (busy +. dom0_busy) *. nominal_hz /. i (max 1 m.app_bytes));
    ("delivered_share", 1.0 -. Pstats.failed_share m.outcome);
    ("sim.events", i (c.events_at_measured_end - c.events_at_warm_end));
    ("sim.events_per_s", i (c.events_at_return - c.events_at_warm_end) /. run_s);
    ("sim.minor_mwords", (e.World.minor_words -. d.World.minor_words) /. 1e6);
    ("sim.major_mwords", (e.World.direct_major_words -. d.World.direct_major_words) /. 1e6);
    ("sim.drain_s", c.returned -. c.measured_end);
    ("sim.drain_events", i (c.events_at_return - c.events_at_measured_end));
    ("scenarios.build_s", c.built -. c.t0);
    ("scenarios.warmup_s", c.warm_end -. c.warm_start);
    ("scenarios.warmup_sim_ms", c.warm_sim_s *. 1e3);
    ("workloads.ops", i m.ops);
    ("workloads.ops_failed", i m.outcome.Pstats.failed);
    ("workloads.lat_samples", i m.lat_n);
    ("workloads.gen_late_us", m.gen_late_us);
    ("xenloop.fast_path_share", fast_path_share d e);
    ("xenloop.desc_per_mib", i (dl (fun s -> s.World.desc_tx)) /. (i m.app_bytes /. i mib));
    ("xenloop.jumbo_tx", i (dl (fun s -> s.World.jumbo_tx)));
    ("xenloop.pool_fallbacks", i (dl (fun s -> s.World.pool_fallbacks)));
    ("xenloop.loan_credit_stalls", i (dl (fun s -> s.World.loan_credit_stalls)));
    ("xenloop.inline_tx", i (dl (fun s -> s.World.inline_tx)));
    ( "xenloop.notify_suppressed_share",
      let sup = dl (fun s -> s.World.notifies_suppressed) in
      Pstats.share ~num:sup ~den:(sup + dl (fun s -> s.World.notifies_sent)) );
    ("xenloop.poll_rounds_per_op", per_op (dl (fun s -> s.World.poll_rounds)));
    ( "xenloop.flow_cache_hit_share",
      let h = dl (fun s -> s.World.flow_cache_hits) in
      Pstats.share ~num:h ~den:(h + dl (fun s -> s.World.flow_cache_misses)) );
    ("xenloop.queued_to_waiting", i (dl (fun s -> s.World.queued_to_waiting)));
    ("xenloop.waiting_overflows", i (dl (fun s -> s.World.waiting_overflows)));
    ("xenloop.bootstraps_started", i (dl (fun s -> s.World.bootstraps_started)));
    ("xenloop.channels_established", i (dl (fun s -> s.World.channels_established)));
    ( "xenloop.bootstrap_useful_share",
      Pstats.share ~num:(dl (fun s -> s.World.channels_established))
        ~den:(dl (fun s -> s.World.bootstraps_started)) );
    ("xenloop.bootstrap_failures", i (dl (fun s -> s.World.bootstrap_failures)));
    ("xenloop.channels_torn_down", i (dl (fun s -> s.World.channels_torn_down)));
    ("xenloop.channel_pool_mib", i m.pool_peak_bytes /. i mib);
    ("discovery.announce_bytes", i (dl (fun s -> s.World.announce_bytes)));
    ("discovery.announcements_sent", i (dl (fun s -> s.World.announcements_sent)));
    ("memory.bytes_copied_per_byte", i (dl (fun s -> s.World.bytes_copied)) /. i (max 1 m.app_bytes));
    ("memory.hypercalls_per_op", per_op (dl (fun s -> s.World.hypercalls)));
    ("memory.grant_maps", i (dl (fun s -> s.World.grant_maps)));
    ("memory.grant_unmaps", i (dl (fun s -> s.World.grant_unmaps)));
    ("memory.page_zeroes", i (dl (fun s -> s.World.page_zeroes)));
    ("memory.frames_in_use", i e.World.frames_in_use);
    ("evtchn.notifies_per_op", per_op (dl (fun s -> s.World.event_notifies)));
    ("hypervisor.guest_busy_share", busy /. (i (Array.length w.World.guests) *. interval_s));
    ("hypervisor.dom0_busy_share", dom0_busy /. (i (List.length w.World.machines) *. interval_s));
    ("hypervisor.domain_switches_per_op", per_op (dl (fun s -> s.World.domain_switches)));
    ("xenstore.nodes", i e.World.xenstore_nodes);
    ("netstack.sw_segmented", i (dl (fun s -> s.World.sw_segmented)));
    ("netstack.udp_drops", i m.udp_drops);
    ("xennet.vif_tx_packets", i (dl (fun s -> s.World.vif_tx_packets)));
    ("physnet.switch_frames", i (dl (fun s -> s.World.switch_frames)));
  ]

(* A silent fallback to netfront would report netfront numbers under a
   XenLoop name: the steady-state workloads must never touch the vif. *)
let fast_path_checks (m : measured) =
  let vif = m.s1.World.vif_tx_packets - m.s0.World.vif_tx_packets in
  let share = fast_path_share m.s0 m.s1 in
  (if vif <> 0 then [ Printf.sprintf "netfront carried %d frames in the measured phase" vif ] else [])
  @
  if share < 1.0 then [ Printf.sprintf "xenloop.fast_path_share %.6f < 1" share ] else []

let sample_size_check (m : measured) =
  let n = m.lat_n in
  if Pstats.tail_ok ~n ~pct:99.0 then []
  else [ Printf.sprintf "only %d latency samples: p99 needs %d" n Pstats.min_samples_for_p99 ]

(* --- bulk_tcp ---------------------------------------------------------- *)

let bulk_measure ~seed _ (w : World.t) ~sim_now ~counts =
  let engine = w.World.engine in
  let rng = Sim.Rng.create ~seed in
  let client = w.World.guests.(0).World.ep and server = w.World.guests.(1).World.ep in
  let sizes =
    let rec go acc total =
      if total >= bulk_total then List.rev acc
      else
        let len = bulk_msg_max - (1024 * Sim.Rng.int rng bulk_msg_sizes) in
        let len = min len (bulk_total - total) in
        go (len :: acc) (total + len)
    in
    Array.of_list (go [] 0)
  in
  (* Every write is a prefix of one seeded pattern; the writes of each
     size share one buffer, as netperf reuses its send buffer. *)
  let pattern = Bytes.init bulk_msg_max (fun _ -> Char.chr (Sim.Rng.int rng 256)) in
  let buffers = Hashtbl.create bulk_msg_sizes in
  let buffer len =
    match Hashtbl.find_opt buffers len with
    | Some b -> b
    | None ->
        let b = Bytes.sub pattern 0 len in
        Hashtbl.replace buffers len b;
        b
  in
  let port = 5001 in
  let listener = ok_or_fail "listen" (Tcp.listen server.Endpoint.tcp ~port) in
  let received = ref 0 and corrupt = ref 0 in
  let lat = Sim.Stats.create () in
  let finished = ref Sim.Time.zero in
  let started = ref Sim.Time.zero in
  let done_cond = Sim.Condition.create () in
  Sim.Engine.spawn engine (fun () ->
      let conn = Tcp.accept listener in
      let last_mark = ref !started and next_mark = ref mib in
      (* Position in the stream as (write index, offset in that write). *)
      let msg = ref 0 and off = ref 0 in
      (try
         while !received < bulk_total do
           let chunk = Tcp.recv conn ~max:bulk_msg_max in
           let len = Bytes.length chunk in
           if len = 0 then raise Exit;
           (* Sampled content check: a stride prime to every write size
              catches a lost, duplicated or reordered chunk. *)
           let pos = ref 0 in
           while !pos < len do
             let seg = min (len - !pos) (sizes.(!msg) - !off) in
             let k = ref 0 in
             while !k < seg do
               if Bytes.unsafe_get chunk (!pos + !k) <> Bytes.unsafe_get pattern (!off + !k) then
                 incr corrupt;
               k := !k + 509
             done;
             if Bytes.get chunk (!pos + seg - 1) <> Bytes.get pattern (!off + seg - 1) then incr corrupt;
             pos := !pos + seg;
             off := !off + seg;
             if !off = sizes.(!msg) then begin
               incr msg;
               off := 0
             end
           done;
           received := !received + len;
           while !received >= !next_mark do
             let now = Sim.Engine.now engine in
             Sim.Stats.add lat (Sim.Time.to_us_f (Sim.Time.diff now !last_mark));
             last_mark := now;
             next_mark := !next_mark + mib
           done
         done
       with Exit | Tcp.Tcp_error _ | Invalid_argument _ -> incr corrupt);
      finished := Sim.Engine.now engine;
      Sim.Condition.broadcast done_cond);
  let s0 = World.snapshot w in
  Spans.with_span ~op:0 ~counts ~sim_now "workloads.bulk_tcp" (fun () ->
      let conn =
        ok_or_fail "connect"
          (Tcp.connect client.Endpoint.tcp ~dst:(Endpoint.ip server) ~dst_port:port ())
      in
      started := Sim.Engine.now engine;
      Array.iter (fun len -> Tcp.send conn (buffer len)) sizes;
      while Sim.Time.equal !finished Sim.Time.zero do
        Sim.Condition.await done_cond
      done;
      Tcp.close conn);
  let s1 = World.snapshot w in
  let offered = Array.fold_left ( + ) 0 sizes in
  let m =
    {
      s0;
      s1;
      ops = offered / mib;
      app_bytes = !received;
      (* Throughput over the receive interval, as netperf reports it. *)
      goodput_interval_s = Sim.Time.to_sec_f (Sim.Time.diff !finished !started);
      lat_p50_us = Sim.Stats.percentile lat 50.0;
      lat_p99_us = Sim.Stats.percentile lat 99.0;
      lat_n = Sim.Stats.count lat;
      udp_drops = 0;
      outcome = Pstats.bulk_outcome ~offered ~delivered:!received;
      gen_late_us = 0.0;
      pool_peak_bytes = World.channel_pool_bytes w;
      errors =
        (if !received <> offered then
           [ Printf.sprintf "bulk_tcp delivered %d of %d bytes" !received offered ]
         else [])
        @ if !corrupt > 0 then [ Printf.sprintf "bulk_tcp: %d corrupt samples" !corrupt ] else [];
    }
  in
  { m with errors = m.errors @ fast_path_checks m @ sample_size_check m }

(* --- rr_loaded --------------------------------------------------------- *)

let rr_measure ~seed _ (w : World.t) ~sim_now ~counts =
  let engine = w.World.engine in
  let rng = Sim.Rng.create ~seed in
  let client = w.World.guests.(0).World.ep and server = w.World.guests.(1).World.ep in
  let dst = Endpoint.ip server in
  let bg_port = 9000 in
  let rx = ok_or_fail "bind" (Udp.bind server.Endpoint.udp ~port:bg_port ()) in
  let tx = ok_or_fail "bind" (Udp.bind client.Endpoint.udp ~port:9001 ()) in
  let sent = ref 0 and received = ref 0 and rx_bytes = ref 0 and bad = ref 0 in
  let sizes = Hashtbl.create 1024 in
  Sim.Engine.spawn engine (fun () ->
      while true do
        let _, _, payload = Udp.recvfrom rx in
        let seq = Int32.to_int (Bytes.get_int32_le payload 0) in
        (match Hashtbl.find_opt sizes seq with
        | Some len when len = Bytes.length payload -> Hashtbl.remove sizes seq
        | _ -> incr bad);
        incr received;
        rx_bytes := !rx_bytes + Bytes.length payload
      done);
  let rr_done = ref false and gen_done = ref false in
  let gen_cond = Sim.Condition.create () in
  let late = Sim.Stats.create () in
  let s0 = World.snapshot w in
  let t0 = Sim.Engine.now engine in
  (* Open loop: burst k is due at t0 + k * period + jitter, whatever the
     data path is doing; lateness is how far behind that schedule the
     generator ran. *)
  Sim.Engine.spawn engine (fun () ->
      let k = ref 0 in
      while not !rr_done do
        let due =
          Sim.Time.add t0
            (Sim.Time.us ((!k * bg_period_us) + Sim.Rng.int rng bg_jitter_us))
        in
        let wait = Sim.Time.diff due (Sim.Engine.now engine) in
        if Sim.Time.span_is_positive wait then Sim.Engine.sleep wait;
        Sim.Stats.add late (Sim.Time.to_us_f (Sim.Time.diff (Sim.Engine.now engine) due));
        if not !rr_done then
          for _ = 1 to bg_burst do
            let len = bg_min_size + Sim.Rng.int rng (bg_max_size - bg_min_size + 1) in
            let payload = Bytes.make len 'b' in
            Bytes.set_int32_le payload 0 (Int32.of_int !sent);
            Hashtbl.replace sizes !sent len;
            incr sent;
            Udp.sendto tx ~dst ~dst_port:bg_port payload
          done;
        incr k
      done;
      gen_done := true;
      Sim.Condition.broadcast gen_cond);
  let rr =
    Spans.with_span ~op:0 ~counts ~sim_now "workloads.tcp_rr" (fun () ->
        Netperf.tcp_rr ~client:(host_of client) ~server:(host_of server) ~dst ~port:7001
          ~client_port:40001 ~transactions:rr_transactions ())
  in
  rr_done := true;
  while not !gen_done do
    Sim.Condition.await gen_cond
  done;
  (* Let the last bursts land. *)
  Sim.Engine.sleep (Sim.Time.ms 1);
  let s1 = World.snapshot w in
  let outcome =
    Pstats.rr_outcome ~transactions:rr_transactions ~completed:rr.Netperf.transactions
      ~bg_sent:!sent ~bg_received:!received
  in
  let m =
    {
      s0;
      s1;
      ops = rr.Netperf.transactions;
      app_bytes = (2 * rr.Netperf.transactions) + !rx_bytes;
      goodput_interval_s = Sim.Time.to_sec_f (Sim.Time.diff (Sim.Engine.now engine) t0);
      lat_p50_us = rr.Netperf.p50_latency_us;
      lat_p99_us = rr.Netperf.p99_latency_us;
      lat_n = rr.Netperf.transactions;
      udp_drops = Udp.drops rx;
      outcome;
      gen_late_us = Sim.Stats.percentile late 99.0;
      pool_peak_bytes = World.channel_pool_bytes w;
      errors =
        (if rr.Netperf.transactions <> rr_transactions then
           [ Printf.sprintf "rr_loaded completed %d of %d transactions" rr.Netperf.transactions rr_transactions ]
         else [])
        @ (if !bad > 0 then [ Printf.sprintf "rr_loaded: %d malformed background datagrams" !bad ] else []);
    }
  in
  { m with errors = m.errors @ fast_path_checks m @ sample_size_check m }

(* --- mesh_churn -------------------------------------------------------- *)

(* Round [r]'s contacts, in an order the seed permutes. *)
let mesh_round (m : Mesh.t) ~rng r =
  let n = Array.length m.Mesh.guests in
  let per_host = n / mesh_hosts in
  let host = r mod mesh_hosts in
  let slot = r / mesh_hosts mod per_host in
  let token = (host * per_host) + slot in
  let contacts = ref [ (token, (host * per_host) + ((slot + 1) mod per_host)) ] in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if not (Mesh.co_resident m i j) then contacts := (i, j) :: !contacts
    done
  done;
  let a = Array.of_list !contacts in
  for k = Array.length a - 1 downto 1 do
    let r = Sim.Rng.int rng (k + 1) in
    let t = a.(k) in
    a.(k) <- a.(r);
    a.(r) <- t
  done;
  Array.to_list a

let mesh_measure ~seed (m : Mesh.t) (w : World.t) ~sim_now ~counts =
  let rng = Sim.Rng.create ~seed in
  let rounds = List.init mesh_rounds (fun r -> mesh_round m ~rng r) in
  let guests = m.Mesh.guests in
  let lat = Sim.Stats.create () in
  let bringups = ref [] in
  let pings = ref 0 and timeouts = ref 0 and app_bytes = ref 0 in
  let ridden = Hashtbl.create 8 and co_pairs = Hashtbl.create 8 in
  let pool_peak = ref (World.channel_pool_bytes w) in
  let via g = (Gm.stats g.Mesh.g_module).Gm.via_channel_tx in
  let ping src dst =
    let payload_len = ping_min + Sim.Rng.int rng (ping_max - ping_min + 1) in
    incr pings;
    let rtt =
      Spans.with_span ~op:!pings ~counts ~sim_now "workloads.ping" (fun () ->
          Netstack.Stack.ping src.Mesh.g_endpoint.Endpoint.stack
            ~dst:(Endpoint.ip dst.Mesh.g_endpoint) ~payload_len ())
    in
    (match rtt with
    | Some span ->
        app_bytes := !app_bytes + (2 * payload_len);
        Sim.Stats.add lat (Sim.Time.to_us_f span)
    | None -> incr timeouts);
    pool_peak := max !pool_peak (World.channel_pool_bytes w)
  in
  let s0 = World.snapshot w in
  List.iter
    (List.iter (fun (i, j) ->
         let src = guests.(i) and dst = guests.(j) in
         if not (Mesh.co_resident m i j) then ping src dst
         else begin
           (* A co-resident contact: the first ping finds no channel and
              starts the bring-up; a second one confirms the new channel
              carries traffic. *)
           let pair = (min i j, max i j) in
           Hashtbl.replace co_pairs pair ();
           let h0 = now_s () in
           ping src dst;
           bringups := ((now_s () -. h0) *. 1e3) :: !bringups;
           let v0 = via src + via dst in
           ping src dst;
           if via src + via dst > v0 then Hashtbl.replace ridden pair ()
         end))
    rounds;
  let s1 = World.snapshot w in
  let never_ridden =
    Hashtbl.fold (fun p () acc -> if Hashtbl.mem ridden p then acc else p :: acc) co_pairs []
  in
  let measured =
    {
      s0;
      s1;
      ops = !pings;
      app_bytes = !app_bytes;
      goodput_interval_s = Int64.to_float (Int64.sub s1.World.sim_ns s0.World.sim_ns) /. 1e9;
      lat_p50_us = Sim.Stats.percentile lat 50.0;
      lat_p99_us = Sim.Stats.percentile lat 99.0;
      lat_n = Sim.Stats.count lat;
      udp_drops = 0;
      outcome = Pstats.mesh_outcome ~pings:!pings ~timeouts:!timeouts;
      gen_late_us = 0.0;
      pool_peak_bytes = !pool_peak;
      errors =
        List.map
          (fun (a, b) -> Printf.sprintf "mesh_churn: co-resident pair g%d-g%d never rode a channel" (a + 1) (b + 1))
          (List.sort compare never_ridden);
    }
  in
  ({ measured with errors = measured.errors @ sample_size_check measured }, Pstats.median !bringups)

(* --- one repetition ---------------------------------------------------- *)

let duo_rep ~seed measure =
  let w, c, m =
    drive
      ~build:(fun () -> Setup.build Setup.Xenloop_path)
      ~world:World.of_duo
      ~warmup:(fun (d : Setup.duo) -> d.Setup.warmup ())
      ~measure:(measure ~seed)
  in
  (* The warmup's first contact is the duo's one channel bring-up. *)
  let bringup_ms = (c.warm_end -. c.warm_start) *. 1e3 in
  { values = values_of ~w ~c m @ [ ("xenloop.bringup_ms", bringup_ms) ]; outcome = m.outcome; errors = m.errors }

let mesh_rep ~seed =
  let params = { Hypervisor.Params.default with Hypervisor.Params.xenloop_channel_cap = mesh_cap } in
  let w, c, (m, bringup_ms) =
    drive
      ~build:(fun () -> Mesh.build ~params ~guests:mesh_guests ~hosts:mesh_hosts ())
      ~world:World.of_mesh ~warmup:Mesh.warmup ~measure:(mesh_measure ~seed)
  in
  { values = values_of ~w ~c m @ [ ("xenloop.bringup_ms", bringup_ms) ]; outcome = m.outcome; errors = m.errors }

let run_rep ~seed = function
  | Bulk_tcp -> duo_rep ~seed bulk_measure
  | Rr_loaded -> duo_rep ~seed rr_measure
  | Mesh_churn -> mesh_rep ~seed
