(* Every metric the benchmark reports, with its unit and where the number
   comes from.  BENCHMARK.json at the repository root lists the same
   names; a test holds the two together.

   [Sim] numbers come from the calibrated cost model and are identical
   for a given seed; [Count]s are deterministic counts (events, allocated
   words, layer counters); [Host] numbers are what running the simulator
   costs on this host and vary run to run. *)

type kind = Sim | Count | Host

type metric = {
  name : string;
  unit_ : string;
  better : [ `Lower | `Higher ];
  kind : kind;
  bound : float option;  (** end-to-end metrics only *)
}

let e2e name unit_ better kind bound = { name; unit_; better; kind; bound = Some bound }
let layer name unit_ better kind = { name; unit_; better; kind; bound = None }

let end_to_end =
  [
    e2e "setup_s" "s" `Lower Host 0.25;
    e2e "run_s" "s" `Lower Host 0.25;
    e2e "peak_rss_mb" "MiB" `Lower Host 0.25;
    e2e "goodput_mbps" "Mbit/s" `Higher Sim 0.1;
    e2e "lat_p50_us" "us" `Lower Sim 0.1;
    e2e "lat_p99_us" "us" `Lower Sim 0.1;
    e2e "cycles_per_byte" "cycles/B" `Lower Sim 0.1;
    e2e "delivered_share" "ratio" `Higher Sim 0.01;
  ]

let per_layer =
  [
    (* sim: the discrete-event engine and the OCaml runtime under it *)
    layer "sim.events" "count" `Lower Count;
    layer "sim.events_per_s" "1/s" `Higher Host;
    layer "sim.minor_mwords" "Mwords" `Lower Count;
    layer "sim.major_mwords" "Mwords" `Lower Count;
    layer "sim.drain_s" "s" `Lower Host;
    layer "sim.drain_events" "count" `Lower Count;
    layer "sim.gc_s" "s" `Lower Host;
    (* scenarios *)
    layer "scenarios.build_s" "s" `Lower Host;
    layer "scenarios.warmup_s" "s" `Lower Host;
    layer "scenarios.warmup_sim_ms" "ms" `Lower Sim;
    (* workloads *)
    layer "workloads.ops" "count" `Higher Count;
    layer "workloads.ops_failed" "count" `Lower Count;
    layer "workloads.lat_samples" "count" `Higher Count;
    layer "workloads.gen_late_us" "us" `Lower Sim;
    (* xenloop: guest module, fifo, payload pool, proto *)
    layer "xenloop.fast_path_share" "ratio" `Higher Sim;
    layer "xenloop.desc_per_mib" "count/MiB" `Lower Sim;
    layer "xenloop.jumbo_tx" "count" `Higher Count;
    layer "xenloop.pool_fallbacks" "count" `Lower Count;
    layer "xenloop.loan_credit_stalls" "count" `Lower Count;
    layer "xenloop.inline_tx" "count" `Higher Count;
    layer "xenloop.notify_suppressed_share" "ratio" `Higher Sim;
    layer "xenloop.poll_rounds_per_op" "count/op" `Lower Sim;
    layer "xenloop.flow_cache_hit_share" "ratio" `Higher Sim;
    layer "xenloop.queued_to_waiting" "count" `Lower Count;
    layer "xenloop.waiting_overflows" "count" `Lower Count;
    layer "xenloop.bootstraps_started" "count" `Lower Count;
    layer "xenloop.channels_established" "count" `Higher Count;
    layer "xenloop.bootstrap_useful_share" "ratio" `Higher Sim;
    layer "xenloop.bootstrap_failures" "count" `Lower Count;
    layer "xenloop.channels_torn_down" "count" `Lower Count;
    layer "xenloop.channel_pool_mib" "MiB" `Lower Sim;
    layer "xenloop.bringup_ms" "ms" `Lower Host;
    (* xenloop discovery (Dom0 side) *)
    layer "discovery.announce_bytes" "B" `Lower Count;
    layer "discovery.announcements_sent" "count" `Lower Count;
    (* memory *)
    layer "memory.bytes_copied_per_byte" "ratio" `Lower Sim;
    layer "memory.hypercalls_per_op" "count/op" `Lower Sim;
    layer "memory.grant_maps" "count" `Lower Count;
    layer "memory.grant_unmaps" "count" `Lower Count;
    layer "memory.page_zeroes" "count" `Lower Count;
    layer "memory.frames_in_use" "count" `Lower Count;
    (* evtchn, hypervisor, xenstore *)
    layer "evtchn.notifies_per_op" "count/op" `Lower Sim;
    layer "hypervisor.guest_busy_share" "ratio" `Lower Sim;
    layer "hypervisor.dom0_busy_share" "ratio" `Lower Sim;
    layer "hypervisor.domain_switches_per_op" "count/op" `Lower Sim;
    layer "xenstore.nodes" "count" `Lower Count;
    (* netstack, xennet, physnet *)
    layer "netstack.sw_segmented" "count" `Lower Count;
    layer "netstack.udp_drops" "count" `Lower Count;
    layer "xennet.vif_tx_packets" "count" `Lower Count;
    layer "physnet.switch_frames" "count" `Lower Count;
    (* the tracer itself *)
    layer "trace.overhead_s" "s" `Lower Host;
  ]

let all = end_to_end @ per_layer

(* Allocation counts include whatever the tracer allocates beside the
   simulator, so they are read from untraced repetitions only. *)
let alloc_counts = [ "sim.minor_mwords"; "sim.major_mwords" ]

let deterministic m = m.kind <> Host

(* The result line: exactly these four keys, each metric with its value
   and unit. *)
let result_json ~correct ~(outcome : Pstats.outcome) values =
  Pjson.Obj
    [
      ("correct", Pjson.Bool correct);
      ("attempted", Pjson.Num (float_of_int outcome.Pstats.attempted));
      ("failed", Pjson.Num (float_of_int outcome.Pstats.failed));
      ( "metrics",
        Pjson.Obj
          (List.map
             (fun (m, v) ->
               ( m.name,
                 Pjson.Obj
                   [ ("value", Pjson.Num (if Float.is_finite v then v else 0.0)); ("unit", Pjson.Str m.unit_) ] ))
             values) );
    ]
