(* A simulated world as the benchmark sees it from outside: the engine,
   the machines, the XenLoop guests and the control plane, plus one
   snapshot of every public counter the layers expose.  Counters are read,
   never written; the benchmark changes nothing inside the program. *)

module Machine = Hypervisor.Machine
module Domain = Hypervisor.Domain
module Gm = Xenloop.Guest_module
module Cm = Memory.Cost_meter

type guest = { dom : Domain.t; ep : Scenarios.Endpoint.t; gm : Gm.t }

type t = {
  engine : Sim.Engine.t;
  machines : Machine.t list;
  guests : guest array;
  discoveries : Xenloop.Discovery.t list;
  switch : Physnet.Switch.t option;
}

let of_duo (d : Scenarios.Setup.duo) =
  let machine =
    match d.Scenarios.Setup.machine with
    | Some m -> m
    | None -> invalid_arg "World.of_duo: not a Xen scenario"
  in
  let eps = [ d.Scenarios.Setup.client; d.Scenarios.Setup.server ] in
  let guests =
    List.map2
      (fun ep gm ->
        let ip = Scenarios.Endpoint.ip ep in
        let dom =
          List.find (fun dom -> Netcore.Ip.equal (Domain.ip dom) ip) (Machine.guests machine)
        in
        { dom; ep; gm })
      eps d.Scenarios.Setup.modules
  in
  {
    engine = d.Scenarios.Setup.engine;
    machines = [ machine ];
    guests = Array.of_list guests;
    discoveries = Option.to_list d.Scenarios.Setup.discovery;
    switch = None;
  }

let of_mesh (m : Scenarios.Mesh.t) =
  {
    engine = m.Scenarios.Mesh.engine;
    machines = Array.to_list (Array.map (fun h -> h.Scenarios.Mesh.h_machine) m.Scenarios.Mesh.hosts);
    guests =
      Array.map
        (fun g ->
          {
            dom = g.Scenarios.Mesh.g_domain;
            ep = g.Scenarios.Mesh.g_endpoint;
            gm = g.Scenarios.Mesh.g_module;
          })
        m.Scenarios.Mesh.guests;
    discoveries =
      Array.to_list (Array.map (fun h -> h.Scenarios.Mesh.h_discovery) m.Scenarios.Mesh.hosts);
    switch = m.Scenarios.Mesh.switch;
  }

let channel_pool_bytes w =
  Array.fold_left (fun acc g -> acc + Gm.channel_pool_bytes g.gm) 0 w.guests

(* Every counter at one instant.  Fields are cumulative except the
   gauges marked below. *)
type snap = {
  sim_ns : int64;
  events : int;
  minor_words : float;
  direct_major_words : float;  (** allocated straight into the major heap *)
  via_channel_tx : int;
  desc_tx : int;
  jumbo_tx : int;
  inline_tx : int;
  pool_fallbacks : int;
  loan_credit_stalls : int;
  notifies_sent : int;
  notifies_suppressed : int;
  poll_rounds : int;
  flow_cache_hits : int;
  flow_cache_misses : int;
  queued_to_waiting : int;
  waiting_overflows : int;
  bootstraps_started : int;
  channels_established : int;
  bootstrap_failures : int;
  channels_torn_down : int;
  vif_tx_packets : int;
  sw_segmented : int;
  guest_busy_s : float;
  dom0_busy_s : float;
  hypercalls : int;
  bytes_copied : int;
  page_zeroes : int;
  event_notifies : int;
  domain_switches : int;
  grant_maps : int;
  grant_unmaps : int;
  frames_in_use : int;  (** gauge *)
  xenstore_nodes : int;  (** gauge *)
  announce_bytes : int;
  announcements_sent : int;
  switch_frames : int;
}

let sum_guests w f = Array.fold_left (fun acc g -> acc + f g) 0 w.guests
let sum_machines w f = List.fold_left (fun acc m -> acc + f m) 0 w.machines

let sum_domains w f =
  sum_machines w (fun m ->
      List.fold_left (fun acc d -> acc + f (Domain.meter d)) 0 (Machine.dom0 m :: Machine.guests m))

let busy_s cpu = Sim.Time.to_sec_f (Sim.Resource.busy_time cpu)

let snapshot w =
  let st g = Gm.stats g.gm in
  let minor = Gc.minor_words () in
  let _, promoted, major = Gc.counters () in
  {
    sim_ns = Sim.Time.instant_to_ns (Sim.Engine.now w.engine);
    events = Sim.Engine.events_executed w.engine;
    minor_words = minor;
    direct_major_words = major -. promoted;
    via_channel_tx = sum_guests w (fun g -> (st g).Gm.via_channel_tx);
    desc_tx = sum_guests w (fun g -> (st g).Gm.desc_tx);
    jumbo_tx = sum_guests w (fun g -> (st g).Gm.jumbo_tx);
    inline_tx = sum_guests w (fun g -> (st g).Gm.inline_tx);
    pool_fallbacks = sum_guests w (fun g -> (st g).Gm.pool_fallbacks);
    loan_credit_stalls = sum_guests w (fun g -> (st g).Gm.loan_credit_stalls);
    notifies_sent = sum_guests w (fun g -> (st g).Gm.notifies_sent);
    notifies_suppressed = sum_guests w (fun g -> (st g).Gm.notifies_suppressed);
    poll_rounds = sum_guests w (fun g -> (st g).Gm.poll_rounds);
    flow_cache_hits = sum_guests w (fun g -> (st g).Gm.flow_cache_hits);
    flow_cache_misses = sum_guests w (fun g -> (st g).Gm.flow_cache_misses);
    queued_to_waiting = sum_guests w (fun g -> (st g).Gm.queued_to_waiting);
    waiting_overflows = sum_guests w (fun g -> (st g).Gm.waiting_overflows);
    bootstraps_started = sum_guests w (fun g -> (st g).Gm.bootstraps_started);
    channels_established = sum_guests w (fun g -> (st g).Gm.channels_established);
    bootstrap_failures = sum_guests w (fun g -> (st g).Gm.bootstrap_failures);
    channels_torn_down = sum_guests w (fun g -> (st g).Gm.channels_torn_down);
    vif_tx_packets =
      sum_guests w (fun g ->
          match Netstack.Stack.device g.ep.Scenarios.Endpoint.stack with
          | Some dev -> Netstack.Netdevice.tx_packets dev
          | None -> 0);
    sw_segmented =
      sum_guests w (fun g -> (Netstack.Stack.stats g.ep.Scenarios.Endpoint.stack).Netstack.Stack.sw_segmented);
    guest_busy_s = Array.fold_left (fun acc g -> acc +. busy_s (Domain.cpu g.dom)) 0.0 w.guests;
    dom0_busy_s =
      List.fold_left (fun acc m -> acc +. busy_s (Domain.cpu (Machine.dom0 m))) 0.0 w.machines;
    hypercalls = sum_domains w Cm.hypercalls;
    bytes_copied = sum_domains w Cm.bytes_copied;
    page_zeroes = sum_domains w Cm.page_zeroes;
    event_notifies = sum_domains w Cm.event_notifies;
    domain_switches = sum_domains w Cm.domain_switches;
    grant_maps = sum_domains w Cm.grant_maps;
    grant_unmaps = sum_domains w Cm.grant_unmaps;
    frames_in_use =
      sum_machines w (fun m ->
          let fa = Machine.frame_allocator m in
          Memory.Frame_allocator.total_frames fa - Memory.Frame_allocator.free_frames fa);
    xenstore_nodes = sum_machines w (fun m -> Xenstore.node_count (Machine.xenstore m));
    announce_bytes =
      List.fold_left (fun acc d -> acc + Xenloop.Discovery.announce_bytes d) 0 w.discoveries;
    announcements_sent =
      List.fold_left (fun acc d -> acc + Xenloop.Discovery.announcements_sent d) 0 w.discoveries;
    switch_frames =
      (match w.switch with Some s -> Physnet.Switch.frames_forwarded s | None -> 0);
  }
