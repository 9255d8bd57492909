(* Shared helpers for test suites. *)

let contains haystack needle =
  let nlen = String.length needle and hlen = String.length haystack in
  if nlen = 0 then true
  else begin
    let rec scan i =
      if i + nlen > hlen then false
      else if String.sub haystack i nlen = needle then true
      else scan (i + 1)
    in
    scan 0
  end

(* A two-guest single-host XenLoop mesh with a per-guest channel cap of 1
   and a short eviction cooldown, so a test can evict the channel and
   bring it straight back up.  [f] runs as a simulated process after
   warmup, with the machine's frame allocator. *)
let with_cap1_pair f =
  let params =
    {
      Hypervisor.Params.default with
      Hypervisor.Params.xenloop_channel_cap = 1;
      xenloop_evict_cooldown = Sim.Time.ms 5;
    }
  in
  let t = Scenarios.Mesh.build ~params ~guests:2 ~hosts:1 () in
  let machine = t.Scenarios.Mesh.hosts.(0).Scenarios.Mesh.h_machine in
  Scenarios.Experiment.run_process t.Scenarios.Mesh.engine (fun () ->
      Scenarios.Mesh.warmup t;
      f t (Hypervisor.Machine.frame_allocator machine))
