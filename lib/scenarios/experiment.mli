(** Running measurement functions inside a scenario's engine. *)

val execute : ?limit:Sim.Time.span -> Setup.duo -> (unit -> 'a) -> 'a
(** [execute duo f] runs [warmup] and then [f] as a simulation process and
    drives the engine until [f] returns: the run stops right after the
    event in which [f] returned, with the clock at that instant, and
    whatever else is still scheduled stays queued.  [limit] (default 600
    simulated seconds) is a failure bound, not a run length: periodic
    timers like discovery keep the event queue non-empty forever, so a
    process that never returns would otherwise never end the run.
    @raise Failure if [f] has not completed within the limit. *)

val run_process :
  ?limit:Sim.Time.span -> Sim.Engine.t -> (unit -> 'a) -> 'a
(** Same, on a bare engine without a scenario warmup. *)
