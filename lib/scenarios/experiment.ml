let default_limit = Sim.Time.sec 600

let run_process ?(limit = default_limit) engine f =
  let result = ref None in
  Sim.Engine.spawn engine (fun () -> result := Some (f ()));
  Sim.Engine.run
    ~until:(Sim.Time.add (Sim.Engine.now engine) limit)
    ~stop:(fun () -> Option.is_some !result)
    engine;
  match !result with
  | Some r -> r
  | None -> failwith "Experiment: measurement did not complete within the time limit"

let execute ?limit duo f =
  run_process ?limit duo.Setup.engine (fun () ->
      duo.Setup.warmup ();
      f ())
