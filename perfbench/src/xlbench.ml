(* The benchmark program: one workload, one seed, one process.

     xlbench --workload bulk_tcp|rr_loaded|mesh_churn --seed N
             --seconds S --trace 0|1 [--out DIR]

   It repeats the workload (build, warmup, measured run) until S seconds
   have passed and at least [min_reps] repetitions are done, requires
   every simulated metric and deterministic count to be identical across
   them, runs one more repetition on a second seed, checks the outputs,
   and prints every metric by name with its unit.  The last line of
   standard output is the JSON result: end-to-end metrics with --trace 0,
   per-layer metrics with --trace 1.  Exit status 1 means an output check
   or the determinism guard failed. *)

open Perfbench

let min_reps = 3
let max_reps = 200

type args = {
  mutable workload : Wl.workload option;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable out : string;
}

let parse_args () =
  let a = { workload = None; seed = 1; seconds = 10.0; trace = false; out = "perfbench/out" } in
  let bad msg =
    prerr_endline ("xlbench: " ^ msg);
    prerr_endline "usage: xlbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]";
    exit 2
  in
  let int_arg flag v = match int_of_string_opt v with Some n -> n | None -> bad ("bad " ^ flag) in
  let rec go = function
    | "--workload" :: v :: rest ->
        (match Wl.of_name v with Some w -> a.workload <- Some w | None -> bad ("unknown workload " ^ v));
        go rest
    | "--seed" :: v :: rest ->
        a.seed <- int_arg "--seed" v;
        go rest
    | "--seconds" :: v :: rest ->
        a.seconds <- float_of_int (int_arg "--seconds" v);
        go rest
    | "--trace" :: v :: rest ->
        a.trace <- int_arg "--trace" v <> 0;
        go rest
    | "--out" :: v :: rest ->
        a.out <- v;
        go rest
    | [] -> ()
    | x :: _ -> bad ("unexpected argument " ^ x)
  in
  go (List.tl (Array.to_list Sys.argv));
  if a.workload = None then bad "--workload is required";
  a

(* --- host facts -------------------------------------------------------- *)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc in
      let l = go [] in
      close_in ic;
      l

let field_after_colon line =
  match String.index_opt line ':' with
  | Some i -> String.trim (String.sub line (i + 1) (String.length line - i - 1))
  | None -> ""

let cpu_model () =
  match List.find_opt (fun l -> String.starts_with ~prefix:"model name" l) (read_lines "/proc/cpuinfo") with
  | Some l -> field_after_colon l
  | None -> "unknown"

(* Peak resident set of this process, which ran only this workload. *)
let peak_rss_mb () =
  match List.find_opt (fun l -> String.starts_with ~prefix:"VmHWM:" l) (read_lines "/proc/self/status") with
  | Some l -> (
      match String.split_on_char ' ' (field_after_colon l) with
      | kb :: _ -> ( match float_of_string_opt kb with Some v -> v /. 1024.0 | None -> nan)
      | [] -> nan)
  | None -> nan

let host_info ~seed ~seed2 =
  Pjson.Obj
    [
      ("nproc", Pjson.Num (float_of_int (Domain.recommended_domain_count ())));
      ("ocaml", Pjson.Str Sys.ocaml_version);
      ("cpu", Pjson.Str (cpu_model ()));
      ("seed", Pjson.Num (float_of_int seed));
      ("second_seed", Pjson.Num (float_of_int seed2));
    ]

(* --- repetitions ------------------------------------------------------- *)

type run = { rep : Wl.rep; traced : bool; gc_s : float }

let run_once ~workload ~seed ~traced =
  Gc.full_major ();
  Spans.set_active traced;
  if traced then Spans.reset ();
  let rep = Wl.run_rep ~seed workload in
  let gc_s =
    if not traced then nan
    else
      let spans = Spans.closed_spans () in
      let find n = List.find_opt (fun s -> s.Spans.name = n) spans in
      match (find "scenarios.warmup", find "sim.drain") with
      | Some warm, Some drain -> Spans.gc_seconds warm.Spans.h1 drain.Spans.h1
      | _ -> nan
  in
  Spans.set_active false;
  { rep; traced; gc_s }

let value (r : Wl.rep) k = match List.assoc_opt k r.Wl.values with Some v -> v | None -> nan

let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* The program's page arena is process-global: where a repetition starts
   inside the current 1 MiB chunk moves one chunk allocation, a few
   words, across the measured phase.  Allocation counts (in Mwords) may
   differ by that much and no more. *)
let alloc_slack_words = 64.0

(* Every simulated metric and deterministic count must repeat exactly
   for one seed.  Allocation counts are compared between untraced
   repetitions only: the tracer allocates once per GC event it reads, and
   how many it reads depends on the host. *)
let determinism_errors runs =
  let keys ~alloc =
    List.filter_map
      (fun m ->
        if Catalog.deterministic m && (alloc || not (List.mem m.Catalog.name Catalog.alloc_counts)) then
          Some m.Catalog.name
        else None)
      Catalog.all
  in
  let compare_group ~alloc label = function
    | [] | [ _ ] -> []
    | first :: rest ->
        List.concat_map
          (fun r ->
            List.filter_map
              (fun k ->
                let a = value first.rep k and b = value r.rep k in
                let close =
                  List.mem k Catalog.alloc_counts && Float.abs (a -. b) *. 1e6 <= alloc_slack_words
                in
                if same a b || close then None
                else Some (Printf.sprintf "determinism (%s): %s was %.17g, then %.17g" label k a b))
              (keys ~alloc))
          rest
  in
  let untraced = List.filter (fun r -> not r.traced) runs in
  let traced = List.filter (fun r -> r.traced) runs in
  compare_group ~alloc:true "untraced repetitions" untraced
  @ compare_group ~alloc:false "traced repetitions" traced
  @
  match (untraced, traced) with
  | u :: _, t :: _ -> compare_group ~alloc:false "traced against untraced" [ u; t ]
  | _ -> []

let median_of runs k = match List.map (fun r -> value r.rep k) runs with [] -> nan | l -> Pstats.median l

(* --- trace file -------------------------------------------------------- *)

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  output_char oc '\n';
  close_out oc

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Unix.mkdir dir 0o755
  end

let trace_json ~info ~overhead_s =
  let spans = Spans.closed_spans () in
  let gc = Spans.gc_spans () in
  let per_span, layers = Spans.self_times spans gc in
  let num f = Pjson.Num (if Float.is_finite f then f else 0.0) in
  let span_json ((s : Spans.span), self) =
    Pjson.Obj
      [
        ("id", num (float_of_int s.Spans.id));
        ("name", Pjson.Str s.Spans.name);
        ("parent", num (float_of_int s.Spans.parent));
        ("op", num (float_of_int s.Spans.op));
        ("host_start_s", num s.Spans.h0);
        ("host_end_s", num s.Spans.h1);
        ("sim_start_s", num s.Spans.s0);
        ("sim_end_s", num s.Spans.s1);
        ("self_s", num self);
        ("counts", Pjson.Obj (List.map (fun (k, v) -> (k, num v)) s.Spans.counts));
      ]
  in
  let gc_json (kind, g0, g1) =
    Pjson.Obj [ ("name", Pjson.Str kind); ("host_start_s", num g0); ("host_end_s", num g1) ]
  in
  ( layers,
    Pjson.Obj
      [
        ("host", info);
        ("tracing_overhead_s", num overhead_s);
        ("self_time_by_layer_s", Pjson.Obj (List.map (fun (k, v) -> (k, num v)) layers));
        ("gc_events_lost", num (float_of_int (Spans.lost_events ())));
        ("spans", Pjson.Arr (List.map span_json per_span));
        ("gc", Pjson.Arr (List.map gc_json gc));
      ] )

(* --- main -------------------------------------------------------------- *)

let () =
  let a = parse_args () in
  let workload = Option.get a.workload in
  let wname = Wl.name workload in
  let seed2 = a.seed + 1_000_003 in
  if a.trace then Spans.start ();
  let t_start = Unix.gettimeofday () in
  let elapsed () = Unix.gettimeofday () -. t_start in
  let runs = ref [] in
  let count traced = List.length (List.filter (fun r -> r.traced = traced) !runs) in
  let need = if a.trace then 2 else min_reps in
  let enough () =
    count false >= need && ((not a.trace) || count true >= need) && elapsed () >= a.seconds
  in
  while (not (enough ())) && List.length !runs < max_reps do
    (* The traced run alternates untraced and traced repetitions, so the
       tracing overhead is measured under the same conditions. *)
    let traced = a.trace && count true < count false in
    let r = run_once ~workload ~seed:a.seed ~traced in
    Printf.printf "# repetition %d%s: setup_s %.6f  run_s %.6f\n%!" (List.length !runs + 1)
      (if traced then " (traced)" else "") (value r.rep "setup_s") (value r.rep "run_s");
    runs := !runs @ [ r ]
  done;
  let runs = !runs in
  let untraced = List.filter (fun r -> not r.traced) runs in
  let traced = List.filter (fun r -> r.traced) runs in
  let info = host_info ~seed:a.seed ~seed2 in
  (* The traced repetitions' spans are in memory now; write them before
     the second-seed repetition runs. *)
  let overhead_s = median_of traced "run_s" -. median_of untraced "run_s" in
  let layers =
    if a.trace then begin
      mkdir_p a.out;
      let layers, j = trace_json ~info ~overhead_s in
      let path = Filename.concat a.out (Printf.sprintf "trace-%s-seed%d.json" wname a.seed) in
      write_file path (Pjson.to_string j);
      Printf.printf "# trace written to %s\n" path;
      layers
    end
    else []
  in
  let second = run_once ~workload ~seed:seed2 ~traced:false in
  let first = List.hd untraced in
  let peak = peak_rss_mb () in
  let metric_value (m : Catalog.metric) =
    match m.Catalog.name with
    | "peak_rss_mb" -> peak
    | "trace.overhead_s" -> overhead_s
    | "sim.gc_s" -> (match traced with [] -> nan | l -> Pstats.median (List.map (fun r -> r.gc_s) l))
    | k when m.Catalog.kind = Catalog.Host -> median_of untraced k
    | k -> value first.rep k
  in
  let errors =
    List.concat_map (fun r -> r.rep.Wl.errors) runs
    |> List.sort_uniq compare
    |> fun l ->
    l @ determinism_errors runs
    @ List.map (fun e -> Printf.sprintf "second seed %d: %s" seed2 e) second.rep.Wl.errors
  in
  (* --- human-readable report --- *)
  Printf.printf "# workload %s  seed %d  trace %d  repetitions %d untraced, %d traced  (%.1f s)\n" wname
    a.seed (if a.trace then 1 else 0) (List.length untraced) (List.length traced) (elapsed ());
  Printf.printf "# host %s\n" (Pjson.to_string info);
  let kind_label = function Catalog.Sim -> "simulated" | Catalog.Count -> "count" | Catalog.Host -> "host" in
  List.iter
    (fun (m : Catalog.metric) ->
      let v = metric_value m in
      if Float.is_nan v then
        Printf.printf "%-36s %18s %-10s (%s, traced run only)\n" m.Catalog.name "-" m.Catalog.unit_
          (kind_label m.Catalog.kind)
      else
        Printf.printf "%-36s %18.6g %-10s (%s)\n" m.Catalog.name v m.Catalog.unit_ (kind_label m.Catalog.kind))
    Catalog.all;
  Printf.printf "%-36s %18.6g %-10s (%s)\n" "failed_share" (Pstats.failed_share first.rep.Wl.outcome) "ratio"
    "count";
  List.iter
    (fun (m : Catalog.metric) ->
      if m.Catalog.kind = Catalog.Sim && m.Catalog.bound <> None then begin
        let v1 = value first.rep m.Catalog.name and v2 = value second.rep m.Catalog.name in
        Printf.printf "# second seed %d: %-18s %14.6g (seed %d: %.6g, %+.2f%%)\n" seed2 m.Catalog.name v2
          a.seed v1
          (if v1 = 0.0 then 0.0 else (v2 -. v1) /. v1 *. 100.0)
      end)
    Catalog.all;
  List.iter (fun (k, v) -> Printf.printf "# self time %-10s %.4f s\n" k v) layers;
  List.iter (fun e -> Printf.printf "# CHECK FAILED: %s\n" e) errors;
  let correct = errors = [] in
  let chosen = if a.trace then Catalog.per_layer else Catalog.end_to_end in
  let result =
    Catalog.result_json ~correct ~outcome:first.rep.Wl.outcome
      (List.map (fun m -> (m, metric_value m)) chosen)
  in
  print_endline (Pjson.to_string result);
  exit (if correct then 0 else 1)
