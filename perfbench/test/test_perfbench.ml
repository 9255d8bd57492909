(* Tests of the benchmark's own arithmetic, output format and metric
   list.  They run no simulation. *)

open Perfbench

let check_float msg expected actual = Alcotest.(check (float 1e-12)) msg expected actual

(* --- the p99 sample-size rule ---------------------------------------- *)

let test_tail_rule () =
  Alcotest.(check int) "1000 samples leave 10 beyond p99" 10 (Pstats.samples_beyond ~n:1000 ~pct:99.0);
  Alcotest.(check bool) "n = 1000 may report p99" true (Pstats.tail_ok ~n:1000 ~pct:99.0);
  Alcotest.(check bool) "n = 999 may not" false (Pstats.tail_ok ~n:999 ~pct:99.0);
  Alcotest.(check bool) "n = 200 may report p95" true (Pstats.tail_ok ~n:200 ~pct:95.0);
  Alcotest.(check bool) "n = 20000 may report p99.9" true (Pstats.tail_ok ~n:20000 ~pct:99.9);
  Alcotest.(check int) "the constant agrees with the rule" Pstats.min_samples_for_p99
    (let rec first n = if Pstats.tail_ok ~n ~pct:99.0 then n else first (n + 1) in
     first 1)

(* --- failed_share for each workload ----------------------------------- *)

let test_failed_share () =
  let bulk = Pstats.bulk_outcome ~offered:1000 ~delivered:990 in
  check_float "bulk: undelivered bytes over offered" 0.01 (Pstats.failed_share bulk);
  Alcotest.(check int) "bulk attempted is bytes offered" 1000 bulk.Pstats.attempted;
  check_float "bulk: nothing failed" 0.0
    (Pstats.failed_share (Pstats.bulk_outcome ~offered:1000 ~delivered:1000));
  let rr = Pstats.rr_outcome ~transactions:100 ~completed:98 ~bg_sent:900 ~bg_received:890 in
  check_float "rr: (2 + 10) / (100 + 900)" 0.012 (Pstats.failed_share rr);
  Alcotest.(check int) "rr failed" 12 rr.Pstats.failed;
  let mesh = Pstats.mesh_outcome ~pings:1020 ~timeouts:3 in
  check_float "mesh: timeouts over pings" (3.0 /. 1020.0) (Pstats.failed_share mesh);
  check_float "no attempts is no failure" 0.0 (Pstats.failed_share (Pstats.mesh_outcome ~pings:0 ~timeouts:0))

let test_median () =
  check_float "odd" 2.0 (Pstats.median [ 3.0; 1.0; 2.0 ]);
  check_float "even" 2.5 (Pstats.median [ 4.0; 1.0; 3.0; 2.0 ]);
  Alcotest.check_raises "empty" (Invalid_argument "Pstats.median: empty") (fun () ->
      ignore (Pstats.median []))

(* --- JSON print -> parse round trip ----------------------------------- *)

let rec equal a b =
  match (a, b) with
  | Pjson.Num x, Pjson.Num y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Pjson.Arr xs, Pjson.Arr ys -> List.length xs = List.length ys && List.for_all2 equal xs ys
  | Pjson.Obj xs, Pjson.Obj ys ->
      List.length xs = List.length ys
      && List.for_all2 (fun (k, x) (l, y) -> k = l && equal x y) xs ys
  | _ -> a = b

let round_trip v =
  match Pjson.of_string (Pjson.to_string v) with
  | Ok v' -> Alcotest.(check bool) ("round trip of " ^ Pjson.to_string v) true (equal v v')
  | Error e -> Alcotest.fail e

let test_json_round_trip () =
  List.iter round_trip
    [
      Pjson.Num 0.1;
      Pjson.Num 12345.678901234567;
      Pjson.Num 1e-300;
      Pjson.Num (-2.5e22);
      Pjson.Num 1073741824.0;
      Pjson.Num (Float.of_string "0x1.fffffffffffffp-1");
      Pjson.Str "quote \" backslash \\ newline \n tab \t control \001";
      Pjson.Arr [ Pjson.Null; Pjson.Bool true; Pjson.Bool false; Pjson.Arr [] ];
      Pjson.Obj [ ("a", Pjson.Obj []); ("b c", Pjson.Arr [ Pjson.Num 1.0; Pjson.Str "" ]) ];
    ];
  (* Numbers print with every digit the value holds. *)
  Alcotest.(check string) "full precision" "0.10000000000000001" (Pjson.to_string (Pjson.Num 0.1));
  Alcotest.(check string) "integers stay integral" "1000" (Pjson.to_string (Pjson.Num 1000.0))

let test_json_parse () =
  (match Pjson.of_string " { \"k\" : [ 1 , -2.5e3 , \"\\u00e9\\/\" ] } " with
  | Ok v ->
      Alcotest.(check bool) "parsed" true
        (equal v
           (Pjson.Obj [ ("k", Pjson.Arr [ Pjson.Num 1.0; Pjson.Num (-2500.0); Pjson.Str "\xc3\xa9/" ]) ]))
  | Error e -> Alcotest.fail e);
  List.iter
    (fun bad ->
      match Pjson.of_string bad with
      | Ok _ -> Alcotest.fail ("accepted " ^ bad)
      | Error _ -> ())
    [ ""; "[1,]"; "{\"a\" 1}"; "\"open"; "[1] 2"; "tru"; "{\"a\":}" ]

let test_result_line () =
  let outcome = Pstats.rr_outcome ~transactions:20000 ~completed:20000 ~bg_sent:80000 ~bg_received:80000 in
  let values = List.map (fun m -> (m, 1.5)) Catalog.end_to_end in
  let line = Pjson.to_string (Catalog.result_json ~correct:true ~outcome values) in
  match Pjson.of_string line with
  | Error e -> Alcotest.fail e
  | Ok (Pjson.Obj fields as v) ->
      Alcotest.(check (list string)) "exactly the four keys" [ "correct"; "attempted"; "failed"; "metrics" ]
        (List.map fst fields);
      Alcotest.(check bool) "attempted" true (Pjson.member "attempted" v = Some (Pjson.Num 100000.0));
      (match Pjson.member "metrics" v with
      | Some (Pjson.Obj ms) ->
          Alcotest.(check (list string)) "every end-to-end metric"
            (List.map (fun m -> m.Catalog.name) Catalog.end_to_end)
            (List.map fst ms);
          List.iter
            (fun (_, m) ->
              Alcotest.(check bool) "value and unit" true
                (match m with
                | Pjson.Obj [ ("value", Pjson.Num _); ("unit", Pjson.Str _) ] -> true
                | _ -> false))
            ms
      | _ -> Alcotest.fail "no metrics object")
  | Ok _ -> Alcotest.fail "not an object"

(* --- BENCHMARK.json lists what the benchmark prints -------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_benchmark_json () =
  let j =
    match Pjson.of_string (read_file "../../BENCHMARK.json") with
    | Ok j -> j
    | Error e -> Alcotest.fail ("BENCHMARK.json: " ^ e)
  in
  let str = function Some (Pjson.Str s) -> s | _ -> Alcotest.fail "expected a string" in
  let arr k = match Pjson.member k j with Some (Pjson.Arr l) -> l | _ -> Alcotest.fail ("no " ^ k) in
  Alcotest.(check (list string)) "workloads"
    (List.map Wl.name Wl.all)
    (List.map (fun w -> str (Pjson.member "name" w)) (arr "workloads"));
  let better = function `Lower -> "lower" | `Higher -> "higher" in
  let listed section metrics =
    let entries = arr section in
    Alcotest.(check (list string)) (section ^ " names")
      (List.map (fun m -> m.Catalog.name) metrics)
      (List.map (fun e -> str (Pjson.member "name" e)) entries);
    List.iter2
      (fun (m : Catalog.metric) e ->
        Alcotest.(check string) (m.Catalog.name ^ " unit") m.Catalog.unit_ (str (Pjson.member "unit" e));
        Alcotest.(check string) (m.Catalog.name ^ " better") (better m.Catalog.better) (str (Pjson.member "better" e));
        match (m.Catalog.bound, Pjson.member "bound" e) with
        | Some b, Some (Pjson.Num b') -> check_float (m.Catalog.name ^ " bound") b b'
        | None, None -> ()
        | _ -> Alcotest.fail (m.Catalog.name ^ ": bound mismatch"))
      metrics entries
  in
  listed "end_to_end" Catalog.end_to_end;
  listed "per_layer" Catalog.per_layer

(* --- span self time ---------------------------------------------------- *)

let span id name parent h0 h1 =
  { Spans.id; name; parent; op = -1; h0; h1; s0 = 0.0; s1 = 0.0; c0 = []; counts = [] }

let test_self_time () =
  check_float "union of overlapping intervals" 6.0 (Spans.covered ~lo:0.0 ~hi:10.0 [ (2.0, 5.0); (4.0, 8.0) ]);
  check_float "clipped to the parent" 2.0 (Spans.covered ~lo:0.0 ~hi:10.0 [ (-5.0, 1.0); (9.0, 12.0) ]);
  let spans =
    [ span 0 "workloads.run" (-1) 0.0 10.0; span 1 "sim.step" 0 2.0 5.0; span 2 "sim.step" 0 5.0 8.0 ]
  in
  let gc = [ ("gc.minor", 9.0, 9.5); ("gc.minor", 3.0, 3.5) ] in
  let per_span, layers = Spans.self_times spans gc in
  let self id = snd (List.find (fun (s, _) -> s.Spans.id = id) per_span) in
  check_float "parent: 10 - 6 (children) - 0.5 (its own GC)" 3.5 (self 0);
  check_float "child: 3 - 0.5 (GC inside it)" 2.5 (self 1);
  check_float "second child" 3.0 (self 2);
  check_float "gc layer" 1.0 (List.assoc "gc" layers);
  check_float "sim layer" 5.5 (List.assoc "sim" layers);
  check_float "layers sum to the root span" 10.0 (List.fold_left (fun acc (_, v) -> acc +. v) 0.0 layers)

let () =
  Alcotest.run "perfbench"
    [
      ( "pstats",
        [
          Alcotest.test_case "p99 sample-size rule" `Quick test_tail_rule;
          Alcotest.test_case "failed_share per workload" `Quick test_failed_share;
          Alcotest.test_case "median" `Quick test_median;
        ] );
      ( "json",
        [
          Alcotest.test_case "print-parse round trip" `Quick test_json_round_trip;
          Alcotest.test_case "parse" `Quick test_json_parse;
          Alcotest.test_case "result line" `Quick test_result_line;
          Alcotest.test_case "BENCHMARK.json matches the catalogue" `Quick test_benchmark_json;
        ] );
      ("spans", [ Alcotest.test_case "self time" `Quick test_self_time ]);
    ]
