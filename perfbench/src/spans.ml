(* The traced run's recorder.  Spans are opened and closed by the
   benchmark around its own calls into the program (build, warmup, each
   workload call, the post-result drain); GC spans come from the OCaml
   runtime's event ring.  Everything stays in memory until the run ends.

   A span carries its host interval (seconds since [start]), its
   simulated interval, its parent, an operation id and the deltas of a
   few counters taken at its boundaries. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root *)
  op : int;  (** -1 when the span is not one operation *)
  h0 : float;
  mutable h1 : float;
  s0 : float;  (** simulated seconds *)
  mutable s1 : float;
  c0 : (string * float) list;
  mutable counts : (string * float) list;
}

type state = {
  mutable on : bool;
  mutable origin : float;  (** host time of [start] *)
  mutable spans : span list;  (** closed and open, newest first *)
  mutable stack : span list;
  mutable next_id : int;
  mutable gc : (string * float * float) list;  (** kind, h0, h1 *)
  mutable gc_depth : int;
  mutable gc_open : float * string;
  mutable lost : int;
  mutable clock_offset : float;  (** runtime-event seconds minus host seconds *)
  mutable cursor : Runtime_events.cursor option;
}

let st =
  {
    on = false;
    origin = 0.0;
    spans = [];
    stack = [];
    next_id = 0;
    gc = [];
    gc_depth = 0;
    gc_open = (0.0, "");
    lost = 0;
    clock_offset = 0.0;
    cursor = None;
  }

let host_now () = Unix.gettimeofday () -. st.origin

type Runtime_events.User.tag += Sync
let sync_event = lazy (Runtime_events.User.register "perfbench.sync" Sync Runtime_events.Type.int)
let sync_seen = ref None

let ts_s ts = Int64.to_float (Runtime_events.Timestamp.to_int64 ts) /. 1e9

let callbacks =
  lazy
    (let runtime_begin _ ts phase =
       if st.gc_depth = 0 then
         st.gc_open <-
           ( ts_s ts -. st.clock_offset,
             match phase with Runtime_events.EV_MINOR -> "gc.minor" | _ -> "gc.major" );
       st.gc_depth <- st.gc_depth + 1
     in
     let runtime_end _ ts _ =
       if st.gc_depth > 0 then begin
         st.gc_depth <- st.gc_depth - 1;
         if st.gc_depth = 0 then begin
           let h0, kind = st.gc_open in
           st.gc <- (kind, h0, ts_s ts -. st.clock_offset) :: st.gc
         end
       end
     in
     let lost_events _ n = st.lost <- st.lost + n in
     Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~lost_events ()
     |> Runtime_events.Callbacks.add_user_event Runtime_events.Type.int (fun _ ts _ _ ->
            sync_seen := Some (ts_s ts)))

let poll () =
  match st.cursor with
  | Some c -> ignore (Runtime_events.read_poll c (Lazy.force callbacks) None)
  | None -> ()

(* The event ring stamps with the runtime's monotonic clock; one user
   event written between two host-clock reads maps it onto host time
   (error below a microsecond, far under a GC slice). *)
let calibrate () =
  let ev = Lazy.force sync_event in
  let best = ref infinity in
  for _ = 1 to 5 do
    sync_seen := None;
    let a = host_now () in
    Runtime_events.User.write ev 0;
    let b = host_now () in
    poll ();
    match !sync_seen with
    | Some ts when b -. a < !best ->
        best := b -. a;
        st.clock_offset <- ts -. ((a +. b) /. 2.0)
    | _ -> ()
  done

(* Open the runtime's event ring and map its clock; recording starts
   with [set_active true]. *)
let start () =
  st.origin <- Unix.gettimeofday ();
  Runtime_events.start ();
  st.cursor <- Some (Runtime_events.create_cursor None);
  calibrate ();
  poll ();
  Runtime_events.pause ()

(* Switch recording on or off between repetitions of a traced run.  While
   off, the event ring is paused and nothing polls it, so untraced
   repetitions allocate exactly what the program allocates. *)
let alarm = ref None

let set_active on =
  if st.cursor <> None && on <> st.on then begin
    if on then begin
      Runtime_events.resume ();
      (* Polling once per major cycle keeps the ring from wrapping
         between span boundaries. *)
      alarm := Some (Gc.create_alarm poll)
    end
    else begin
      poll ();
      Runtime_events.pause ();
      Option.iter Gc.delete_alarm !alarm;
      alarm := None
    end;
    st.on <- on
  end

(* Drop the recorded spans (not the runtime-event cursor): each traced
   repetition writes its own set. *)
let reset () =
  poll ();
  st.spans <- [];
  st.stack <- [];
  st.next_id <- 0;
  st.gc <- []

let open_span ?(op = -1) ?(counts = fun () -> []) ~sim_now name =
  if not st.on then None
  else begin
    let parent = match st.stack with p :: _ -> p.id | [] -> -1 in
    let c0 = counts () in
    let s0 = sim_now () in
    let sp =
      { id = st.next_id; name; parent; op; h0 = host_now (); h1 = nan; s0; s1 = nan; c0; counts = [] }
    in
    st.next_id <- st.next_id + 1;
    st.spans <- sp :: st.spans;
    st.stack <- sp :: st.stack;
    Some (sp, counts)
  end

let close_span ~sim_now = function
  | None -> ()
  | Some (sp, counts) ->
      sp.h1 <- host_now ();
      sp.s1 <- sim_now ();
      sp.counts <- List.map2 (fun (k, a) (_, b) -> (k, b -. a)) sp.c0 (counts ());
      (match st.stack with
      | top :: rest when top.id = sp.id -> st.stack <- rest
      | _ -> invalid_arg ("Spans: unbalanced close of " ^ sp.name));
      poll ()

let with_span ?op ?counts ~sim_now name f =
  let h = open_span ?op ?counts ~sim_now name in
  match f () with
  | v ->
      close_span ~sim_now h;
      v
  | exception e ->
      close_span ~sim_now h;
      raise e

let closed_spans () = List.rev (List.filter (fun s -> not (Float.is_nan s.h1)) st.spans)

(* Host seconds spent in GC intervals that start inside [h0, h1]. *)
let gc_seconds h0 h1 =
  List.fold_left
    (fun acc (_, g0, g1) -> if g0 >= h0 && g0 < h1 then acc +. (Float.min g1 h1 -. g0) else acc)
    0.0 st.gc

let layer name = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(* Length of the union of [intervals], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, _ =
    List.fold_left
      (fun (total, reach) (a, b) ->
        if b <= reach then (total, reach)
        else (total +. (b -. Float.max a reach), b))
      (0.0, neg_infinity) sorted
  in
  total

(* Self time: a span's host duration minus the part its children (other
   spans, and GC intervals whose innermost enclosing span it is) cover.
   GC intervals are their own layer, "gc". *)
let self_times spans gc =
  let innermost (g0 : float) =
    List.fold_left
      (fun best s ->
        if s.h0 <= g0 && g0 < s.h1 then
          match best with Some b when b.h0 >= s.h0 -> best | _ -> Some s
        else best)
      None spans
  in
  let gc_children = Hashtbl.create 16 in
  List.iter
    (fun (_, g0, g1) ->
      match innermost g0 with
      | Some s -> Hashtbl.replace gc_children s.id ((g0, g1) :: (try Hashtbl.find gc_children s.id with Not_found -> []))
      | None -> ())
    gc;
  let per_span =
    List.map
      (fun s ->
        let kids =
          List.filter_map (fun c -> if c.parent = s.id then Some (c.h0, c.h1) else None) spans
          @ (try Hashtbl.find gc_children s.id with Not_found -> [])
        in
        (s, s.h1 -. s.h0 -. covered ~lo:s.h0 ~hi:s.h1 kids))
      spans
  in
  let by_layer = Hashtbl.create 8 in
  let add k v = Hashtbl.replace by_layer k (v +. try Hashtbl.find by_layer k with Not_found -> 0.0) in
  List.iter (fun (s, self) -> add (layer s.name) self) per_span;
  List.iter (fun (_, g0, g1) -> add "gc" (g1 -. g0)) gc;
  let layers = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_layer []) in
  (per_span, layers)

let lost_events () = st.lost
let gc_spans () = List.rev st.gc
