(* Tests for pages, grant tables and cost accounting. *)

module Gt = Memory.Grant_table
module Cm = Memory.Cost_meter
module Page = Memory.Page

let gt_error = Alcotest.testable Gt.pp_error ( = )

let check_gt msg expected actual =
  Alcotest.(check (result unit gt_error)) msg expected actual

(* ------------------------------------------------------------------ *)
(* Page *)

let test_page_roundtrip () =
  let p = Page.create () in
  let src = Bytes.of_string "hello page" in
  Page.write p ~off:100 ~src ~src_off:0 ~len:(Bytes.length src);
  let dst = Bytes.make (Bytes.length src) ' ' in
  Page.read p ~off:100 ~dst ~dst_off:0 ~len:(Bytes.length src);
  Alcotest.(check string) "roundtrip" "hello page" (Bytes.to_string dst)

let test_page_bounds () =
  let p = Page.create () in
  let src = Bytes.make 16 'x' in
  Alcotest.(check bool) "write past end raises" true
    (try
       Page.write p ~off:Page.size ~src ~src_off:0 ~len:1;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative offset raises" true
    (try
       Page.write p ~off:(-1) ~src ~src_off:0 ~len:1;
       false
     with Invalid_argument _ -> true)

let test_page_integers () =
  let p = Page.create () in
  Page.set_u8 p 0 0x7f;
  Page.set_u32 p 4 0xdeadbeef;
  Page.set_u64 p 8 0x0123456789abcdefL;
  Alcotest.(check int) "u8" 0x7f (Page.get_u8 p 0);
  Alcotest.(check int) "u32" 0xdeadbeef (Page.get_u32 p 4);
  Alcotest.(check int64) "u64" 0x0123456789abcdefL (Page.get_u64 p 8)

let test_page_zero () =
  let p = Page.create () in
  Alcotest.(check bool) "fresh page zeroed" true (Page.is_zeroed p);
  Page.set_u8 p 2048 1;
  Alcotest.(check bool) "dirty" false (Page.is_zeroed p);
  Page.zero p;
  Alcotest.(check bool) "zeroed again" true (Page.is_zeroed p)

let test_page_ids_unique () =
  let a = Page.create () and b = Page.create () in
  Alcotest.(check bool) "distinct ids" true (Page.id a <> Page.id b)

(* ------------------------------------------------------------------ *)
(* Grant table: access grants *)

let test_grant_map_shares_memory () =
  let table = Gt.create ~owner:1 in
  let meter = Cm.create () in
  let page = Page.create () in
  let gref = Gt.grant_access table ~to_dom:2 ~page ~writable:true in
  match Gt.map table gref ~by:2 ~meter with
  | Error e -> Alcotest.failf "map failed: %s" (Gt.error_to_string e)
  | Ok mapped ->
      (* Writing through the mapping is visible to the granter: it is the
         same page. *)
      Page.set_u8 mapped 0 42;
      Alcotest.(check int) "shared write visible" 42 (Page.get_u8 page 0);
      Alcotest.(check int) "map cost one hypercall" 1 (Cm.hypercalls meter)

let test_grant_wrong_domain_rejected () =
  let table = Gt.create ~owner:1 in
  let meter = Cm.create () in
  let gref = Gt.grant_access table ~to_dom:2 ~page:(Page.create ()) ~writable:true in
  (match Gt.map table gref ~by:3 ~meter with
  | Error Gt.Wrong_domain -> ()
  | Error e -> Alcotest.failf "unexpected error: %s" (Gt.error_to_string e)
  | Ok _ -> Alcotest.fail "domain 3 mapped a grant for domain 2")

let test_grant_bad_ref () =
  let table = Gt.create ~owner:1 in
  let meter = Cm.create () in
  match Gt.map table 999 ~by:2 ~meter with
  | Error Gt.Bad_ref -> ()
  | Error e -> Alcotest.failf "unexpected error: %s" (Gt.error_to_string e)
  | Ok _ -> Alcotest.fail "mapped a nonexistent grant"

let test_grant_end_while_mapped () =
  let table = Gt.create ~owner:1 in
  let meter = Cm.create () in
  let gref = Gt.grant_access table ~to_dom:2 ~page:(Page.create ()) ~writable:false in
  (match Gt.map table gref ~by:2 ~meter with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "map failed: %s" (Gt.error_to_string e));
  check_gt "end while mapped" (Error Gt.Still_mapped) (Gt.end_access table gref);
  check_gt "unmap" (Ok ()) (Gt.unmap table gref ~by:2 ~meter);
  check_gt "end after unmap" (Ok ()) (Gt.end_access table gref);
  Alcotest.(check int) "no grants left" 0 (Gt.active_grants table)

let test_grant_unmap_not_mapped () =
  let table = Gt.create ~owner:1 in
  let meter = Cm.create () in
  let gref = Gt.grant_access table ~to_dom:2 ~page:(Page.create ()) ~writable:false in
  check_gt "unmap unmapped" (Error Gt.Not_mapped) (Gt.unmap table gref ~by:2 ~meter)

let test_grant_copy () =
  let table = Gt.create ~owner:1 in
  let meter = Cm.create () in
  let page = Page.create () in
  let gref = Gt.grant_access table ~to_dom:2 ~page ~writable:true in
  let src = Bytes.of_string "payload!" in
  check_gt "copy_to" (Ok ())
    (Gt.copy_to table gref ~by:2 ~meter ~src ~src_off:0 ~dst_off:64
       ~len:(Bytes.length src));
  let dst = Bytes.make 8 ' ' in
  check_gt "copy_from" (Ok ())
    (Gt.copy_from table gref ~by:2 ~meter ~src_off:64 ~dst ~dst_off:0 ~len:8);
  Alcotest.(check string) "copied data" "payload!" (Bytes.to_string dst);
  Alcotest.(check int) "bytes accounted" 16 (Cm.bytes_copied meter);
  Alcotest.(check int) "two gnttab_copy hypercalls" 2
    (Cm.hypercall_count meter "gnttab_copy")

let test_grant_copy_readonly () =
  let table = Gt.create ~owner:1 in
  let meter = Cm.create () in
  let gref = Gt.grant_access table ~to_dom:2 ~page:(Page.create ()) ~writable:false in
  let src = Bytes.of_string "x" in
  check_gt "copy_to read-only" (Error Gt.Read_only)
    (Gt.copy_to table gref ~by:2 ~meter ~src ~src_off:0 ~dst_off:0 ~len:1)

let test_grant_no_sender_hypercall () =
  (* Per the paper: granting and revoking are not hypercalls for the
     granter. *)
  let table = Gt.create ~owner:1 in
  let meter = Cm.create () in
  let gref = Gt.grant_access table ~to_dom:2 ~page:(Page.create ()) ~writable:true in
  check_gt "end" (Ok ()) (Gt.end_access table gref);
  Alcotest.(check int) "no hypercalls recorded anywhere" 0 (Cm.hypercalls meter)

(* ------------------------------------------------------------------ *)
(* Grant table: transfer grants *)

let test_grant_transfer_roundtrip () =
  let table = Gt.create ~owner:1 in
  let meter = Cm.create () in
  let gref = Gt.grant_transfer table ~to_dom:2 in
  let page = Page.create () in
  Page.set_u8 page 0 99;
  (match Gt.transfer table gref ~by:2 ~meter ~page with
  | Error e -> Alcotest.failf "transfer failed: %s" (Gt.error_to_string e)
  | Ok exchange ->
      Alcotest.(check bool) "exchange page zeroed" true (Page.is_zeroed exchange));
  (match Gt.take_transferred table gref with
  | Error e -> Alcotest.failf "take failed: %s" (Gt.error_to_string e)
  | Ok received -> Alcotest.(check int) "content moved" 99 (Page.get_u8 received 0));
  Alcotest.(check int) "zeroing accounted" 1 (Cm.page_zeroes meter);
  Alcotest.(check int) "transfer hypercall" 1 (Cm.hypercall_count meter "gnttab_transfer")

let test_grant_transfer_empty () =
  let table = Gt.create ~owner:1 in
  let gref = Gt.grant_transfer table ~to_dom:2 in
  match Gt.take_transferred table gref with
  | Error Gt.Nothing_transferred -> ()
  | Error e -> Alcotest.failf "unexpected: %s" (Gt.error_to_string e)
  | Ok _ -> Alcotest.fail "took a page that was never transferred"

let test_grant_kind_mismatch () =
  let table = Gt.create ~owner:1 in
  let meter = Cm.create () in
  let access_ref = Gt.grant_access table ~to_dom:2 ~page:(Page.create ()) ~writable:true in
  let transfer_ref = Gt.grant_transfer table ~to_dom:2 in
  (match Gt.map table transfer_ref ~by:2 ~meter with
  | Error Gt.Wrong_kind -> ()
  | _ -> Alcotest.fail "mapped a transfer grant");
  match Gt.transfer table access_ref ~by:2 ~meter ~page:(Page.create ()) with
  | Error Gt.Wrong_kind -> ()
  | _ -> Alcotest.fail "transferred into an access grant"

let prop_grant_refs_unique =
  QCheck.Test.make ~name:"grant refs are unique" ~count:50
    QCheck.(int_range 1 100)
    (fun n ->
      let table = Gt.create ~owner:1 in
      let refs =
        List.init n (fun _ ->
            Gt.grant_access table ~to_dom:2 ~page:(Page.create ()) ~writable:true)
      in
      List.length (List.sort_uniq compare refs) = n)

(* ------------------------------------------------------------------ *)
(* Frame allocator *)

module Fa = Memory.Frame_allocator

let test_frames_allocate_release () =
  let fa = Fa.create ~total_frames:4 in
  Alcotest.(check int) "free" 4 (Fa.free_frames fa);
  let p1 = match Fa.allocate fa ~owner:1 with Ok p -> p | Error _ -> Alcotest.fail "alloc" in
  let _p2 = match Fa.allocate fa ~owner:1 with Ok p -> p | Error _ -> Alcotest.fail "alloc" in
  let _p3 = match Fa.allocate fa ~owner:2 with Ok p -> p | Error _ -> Alcotest.fail "alloc" in
  Alcotest.(check int) "owner 1 has two" 2 (Fa.owned_by fa 1);
  Alcotest.(check int) "owner 2 has one" 1 (Fa.owned_by fa 2);
  Alcotest.(check int) "one left" 1 (Fa.free_frames fa);
  Fa.release fa ~owner:1 p1;
  Alcotest.(check int) "returned" 2 (Fa.free_frames fa);
  Alcotest.(check int) "owner 1 down to one" 1 (Fa.owned_by fa 1)

let test_frames_exhaustion () =
  let fa = Fa.create ~total_frames:2 in
  ignore (Fa.allocate fa ~owner:1);
  ignore (Fa.allocate fa ~owner:1);
  (match Fa.allocate fa ~owner:2 with
  | Error Fa.Out_of_frames -> ()
  | Ok _ -> Alcotest.fail "allocated beyond the machine");
  (* all-or-nothing batch *)
  let fa2 = Fa.create ~total_frames:3 in
  (match Fa.allocate_many fa2 ~owner:1 ~count:4 with
  | Error Fa.Out_of_frames -> ()
  | Ok _ -> Alcotest.fail "partial batch accepted");
  Alcotest.(check int) "nothing leaked by failed batch" 3 (Fa.free_frames fa2);
  match Fa.allocate_many fa2 ~owner:1 ~count:3 with
  | Ok pages -> Alcotest.(check int) "batch size" 3 (Array.length pages)
  | Error _ -> Alcotest.fail "batch should fit"

let test_frames_double_free_rejected () =
  let fa = Fa.create ~total_frames:2 in
  let p = match Fa.allocate fa ~owner:1 with Ok p -> p | Error _ -> Alcotest.fail "alloc" in
  Fa.release fa ~owner:1 p;
  Alcotest.(check bool) "double free rejected" true
    (try
       Fa.release fa ~owner:1 p;
       false
     with Invalid_argument _ -> true);
  let q = match Fa.allocate fa ~owner:1 with Ok p -> p | Error _ -> Alcotest.fail "alloc" in
  Alcotest.(check bool) "cross-owner release rejected" true
    (try
       Fa.release fa ~owner:2 q;
       false
     with Invalid_argument _ -> true)

let test_frames_release_all () =
  let fa = Fa.create ~total_frames:8 in
  for _ = 1 to 5 do
    ignore (Fa.allocate fa ~owner:3)
  done;
  ignore (Fa.allocate fa ~owner:4);
  Fa.release_all fa ~owner:3;
  Alcotest.(check int) "owner 3 cleared" 0 (Fa.owned_by fa 3);
  Alcotest.(check int) "owner 4 untouched" 1 (Fa.owned_by fa 4);
  Alcotest.(check int) "frames back" 7 (Fa.free_frames fa)

let alloc fa ~owner =
  match Fa.allocate fa ~owner with Ok p -> p | Error _ -> Alcotest.fail "alloc"

let test_frames_reuse_zeroed () =
  let fa = Fa.create ~total_frames:4 in
  let p = alloc fa ~owner:1 in
  Page.set_u64 p 512 0x0123456789abcdefL;
  Fa.release fa ~owner:1 p;
  let q = alloc fa ~owner:1 in
  Alcotest.(check int) "storage reused, none carved" 1 (Fa.fresh_pages fa);
  Alcotest.(check bool) "reused page reads as zeros" true (Page.is_zeroed q);
  Alcotest.(check bool) "with an identity of its own" true (Page.id p <> Page.id q)

let test_frames_stale_release_after_reuse () =
  let fa = Fa.create ~total_frames:4 in
  let p = alloc fa ~owner:1 in
  Fa.release fa ~owner:1 p;
  let q = alloc fa ~owner:1 in
  (* [p] is stale but still aliases the storage [q] now owns. *)
  Page.set_u8 q 7 0x5a;
  Alcotest.(check int) "same storage" 0x5a (Page.get_u8 p 7);
  Alcotest.(check bool) "stale double release raises" true
    (try
       Fa.release fa ~owner:1 p;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check int) "the new owner keeps its frame" 1 (Fa.owned_by fa 1);
  Fa.release fa ~owner:1 q;
  Alcotest.(check int) "and can still release it" 0 (Fa.owned_by fa 1)

let test_frames_release_all_not_reused () =
  let fa = Fa.create ~total_frames:4 in
  let pages = Array.init 3 (fun i -> let p = alloc fa ~owner:3 in Page.set_u8 p 0 (i + 1); p) in
  Fa.release_all fa ~owner:3;
  let fresh = Fa.fresh_pages fa in
  let q = alloc fa ~owner:4 in
  Alcotest.(check int) "a destroyed domain's frame is never reused" (fresh + 1)
    (Fa.fresh_pages fa);
  Page.set_u8 q 0 0xff;
  Array.iteri
    (fun i p ->
      Alcotest.(check int) "old storage untouched by the new owner" (i + 1)
        (Page.get_u8 p 0))
    pages

(* XenLoop worlds for the frame-reuse rules. *)
module Mesh = Scenarios.Mesh
module Gm = Xenloop.Guest_module
module Udp = Netstack.Udp

let domid t i = Hypervisor.Domain.domid t.Mesh.guests.(i).Mesh.g_domain

let test_still_mapped_waits_for_reaper () =
  Testutil.with_cap1_pair (fun t frames ->
      Mesh.ping t ~src:0 ~dst:1;
      Sim.Engine.sleep (Sim.Time.ms 2);
      (* The listener is charged for the whole channel. *)
      let listener = if Fa.owned_by frames (domid t 0) > 0 then 0 else 1 in
      let ldom = domid t listener in
      let channel_pages = Fa.owned_by frames ldom in
      Alcotest.(check bool) "channel up" true (channel_pages > 0);
      Alcotest.(check bool) "listener evicts" true
        (Gm.evict_lru t.Mesh.guests.(listener).Mesh.g_module);
      (* The connector's unmap rides the teardown notification, so some
         pages are still mapped and parked with the reaper. *)
      let parked = Fa.owned_by frames ldom in
      Alcotest.(check bool) "some pages parked while mapped" true (parked > 0);
      let grab () =
        let before = Fa.fresh_pages frames in
        let p = alloc frames ~owner:99 in
        (p, Fa.fresh_pages frames = before)
      in
      let rec take_reused acc =
        match grab () with
        | p, true -> take_reused (p :: acc)
        | p, false -> (acc, p)
      in
      let reused, carved = take_reused [] in
      Alcotest.(check int) "only the released pages are reused"
        (channel_pages - parked) (List.length reused);
      Alcotest.(check int) "parked pages stay with the listener" parked
        (Fa.owned_by frames ldom);
      List.iter (Fa.release frames ~owner:99) (carved :: reused);
      Sim.Engine.sleep (Sim.Time.ms 2);
      Alcotest.(check int) "the reaper returned them" 0 (Fa.owned_by frames ldom);
      let fresh = Fa.fresh_pages frames in
      let later = Array.init channel_pages (fun _ -> alloc frames ~owner:99) in
      Alcotest.(check int) "now every channel page is reusable" fresh
        (Fa.fresh_pages frames);
      Array.iter (Fa.release frames ~owner:99) later)

let test_socket_bytes_survive_reuse () =
  Testutil.with_cap1_pair (fun t frames ->
      Mesh.ping t ~src:0 ~dst:1;
      Sim.Engine.sleep (Sim.Time.ms 2);
      let bind i port =
        match Udp.bind t.Mesh.guests.(i).Mesh.g_endpoint.Scenarios.Endpoint.udp ?port () with
        | Ok s -> s
        | Error _ -> Alcotest.fail "bind"
      in
      let server = bind 1 (Some 7000) and client = bind 0 None in
      let dst = Scenarios.Endpoint.ip t.Mesh.guests.(1).Mesh.g_endpoint in
      (* Above the inline threshold: each datagram rides a pool slot. *)
      let payload tag i = Bytes.make 1200 (Char.chr ((tag * 16) + i)) in
      let send tag =
        for i = 0 to 7 do
          Udp.sendto client ~dst ~dst_port:7000 (payload tag i)
        done
      in
      let via () = (Gm.stats t.Mesh.guests.(0).Mesh.g_module).Gm.via_channel_tx in
      let before = via () in
      send 1;
      Sim.Engine.sleep (Sim.Time.ms 1);
      Alcotest.(check int) "first batch rode the channel" (before + 8) (via ());
      Alcotest.(check bool) "evicted" true
        (Gm.evict_lru t.Mesh.guests.(0).Mesh.g_module);
      Sim.Engine.sleep (Sim.Time.ms 10);
      let fresh = Fa.fresh_pages frames in
      Mesh.ping t ~src:0 ~dst:1;
      Sim.Engine.sleep (Sim.Time.ms 2);
      Alcotest.(check bool) "channel back up" true
        (Gm.has_channel_with t.Mesh.guests.(0).Mesh.g_module ~domid:(domid t 1));
      Alcotest.(check int) "bring-up reused the old storage" fresh
        (Fa.fresh_pages frames);
      let before = via () in
      send 2;
      Sim.Engine.sleep (Sim.Time.ms 1);
      Alcotest.(check int) "so did the second" (before + 8) (via ());
      List.iter
        (fun tag ->
          for i = 0 to 7 do
            match Udp.recv_opt server with
            | Some (_, _, got) ->
                Alcotest.(check bool)
                  (Printf.sprintf "batch %d datagram %d intact" tag i)
                  true
                  (Bytes.equal got (payload tag i))
            | None -> Alcotest.failf "batch %d datagram %d missing" tag i
          done)
        [ 1; 2 ])

(* ------------------------------------------------------------------ *)
(* Cost meter *)

let test_meter_counts () =
  let m = Cm.create () in
  Cm.record m (Cm.Hypercall "a");
  Cm.record m (Cm.Hypercall "a");
  Cm.record m (Cm.Hypercall "b");
  Cm.record m (Cm.Page_copy 100);
  Cm.record m (Cm.Page_copy 50);
  Cm.record m Cm.Page_zero;
  Cm.record m Cm.Event_notify;
  Cm.record m Cm.Domain_switch;
  Alcotest.(check int) "hypercalls" 3 (Cm.hypercalls m);
  Alcotest.(check int) "by name" 2 (Cm.hypercall_count m "a");
  Alcotest.(check int) "bytes" 150 (Cm.bytes_copied m);
  Alcotest.(check int) "zeroes" 1 (Cm.page_zeroes m);
  Alcotest.(check int) "notifies" 1 (Cm.event_notifies m);
  Alcotest.(check int) "switches" 1 (Cm.domain_switches m)

let test_meter_reset_merge () =
  let a = Cm.create () and b = Cm.create () in
  Cm.record a (Cm.Hypercall "x");
  Cm.record b (Cm.Hypercall "x");
  Cm.record b (Cm.Page_copy 10);
  Cm.merge_into ~src:a ~dst:b;
  Alcotest.(check int) "merged hypercalls" 2 (Cm.hypercalls b);
  Cm.reset b;
  Alcotest.(check int) "reset" 0 (Cm.hypercalls b);
  Alcotest.(check int) "reset bytes" 0 (Cm.bytes_copied b)

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suites =
  [
    ( "memory.page",
      [
        Alcotest.test_case "read/write roundtrip" `Quick test_page_roundtrip;
        Alcotest.test_case "bounds checked" `Quick test_page_bounds;
        Alcotest.test_case "integer accessors" `Quick test_page_integers;
        Alcotest.test_case "zeroing" `Quick test_page_zero;
        Alcotest.test_case "unique ids" `Quick test_page_ids_unique;
      ] );
    ( "memory.grant",
      [
        Alcotest.test_case "map shares memory" `Quick test_grant_map_shares_memory;
        Alcotest.test_case "wrong domain rejected" `Quick test_grant_wrong_domain_rejected;
        Alcotest.test_case "bad ref rejected" `Quick test_grant_bad_ref;
        Alcotest.test_case "revoke blocked while mapped" `Quick test_grant_end_while_mapped;
        Alcotest.test_case "unmap requires mapping" `Quick test_grant_unmap_not_mapped;
        Alcotest.test_case "gnttab copy" `Quick test_grant_copy;
        Alcotest.test_case "copy_to needs writable grant" `Quick test_grant_copy_readonly;
        Alcotest.test_case "granter pays no hypercall" `Quick test_grant_no_sender_hypercall;
        Alcotest.test_case "transfer roundtrip" `Quick test_grant_transfer_roundtrip;
        Alcotest.test_case "take before transfer" `Quick test_grant_transfer_empty;
        Alcotest.test_case "kind mismatch" `Quick test_grant_kind_mismatch;
      ]
      @ qsuite [ prop_grant_refs_unique ] );
    ( "memory.frames",
      [
        Alcotest.test_case "allocate and release" `Quick test_frames_allocate_release;
        Alcotest.test_case "exhaustion and batches" `Quick test_frames_exhaustion;
        Alcotest.test_case "double free rejected" `Quick test_frames_double_free_rejected;
        Alcotest.test_case "release_all on destruction" `Quick test_frames_release_all;
        Alcotest.test_case "reused page reads as zeros" `Quick test_frames_reuse_zeroed;
        Alcotest.test_case "stale release raises after reuse" `Quick
          test_frames_stale_release_after_reuse;
        Alcotest.test_case "release_all frames never reused" `Quick
          test_frames_release_all_not_reused;
        Alcotest.test_case "still-mapped pages wait for the reaper" `Quick
          test_still_mapped_waits_for_reaper;
        Alcotest.test_case "socket bytes survive storage reuse" `Quick
          test_socket_bytes_survive_reuse;
      ] );
    ( "memory.cost_meter",
      [
        Alcotest.test_case "counts operations" `Quick test_meter_counts;
        Alcotest.test_case "reset and merge" `Quick test_meter_reset_merge;
      ] );
  ]
