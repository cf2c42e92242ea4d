(* Tests for spatial partitioning: descriptors, the three-level MMU, the
   TLB and the protection unit. *)

open Air_model
open Air_spatial

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest
let pid = Ident.Partition_id.make
let page = Memory.page_size

let region_constructors () =
  let r = Memory.region ~base:0 ~size:page Memory.Code in
  check Alcotest.bool "code defaults rx" true
    (r.Memory.perms.Memory.read && r.Memory.perms.Memory.execute
     && not r.Memory.perms.Memory.write);
  Alcotest.check_raises "misaligned base"
    (Invalid_argument "Memory.region: base not page aligned") (fun () ->
      ignore (Memory.region ~base:100 ~size:page Memory.Data));
  Alcotest.check_raises "bad size"
    (Invalid_argument "Memory.region: size not a page multiple") (fun () ->
      ignore (Memory.region ~base:0 ~size:100 Memory.Data))

let overlap_detection () =
  let a = Memory.region ~base:0 ~size:(2 * page) Memory.Data in
  let b = Memory.region ~base:page ~size:page Memory.Data in
  let c = Memory.region ~base:(2 * page) ~size:page Memory.Data in
  check Alcotest.bool "overlapping" true (Memory.regions_overlap a b);
  check Alcotest.bool "adjacent not overlapping" false
    (Memory.regions_overlap a c)

let validate_maps_cross_partition () =
  let shared = Memory.region ~base:0 ~size:page Memory.Data in
  let m1 = Memory.map (pid 0) [ shared ] in
  let m2 = Memory.map (pid 1) [ shared ] in
  check Alcotest.bool "breach reported" true
    (Memory.validate_maps [ m1; m2 ] <> [])

let allocator_disjoint () =
  let maps =
    Memory.allocate
      [ (pid 0,
         [ { Memory.req_section = Memory.Code; req_size = 5000 };
           { Memory.req_section = Memory.Data; req_size = 100 } ]);
        (pid 1, [ { Memory.req_section = Memory.Stack; req_size = 8192 } ]) ]
  in
  check Alcotest.int "no diagnostics" 0
    (List.length (Memory.validate_maps maps));
  List.iter
    (fun (m : Memory.map) ->
      List.iter
        (fun (r : Memory.region) ->
          check Alcotest.int "page aligned" 0 (r.Memory.base mod page);
          check Alcotest.int "page multiple" 0 (r.Memory.size mod page))
        m.Memory.regions)
    maps

let mmu_mapping_levels () =
  let mmu = Mmu.create () in
  (* 16 MiB + 256 KiB + 4 KiB region starting 16 MiB-aligned uses one entry
     per level. *)
  let base = 0x4000_0000 in
  let size = 0x100_0000 + 0x4_0000 + 0x1000 in
  Mmu.map_region mmu ~context:1
    (Memory.region ~base ~size Memory.Data);
  check Alcotest.int "three entries" 3 (Mmu.entry_count mmu ~context:1);
  (* A poorly aligned small region decomposes into 4 KiB pages. *)
  Mmu.map_region mmu ~context:2
    (Memory.region ~base:0x1000 ~size:(4 * page) Memory.Data);
  check Alcotest.int "four pages" 4 (Mmu.entry_count mmu ~context:2)

let mmu_translate_and_faults () =
  let mmu = Mmu.create () in
  Mmu.map_region mmu ~context:1
    (Memory.region ~base:0x10000 ~size:page Memory.Data);
  Mmu.map_region mmu ~context:1
    (Memory.region ~base:0x20000 ~size:page ~min_level:Memory.Pos Memory.Data);
  let ok =
    Mmu.translate mmu ~context:1 ~level:Memory.Application ~access:Mmu.Read
      0x10010
  in
  check Alcotest.bool "granted" true (Result.is_ok ok);
  (match
     Mmu.translate mmu ~context:1 ~level:Memory.Application ~access:Mmu.Execute
       0x10010
   with
  | Error { Mmu.reason = Mmu.Permission; _ } -> ()
  | _ -> Alcotest.fail "expected permission fault");
  (match
     Mmu.translate mmu ~context:1 ~level:Memory.Application ~access:Mmu.Read
       0x20000
   with
  | Error { Mmu.reason = Mmu.Privilege; _ } -> ()
  | _ -> Alcotest.fail "expected privilege fault");
  (match
     Mmu.translate mmu ~context:1 ~level:Memory.Pos ~access:Mmu.Read 0x20000
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "POS level should pass");
  (match
     Mmu.translate mmu ~context:1 ~level:Memory.Application ~access:Mmu.Read
       0x9000_0000
   with
  | Error { Mmu.reason = Mmu.Unmapped; _ } -> ()
  | _ -> Alcotest.fail "expected unmapped fault");
  (* Context isolation: the same address is unmapped in context 2. *)
  (match
     Mmu.translate mmu ~context:2 ~level:Memory.Application ~access:Mmu.Read
       0x10010
   with
  | Error { Mmu.reason = Mmu.Unmapped; _ } -> ()
  | _ -> Alcotest.fail "expected isolation")

let mmu_double_map_rejected () =
  let mmu = Mmu.create () in
  Mmu.map_region mmu ~context:1 (Memory.region ~base:0 ~size:page Memory.Data);
  Alcotest.check_raises "remap"
    (Invalid_argument "Mmu.map_region: page already mapped") (fun () ->
      Mmu.map_region mmu ~context:1
        (Memory.region ~base:0 ~size:page Memory.Code))

let acc_encoding_values () =
  check Alcotest.int "user rw" 1 (Mmu.acc_encoding Memory.rw Memory.Application);
  check Alcotest.int "user rx" 2 (Mmu.acc_encoding Memory.rx Memory.Application);
  check Alcotest.int "user rwx" 3
    (Mmu.acc_encoding Memory.rwx Memory.Application);
  check Alcotest.int "supervisor rw" 7 (Mmu.acc_encoding Memory.rw Memory.Pos);
  check Alcotest.int "supervisor ro" 6 (Mmu.acc_encoding Memory.ro Memory.Pmk)

let tlb_hits_and_replacement () =
  let tlb = Tlb.create ~capacity:2 () in
  let entry context vpn =
    { Tlb.context; vpn; perms = Memory.rw; min_level = Memory.Application }
  in
  check Alcotest.bool "miss" true (Tlb.lookup tlb ~context:1 ~vpn:1 = None);
  Tlb.insert tlb (entry 1 1);
  check Alcotest.bool "hit" true (Tlb.lookup tlb ~context:1 ~vpn:1 <> None);
  Tlb.insert tlb (entry 1 2);
  Tlb.insert tlb (entry 1 3);
  (* capacity 2: vpn 1 was evicted FIFO *)
  check Alcotest.bool "evicted" true (Tlb.lookup tlb ~context:1 ~vpn:1 = None);
  let stats = Tlb.stats tlb in
  check Alcotest.int "hits" 1 stats.Tlb.hits;
  check Alcotest.int "misses" 2 stats.Tlb.misses

(* Entries are tagged by MMU context, so a partition switch needs no
   flush: one page number cached for two contexts keeps two entries, and
   a third context misses. *)
let tlb_context_tags () =
  let tlb = Tlb.create ~capacity:8 () in
  Tlb.insert tlb
    { Tlb.context = 1; vpn = 1; perms = Memory.rw; min_level = Memory.Application };
  Tlb.insert tlb
    { Tlb.context = 2; vpn = 1; perms = Memory.ro;
      min_level = Memory.Application };
  let perms context =
    Option.map (fun e -> e.Tlb.perms) (Tlb.lookup tlb ~context ~vpn:1)
  in
  check Alcotest.bool "ctx1 keeps its entry" true (perms 1 = Some Memory.rw);
  check Alcotest.bool "ctx2 keeps its entry" true (perms 2 = Some Memory.ro);
  check Alcotest.bool "ctx3 misses" true (perms 3 = None)

let protection_end_to_end () =
  let maps =
    Memory.allocate
      [ (pid 0, [ { Memory.req_section = Memory.Data; req_size = 4096 } ]);
        (pid 1, [ { Memory.req_section = Memory.Data; req_size = 4096 } ]) ]
  in
  let prot = Protection.create maps in
  let region_of p =
    match Protection.map_of prot p with
    | Some { Memory.regions = r :: _; _ } -> r
    | _ -> Alcotest.fail "missing map"
  in
  let r0 = region_of (pid 0) and r1 = region_of (pid 1) in
  check Alcotest.bool "own access ok" true
    (Result.is_ok
       (Protection.access prot ~partition:(pid 0) ~level:Memory.Application
          ~access:Mmu.Read r0.Memory.base));
  check Alcotest.bool "cross access denied" true
    (Result.is_error
       (Protection.access prot ~partition:(pid 0) ~level:Memory.Application
          ~access:Mmu.Read r1.Memory.base));
  (* Second identical access must be served by the TLB. *)
  let before = (Protection.tlb_stats prot).Tlb.hits in
  ignore
    (Protection.access prot ~partition:(pid 0) ~level:Memory.Application
       ~access:Mmu.Read r0.Memory.base);
  check Alcotest.int "tlb hit" (before + 1) (Protection.tlb_stats prot).Tlb.hits

let protection_rejects_overlaps () =
  let shared = Memory.region ~base:0 ~size:page Memory.Data in
  let maps = [ Memory.map (pid 0) [ shared ]; Memory.map (pid 1) [ shared ] ] in
  check Alcotest.bool "raises" true
    (try
       ignore (Protection.create maps);
       false
     with Invalid_argument _ -> true)

(* TLB-cached decisions always agree with a fresh page-table walk. *)
let qcheck_tlb_walk_agree =
  QCheck.Test.make ~name:"protection with TLB agrees with raw MMU walk"
    QCheck.(pair (int_range 0 1) (int_range 0 0x40_0000))
    (fun (p, offset) ->
      let maps =
        Memory.allocate
          [ (pid 0, [ { Memory.req_section = Memory.Data; req_size = 65536 } ]);
            (pid 1, [ { Memory.req_section = Memory.Code; req_size = 65536 } ]) ]
      in
      let prot = Protection.create maps in
      let addr = 0x4000_0000 + offset in
      let via_protection =
        Result.is_ok
          (Protection.access prot ~partition:(pid p)
             ~level:Memory.Application ~access:Mmu.Read addr)
      in
      (* Ask twice: the second answer is TLB-served and must agree. *)
      let again =
        Result.is_ok
          (Protection.access prot ~partition:(pid p)
             ~level:Memory.Application ~access:Mmu.Read addr)
      in
      let raw =
        Result.is_ok
          (Mmu.translate (Protection.mmu prot) ~context:(p + 1)
             ~level:Memory.Application ~access:Mmu.Read addr)
      in
      via_protection = raw && again = raw)

let suite =
  [ Alcotest.test_case "region constructors" `Quick region_constructors;
    Alcotest.test_case "overlap detection" `Quick overlap_detection;
    Alcotest.test_case "cross-partition overlap reported" `Quick
      validate_maps_cross_partition;
    Alcotest.test_case "allocator produces disjoint aligned maps" `Quick
      allocator_disjoint;
    Alcotest.test_case "mmu: large regions use large entries" `Quick
      mmu_mapping_levels;
    Alcotest.test_case "mmu: translate and faults" `Quick
      mmu_translate_and_faults;
    Alcotest.test_case "mmu: double map rejected" `Quick mmu_double_map_rejected;
    Alcotest.test_case "mmu: SPARC ACC encoding" `Quick acc_encoding_values;
    Alcotest.test_case "tlb: hits and FIFO replacement" `Quick
      tlb_hits_and_replacement;
    Alcotest.test_case "tlb: entries tagged by context" `Quick tlb_context_tags;
    Alcotest.test_case "protection: end to end" `Quick protection_end_to_end;
    Alcotest.test_case "protection: rejects overlapping maps" `Quick
      protection_rejects_overlaps;
    qcheck qcheck_tlb_walk_agree ]
