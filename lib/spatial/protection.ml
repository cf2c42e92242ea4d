type t = {
  mmu : Mmu.t;
  tlb : Tlb.t;
  maps : Memory.map list;
}

let context_of pid = Air_model.Ident.Partition_id.index pid + 1

let create ?metrics ?tlb_capacity ?(contexts = 16) maps =
  (match Memory.validate_maps maps with
  | [] -> ()
  | diag :: _ -> invalid_arg ("Protection.create: " ^ diag));
  let reg =
    match metrics with
    | Some reg -> reg
    | None -> Air_obs.Metrics.create ()
  in
  let mmu = Mmu.create ~metrics:reg ~contexts () in
  List.iter
    (fun (m : Memory.map) ->
      Mmu.map_partition mmu ~context:(context_of m.Memory.partition) m)
    maps;
  { mmu; tlb = Tlb.create ~metrics:reg ?capacity:tlb_capacity (); maps }

(* Per-access cost unit for the contention model: a TLB hit costs 1, a
   miss costs 1 plus the number of page-table levels the MMU walk
   consulted (so 2–4). Faulting accesses are charged too — a denied
   access still occupied the walk hardware. *)
let access_costed t ~partition ~level ~access addr =
  let context = context_of partition in
  let vpn = addr / Memory.page_size in
  let check perms min_level =
    let rank = function
      | Memory.Application -> 0
      | Memory.Pos -> 1
      | Memory.Pmk -> 2
    in
    let permits (p : Memory.perms) = function
      | Mmu.Read -> p.read
      | Mmu.Write -> p.write
      | Mmu.Execute -> p.execute
    in
    if rank level < rank min_level then
      Error
        { Mmu.context; address = addr; access; level;
          reason = Mmu.Privilege }
    else if not (permits perms access) then
      Error
        { Mmu.context; address = addr; access; level;
          reason = Mmu.Permission }
    else Ok ()
  in
  match Tlb.lookup t.tlb ~context ~vpn with
  | Some e -> (check e.Tlb.perms e.Tlb.min_level, 1)
  | None -> (
    match Mmu.translate_costed t.mmu ~context ~level ~access addr with
    | Ok (perms, min_level), depth ->
      Tlb.insert t.tlb { Tlb.context; vpn; perms; min_level };
      (Ok (), 1 + depth)
    | Error f, depth ->
      (* Cache successful translations only; faults always re-walk, as on
         the LEON3 (no negative caching). *)
      (Error f, 1 + depth))

let access t ~partition ~level ~access:kind addr =
  fst (access_costed t ~partition ~level ~access:kind addr)

let map_of t pid =
  List.find_opt
    (fun (m : Memory.map) -> Air_model.Ident.Partition_id.equal m.Memory.partition pid)
    t.maps

let tlb_stats t = Tlb.stats t.tlb

let mmu t = t.mmu
