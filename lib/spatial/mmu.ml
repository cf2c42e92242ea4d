type access_kind = Read | Write | Execute

let pp_access_kind ppf k =
  Format.pp_print_string ppf
    (match k with Read -> "read" | Write -> "write" | Execute -> "execute")

type fault_reason = Unmapped | Privilege | Permission

let pp_fault_reason ppf r =
  Format.pp_print_string ppf
    (match r with
    | Unmapped -> "unmapped"
    | Privilege -> "privilege"
    | Permission -> "permission")

type fault = {
  context : int;
  address : int;
  access : access_kind;
  level : Memory.exec_level;
  reason : fault_reason;
}

let pp_fault ppf f =
  Format.fprintf ppf "fault ctx=%d addr=0x%x %a@%a: %a" f.context f.address
    pp_access_kind f.access Memory.pp_exec_level f.level pp_fault_reason
    f.reason

(* SRMMU geometry: 8 + 6 + 6 index bits over a 32-bit space, 4 KiB pages. *)
let l1_entries = 256
let l2_entries = 64
let l3_entries = 64
let l1_span = 0x100_0000 (* 16 MiB *)
let l2_span = 0x4_0000 (* 256 KiB *)
let l3_span = Memory.page_size (* 4 KiB *)
let address_space = l1_entries * l1_span

type pte = { perms : Memory.perms; min_level : Memory.exec_level }

type entry = Invalid | Pte of pte | Ptd of entry array

type t = {
  tables : entry array array; (* context table: one L1 per context *)
  walks : Air_obs.Metrics.counter;
  faults : Air_obs.Metrics.counter;
  fault_unmapped : Air_obs.Metrics.counter;
  fault_privilege : Air_obs.Metrics.counter;
  fault_permission : Air_obs.Metrics.counter;
}

let create ?metrics ?(contexts = 16) () =
  if contexts <= 0 then invalid_arg "Mmu.create: need at least one context";
  let reg =
    match metrics with
    | Some reg -> reg
    | None -> Air_obs.Metrics.create ()
  in
  { tables = Array.init contexts (fun _ -> Array.make l1_entries Invalid);
    walks = Air_obs.Metrics.counter reg "mmu.walks";
    faults = Air_obs.Metrics.counter reg "mmu.faults";
    fault_unmapped = Air_obs.Metrics.counter reg "mmu.faults.unmapped";
    fault_privilege = Air_obs.Metrics.counter reg "mmu.faults.privilege";
    fault_permission = Air_obs.Metrics.counter reg "mmu.faults.permission" }

let contexts t = Array.length t.tables

let check_context t context =
  if context < 0 || context >= contexts t then
    invalid_arg "Mmu: context out of range"

let level_rank = function
  | Memory.Application -> 0
  | Memory.Pos -> 1
  | Memory.Pmk -> 2

let set_pte table idx pte =
  match table.(idx) with
  | Invalid -> table.(idx) <- Pte pte
  | Pte _ | Ptd _ -> invalid_arg "Mmu.map_region: page already mapped"

let subtable table idx entries =
  match table.(idx) with
  | Ptd sub -> sub
  | Invalid ->
    let sub = Array.make entries Invalid in
    table.(idx) <- Ptd sub;
    sub
  | Pte _ -> invalid_arg "Mmu.map_region: page already mapped"

let map_region t ~context (r : Memory.region) =
  check_context t context;
  if Memory.region_end r > address_space then
    invalid_arg "Mmu.map_region: region beyond 32-bit address space";
  let l1 = t.tables.(context) in
  let pte = { perms = r.Memory.perms; min_level = r.Memory.min_level } in
  let cursor = ref r.Memory.base in
  let stop = Memory.region_end r in
  while !cursor < stop do
    let remaining = stop - !cursor in
    if !cursor mod l1_span = 0 && remaining >= l1_span then begin
      set_pte l1 (!cursor / l1_span) pte;
      cursor := !cursor + l1_span
    end
    else if !cursor mod l2_span = 0 && remaining >= l2_span then begin
      let l2 = subtable l1 (!cursor / l1_span) l2_entries in
      set_pte l2 (!cursor mod l1_span / l2_span) pte;
      cursor := !cursor + l2_span
    end
    else begin
      let l2 = subtable l1 (!cursor / l1_span) l2_entries in
      let l3 = subtable l2 (!cursor mod l1_span / l2_span) l3_entries in
      set_pte l3 (!cursor mod l2_span / l3_span) pte;
      cursor := !cursor + l3_span
    end
  done

let map_partition t ~context (m : Memory.map) =
  List.iter (map_region t ~context) m.Memory.regions

(* Depth = number of table levels consulted (1–3); the cost model of
   [Protection]/[Contention] charges deeper walks more. *)
let lookup_depth t ~context address =
  if address < 0 || address >= address_space then (None, 1)
  else begin
    let l1 = t.tables.(context) in
    match l1.(address / l1_span) with
    | Invalid -> (None, 1)
    | Pte pte -> (Some pte, 1)
    | Ptd l2 -> (
      match l2.(address mod l1_span / l2_span) with
      | Invalid -> (None, 2)
      | Pte pte -> (Some pte, 2)
      | Ptd l3 -> (
        match l3.(address mod l2_span / l3_span) with
        | Invalid | Ptd _ -> (None, 3)
        | Pte pte -> (Some pte, 3)))
  end

let permits (perms : Memory.perms) = function
  | Read -> perms.read
  | Write -> perms.write
  | Execute -> perms.execute

let translate_costed t ~context ~level ~access address =
  check_context t context;
  Air_obs.Metrics.incr t.walks;
  let fault reason =
    Air_obs.Metrics.incr t.faults;
    Air_obs.Metrics.incr
      (match reason with
      | Unmapped -> t.fault_unmapped
      | Privilege -> t.fault_privilege
      | Permission -> t.fault_permission);
    Error { context; address; access; level; reason }
  in
  let entry, depth = lookup_depth t ~context address in
  let result =
    match entry with
    | None -> fault Unmapped
    | Some pte ->
      if level_rank level < level_rank pte.min_level then fault Privilege
      else if not (permits pte.perms access) then fault Permission
      else Ok (pte.perms, pte.min_level)
  in
  (result, depth)

let translate t ~context ~level ~access address =
  fst (translate_costed t ~context ~level ~access address)

let entry_count t ~context =
  check_context t context;
  let rec count_table table =
    Array.fold_left
      (fun acc -> function
        | Invalid -> acc
        | Pte _ -> acc + 1
        | Ptd sub -> acc + count_table sub)
      0 table
  in
  count_table t.tables.(context)

let acc_encoding (perms : Memory.perms) level =
  (* SPARC V8 ACC values; user-accessible regions take 0–4, supervisor-only
     regions 6–7 (5 grants user read and is not used by AIR descriptors). *)
  match level with
  | Memory.Application -> (
    match (perms.read, perms.write, perms.execute) with
    | true, false, false -> 0
    | true, true, false -> 1
    | true, false, true -> 2
    | true, true, true -> 3
    | false, _, true -> 4
    | false, _, false -> 0)
  | Memory.Pos | Memory.Pmk -> if perms.write then 7 else 6
