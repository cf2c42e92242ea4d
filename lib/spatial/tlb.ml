open Air_obs

type entry = {
  context : int;
  vpn : int;
  perms : Memory.perms;
  min_level : Memory.exec_level;
}

type t = {
  slots : entry option array;
  mutable next : int;  (* FIFO replacement cursor *)
  hits : Metrics.counter;
  misses : Metrics.counter;
}

let create ?metrics ?(capacity = 32) () =
  if capacity <= 0 then invalid_arg "Tlb.create: capacity must be positive";
  let reg =
    match metrics with Some reg -> reg | None -> Metrics.create ()
  in
  { slots = Array.make capacity None;
    next = 0;
    hits = Metrics.counter reg "tlb.hits";
    misses = Metrics.counter reg "tlb.misses" }

let lookup t ~context ~vpn =
  let n = Array.length t.slots in
  let rec go i =
    if i >= n then begin
      Metrics.incr t.misses;
      None
    end
    else
      match t.slots.(i) with
      | Some e when e.context = context && e.vpn = vpn ->
        Metrics.incr t.hits;
        Some e
      | Some _ | None -> go (i + 1)
  in
  go 0

let insert t entry =
  let n = Array.length t.slots in
  let rec existing i =
    if i >= n then None
    else
      match t.slots.(i) with
      | Some e when e.context = entry.context && e.vpn = entry.vpn -> Some i
      | Some _ | None -> existing (i + 1)
  in
  match existing 0 with
  | Some i -> t.slots.(i) <- Some entry
  | None ->
    t.slots.(t.next) <- Some entry;
    t.next <- (t.next + 1) mod n

type stats = { hits : int; misses : int }

let stats (t : t) =
  { hits = Metrics.value t.hits; misses = Metrics.value t.misses }

let pp_stats ppf s = Format.fprintf ppf "hits=%d misses=%d" s.hits s.misses
