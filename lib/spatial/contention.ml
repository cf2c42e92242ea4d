(* Shared-resource contention model — see the interface for the model
   description. Everything is integer arithmetic over preallocated
   arrays; [charge]/[consume_stall] are the hot path and allocate
   nothing. *)

type config = {
  default_budget : int;
  budgets : (int * int) list;
  curve : (int * int) list;
  compute_cost : int;
  pressure_decay_permille : int;
}

let validate (c : config) =
  if c.default_budget <= 0 then
    invalid_arg "Contention.config: default budget must be positive";
  List.iter
    (fun (p, b) ->
      if p < 0 then invalid_arg "Contention.config: negative partition index";
      if b <= 0 then
        invalid_arg "Contention.config: partition budget must be positive")
    c.budgets;
  if c.compute_cost < 0 then
    invalid_arg "Contention.config: compute cost must be non-negative";
  if c.pressure_decay_permille < 0 || c.pressure_decay_permille > 1000 then
    invalid_arg "Contention.config: pressure decay must be within 0..1000";
  ignore
    (List.fold_left
       (fun prev (threshold, step) ->
         if threshold < 0 then
           invalid_arg "Contention.config: negative curve threshold";
         if step < 0 then invalid_arg "Contention.config: negative curve step";
         (match prev with
         | Some p when threshold <= p ->
           invalid_arg
             "Contention.config: curve thresholds must be strictly increasing"
         | Some _ | None -> ());
         Some threshold)
       None c.curve)

let config ?(budgets = []) ?(curve = [ (0, 1) ]) ?(compute_cost = 0)
    ?(pressure_decay_permille = 500) ~default_budget () =
  let c =
    { default_budget; budgets; curve; compute_cost; pressure_decay_permille }
  in
  validate c;
  c

type t = {
  cfg : config;
  budgets : int array;
  aggregate_budget : int;
  curve_thresholds : int array;
  curve_steps : int array;
  max_step : int;
  demand : int array;
  lane_demand : int array;
  stall : int array;
  throttled : int array;
  blown : bool array;
  pressure : int array;
  mutable total_demand : int;
  mutable busy_lanes : int;
  mutable cur_lane : int;
  mutable window_start : int;
}

let create ~partitions ~lanes cfg =
  validate cfg;
  if partitions <= 0 then
    invalid_arg "Contention.create: need at least one partition";
  if lanes <= 0 then invalid_arg "Contention.create: need at least one lane";
  List.iter
    (fun (p, _) ->
      if p >= partitions then
        invalid_arg "Contention.create: budget names unknown partition")
    cfg.budgets;
  let budgets =
    Array.init partitions (fun p ->
        match List.assoc_opt p cfg.budgets with
        | Some b -> b
        | None -> cfg.default_budget)
  in
  { cfg;
    budgets;
    aggregate_budget = Array.fold_left ( + ) 0 budgets;
    curve_thresholds = Array.of_list (List.map fst cfg.curve);
    curve_steps = Array.of_list (List.map snd cfg.curve);
    max_step = List.fold_left (fun acc (_, s) -> Stdlib.max acc s) 0 cfg.curve;
    demand = Array.make partitions 0;
    lane_demand = Array.make lanes 0;
    stall = Array.make partitions 0;
    throttled = Array.make partitions 0;
    blown = Array.make partitions false;
    pressure = Array.make partitions 0;
    total_demand = 0;
    busy_lanes = 0;
    cur_lane = 0;
    window_start = 0 }

let configuration t = t.cfg
let budget t p = t.budgets.(p)
let aggregate_budget t = t.aggregate_budget
let max_stall_per_access t = t.max_step
let set_lane t lane = t.cur_lane <- lane

(* Step of the highest curve threshold <= overage; thresholds are sorted,
   short (a handful of points) and scanned linearly. *)
let curve_step t overage =
  let n = Array.length t.curve_thresholds in
  let rec go i acc =
    if i >= n || t.curve_thresholds.(i) > overage then acc
    else go (i + 1) t.curve_steps.(i)
  in
  go 0 0

let charge t ~partition ~cost =
  if cost <= 0 then false
  else begin
    t.demand.(partition) <- t.demand.(partition) + cost;
    let lane = t.cur_lane in
    if t.lane_demand.(lane) = 0 then t.busy_lanes <- t.busy_lanes + 1;
    t.lane_demand.(lane) <- t.lane_demand.(lane) + cost;
    t.total_demand <- t.total_demand + cost;
    (* Slowdown: only genuine cross-lane co-running contends — a single
       busy lane has the bus to itself, however hungry. *)
    if t.busy_lanes >= 2 && t.total_demand > t.aggregate_budget then begin
      let overage =
        (t.total_demand - t.aggregate_budget)
        * 1000
        / Stdlib.max 1 t.aggregate_budget
      in
      t.stall.(partition) <- t.stall.(partition) + curve_step t overage
    end;
    if (not t.blown.(partition)) && t.demand.(partition) > t.budgets.(partition)
    then begin
      t.blown.(partition) <- true;
      true
    end
    else false
  end

(* Compute ticks [partition] can charge on [lane] before a charge crosses
   a threshold of [charge]. Its own budget: [demand + k * cost <= budget]
   unless already blown. The aggregate: [total + k * charging * cost <=
   aggregate budget] whenever two lanes will have charged this window;
   with [charging] lanes charging per tick that is always the case. *)
let compute_headroom t ~partition ~lane ~charging =
  let cost = t.cfg.compute_cost in
  if cost <= 0 then max_int
  else begin
    let own =
      if t.blown.(partition) then max_int
      else (t.budgets.(partition) - t.demand.(partition)) / cost
    in
    let busy =
      if t.lane_demand.(lane) = 0 then t.busy_lanes + 1 else t.busy_lanes
    in
    if busy < 2 && charging < 2 then own
    else
      Stdlib.min own
        (Stdlib.max 0 (t.aggregate_budget - t.total_demand)
        / (cost * Stdlib.max 1 charging))
  end

let stall_pending t ~partition = t.stall.(partition) > 0

let consume_stall t ~partition =
  if t.stall.(partition) > 0 then begin
    t.stall.(partition) <- t.stall.(partition) - 1;
    t.throttled.(partition) <- t.throttled.(partition) + 1
  end

let rollover t ~now =
  if now > t.window_start then begin
    let n = Array.length t.demand in
    for p = 0 to n - 1 do
      t.pressure.(p) <-
        (t.pressure.(p) * t.cfg.pressure_decay_permille / 1000)
        + t.demand.(p);
      t.demand.(p) <- 0;
      t.stall.(p) <- 0;
      t.throttled.(p) <- 0;
      t.blown.(p) <- false
    done;
    Array.fill t.lane_demand 0 (Array.length t.lane_demand) 0;
    t.total_demand <- 0;
    t.busy_lanes <- 0;
    t.window_start <- now
  end

let window_start t = t.window_start
let demand t p = t.demand.(p)
let lane_demand t l = t.lane_demand.(l)
let total_demand t = t.total_demand
let busy_lanes t = t.busy_lanes
let throttled t p = t.throttled.(p)
let stall_debt t p = t.stall.(p)
let pressure t p = t.pressure.(p)

let co_runner_pressure t p =
  let n = Array.length t.pressure in
  let rec go i acc =
    if i >= n then acc else go (i + 1) (if i = p then acc else acc + t.pressure.(i))
  in
  go 0 0

let blown t p = t.blown.(p)
