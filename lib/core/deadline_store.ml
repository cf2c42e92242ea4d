open Air_sim

module type S = sig
  type t

  val name : string
  val create : unit -> t
  val register : t -> process:int -> Time.t -> unit
  val unregister : t -> process:int -> unit
  val earliest : t -> (int * Time.t) option
  val min_deadline : t -> Time.t
  val remove_earliest : t -> unit
  val find : t -> process:int -> Time.t option
  val size : t -> int
  val clear : t -> unit
  val to_sorted_list : t -> (int * Time.t) list
end

let entry_compare (d1, p1) (d2, p2) =
  match Time.compare d1 d2 with 0 -> Int.compare p1 p2 | c -> c

module Linked_list : S = struct
  type node = {
    process : int;
    mutable deadline : Time.t;
    mutable prev : node option;
    mutable next : node option;
  }

  type t = {
    mutable head : node option;
    index : (int, node) Hashtbl.t;
  }

  let name = "linked-list"

  let create () = { head = None; index = Hashtbl.create 16 }

  let unlink t node =
    (match node.prev with
    | Some p -> p.next <- node.next
    | None -> t.head <- node.next);
    (match node.next with Some n -> n.prev <- node.prev | None -> ());
    node.prev <- None;
    node.next <- None

  (* Insert keeping ascending (deadline, process) order: walk from the head
     — the O(n) cost the paper accepts because it runs in a partition's
     window, not in the clock ISR. *)
  let insert t node =
    let key = (node.deadline, node.process) in
    let rec walk prev = function
      | Some cursor when entry_compare (cursor.deadline, cursor.process) key < 0
        ->
        walk (Some cursor) cursor.next
      | rest -> (
        node.next <- rest;
        node.prev <- prev;
        (match rest with Some r -> r.prev <- Some node | None -> ());
        match prev with
        | Some p -> p.next <- Some node
        | None -> t.head <- Some node)
    in
    walk None t.head

  let register t ~process deadline =
    match Hashtbl.find_opt t.index process with
    | Some node ->
      unlink t node;
      node.deadline <- deadline;
      insert t node
    | None ->
      let node = { process; deadline; prev = None; next = None } in
      Hashtbl.replace t.index process node;
      insert t node

  let unregister t ~process =
    match Hashtbl.find_opt t.index process with
    | Some node ->
      unlink t node;
      Hashtbl.remove t.index process
    | None -> ()

  let earliest t =
    Option.map (fun n -> (n.process, n.deadline)) t.head

  let min_deadline t =
    match t.head with None -> Time.infinity | Some n -> n.deadline

  let remove_earliest t =
    match t.head with
    | Some node ->
      unlink t node;
      Hashtbl.remove t.index node.process
    | None -> ()

  let find t ~process =
    Option.map (fun n -> n.deadline) (Hashtbl.find_opt t.index process)

  let size t = Hashtbl.length t.index

  let clear t =
    t.head <- None;
    Hashtbl.reset t.index

  let to_sorted_list t =
    let rec go acc = function
      | None -> List.rev acc
      | Some n -> go ((n.process, n.deadline) :: acc) n.next
    in
    go [] t.head
end

module Avl : S = struct
  (* Keys are (deadline, process) pairs; the index maps a process to its
     current deadline so registration can replace a stale key. *)
  type tree =
    | Leaf
    | Branch of { left : tree; key : Time.t * int; right : tree; height : int }

  type t = { mutable root : tree; index : (int, Time.t) Hashtbl.t }

  let name = "avl-tree"

  let create () = { root = Leaf; index = Hashtbl.create 16 }

  let height = function Leaf -> 0 | Branch b -> b.height

  let branch left key right =
    Branch { left; key; right; height = 1 + Int.max (height left) (height right) }

  let balance_factor = function
    | Leaf -> 0
    | Branch b -> height b.left - height b.right

  let rotate_left = function
    | Branch { left = l; key = k; right = Branch r; _ } ->
      branch (branch l k r.left) r.key r.right
    | t -> t

  let rotate_right = function
    | Branch { left = Branch l; key = k; right = r; _ } ->
      branch l.left l.key (branch l.right k r)
    | t -> t

  let rebalance t =
    match t with
    | Leaf -> Leaf
    | Branch b ->
      let bf = balance_factor t in
      if bf > 1 then
        if balance_factor b.left >= 0 then rotate_right t
        else rotate_right (branch (rotate_left b.left) b.key b.right)
      else if bf < -1 then
        if balance_factor b.right <= 0 then rotate_left t
        else rotate_left (branch b.left b.key (rotate_right b.right))
      else t

  let rec insert key = function
    | Leaf -> branch Leaf key Leaf
    | Branch b ->
      let c = entry_compare key b.key in
      if c < 0 then rebalance (branch (insert key b.left) b.key b.right)
      else if c > 0 then rebalance (branch b.left b.key (insert key b.right))
      else branch b.left key b.right

  let rec min_key = function
    | Leaf -> None
    | Branch { left = Leaf; key; _ } -> Some key
    | Branch { left; _ } -> min_key left

  let rec remove key = function
    | Leaf -> Leaf
    | Branch b ->
      let c = entry_compare key b.key in
      if c < 0 then rebalance (branch (remove key b.left) b.key b.right)
      else if c > 0 then rebalance (branch b.left b.key (remove key b.right))
      else begin
        match (b.left, b.right) with
        | Leaf, r -> r
        | l, Leaf -> l
        | l, r -> (
          match min_key r with
          | Some successor ->
            rebalance (branch l successor (remove successor r))
          | None -> l)
      end

  let register t ~process deadline =
    (match Hashtbl.find_opt t.index process with
    | Some old -> t.root <- remove (old, process) t.root
    | None -> ());
    Hashtbl.replace t.index process deadline;
    t.root <- insert (deadline, process) t.root

  let unregister t ~process =
    match Hashtbl.find_opt t.index process with
    | Some old ->
      t.root <- remove (old, process) t.root;
      Hashtbl.remove t.index process
    | None -> ()

  let earliest t =
    Option.map (fun (d, p) -> (p, d)) (min_key t.root)

  let rec min_deadline_tree = function
    | Leaf -> Time.infinity
    | Branch { left = Leaf; key = (d, _); _ } -> d
    | Branch { left; _ } -> min_deadline_tree left

  let min_deadline t = min_deadline_tree t.root

  let remove_earliest t =
    match min_key t.root with
    | Some ((_, process) as key) ->
      t.root <- remove key t.root;
      Hashtbl.remove t.index process
    | None -> ()

  let find t ~process = Hashtbl.find_opt t.index process
  let size t = Hashtbl.length t.index

  let clear t =
    t.root <- Leaf;
    Hashtbl.reset t.index

  let to_sorted_list t =
    let rec go acc = function
      | Leaf -> acc
      | Branch b -> go (((snd b.key, fst b.key)) :: go acc b.right) b.left
    in
    go [] t.root
end

module Pairing : S = struct
  (* Min pairing heap with lazy deletion: superseded or unregistered
     entries stay in the heap and are skipped when they surface. *)
  type heap = Empty | Node of (Time.t * int) * heap list

  type t = {
    mutable heap : heap;
    index : (int, Time.t) Hashtbl.t;
    mutable garbage : int;
  }

  let name = "pairing-heap"

  let create () = { heap = Empty; index = Hashtbl.create 16; garbage = 0 }

  let merge a b =
    match (a, b) with
    | Empty, h | h, Empty -> h
    | Node (ka, ca), Node (kb, cb) ->
      if entry_compare ka kb <= 0 then Node (ka, b :: ca)
      else Node (kb, a :: cb)

  let insert h key = merge h (Node (key, []))

  let rec merge_pairs = function
    | [] -> Empty
    | [ h ] -> h
    | h1 :: h2 :: rest -> merge (merge h1 h2) (merge_pairs rest)

  let delete_min = function
    | Empty -> Empty
    | Node (_, children) -> merge_pairs children

  let is_live t (deadline, process) =
    match Hashtbl.find t.index process with
    | exception Not_found -> false
    | current -> Time.equal current deadline

  (* Pop stale tops until a live entry (or emptiness) surfaces. *)
  let rec settle t =
    match t.heap with
    | Empty -> ()
    | Node (key, _) ->
      if is_live t key then ()
      else begin
        t.heap <- delete_min t.heap;
        t.garbage <- Int.max 0 (t.garbage - 1);
        settle t
      end

  (* Lazy deletion keeps superseded entries in the heap; [settle] only
     drains them when they surface at the top. A register-heavy workload
     that rarely (or never) queries the minimum would otherwise grow the
     heap without bound — the BENCH_5 `deadline/register(pairing-heap,n=8)`
     anomaly, where the heap held hundreds of stale entries per live one.
     Rebuild from the live index once garbage outnumbers live entries 2:1:
     O(live) per O(live) garbage accrued, so registration stays O(1)
     amortized, and the (deadline, process) total order makes the rebuilt
     heap observationally identical. *)
  let compact t =
    t.heap <-
      Hashtbl.fold
        (fun process deadline h -> insert h (deadline, process))
        t.index Empty;
    t.garbage <- 0

  let maybe_compact t =
    if t.garbage > Int.max 16 (2 * Hashtbl.length t.index) then compact t

  let register t ~process deadline =
    (match Hashtbl.find_opt t.index process with
    | Some _ -> t.garbage <- t.garbage + 1
    | None -> ());
    Hashtbl.replace t.index process deadline;
    t.heap <- insert t.heap (deadline, process);
    maybe_compact t

  let unregister t ~process =
    if Hashtbl.mem t.index process then begin
      Hashtbl.remove t.index process;
      t.garbage <- t.garbage + 1;
      maybe_compact t
    end

  let earliest t =
    settle t;
    match t.heap with
    | Empty -> None
    | Node ((deadline, process), _) -> Some (process, deadline)

  let min_deadline t =
    settle t;
    match t.heap with
    | Empty -> Time.infinity
    | Node ((deadline, _), _) -> deadline

  let remove_earliest t =
    settle t;
    match t.heap with
    | Empty -> ()
    | Node ((_, process), _) ->
      Hashtbl.remove t.index process;
      t.heap <- delete_min t.heap

  let find t ~process = Hashtbl.find_opt t.index process
  let size t = Hashtbl.length t.index

  let clear t =
    t.heap <- Empty;
    Hashtbl.reset t.index;
    t.garbage <- 0

  let to_sorted_list t =
    Hashtbl.fold (fun process deadline acc -> (process, deadline) :: acc)
      t.index []
    |> List.sort (fun (p1, d1) (p2, d2) -> entry_compare (d1, p1) (d2, p2))
end

type impl = Linked_list_impl | Avl_impl | Pairing_impl

let pp_impl ppf i =
  Format.pp_print_string ppf
    (match i with
    | Linked_list_impl -> Linked_list.name
    | Avl_impl -> Avl.name
    | Pairing_impl -> Pairing.name)

let all_impls = [ Linked_list_impl; Avl_impl; Pairing_impl ]

type t =
  | Store :
      (module S with type t = 'a) * 'a * impl
      -> t

let create impl =
  match impl with
  | Linked_list_impl ->
    Store ((module Linked_list), Linked_list.create (), impl)
  | Avl_impl -> Store ((module Avl), Avl.create (), impl)
  | Pairing_impl -> Store ((module Pairing), Pairing.create (), impl)

let impl (Store (_, _, i)) = i

let register (Store ((module M), s, _)) ~process deadline =
  M.register s ~process deadline

let unregister (Store ((module M), s, _)) ~process = M.unregister s ~process
let earliest (Store ((module M), s, _)) = M.earliest s
let min_deadline (Store ((module M), s, _)) = M.min_deadline s
let remove_earliest (Store ((module M), s, _)) = M.remove_earliest s
let find (Store ((module M), s, _)) ~process = M.find s ~process
let size (Store ((module M), s, _)) = M.size s
let clear (Store ((module M), s, _)) = M.clear s
let to_sorted_list (Store ((module M), s, _)) = M.to_sorted_list s
