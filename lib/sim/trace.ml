type 'a t = {
  capacity : int option;
  items : (Time.t * 'a) Queue.t;
  mutable total : int;
}

let create ?capacity () =
  (match capacity with
  | Some c when c <= 0 -> invalid_arg "Trace.create: capacity must be positive"
  | _ -> ());
  { capacity; items = Queue.create (); total = 0 }

let record t time ev =
  Queue.push (time, ev) t.items;
  t.total <- t.total + 1;
  match t.capacity with
  | Some c when Queue.length t.items > c -> ignore (Queue.pop t.items)
  | _ -> ()

let length t = Queue.length t.items
let total t = t.total

let to_list t = List.of_seq (Queue.to_seq t.items)

let events t = List.map snd (to_list t)

let iter f t = Queue.iter (fun (time, ev) -> f time ev) t.items

let filter p t =
  List.filter (fun (time, ev) -> p time ev) (to_list t)

let between t from until =
  filter (fun time _ -> Time.(from <= time) && Time.(time < until)) t

let count p t =
  Queue.fold (fun acc (_, ev) -> if p ev then acc + 1 else acc) 0 t.items

let find_first p t =
  Queue.fold
    (fun acc entry ->
      match acc with
      | Some _ -> acc
      | None -> if p (snd entry) then Some entry else None)
    None t.items

let find_last p t =
  Queue.fold
    (fun acc entry -> if p (snd entry) then Some entry else acc)
    None t.items
