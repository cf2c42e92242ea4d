type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }

let length t = t.len

let is_empty t = t.len = 0

let grow t =
  let cap = Array.length t.data in
  let cap' = if cap = 0 then 8 else cap * 2 in
  (* The dummy slots beyond [len] hold the pushed value until overwritten;
     they are never observed through the API. *)
  let data' = Array.make cap' t.data.(0) in
  Array.blit t.data 0 data' 0 t.len;
  t.data <- data'

let push t x =
  if t.len = Array.length t.data then
    if t.len = 0 then t.data <- Array.make 8 x else grow t;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let check t i =
  if i < 0 || i >= t.len then invalid_arg "Vec: index out of bounds"

let get t i = check t i; t.data.(i)

let set t i x = check t i; t.data.(i) <- x

let last t = if t.len = 0 then None else Some t.data.(t.len - 1)

let pop_last t =
  if t.len = 0 then None
  else begin
    t.len <- t.len - 1;
    Some t.data.(t.len)
  end

let iter f t = for i = 0 to t.len - 1 do f t.data.(i) done

let fold_left f acc t =
  let acc = ref acc in
  for i = 0 to t.len - 1 do acc := f !acc t.data.(i) done;
  !acc

let exists p t =
  let rec go i = i < t.len && (p t.data.(i) || go (i + 1)) in
  go 0

let filter p t =
  List.rev (fold_left (fun acc x -> if p x then x :: acc else acc) [] t)

let to_list t = List.rev (fold_left (fun acc x -> x :: acc) [] t)

let of_list l =
  let t = create () in
  List.iter (push t) l;
  t
