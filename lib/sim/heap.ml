type 'a t = { cmp : 'a -> 'a -> int; data : 'a Vec.t }

let create ~cmp = { cmp; data = Vec.create () }

let length t = Vec.length t.data

let is_empty t = Vec.is_empty t.data

let swap t i j =
  let x = Vec.get t.data i in
  Vec.set t.data i (Vec.get t.data j);
  Vec.set t.data j x

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.cmp (Vec.get t.data i) (Vec.get t.data parent) < 0 then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let n = Vec.length t.data in
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < n && t.cmp (Vec.get t.data l) (Vec.get t.data !smallest) < 0 then
    smallest := l;
  if r < n && t.cmp (Vec.get t.data r) (Vec.get t.data !smallest) < 0 then
    smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let push t x =
  Vec.push t.data x;
  sift_up t (Vec.length t.data - 1)

let peek t = if is_empty t then None else Some (Vec.get t.data 0)

let pop t =
  if is_empty t then None
  else begin
    let top = Vec.get t.data 0 in
    match Vec.pop_last t.data with
    | None -> None
    | Some bottom ->
      if not (Vec.is_empty t.data) then begin
        Vec.set t.data 0 bottom;
        sift_down t 0
      end;
      Some top
  end

let to_sorted_list t =
  let copy = create ~cmp:t.cmp in
  Vec.iter (push copy) t.data;
  let rec drain acc =
    match pop copy with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  drain []

let of_list ~cmp l =
  let t = create ~cmp in
  List.iter (push t) l;
  t
