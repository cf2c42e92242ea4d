module Partition_id = struct
  type t = int

  let make i =
    if i < 0 then invalid_arg "Partition_id.make: negative index" else i

  let index t = t
  let equal = Int.equal
  let compare = Int.compare
  let pp ppf t = Format.fprintf ppf "P%d" (t + 1)
end

module Process_id = struct
  type t = { partition : Partition_id.t; index : int }

  let make partition index =
    if index < 0 then invalid_arg "Process_id.make: negative index"
    else { partition; index }

  let partition t = t.partition
  let index t = t.index

  let equal a b =
    Partition_id.equal a.partition b.partition && Int.equal a.index b.index

  let compare a b =
    match Partition_id.compare a.partition b.partition with
    | 0 -> Int.compare a.index b.index
    | c -> c

  let pp ppf t =
    Format.fprintf ppf "τ%d,%d" (Partition_id.index t.partition + 1)
      (t.index + 1)
end

module Schedule_id = struct
  type t = int

  let make i =
    if i < 0 then invalid_arg "Schedule_id.make: negative index" else i

  let index t = t
  let equal = Int.equal
  let compare = Int.compare
  let pp ppf t = Format.fprintf ppf "χ%d" (t + 1)
end

module Port_name = struct
  type t = string

  let equal = String.equal
  let compare = String.compare
  let pp = Format.pp_print_string
end
