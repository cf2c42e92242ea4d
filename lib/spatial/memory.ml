type exec_level = Application | Pos | Pmk

let pp_exec_level ppf l =
  Format.pp_print_string ppf
    (match l with Application -> "app" | Pos -> "pos" | Pmk -> "pmk")

type section = Code | Data | Stack | Io

let section_equal a b =
  match (a, b) with
  | Code, Code | Data, Data | Stack, Stack | Io, Io -> true
  | (Code | Data | Stack | Io), _ -> false

let pp_section ppf s =
  Format.pp_print_string ppf
    (match s with
    | Code -> "code"
    | Data -> "data"
    | Stack -> "stack"
    | Io -> "io")

type perms = { read : bool; write : bool; execute : bool }

let pp_perms ppf p =
  Format.fprintf ppf "%c%c%c"
    (if p.read then 'r' else '-')
    (if p.write then 'w' else '-')
    (if p.execute then 'x' else '-')

let rwx = { read = true; write = true; execute = true }
let rw = { read = true; write = true; execute = false }
let rx = { read = true; write = false; execute = true }
let ro = { read = true; write = false; execute = false }

let default_perms = function
  | Code -> rx
  | Data | Stack | Io -> rw

let page_size = 4096

type region = {
  base : int;
  size : int;
  section : section;
  min_level : exec_level;
  perms : perms;
}

let region ?(min_level = Application) ~base ~size section =
  if base < 0 then invalid_arg "Memory.region: negative base";
  if size <= 0 then invalid_arg "Memory.region: non-positive size";
  if base mod page_size <> 0 then
    invalid_arg "Memory.region: base not page aligned";
  if size mod page_size <> 0 then
    invalid_arg "Memory.region: size not a page multiple";
  { base; size; section; min_level; perms = default_perms section }

let region_end r = r.base + r.size

let regions_overlap a b = a.base < region_end b && b.base < region_end a

let pp_region ppf r =
  Format.fprintf ppf "[0x%x, 0x%x) %a %a %a" r.base (region_end r)
    pp_section r.section pp_exec_level r.min_level pp_perms r.perms

type map = { partition : Air_model.Ident.Partition_id.t; regions : region list }

let map partition regions = { partition; regions }

let validate_maps maps =
  let diags = ref [] in
  let push fmt = Format.kasprintf (fun s -> diags := s :: !diags) fmt in
  let rec pairs = function
    | [] -> ()
    | m :: rest ->
      (* Intra-map overlaps. *)
      let rec intra = function
        | [] -> ()
        | r :: rs ->
          List.iter
            (fun r' ->
              if regions_overlap r r' then
                push "%a: overlapping regions %a and %a"
                  Air_model.Ident.Partition_id.pp m.partition pp_region r pp_region r')
            rs;
          intra rs
      in
      intra m.regions;
      (* Cross-map overlaps: spatial-separation breach. *)
      List.iter
        (fun m' ->
          List.iter
            (fun r ->
              List.iter
                (fun r' ->
                  if regions_overlap r r' then
                    push
                      "spatial separation: %a region %a overlaps %a region %a"
                      Air_model.Ident.Partition_id.pp m.partition pp_region r
                      Air_model.Ident.Partition_id.pp m'.partition pp_region r')
                m'.regions)
            m.regions)
        rest;
      pairs rest
  in
  pairs maps;
  List.rev !diags

type request = { req_section : section; req_size : int }

let round_up n = (n + page_size - 1) / page_size * page_size

let allocate parts =
  let cursor = ref 0x4000_0000 in
  List.map
    (fun (pid, requests) ->
      let regions =
        List.map
          (fun { req_section; req_size } ->
            let size = round_up (Int.max 1 req_size) in
            let r = region ~base:!cursor ~size req_section in
            cursor := !cursor + size;
            r)
          requests
      in
      map pid regions)
    parts
