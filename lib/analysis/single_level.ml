open Air_sim
open Air_model
open Ident

type task = {
  owner : Partition_id.t;
  spec : Process.spec;
  babbling : bool;
}

let task ?(babbling = false) ~owner spec = { owner; spec; babbling }

type task_stats = {
  task_index : int;
  task_owner : Partition_id.t;
  releases : int;
  completions : int;
  deadline_misses : int;
  worst_response : Time.t option;
}

type stats = {
  horizon : Time.t;
  per_task : task_stats list;
  total_misses : int;
  starved_tasks : int;
}

type job = {
  mutable remaining : Time.t;
  mutable released_at : Time.t;
  mutable deadline : Time.t;
  mutable miss_counted : bool;
}

type runtime = {
  task : task;
  mutable next_release : Time.t;
  mutable active : job option;
  mutable backlog : int;
      (* Activations released while a previous one still runs. *)
  mutable releases : int;
  mutable completions : int;
  mutable misses : int;
  mutable worst : Time.t option;
}

let simulate tasks ~horizon =
  let rts =
    List.map
      (fun task ->
        { task;
          next_release = Time.zero;
          active = None;
          backlog = 0;
          releases = 0;
          completions = 0;
          misses = 0;
          worst = None })
      tasks
    |> Array.of_list
  in
  let release rt now =
    rt.releases <- rt.releases + 1;
    let deadline = Time.add now rt.task.spec.Process.time_capacity in
    match rt.active with
    | None ->
      rt.active <-
        Some
          { remaining = Stdlib.max 1 rt.task.spec.Process.wcet;
            released_at = now;
            deadline;
            miss_counted = false }
    | Some _ -> rt.backlog <- rt.backlog + 1
  in
  for now = 0 to horizon - 1 do
    (* Releases due at this tick. *)
    Array.iter
      (fun rt ->
        match rt.task.spec.Process.periodicity with
        | Process.Periodic t ->
          if now = rt.next_release then begin
            release rt now;
            rt.next_release <- Time.add rt.next_release t
          end
        | Process.Sporadic t ->
          (* Densest legal arrival pattern: every T. *)
          if now = rt.next_release then begin
            release rt now;
            rt.next_release <- Time.add rt.next_release t
          end
        | Process.Aperiodic -> if now = 0 then release rt now)
      rts;
    (* Deadline misses: counted the first tick past the deadline. *)
    Array.iter
      (fun rt ->
        match rt.active with
        | Some job
          when (not job.miss_counted)
               && (not (Time.is_infinite job.deadline))
               && Time.(job.deadline < now) ->
          job.miss_counted <- true;
          rt.misses <- rt.misses + 1
        | Some _ | None -> ())
      rts;
    (* Highest-priority ready job runs one tick (FIFO among equals by task
       order, which is release antiquity for same-priority tasks here). *)
    let heir = ref None in
    Array.iteri
      (fun i rt ->
        match rt.active with
        | None -> ()
        | Some _ -> (
          match !heir with
          | None -> heir := Some i
          | Some j ->
            if
              rts.(i).task.spec.Process.base_priority
              < rts.(j).task.spec.Process.base_priority
            then heir := Some i))
      rts;
    match !heir with
    | None -> ()
    | Some i -> (
      let rt = rts.(i) in
      match rt.active with
      | None -> ()
      | Some job ->
        if not rt.task.babbling then job.remaining <- job.remaining - 1;
        if job.remaining <= 0 then begin
          rt.completions <- rt.completions + 1;
          let response = now + 1 - job.released_at in
          rt.worst <-
            Some
              (match rt.worst with
              | None -> response
              | Some w -> Stdlib.max w response);
          (if (not job.miss_counted) && (not (Time.is_infinite job.deadline))
              && Time.(job.deadline < now + 1 - 1) then begin
             job.miss_counted <- true;
             rt.misses <- rt.misses + 1
           end);
          rt.active <- None;
          if rt.backlog > 0 then begin
            rt.backlog <- rt.backlog - 1;
            (* The queued activation was released at some earlier period
               boundary; approximate with the latest one. *)
            let period =
              match rt.task.spec.Process.periodicity with
              | Process.Periodic t | Process.Sporadic t -> t
              | Process.Aperiodic -> 1
            in
            let released_at = rt.next_release - period in
            rt.active <-
              Some
                { remaining = Stdlib.max 1 rt.task.spec.Process.wcet;
                  released_at;
                  deadline =
                    Time.add released_at rt.task.spec.Process.time_capacity;
                  miss_counted = false }
          end
        end)
  done;
  let per_task =
    Array.to_list
      (Array.mapi
         (fun i rt ->
           { task_index = i;
             task_owner = rt.task.owner;
             releases = rt.releases;
             completions = rt.completions;
             deadline_misses = rt.misses;
             worst_response = rt.worst })
         rts)
  in
  { horizon;
    per_task;
    total_misses = List.fold_left (fun a t -> a + t.deadline_misses) 0 per_task;
    starved_tasks =
      List.length
        (List.filter
           (fun (t : task_stats) -> t.releases > 0 && t.completions = 0)
           per_task) }

let misses_outside stats pid =
  List.fold_left
    (fun acc t ->
      if Partition_id.equal t.task_owner pid then acc
      else acc + t.deadline_misses)
    0 stats.per_task
