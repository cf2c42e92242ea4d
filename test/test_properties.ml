(* System-level property tests:

   - the PMK's dispatch decisions agree with the scheduling table at every
     tick, for randomly synthesized valid tables;
   - the whole simulation is deterministic (equal seeds ⇒ equal
     observations);
   - occupancy reconstruction accounts for every tick;
   - the kernel's heir always satisfies eq. (14) under random operation
     sequences. *)

open Air_model
open Air_pos
open Air
open Ident

let qcheck = QCheck_alcotest.to_alcotest
let pid = Partition_id.make

let requirements_gen =
  QCheck.Gen.(
    let* n = int_range 1 4 in
    let* picks = list_repeat n (pair (int_range 0 2) (int_range 1 8)) in
    return
      (List.mapi
         (fun i (c, d) ->
           let cycle = [| 40; 80; 160 |].(c) in
           { Schedule.partition = pid i;
             cycle;
             duration = Stdlib.max 1 (Stdlib.min d (cycle / 5)) })
         picks))

(* At every tick the PMK's active partition equals the table's window owner
   at the corresponding MTF offset (Algorithm 1 + preemption table vs the
   declarative window list). *)
let pmk_matches_pst =
  QCheck.Test.make ~name:"PMK dispatch matches the PST at every tick"
    ~count:100 (QCheck.make requirements_gen) (fun requirements ->
      match Air_analysis.Synthesis.synthesize requirements with
      | Error _ -> QCheck.assume_fail ()
      | Ok schedule ->
        let pmk =
          Pmk.create ~partition_count:(List.length requirements) [ schedule ]
        in
        let ok = ref true in
        for _ = 0 to (3 * schedule.Schedule.mtf) - 1 do
          ignore (Pmk.tick pmk);
          let offset = Pmk.ticks pmk mod schedule.Schedule.mtf in
          let expected =
            Option.map
              (fun (w : Schedule.window) -> w.Schedule.partition)
              (Schedule.window_at schedule offset)
          in
          let actual = Pmk.active_partition pmk in
          let same =
            match (expected, actual) with
            | None, None -> true
            | Some a, Some b -> Partition_id.equal a b
            | None, Some _ | Some _, None -> false
          in
          if not same then ok := false
        done;
        !ok)

(* The same holds across a mode-based switch between two synthesized
   tables. *)
let pmk_matches_pst_after_switch =
  QCheck.Test.make ~name:"PMK matches the new PST after a switch" ~count:50
    (QCheck.make QCheck.Gen.(pair requirements_gen requirements_gen))
    (fun (reqs_a, reqs_b) ->
      (* Use the same partition universe for both tables. *)
      let partition_count =
        Stdlib.max (List.length reqs_a) (List.length reqs_b)
      in
      match
        ( Air_analysis.Synthesis.synthesize ~id:(Schedule_id.make 0) reqs_a,
          Air_analysis.Synthesis.synthesize ~id:(Schedule_id.make 1) reqs_b )
      with
      | Ok a, Ok b ->
        let pmk = Pmk.create ~partition_count [ a; b ] in
        ignore (Pmk.tick pmk);
        ignore (Pmk.request_schedule_switch pmk (Schedule_id.make 1));
        let ok = ref true in
        let switched = ref false in
        for _ = 1 to (3 * a.Schedule.mtf) + (3 * b.Schedule.mtf) do
          let o = Pmk.tick pmk in
          if o.Pmk.schedule_switched <> None then switched := true;
          let current =
            if Schedule_id.equal (Pmk.current_schedule pmk) a.Schedule.id
            then a
            else b
          in
          let offset =
            (Pmk.ticks pmk - Pmk.last_schedule_switch pmk)
            mod current.Schedule.mtf
          in
          let expected =
            Option.map
              (fun (w : Schedule.window) -> w.Schedule.partition)
              (Schedule.window_at current offset)
          in
          let same =
            match (expected, Pmk.active_partition pmk) with
            | None, None -> true
            | Some x, Some y -> Partition_id.equal x y
            | None, Some _ | Some _, None -> false
          in
          if not same then ok := false
        done;
        !ok && !switched
      | _, _ -> QCheck.assume_fail ())

(* Bit-level determinism of the full system. *)
let system_deterministic =
  QCheck.Test.make ~name:"full system is deterministic" ~count:10
    QCheck.(int_range 1 5)
    (fun mtfs ->
      let run () =
        let s = Air_workload.Satellite.make () in
        System.run_mtfs s 1;
        Air_workload.Satellite.inject_fault s;
        System.run_mtfs s mtfs;
        s
      in
      Observed.systems ~what:(Printf.sprintf "%d MTFs" mtfs) (run ()) (run ());
      true)

(* Occupancy reconstruction conserves time. *)
let occupancy_conserves_time =
  QCheck.Test.make ~name:"occupancy sums to the horizon" ~count:50
    QCheck.(pair (int_range 1 2599) (int_range 1 1300))
    (fun (from, len) ->
      let s = Air_workload.Satellite.make () in
      System.run s ~ticks:(from + len + 1) ;
      let occ =
        Air_vitral.Gantt.occupancy
          ~partitions:(System.partition_ids s)
          ~from ~until:(from + len) (System.activity s)
      in
      List.fold_left (fun acc (_, n) -> acc + n) 0 occ = len)

(* Kernel heir invariant under random operations (eq. (14)): after a
   schedule step, the running process is schedulable and minimal by
   (priority, antiquity) among Ready_m(t). *)
type kop =
  | Start of int
  | Stop of int
  | Wait of int * int
  | Prio of int * int
  | Advance of int

let kop_gen =
  QCheck.Gen.(
    frequency
      [ (4, map (fun q -> Start q) (int_range 0 4));
        (2, map (fun q -> Stop q) (int_range 0 4));
        (2, map2 (fun q d -> Wait (q, d)) (int_range 0 4) (int_range 1 20));
        (2, map2 (fun q p -> Prio (q, p)) (int_range 0 4) (int_range 0 9));
        (3, map (fun d -> Advance d) (int_range 1 10)) ])

let heir_respects_eq14 =
  QCheck.Test.make ~name:"kernel heir satisfies eq. (14)" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 1 60) kop_gen))
    (fun ops ->
      let k =
        Kernel.create ~partition:(pid 0) ~policy:Kernel.Priority_preemptive
          ~hooks:Kernel.null_hooks
          (Array.init 5 (fun i ->
               Process.spec ~base_priority:(5 + (i mod 3))
                 (Printf.sprintf "t%d" i)))
      in
      let now = ref 0 in
      List.for_all
        (fun op ->
          (match op with
          | Start q -> ignore (Kernel.start k ~now:!now q)
          | Stop q -> ignore (Kernel.stop k q)
          | Wait (q, d) -> ignore (Kernel.timed_wait k ~now:!now q d)
          | Prio (q, p) -> ignore (Kernel.set_priority k q p)
          | Advance d ->
            now := !now + d;
            Kernel.announce_ticks k ~now:!now);
          let heir = Kernel.schedule k ~now:!now in
          let ready = Kernel.ready_set k in
          match heir with
          | None -> ready = []
          | Some h ->
            List.mem h ready
            && Process.state_equal (Kernel.state k h) Process.Running
            && List.for_all
                 (fun q ->
                   (Kernel.status k h).Process.current_priority
                   <= (Kernel.status k q).Process.current_priority)
                 ready
            (* Exactly one running process (eq. (13)). *)
            && List.length
                 (List.filter
                    (fun q ->
                      Process.state_equal (Kernel.state k q) Process.Running)
                    ready)
               = 1)
        ops)

(* Supply-function laws over randomly synthesized schedules. *)
let supply_laws =
  QCheck.Test.make ~name:"supply: sbf is a lower bound and inverse is exact"
    ~count:60
    (QCheck.make QCheck.Gen.(pair requirements_gen (int_range 1 300)))
    (fun (requirements, delta) ->
      match Air_analysis.Synthesis.synthesize requirements with
      | Error _ -> QCheck.assume_fail ()
      | Ok schedule ->
        List.for_all
          (fun (r : Schedule.requirement) ->
            let p = r.Schedule.partition in
            let sbf = Air_analysis.Supply.sbf schedule p delta in
            (* Lower bound over a sample of alignments. *)
            let bound_ok =
              List.for_all
                (fun from ->
                  Air_analysis.Supply.service_in schedule p ~from
                    ~until:(from + delta)
                  >= sbf)
                [ 0; 1; 7; delta; (2 * delta) + 3 ]
            in
            (* inverse_sbf is the minimal interval that guarantees the
               demand. *)
            let inverse_ok =
              match Air_analysis.Supply.inverse_sbf schedule p sbf with
              | None -> sbf = 0
              | Some d ->
                Air_analysis.Supply.sbf schedule p d >= sbf
                && (d = 0 || Air_analysis.Supply.sbf schedule p (d - 1) < sbf)
            in
            bound_ok && inverse_ok)
          requirements)

let suite =
  [ qcheck pmk_matches_pst;
    qcheck pmk_matches_pst_after_switch;
    qcheck system_deterministic;
    qcheck occupancy_conserves_time;
    qcheck heir_respects_eq14;
    qcheck supply_laws ]
