(* VEXP (bounded expiration schedule) and the deferred-strengthening
   queue: ordering, capacity shedding, and deadline bookkeeping. *)

open Worm_core

let sn = Serial.of_int

let test_vexp_ordering () =
  let v = Vexp.create ~capacity:10 in
  Alcotest.(check (option (pair int64 int64))) "empty" None
    (Option.map (fun (e, s) -> (e, Serial.to_int64 s)) (Vexp.next_due v));
  ignore (Vexp.insert v ~expiry:300L (sn 3));
  ignore (Vexp.insert v ~expiry:100L (sn 1));
  ignore (Vexp.insert v ~expiry:200L (sn 2));
  (match Vexp.next_due v with
  | Some (100L, s) -> Alcotest.(check int64) "earliest first" 1L (Serial.to_int64 s)
  | _ -> Alcotest.fail "wrong head");
  let due = Vexp.pop_due v ~now:250L in
  Alcotest.(check (list int64)) "due in order" [ 1L; 2L ] (List.map (fun (_, s) -> Serial.to_int64 s) due);
  Alcotest.(check int) "one left" 1 (Vexp.length v);
  Alcotest.(check (list int64)) "nothing more due" [] (List.map fst (Vexp.pop_due v ~now:250L))

let test_vexp_duplicate_replaces () =
  let v = Vexp.create ~capacity:10 in
  ignore (Vexp.insert v ~expiry:100L (sn 1));
  ignore (Vexp.insert v ~expiry:500L (sn 1));
  Alcotest.(check int) "one entry" 1 (Vexp.length v);
  Alcotest.(check (list int64)) "old schedule gone" [] (List.map fst (Vexp.pop_due v ~now:200L));
  (* due strictly after its expiry *)
  Alcotest.(check int) "not yet at its expiry" 0 (List.length (Vexp.pop_due v ~now:500L));
  Alcotest.(check int) "new schedule fires" 1 (List.length (Vexp.pop_due v ~now:501L))

let test_vexp_remove () =
  let v = Vexp.create ~capacity:10 in
  ignore (Vexp.insert v ~expiry:100L (sn 1));
  Alcotest.(check bool) "mem" true (Vexp.mem v (sn 1));
  Alcotest.(check bool) "removed" true (Vexp.remove v (sn 1));
  Alcotest.(check bool) "gone" false (Vexp.mem v (sn 1));
  Alcotest.(check bool) "second remove false" false (Vexp.remove v (sn 1));
  Alcotest.(check int) "empty" 0 (Vexp.length v)

let test_vexp_capacity_shedding () =
  let v = Vexp.create ~capacity:3 in
  ignore (Vexp.insert v ~expiry:100L (sn 1));
  ignore (Vexp.insert v ~expiry:200L (sn 2));
  ignore (Vexp.insert v ~expiry:300L (sn 3));
  Alcotest.(check bool) "full" true (Vexp.is_full v);
  (* Later than everything held: rejected, timeliness preserved. *)
  (match Vexp.insert v ~expiry:400L (sn 4) with
  | Vexp.Rejected_full -> ()
  | _ -> Alcotest.fail "late entry accepted into full store");
  (* Earlier than the max: accepted, max shed. *)
  (match Vexp.insert v ~expiry:50L (sn 5) with
  | Vexp.Inserted_evicting (300L, shed) -> Alcotest.(check int64) "sheds the latest" 3L (Serial.to_int64 shed)
  | _ -> Alcotest.fail "early entry not accepted");
  (* The soonest deletions are exactly the ones retained. *)
  Alcotest.(check (list int64)) "soonest retained" [ 5L; 1L; 2L ]
    (List.map (fun (_, s) -> Serial.to_int64 s) (Vexp.to_list v))

let prop_vexp_pop_sorted =
  QCheck.Test.make ~name:"pop_due returns ascending expiries" ~count:200
    QCheck.(small_list (pair (int_bound 1000) (int_bound 100)))
    (fun entries ->
      let v = Vexp.create ~capacity:1000 in
      List.iter (fun (e, s) -> ignore (Vexp.insert v ~expiry:(Int64.of_int e) (sn s))) entries;
      let due = Vexp.pop_due v ~now:500L in
      let expiries = List.map fst due in
      List.sort compare expiries = expiries && List.for_all (fun e -> e < 500L) expiries)

let prop_vexp_never_over_capacity =
  QCheck.Test.make ~name:"never exceeds capacity" ~count:200
    QCheck.(pair (int_range 1 8) (small_list (pair (int_bound 1000) (int_bound 1000))))
    (fun (cap, entries) ->
      let v = Vexp.create ~capacity:cap in
      List.iter (fun (e, s) -> ignore (Vexp.insert v ~expiry:(Int64.of_int e) (sn s))) entries;
      Vexp.length v <= cap)

(* ---------- Deferred queue ---------- *)

let test_deferred_ordering () =
  let q = Deferred.create () in
  Deferred.push q ~sn:(sn 1) ~deadline:300L;
  Deferred.push q ~sn:(sn 2) ~deadline:100L;
  Deferred.push q ~sn:(sn 3) ~deadline:200L;
  (match Deferred.peek q with
  | Some { Deferred.sn = s; deadline = 100L } -> Alcotest.(check int64) "earliest deadline" 2L (Serial.to_int64 s)
  | _ -> Alcotest.fail "wrong head");
  let batch = Deferred.take_batch q ~max:2 in
  Alcotest.(check (list int64)) "batch order" [ 2L; 3L ]
    (List.map (fun e -> Serial.to_int64 e.Deferred.sn) batch);
  Alcotest.(check int) "one left" 1 (Deferred.length q)

let test_deferred_overdue () =
  let q = Deferred.create () in
  Deferred.push q ~sn:(sn 1) ~deadline:100L;
  Deferred.push q ~sn:(sn 2) ~deadline:900L;
  Alcotest.(check int) "one overdue" 1 (List.length (Deferred.overdue q ~now:500L));
  Alcotest.(check int) "overdue does not remove" 2 (Deferred.length q);
  Alcotest.(check int) "none before deadlines" 0 (List.length (Deferred.overdue q ~now:50L))

let test_deferred_replace_and_remove () =
  let q = Deferred.create () in
  Deferred.push q ~sn:(sn 7) ~deadline:100L;
  Deferred.push q ~sn:(sn 7) ~deadline:700L;
  Alcotest.(check int) "re-push replaces" 1 (Deferred.length q);
  (match Deferred.peek q with
  | Some { Deferred.deadline = 700L; _ } -> ()
  | _ -> Alcotest.fail "deadline not replaced");
  Alcotest.(check bool) "remove" true (Deferred.remove q (sn 7));
  Alcotest.(check bool) "empty" true (Deferred.is_empty q)

let suite =
  [
    ("vexp ordering", `Quick, test_vexp_ordering);
    ("vexp duplicate replaces", `Quick, test_vexp_duplicate_replaces);
    ("vexp remove", `Quick, test_vexp_remove);
    ("vexp capacity shedding", `Quick, test_vexp_capacity_shedding);
    ("deferred ordering", `Quick, test_deferred_ordering);
    ("deferred overdue", `Quick, test_deferred_overdue);
    ("deferred replace/remove", `Quick, test_deferred_replace_and_remove);
    QCheck_alcotest.to_alcotest prop_vexp_pop_sorted;
    QCheck_alcotest.to_alcotest prop_vexp_never_over_capacity;
  ]

let () = Alcotest.run "worm_vexp" [ ("vexp", suite) ]
