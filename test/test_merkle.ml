(* Merkle tree baseline: structure, proofs, update-cost accounting. *)

open Worm_crypto

let test_create_shape () =
  let t = Merkle.create ~capacity:5 in
  Alcotest.(check int) "rounded to power of two" 8 (Merkle.capacity t);
  Alcotest.(check int) "construction not charged" 0 (Merkle.hash_count t);
  let t1 = Merkle.create ~capacity:1 in
  Alcotest.(check int) "capacity 1" 1 (Merkle.capacity t1);
  Alcotest.check_raises "zero capacity" (Invalid_argument "Merkle.create: non-positive capacity") (fun () ->
      ignore (Merkle.create ~capacity:0))

let test_empty_roots_differ_from_filled () =
  let a = Merkle.create ~capacity:4 in
  let b = Merkle.create ~capacity:4 in
  Alcotest.(check string) "empty trees agree" (Merkle.root a) (Merkle.root b);
  Merkle.set b 0 "data";
  Alcotest.(check bool) "root moves on set" false (String.equal (Merkle.root a) (Merkle.root b))

let test_get_set () =
  let t = Merkle.create ~capacity:4 in
  Alcotest.(check (option string)) "absent" None (Merkle.get t 2);
  Merkle.set t 2 "hello";
  Alcotest.(check (option string)) "present" (Some "hello") (Merkle.get t 2);
  Merkle.set t 2 "world";
  Alcotest.(check (option string)) "overwritten" (Some "world") (Merkle.get t 2);
  Alcotest.check_raises "out of range" (Invalid_argument "Merkle: index out of range") (fun () ->
      Merkle.set t 4 "x")

let test_proof_verifies () =
  let t = Merkle.create ~capacity:8 in
  for i = 0 to 7 do
    Merkle.set t i (Printf.sprintf "leaf-%d" i)
  done;
  for i = 0 to 7 do
    let proof = Merkle.proof t i in
    Alcotest.(check int) "proof length = log2 cap" 3 (List.length proof);
    Alcotest.(check bool)
      (Printf.sprintf "leaf %d verifies" i)
      true
      (Merkle.verify ~root:(Merkle.root t) ~capacity:8 ~index:i ~leaf_data:(Printf.sprintf "leaf-%d" i)
         ~proof)
  done

let test_proof_rejections () =
  let t = Merkle.create ~capacity:8 in
  for i = 0 to 7 do
    Merkle.set t i (Printf.sprintf "leaf-%d" i)
  done;
  let root = Merkle.root t in
  let proof = Merkle.proof t 3 in
  Alcotest.(check bool) "wrong data" false (Merkle.verify ~root ~capacity:8 ~index:3 ~leaf_data:"leaf-4" ~proof);
  Alcotest.(check bool) "wrong index" false (Merkle.verify ~root ~capacity:8 ~index:4 ~leaf_data:"leaf-3" ~proof);
  Alcotest.(check bool) "wrong root" false
    (Merkle.verify ~root:(String.make 32 'x') ~capacity:8 ~index:3 ~leaf_data:"leaf-3" ~proof);
  Alcotest.(check bool) "truncated proof" false
    (Merkle.verify ~root ~capacity:8 ~index:3 ~leaf_data:"leaf-3" ~proof:(List.tl proof));
  (* Old proof and old root remain mutually consistent... *)
  Alcotest.(check bool) "old proof, old root still consistent" true
    (begin
       Merkle.set t 0 "changed";
       Merkle.verify ~root ~capacity:8 ~index:3 ~leaf_data:"leaf-3" ~proof
     end);
  (* ...but the old proof fails against the live root. *)
  Alcotest.(check bool) "stale proof vs new root" false
    (Merkle.verify ~root:(Merkle.root t) ~capacity:8 ~index:3 ~leaf_data:"leaf-3" ~proof)

let test_update_cost_logarithmic () =
  let cost capacity =
    let t = Merkle.create ~capacity in
    Merkle.reset_hash_count t;
    Merkle.set t 0 "x";
    Merkle.hash_count t
  in
  Alcotest.(check int) "cap 1" 1 (cost 1);
  Alcotest.(check int) "cap 8" 4 (cost 8);
  Alcotest.(check int) "cap 1024" 11 (cost 1024);
  Alcotest.(check int) "cap 65536" 17 (cost 65536)

let prop_random_fill_all_verify =
  QCheck.Test.make ~name:"random fill, all proofs verify" ~count:30
    QCheck.(pair (int_range 1 24) (small_list string))
    (fun (cap, leaves) ->
      let t = Merkle.create ~capacity:cap in
      let cap' = Merkle.capacity t in
      List.iteri (fun i leaf -> Merkle.set t (i mod cap') leaf) leaves;
      let ok = ref true in
      for i = 0 to cap' - 1 do
        match Merkle.get t i with
        | Some leaf ->
            if not (Merkle.verify ~root:(Merkle.root t) ~capacity:cap' ~index:i ~leaf_data:leaf ~proof:(Merkle.proof t i))
            then ok := false
        | None -> ()
      done;
      !ok)

let test_of_leaves_agrees_with_set () =
  (* Bulk construction, hashed on the shared pool, must land on the
     same root and leaves as the incremental path, and bulk
     construction (like create) is not charged to the update counter. *)
  let leaves = Array.init 11 (fun i -> Printf.sprintf "leaf-%d" (i * i)) in
  let incremental = Merkle.create ~capacity:(Array.length leaves) in
  Array.iteri (fun i leaf -> Merkle.set incremental i leaf) leaves;
  let bulk = Merkle.of_leaves leaves in
  Alcotest.(check int) "capacity matches" (Merkle.capacity incremental) (Merkle.capacity bulk);
  Alcotest.(check string) "root matches incremental" (Merkle.root incremental) (Merkle.root bulk);
  Alcotest.(check int) "construction not charged" 0 (Merkle.hash_count bulk);
  Alcotest.(check (option string)) "leaf readable" (Some "leaf-100") (Merkle.get bulk 10);
  Alcotest.(check (option string)) "padding absent" None (Merkle.get bulk 15);
  Alcotest.(check bool) "proof from bulk tree verifies" true
    (Merkle.verify ~root:(Merkle.root bulk) ~capacity:(Merkle.capacity bulk) ~index:3
       ~leaf_data:leaves.(3) ~proof:(Merkle.proof bulk 3))

let suite =
  [
    ("create shape", `Quick, test_create_shape);
    ("of_leaves = incremental set", `Quick, test_of_leaves_agrees_with_set);
    ("root moves on set", `Quick, test_empty_roots_differ_from_filled);
    ("get/set", `Quick, test_get_set);
    ("proofs verify", `Quick, test_proof_verifies);
    ("bad proofs rejected", `Quick, test_proof_rejections);
    ("update cost is O(log n)", `Quick, test_update_cost_logarithmic);
    QCheck_alcotest.to_alcotest prop_random_fill_all_verify;
  ]

let () = Alcotest.run "worm_merkle" [ ("merkle", suite) ]
