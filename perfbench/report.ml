(* Trace analysis: per-span self time, per-layer metrics, coverage of
   each operation by its layer spans, and the span dump. *)

module H = Harness

type agg = {
  mutable calls : int;
  mutable total : float;  (** calibrated ns *)
  mutable self : float;
  dv : float array;
  mutable words : float;
}

type t = { by_name : (string, agg) Hashtbl.t; coverage : (string * float) list; spans : int }

let analyse () =
  let scales = H.scales () in
  let spans = Array.of_list (List.rev !H.spans) in
  (* a span's window index is the number of windows closed before it *)
  let scale (s : H.span) = if s.H.win < Array.length scales then scales.(s.H.win) else 1. in
  let dur (s : H.span) = Int64.to_float (Int64.sub s.H.t1 s.H.t0) *. scale s in
  let child_sum = Hashtbl.create 4096 in
  Array.iter
    (fun (s : H.span) ->
      if s.H.parent <> 0 then
        Hashtbl.replace child_sum s.H.parent (dur s +. Option.value ~default:0. (Hashtbl.find_opt child_sum s.H.parent)))
    spans;
  let by_name = Hashtbl.create 64 in
  let roots = Hashtbl.create 8 in
  Array.iter
    (fun (s : H.span) ->
      let a =
        match Hashtbl.find_opt by_name s.H.name with
        | Some a -> a
        | None ->
            let a = { calls = 0; total = 0.; self = 0.; dv = Array.make 4 0.; words = 0. } in
            Hashtbl.add by_name s.H.name a;
            a
      in
      let d = dur s and kids = Option.value ~default:0. (Hashtbl.find_opt child_sum s.H.id) in
      a.calls <- a.calls + 1;
      a.total <- a.total +. d;
      a.self <- a.self +. Float.max 0. (d -. kids);
      Array.iteri (fun i x -> a.dv.(i) <- a.dv.(i) +. x) s.H.dv;
      a.words <- a.words +. s.H.words;
      if s.H.parent = 0 then begin
        let c, r = Option.value ~default:(0., 0.) (Hashtbl.find_opt roots s.H.name) in
        Hashtbl.replace roots s.H.name (c +. Float.min kids d, r +. d)
      end)
    spans;
  let coverage = Hashtbl.fold (fun name (c, r) acc -> (name, 100. *. H.ratio c r) :: acc) roots [] in
  { by_name; coverage = List.sort compare coverage; spans = Array.length spans }

let mean_us t names =
  let calls, total =
    List.fold_left
      (fun (c, tot) n ->
        match Hashtbl.find_opt t.by_name n with Some a -> (c + a.calls, tot +. a.total) | None -> (c, tot))
      (0, 0.) names
  in
  H.ratio total (float calls) /. 1000.

let total_us t name = match Hashtbl.find_opt t.by_name name with Some a -> a.total /. 1000. | None -> 0.

let print_table t =
  let rows = Hashtbl.fold (fun n a acc -> (n, a) :: acc) t.by_name [] in
  let rows = List.sort (fun (_, a) (_, b) -> Float.compare b.self a.self) rows in
  let all_self = List.fold_left (fun acc (_, a) -> acc +. a.self) 0. rows in
  Printf.printf "# trace: %d spans; self time per span (calibrated), virtual ledger deltas per call\n" t.spans;
  Printf.printf "# %-28s %8s %11s %11s %7s %10s %10s %10s %10s %9s\n" "span" "calls" "mean_us" "self_us" "self%"
    "scpu_us" "host_us" "disk_us" "net_us" "words";
  List.iter
    (fun (n, a) ->
      let per x = x /. float a.calls in
      Printf.printf "# %-28s %8d %11.2f %11.2f %7.2f %10.2f %10.2f %10.2f %10.2f %9.0f\n" n a.calls
        (per a.total /. 1000.) (per a.self /. 1000.) (100. *. H.ratio a.self all_self)
        (per a.dv.(0) /. 1000.) (per a.dv.(1) /. 1000.) (per a.dv.(2) /. 1000.) (per a.dv.(3) /. 1000.)
        (per a.words))
    rows;
  List.iter (fun (n, c) -> Printf.printf "# coverage of %s by layer spans: %.2f%%\n" n c) t.coverage

(* One line per span: name, op, id, parent, calibrated ns, ledger
   deltas (ns) and minor words. *)
let dump path =
  let scales = H.scales () in
  let oc = open_out path in
  output_string oc "name\top\tid\tparent\tcal_ns\tscpu_ns\thost_ns\tdisk_ns\tnet_ns\tminor_words\n";
  List.iter
    (fun (s : H.span) ->
      let scale = if s.H.win < Array.length scales then scales.(s.H.win) else 1. in
      Printf.fprintf oc "%s\t%d\t%d\t%d\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\n" s.H.name s.H.op s.H.id s.H.parent
        (Int64.to_float (Int64.sub s.H.t1 s.H.t0) *. scale)
        s.H.dv.(0) s.H.dv.(1) s.H.dv.(2) s.H.dv.(3) s.H.words)
    (List.rev !H.spans);
  close_out oc
