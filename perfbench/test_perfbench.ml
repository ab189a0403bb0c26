(* The benchmark's own checks: quality pins at the default seed, exact
   repeatability of the traced run's counts, and identical solutions across
   domain counts.  Runs under [dune runtest]. *)

module W = Perfbench.Workload
module R = Perfbench.Runner
module Registry = Fsa_obs.Registry

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" what
  end

let default_seed = 1

(* score_sum, order_acc and coverage over the first [pinned] inputs of the
   default seed's corpus (the whole corpus would take a minute and a half);
   a change to any of them is a change in solver output. *)
let pinned = 8

let pins =
  [
    (W.Discover, (509625.0, 0.95833333333333337, 0.75000000000000011));
    (W.Oracle, (6195.0, 0.77105654761904763, 0.89180264180264179));
    (W.Sparse, (863.72904299999993, 0.86875000000000002, 0.97916666666666663));
  ]

let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b)

let pin_quality kind =
  let items = Array.sub (W.corpus kind ~seed:default_seed) 0 pinned in
  let outs =
    Array.to_list items
    |> List.filter_map (fun item ->
           match W.run_job (W.input item) with
           | Ok o -> Some o
           | Error e ->
               check (W.name kind ^ ": job failed: " ^ e) false;
               None)
  in
  let score_sum = List.fold_left (fun a (o : W.outcome) -> a +. o.W.score) 0.0 outs in
  let order_acc = W.mean (List.map (fun (o : W.outcome) -> o.W.order_acc) outs) in
  let coverage = W.mean (List.map (fun (o : W.outcome) -> o.W.coverage) outs) in
  Printf.printf "%s seed %d: score_sum %.17g order_acc %.17g coverage %.17g\n%!" (W.name kind)
    default_seed score_sum order_acc coverage;
  let s, a, c = List.assoc kind pins in
  check (W.name kind ^ ": score_sum pin") (close score_sum s);
  check (W.name kind ^ ": order_acc pin") (close order_acc a);
  check (W.name kind ^ ": coverage pin") (close coverage c);
  items

(* At one domain, two traced passes over the same inputs give identical
   counters and span call counts, and the traced replay reproduces the
   untraced solutions.  Span minor words agree to a few words per span, not
   exactly: [Fsa_obs.Clock.now] boxes a float whenever the clock has
   advanced since its last read, so the observation layer's own allocation
   depends on timing — by at most a few words per call, or 0.1% of a span
   with many nested spans.  The untraced job allocates deterministically. *)
let words_close ~calls w w' =
  Float.abs (w -. w') <= Float.max (4.0 *. float_of_int calls) (1e-3 *. w)

let pin_traced kind items =
  Fsa_parallel.Pool.with_domains 1 @@ fun () ->
  let items = Array.sub items 0 2 in
  let untraced = Array.map (fun item -> W.run_job (W.input item)) items in
  let traced () =
    let l = R.ledger (Array.length items) in
    Array.iteri (fun i o -> ignore (R.record l i o)) untraced;
    (* A fresh domain starts with empty domain-local caches (Cmatch site
       tables), as a fresh benchmark process does. *)
    let t =
      Domain.join (Domain.spawn (fun () -> R.traced_pass ~pool:false items l ~probes:(ref [])))
    in
    check (W.name kind ^ ": traced pass reproduces the untraced solutions") (l.R.failed = 0);
    t
  in
  let a = traced () and b = traced () in
  check (W.name kind ^ ": counters repeat") (Registry.counters a.R.main = Registry.counters b.R.main);
  let spans (t : R.traced) =
    List.concat_map Registry.spans [ t.R.main; t.R.replay ]
    |> List.map (fun (n, (s : Registry.span_summary)) ->
           (n, s.Registry.span_count, s.Registry.span_minor_words))
  in
  let same (n, c, w) (n', c', w') =
    n = n' && c = c' && words_close ~calls:c w w'
  in
  let ok = List.length (spans a) = List.length (spans b) && List.for_all2 same (spans a) (spans b) in
  if not ok then
    List.iter2
      (fun (n, c, w) (_, c', w') -> Printf.printf "  %s: %d calls %.0f words, then %d calls %.0f words\n" n c w c' w')
      (spans a) (spans b);
  check (W.name kind ^ ": span calls and minor words repeat") ok

(* Fanning the improve scan out over two domains must not change a single
   byte of the solution. *)
let pin_domains items =
  Array.iteri
    (fun i item ->
      if i < 3 then
        let solve d =
          Fsa_parallel.Pool.with_domains d (fun () ->
              match W.run_job (W.input item) with Ok o -> o.W.solution | Error e -> e)
        in
        check (Printf.sprintf "sparse item %d: 1 vs 2 domains" i) (solve 1 = solve 2))
    items

let () =
  List.iter
    (fun kind ->
      let items = pin_quality kind in
      pin_traced kind items;
      if kind = W.Sparse then pin_domains items)
    W.kinds;
  Fsa_parallel.Pool.stop ();
  if !failures > 0 then exit 1
