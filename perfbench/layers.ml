(* The traced job: [Workload.job] with every public call into a layer
   wrapped in a "call.<layer>.<function>" span from here, outside the
   libraries.

   [Csr_improve.solve_best] is replayed as its three solvers, in its order
   and with its tie rule, so each solver gets its own span; the traced and
   untraced runs must agree on every solution, which the runner checks.
   Calls that only measure (the seed/chain replay of [discovery_instance],
   the starting attempt list, and with [~pool] the re-solve at two domains)
   record into a separate [replay] registry, so the counters of the main
   registry count exactly the work the untraced job does. *)

open Fsa_genome
module Csr = Fsa_csr
module W = Workload

let traced = { W.call = (fun name f -> Fsa_obs.Span.with_ ~name:("call." ^ name) f) }

let call name f = traced.W.call name f

(* [discovery_instance]'s defaults: seed size, anchor score floor and chain
   gap.  The replay must match them for [pipeline.attributed_frac] to mean
   anything; a mismatch shows as a fraction far from 1. *)
let seed_k = 12

let min_anchor_score = 24.0
let max_gap = 300

let replay_align ~h ~m =
  let dna (c : Fragmentation.contig) = c.Fragmentation.dna in
  let long c = Fsa_seq.Dna.length (dna c) >= seed_k in
  List.iter
    (fun mc ->
      if long mc then begin
        let target = dna mc in
        let idx = call "seed.index" (fun () -> Fsa_align.Seed.build_index ~k:seed_k target) in
        List.iter
          (fun hc ->
            if long hc then begin
              let query = dna hc in
              let found =
                call "seed.anchors" (fun () ->
                    Fsa_align.Seed.filter_dominated
                      (Fsa_align.Seed.anchors ~min_score:min_anchor_score idx ~target ~query))
              in
              if found <> [] then begin
                let chains = call "chain.chains" (fun () -> Fsa_align.Chain.chains ~max_gap found) in
                ignore
                  (call "chain.stitch" (fun () ->
                       List.map (Fsa_align.Chain.stitch ~target ~query) chains))
              end
            end)
          h
      end)
    m

type stats = { mutable rounds : int; mutable improvements : int; mutable evaluated : int }

let new_stats () = { rounds = 0; improvements = 0; evaluated = 0 }

let traced_job ~sink ~replay ~(stats : stats) ~pool (input : W.input) =
  let measure f = Fsa_obs.Runtime.with_observation ~sink ~registry:replay f in
  let solve inst =
    let improved, s = call "csr_improve.solve" (fun () -> Csr.Csr_improve.solve inst) in
    stats.rounds <- stats.rounds + s.Csr.Improve.rounds;
    stats.improvements <- stats.improvements + s.Csr.Improve.improvements;
    stats.evaluated <- stats.evaluated + s.Csr.Improve.evaluated;
    let four = call "one_csr.four_approx" (fun () -> Csr.One_csr.four_approx inst) in
    let matching =
      call "border_improve.matching" (fun () -> Csr.Border_improve.matching_2approx inst)
    in
    let sol =
      List.fold_left
        (fun best s -> if Csr.Solution.score s > Csr.Solution.score best then s else best)
        (Csr.Solution.empty inst) [ improved; four; matching ]
    in
    let parallel_mismatch =
      measure @@ fun () ->
      let candidates =
        call "border_improve.border_candidates" (fun () ->
            Csr.Border_improve.border_candidates inst)
      in
      ignore
        (call "csr_improve.attempts" (fun () ->
             Csr.Csr_improve.attempts Csr.Csr_improve.default_config inst candidates
               (Csr.Solution.empty inst)));
      if not (pool && W.pool_domains > 1) then false
      else
        (* A fresh uid, so the re-solve starts with cold Cmatch caches like
           the one-domain solve did. *)
        let copy = Csr.Instance.with_sigma inst inst.Csr.Instance.sigma in
        let fanned, _ =
          call "pool.solve_2d" (fun () ->
              Fsa_parallel.Pool.with_domains W.pool_domains (fun () -> Csr.Csr_improve.solve copy))
        in
        Csr.Solution.to_text fanned <> Csr.Solution.to_text improved
    in
    if parallel_mismatch then Error "csr_improve.solve differs between 1 and 2 domains" else Ok sol
  in
  W.job traced ~solve ~discovered:(fun ~h ~m -> measure (fun () -> replay_align ~h ~m)) input
