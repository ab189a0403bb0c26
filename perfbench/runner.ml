(* The two kinds of run: untraced (end-to-end metrics) and traced
   (per-layer metrics), with the checks and the result line they share. *)

module W = Workload
module Registry = Fsa_obs.Registry

type metric = { name : string; value : float; unit_ : string }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let now = Fsa_obs.Clock.now

(* Per-item bookkeeping over a run: the first outcome of each corpus item,
   against which every repeat is checked, and the failure log. *)
type ledger = {
  first : W.outcome option array;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
}

let ledger n = { first = Array.make n None; attempted = 0; failed = 0; errors = [] }

let fail l msg =
  l.failed <- l.failed + 1;
  if List.length l.errors < 5 then l.errors <- msg :: l.errors

(* Records one job's outcome.  A repeat of an item must reproduce its first
   solution byte for byte; the traced replay is held to the same rule. *)
let record l i = function
  | Error e ->
      l.attempted <- l.attempted + 1;
      fail l (Printf.sprintf "item %d: %s" i e);
      false
  | Ok (o : W.outcome) -> (
      l.attempted <- l.attempted + 1;
      match l.first.(i) with
      | None ->
          l.first.(i) <- Some o;
          true
      | Some f when f.W.solution = o.W.solution && f.W.score = o.W.score -> true
      | Some f ->
          fail l
            (Printf.sprintf "item %d: solution changed on repeat (score %g, then %g)" i
               f.W.score o.W.score);
          false)

(* Host speed.  [probe] times the reference kernel and adds it to the run's
   [probes].  [scaled] turns wall times into seconds at the reference host
   speed (Workload.reference_s): [ps] holds the probes taken around them,
   wall time [i] lying between probes [i] and [i + 1].  Each time is divided
   by the median of the six probes nearest to it, which follows host phases
   of a few seconds but not the noise of a single probe. *)
let probe probes =
  let r = W.reference () in
  probes := r :: !probes;
  r

let scaled ps walls =
  let n = Array.length ps in
  Array.mapi
    (fun i wall ->
      let lo = max 0 (min (i - 2) (n - 6)) in
      let near = Array.to_list (Array.sub ps lo (min 6 n)) in
      wall *. W.reference_s /. W.median near)
    walls

(* Set-up — making every input of the corpus once, plus one warm-up job —
   is done [setup_reps] times, each between two probes, and [setup_s] is
   the median of the scaled times; repeated set-ups must produce the same
   corpus.  The warm-up input is the first of a fixed seed's corpus, so
   that set-up costs the same at every seed. *)
let setup_reps = 5

let setup kind ~seed l ~probes =
  let prints = ref [] and items = ref [||] in
  let ps = ref [ probe probes ] in
  let walls =
    Array.init setup_reps (fun _ ->
        items := [||];
        let t0 = now () in
        let corpus = W.corpus kind ~seed in
        prints := W.fingerprint corpus :: !prints;
        l.attempted <- l.attempted + 1;
        (match W.run_job (W.input (W.corpus kind ~seed:0).(0)) with
        | Ok _ -> ()
        | Error e -> fail l ("warm-up: " ^ e));
        let t = now () -. t0 in
        ps := probe probes :: !ps;
        items := corpus;
        t)
  in
  (match !prints with
  | p :: rest when List.for_all (String.equal p) rest -> ()
  | _ -> fail l "repeated set-ups generated different corpora");
  (!items, W.median (Array.to_list (scaled (Array.of_list (List.rev !ps)) walls)))

(* One job's record: whether it passed its checks, its wall time and that
   time scaled to the reference host speed, and the minor-heap allocation
   and collections inside it. *)
type job = {
  ok : bool;
  wall : float;
  time : float;
  words : float;
  minor_gcs : int;
  major_gcs : int;
}

(* One pass over the corpus with a job function.  Making each input and the
   probe after each job (the first probe comes before the first job) are
   outside the timed region. *)
let pass l items ~probes job =
  let ps = ref [ probe probes ] in
  let raw =
    Array.mapi
      (fun i item ->
        let input = W.input item in
        let g0 = Gc.quick_stat () in
        let t0 = now () in
        let r = job i input in
        let wall = now () -. t0 in
        let g1 = Gc.quick_stat () in
        let ok = record l i r in
        ps := probe probes :: !ps;
        (ok, wall, g0, g1))
      items
  in
  let times = scaled (Array.of_list (List.rev !ps)) (Array.map (fun (_, w, _, _) -> w) raw) in
  Array.to_list
    (Array.mapi
       (fun i (ok, wall, g0, g1) ->
         {
           ok;
           wall;
           time = times.(i);
           words = g1.Gc.minor_words -. g0.Gc.minor_words;
           minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
           major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
         })
       raw)

let m name value unit_ = { name; value; unit_ }

let sum xs = List.fold_left ( +. ) 0.0 xs

let first_outcomes l =
  Array.to_list l.first |> List.filter_map Fun.id

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. (1024.0 *. 1024.0)

let report_errors l =
  List.iter (fun e -> Printf.printf "check failed: %s\n" e) (List.rev l.errors)

(* ------------------------------------------------------------------ *)
(* Untraced run                                                        *)

let run kind ~seed ~seconds =
  let n = W.corpus_size kind in
  let l = ledger n in
  let probes = ref [] in
  let items, setup_s = setup kind ~seed l ~probes in
  let jobs = ref [] in
  let passes = W.passes ~seconds in
  for _ = 1 to passes do
    jobs := !jobs @ pass l items ~probes (fun _ input -> W.run_job input)
  done;
  let times = List.map (fun j -> j.time) !jobs in
  let attempted = List.length !jobs in
  let passed = List.length (List.filter (fun j -> j.ok) !jobs) in
  let firsts = first_outcomes l in
  let avg f = if firsts = [] then 0.0 else W.mean (List.map f firsts) in
  let tail_pct, tail_s =
    Option.value (W.tail times) ~default:(100.0, List.fold_left Float.max 0.0 times)
  in
  let ref_ms = List.map (fun p -> p *. 1e3) !probes in
  let walls = List.map (fun j -> j.wall) !jobs in
  Printf.printf "workload %s seed %d: %d domain(s), %d inputs x %d passes = %d timed jobs\n"
    (W.name kind) seed (Fsa_parallel.Pool.domains ()) n passes attempted;
  Printf.printf "job_tail_s is p%.2f of %d jobs (the 11th slowest)\n" tail_pct attempted;
  Printf.printf "host.ref_ms median %.4f (min %.4f, max %.4f) over %d probes; %.4f at reference speed\n"
    (W.median ref_ms) (List.fold_left Float.min infinity ref_ms)
    (List.fold_left Float.max 0.0 ref_ms) (List.length ref_ms) (W.reference_s *. 1e3);
  Printf.printf "wall clock, unscaled: jobs_per_s %.4f job_p50_s %.4f\n"
    (float_of_int passed /. sum walls) (W.median walls);
  report_errors l;
  {
    correct = l.failed = 0;
    attempted = l.attempted;
    failed = l.failed;
    metrics =
      [
        m "setup_s" setup_s "s";
        m "jobs_per_s" (float_of_int passed /. sum times) "1/s";
        m "job_p50_s" (W.median times) "s";
        m "job_tail_s" tail_s "s";
        m "ok_frac" (float_of_int passed /. float_of_int attempted) "ratio";
        m "score_sum" (sum (List.map (fun (o : W.outcome) -> o.W.score) firsts)) "score";
        m "order_acc" (avg (fun o -> o.W.order_acc)) "ratio";
        m "coverage" (avg (fun o -> o.W.coverage)) "ratio";
        m "peak_heap_mb" (peak_heap_mb ()) "MB";
      ];
  }

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)

let is_bench_event (s : Fsa_obs.Sink.stamped) =
  let ours n = n = "job" || String.starts_with ~prefix:"call." n in
  match s.Fsa_obs.Sink.s_event with
  | Fsa_obs.Event.Span_begin { name; _ } | Fsa_obs.Event.Span_end { name; _ } -> ours name
  | Fsa_obs.Event.Note { name; _ } -> name = "job.index"
  | _ -> false

(* Spans are kept in memory and written out at the end, as fsa-trace/2
   JSONL that [fsa_trace summarize] and [export-chrome] read. *)
let write_trace path events =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let sink = Fsa_obs.Sink.jsonl path in
  let opened = now () in
  (match events with
  | [] -> ()
  | (first : Fsa_obs.Sink.stamped) :: _ ->
      let shift = opened -. first.Fsa_obs.Sink.s_ts in
      List.iter
        (fun (s : Fsa_obs.Sink.stamped) ->
          sink.Fsa_obs.Sink.emit_stamped { s with Fsa_obs.Sink.s_ts = s.Fsa_obs.Sink.s_ts +. shift })
        events);
  sink.Fsa_obs.Sink.close ()

type traced = {
  main : Registry.t;  (** what the untraced job does, plus the call spans *)
  replay : Registry.t;  (** outside re-executions that only measure *)
  stats : Layers.stats;
  events : Fsa_obs.Sink.stamped list;  (** benchmark spans, in emission order *)
  jobs : job list;
}

(* One traced pass: counts over a whole pass repeat exactly at one domain. *)
let traced_pass ~pool items l ~probes =
  let events = ref [] in
  let sink =
    Fsa_obs.Sink.make
      ~emit_stamped:(fun s -> if is_bench_event s then events := s :: !events)
      ~close:ignore
  in
  let main = Registry.create () and replay = Registry.create () in
  let stats = Layers.new_stats () in
  let jobs =
    Fsa_obs.Runtime.with_observation ~sink ~registry:main @@ fun () ->
    pass l items ~probes (fun i input ->
        Fsa_obs.Span.with_ ~name:"job" @@ fun () ->
        Fsa_obs.Runtime.emit (Fsa_obs.Event.Note { name = "job.index"; value = float_of_int i });
        Layers.traced_job ~sink ~replay ~stats ~pool input)
  in
  { main; replay; stats; events = List.rev !events; jobs }

(* The traced run covers the first half of the corpus, once untraced and
   once traced, which keeps it within about twice an untraced run. *)
let traced_run kind ~seed =
  let l = ledger (W.corpus_size kind) in
  let probes = ref [] in
  let items, _ = setup kind ~seed l ~probes in
  let items = Array.sub items 0 (Array.length items / 2) in
  let n = Array.length items in
  (* One untraced pass, the reference for the tracing overhead and for GC. *)
  let plain = pass l items ~probes (fun _ input -> W.run_job input) in
  let t = traced_pass ~pool:(kind = W.Sparse) items l ~probes in
  let main = t.main and replay = t.replay and stats = t.stats in
  let path = Printf.sprintf ".perfbench/trace-%s-%d.jsonl" (W.name kind) seed in
  write_trace path t.events;
  (* Each call records into exactly one of the two registries. *)
  let span name =
    let key = "call." ^ name in
    match Registry.span_summary main key with
    | Some s -> Some s
    | None -> Registry.span_summary replay key
  in
  let total_s name =
    match span name with Some s -> s.Registry.span_total_ns /. 1e9 | None -> 0.0
  in
  let words name = match span name with Some s -> s.Registry.span_minor_words | None -> 0.0 in
  let calls name =
    match span name with Some s -> float_of_int s.Registry.span_count | None -> 0.0
  in
  let counter name = Option.value (Registry.counter_value main name) ~default:0.0 in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let per_job x = x /. float_of_int n in
  let job_s =
    match Registry.span_summary main "job" with Some s -> s.Registry.span_total_ns /. 1e9 | None -> 0.0
  in
  let call_names =
    [ "fasta.parse"; "seed.index"; "seed.anchors"; "chain.chains"; "chain.stitch";
      "pipeline.build"; "instance.of_text"; "csr_improve.solve"; "one_csr.four_approx";
      "border_improve.matching"; "border_improve.border_candidates"; "csr_improve.attempts";
      "pool.solve_2d"; "solution.validate"; "conjecture.build"; "metrics.evaluate" ]
  in
  let call_metrics =
    List.concat_map
      (fun c ->
        [ m (c ^ "_s") (per_job (total_s c)) "s"; m (c ^ ".minor_words") (words c) "words";
          m (c ^ ".calls") (calls c) "count" ])
      call_names
  in
  (* The two passes run back to back, so wall times compare directly. *)
  let pass_s jobs = sum (List.map (fun j -> j.wall) jobs) in
  (* Calls that only measure are all top-level in a job; taking their time
     out leaves the traced job's own work. *)
  let calls_s reg =
    List.fold_left
      (fun a (n, (s : Registry.span_summary)) ->
        if String.starts_with ~prefix:"call." n then a +. (s.Registry.span_total_ns /. 1e9) else a)
      0.0 (Registry.spans reg)
  in
  let replay_s = calls_s replay in
  let plain_s = pass_s plain and traced_s = pass_s t.jobs -. replay_s in
  let align_s = total_s "seed.index" +. total_s "seed.anchors" +. total_s "chain.chains" +. total_s "chain.stitch" in
  let solve_2d = total_s "pool.solve_2d" in
  (* The pool only fans out in the two-domain re-solve, which records into
     the replay registry. *)
  let pool_counter name = Option.value (Registry.counter_value replay name) ~default:0.0 in
  let metrics =
    call_metrics
    @ [
        m "seed.minor_words" (words "seed.index" +. words "seed.anchors") "words";
        m "seed.runs_extended" (counter "seed.runs_extended") "count";
        m "seed.anchors_found" (counter "seed.anchors_found") "count";
        m "seed.anchors_dominated" (counter "seed.anchors_dominated") "count";
        m "seed.kept_frac"
          (ratio (counter "seed.anchors_found" -. counter "seed.anchors_dominated")
             (counter "seed.runs_extended"))
          "ratio";
        m "chain.minor_words" (words "chain.chains" +. words "chain.stitch") "words";
        m "chain.chains_built" (counter "chain.chains_built") "count";
        m "chain.dp_pairs" (counter "chain.dp_pairs") "count";
        m "band.widenings" (counter "band.widenings") "count";
        m "band.fallbacks" (counter "band.fallbacks") "count";
        m "pipeline.regions_called" (counter "pipeline.regions_called") "count";
        m "pipeline.attributed_frac" (ratio align_s (total_s "pipeline.build")) "ratio";
        m "csr_improve.rounds" (float_of_int stats.Layers.rounds) "count";
        m "csr_improve.evaluated" (float_of_int stats.Layers.evaluated) "count";
        m "csr_improve.accept_frac"
          (ratio (float_of_int stats.Layers.improvements) (float_of_int stats.Layers.evaluated))
          "ratio";
        m "improve.tpa_fill_calls" (counter "improve.tpa_fill_calls") "count";
        m "improve.tpa_fill_add_errors" (counter "improve.tpa_fill_add_errors") "count";
        m "improve.tpa_fill_prepare_misses" (counter "improve.tpa_fill_prepare_misses") "count";
        m "cmatch.table_builds" (counter "cmatch.table_builds") "count";
        m "cmatch.cache_hit_frac"
          (ratio (counter "cmatch.cache_hits") (counter "cmatch.cache_hits" +. counter "cmatch.table_builds"))
          "ratio";
        m "cmatch.pruned_frac" (ratio (counter "cmatch.pruned") (counter "cmatch.bound_checks")) "ratio";
        m "pool.speedup" (if solve_2d = 0.0 then 1.0 else ratio (total_s "csr_improve.solve") solve_2d) "ratio";
        m "pool.skew" (Option.value (Registry.gauge_value replay "pool.skew") ~default:0.0) "ratio";
        m "pool.busy_ns" (pool_counter "pool.busy_ns") "ns";
        m "pool.merge_ns" (pool_counter "pool.merge_ns") "ns";
        m "improve.speculation_waste" (pool_counter "improve.speculation_waste") "count";
        m "gc.minor_words_per_job" (per_job (sum (List.map (fun j -> j.words) plain))) "words";
        m "gc.minor_collections" (float_of_int (List.fold_left (fun a j -> a + j.minor_gcs) 0 plain)) "count";
        m "gc.major_collections" (float_of_int (List.fold_left (fun a j -> a + j.major_gcs) 0 plain)) "count";
        m "host.ref_ms" (W.median !probes *. 1e3) "ms";
        m "trace.attributed_frac" (ratio (calls_s main) (job_s -. replay_s)) "ratio";
        m "trace.overhead_frac" (1.0 -. ratio plain_s traced_s) "ratio";
      ]
  in
  Printf.printf "workload %s seed %d: %d domain(s), %d inputs, one untraced and one traced pass\n"
    (W.name kind) seed (Fsa_parallel.Pool.domains ()) n;
  Printf.printf "trace written to %s (%d events)\n" path (List.length t.events);
  report_errors l;
  { correct = l.failed = 0; attempted = l.attempted; failed = l.failed; metrics }

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let print_result r =
  List.iter (fun x -> Printf.printf "%-40s %.6g %s\n" x.name x.value x.unit_) r.metrics;
  let open Fsa_obs.Json in
  print_endline
    (to_string
       (Obj
          [
            ("correct", Bool r.correct);
            ("attempted", Int r.attempted);
            ("failed", Int r.failed);
            ( "metrics",
              Obj
                (List.map
                   (fun x -> (x.name, Obj [ ("value", Float x.value); ("unit", String x.unit_) ]))
                   r.metrics) );
          ]))
