(* The end-to-end contig-ordering benchmark.

     perfbench/run.sh --workload discover|oracle|sparse --seed N \
       --seconds S --trace 0|1

   Prints human-readable lines, then as its last line one JSON object
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
   metrics are the end-to-end ones; with --trace 1 they are the per-layer
   ones of a traced replay (see README.md).  Exits 1 when any output check
   failed, 2 on bad arguments. *)

open Perfbench
module W = Workload

let usage () =
  prerr_endline
    "usage: main.exe --workload discover|oracle|sparse --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let int_arg r v =
    match int_of_string_opt v with Some n -> r := Some n | None -> usage ()
  in
  let rec go = function
    | "--workload" :: v :: rest ->
        (match W.of_name v with Some k -> workload := Some k | None -> usage ());
        go rest
    | "--seed" :: v :: rest ->
        int_arg seed v;
        go rest
    | "--seconds" :: v :: rest ->
        int_arg seconds v;
        go rest
    | "--trace" :: v :: rest ->
        (match v with "0" -> trace := Some false | "1" -> trace := Some true | _ -> usage ());
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some sec, Some t when sec >= 1 -> (w, s, sec, t)
  | _ -> usage ()

let () =
  let kind, seed, seconds, trace = parse_args () in
  Fsa_parallel.Pool.set_domains 1;
  let r = if trace then Runner.traced_run kind ~seed else Runner.run kind ~seed ~seconds in
  Runner.print_result r;
  Fsa_parallel.Pool.stop ();
  exit (if r.Runner.failed = 0 then 0 else 1)
