open Fsa_seq

(* Open addressing on one flat key array: the high bits of a multiplicative
   hash pick the home slot, collisions probe linearly.  At most half the
   slots are ever used, so probe chains stay short.  Each used slot owns the
   target positions of its k-mer. *)
type index = {
  k : int;
  bits : int;  (** log2 of the slot count *)
  keys : int array;  (** packed k-mer per slot, [no_key] when unused *)
  occs : int array array;  (** positions per slot, increasing; empty for repeats *)
}

let no_key = -1
let empty_occs : int array = [||]

(* 2^61 / φ rounded to odd: the top [bits] bits of the 63-bit product spread
   consecutive k-mers across the table. *)
let hash_mul = 0x13C6_EF37_2FE9_4F83

let rec probe keys kmer s =
  let key = keys.(s) in
  if key = kmer || key = no_key then s
  else probe keys kmer ((s + 1) land (Array.length keys - 1))

(* The slot holding [kmer], or the empty slot where it would go. *)
let slot idx kmer = probe idx.keys kmer ((kmer * hash_mul) lsr (Sys.int_size - idx.bits))

let build_index ?(max_occ = 32) ~k target =
  (* Two counting passes so occurrence lists land in flat int arrays with no
     intermediate list cells: count per k-mer, then fill in position order. *)
  let positions = max 0 (Dna.length target - k + 1) in
  let bits = ref 1 in
  while 1 lsl !bits < 2 * positions do
    incr bits
  done;
  let size = 1 lsl !bits in
  let idx =
    { k; bits = !bits; keys = Array.make size no_key; occs = Array.make size empty_occs }
  in
  let counts = Array.make size 0 in
  Dna.fold_kmers ~k target ~init:() ~f:(fun () ~pos:_ ~kmer ->
      let s = slot idx kmer in
      idx.keys.(s) <- kmer;
      counts.(s) <- counts.(s) + 1);
  (* Repeat k-mers seed quadratically many spurious diagonals: drop. *)
  Array.iteri
    (fun s c -> if c > 0 && c <= max_occ then idx.occs.(s) <- Array.make c 0)
    counts;
  Array.fill counts 0 size 0;
  Dna.fold_kmers ~k target ~init:() ~f:(fun () ~pos ~kmer ->
      let s = slot idx kmer in
      let occs = idx.occs.(s) in
      if Array.length occs > 0 then begin
        occs.(counts.(s)) <- pos;
        counts.(s) <- counts.(s) + 1
      end);
  idx

let index_k idx = idx.k

let lookup idx kmer =
  let s = slot idx kmer in
  if idx.keys.(s) = kmer then idx.occs.(s) else empty_occs

type anchor = {
  t_lo : int;
  t_hi : int;
  q_lo : int;
  q_hi : int;
  forward : bool;
  score : float;
}

let runs_counter = Fsa_obs.Metric.Counter.make "seed.runs_extended"
let found_counter = Fsa_obs.Metric.Counter.make "seed.anchors_found"
let filtered_counter = Fsa_obs.Metric.Counter.make "seed.anchors_filtered"
let dominated_counter = Fsa_obs.Metric.Counter.make "seed.anchors_dominated"
let cells_counter = Fsa_obs.Metric.Counter.make "seed.xdrop_cells"

(* Ungapped x-drop extension scores a match +1 and a mismatch -1 and stops
   once the running score falls more than [x_drop] below its best. *)
let x_drop = 10

(* The latest fresh scan on one diagonal: [sums.(i)] is its running score
   after i + 1 cells from query position [start], and its first best end is
   [best_len] cells in (0 when no prefix scores above 0).

   Memo invariant.  Let R(p) be that scan's running score through cell p and
   e its first best end.  A later scan in the same direction from a start s
   past [start] and not past e sees R(p) - R(s - 1) through p.  Its x-drop
   test compares R(p) against a maximum over a subrange of the fresh scan's,
   so it cannot stop before e; from e on both maxima equal R(e), so it stops
   at the same cell; and e is still its first best end because R(u) < R(e)
   for every u before e.  Its result is therefore R(e) - R(s - 1), which is
   positive, over the cells from s to e: read off [sums] without a scan. *)
type memo = {
  mutable sums : int array;
  mutable diag : int;
  mutable start : int;
  mutable best_len : int;
}

(* Extension along diagonal [d] (target position = query position + d) from
   query position [s], [step] = +1 rightwards or -1 leftwards, over at most
   [avail] cells.  Returns the best prefix score and its length; a start
   covered by the memo is answered from it, any other scans fresh and
   becomes the new memo. *)
let extend m ~cells ~target ~q ~d ~s ~step ~avail =
  let o = (s - m.start) * step in
  if m.diag = d && o > 0 && o < m.best_len then
    (m.sums.(m.best_len - 1) - m.sums.(o - 1), m.best_len - o)
  else begin
    let lim = ref avail and n = ref 0 in
    let running = ref 0 and best = ref 0 and best_len = ref 0 in
    while !n < !lim do
      let j = s + (step * !n) in
      let r =
        if Dna.get target (j + d) = Dna.get q j then !running + 1 else !running - 1
      in
      if !n = Array.length m.sums then begin
        let bigger = Array.make (2 * !n) 0 in
        Array.blit m.sums 0 bigger 0 !n;
        m.sums <- bigger
      end;
      m.sums.(!n) <- r;
      running := r;
      incr n;
      if r < !best - x_drop then lim := !n
      else if r > !best then begin
        best := r;
        best_len := !n
      end
    done;
    cells := !cells + !n;
    m.diag <- d;
    m.start <- s;
    m.best_len <- !best_len;
    (!best, !best_len)
  end

let new_memo () = { sums = Array.make 256 0; diag = min_int; start = 0; best_len = 0 }

let extend_right ~target ~query ~d ~start =
  let cells = ref 0 in
  let ext =
    extend (new_memo ()) ~cells ~target ~q:query ~d ~s:start ~step:1
      ~avail:(max 0 (min (Dna.length query - start) (Dna.length target - d - start)))
  in
  Fsa_obs.Metric.Counter.incr ~by:!cells cells_counter;
  ext

(* One strand: seeds as (diagonal, query-pos) pairs, merged into runs along
   each diagonal, each run extended with x-drop.  Query coordinates here are
   in the possibly reverse-complemented sequence [q]; [emit] converts a
   run's extended query range to an anchor.

   Hits are packed one per int — (diag + ql) in the bits above 31, query
   position in the low 31 — so collection is a growable int array and
   ordering by (diagonal, position) is a single monomorphic int sort.
   [anchors] checks the lengths this packing needs. *)
let strand_runs ~max_gap ~min_score ~cells idx ~target ~q ~emit =
  let k = idx.k in
  let ql = Dna.length q in
  let buf = ref (Array.make 256 0) and len = ref 0 in
  Dna.fold_kmers ~k q ~init:() ~f:(fun () ~pos ~kmer ->
      let occs = lookup idx kmer in
      for i = 0 to Array.length occs - 1 do
        let cap = Array.length !buf in
        if !len = cap then begin
          let bigger = Array.make (2 * cap) 0 in
          Array.blit !buf 0 bigger 0 cap;
          buf := bigger
        end;
        !buf.(!len) <- ((occs.(i) - pos + ql) lsl 31) lor pos;
        incr len
      done);
  let hits = Array.sub !buf 0 !len in
  (* Merge sort: on ints it returns the same order as [Array.sort]'s heap
     sort, in about a third of the time. *)
  Array.stable_sort Int.compare hits;
  (* Merge hits on a common diagonal whose starts are within k + max_gap.
     Run [r] covers query [j0.(r), j1.(r) + k - 1] on diagonal [diag.(r)];
     runs come out sorted by (diagonal, start). *)
  let nhits = Array.length hits in
  let diag = Array.make nhits 0 and j0 = Array.make nhits 0 and j1 = Array.make nhits 0 in
  let nruns = ref 0 in
  for i = 0 to nhits - 1 do
    let key = hits.(i) in
    let d = (key asr 31) - ql and j = key land 0x7FFF_FFFF in
    let r = !nruns - 1 in
    if r >= 0 && diag.(r) = d && j <= j1.(r) + k + max_gap then begin
      if j > j1.(r) then j1.(r) <- j
    end
    else begin
      diag.(!nruns) <- d;
      j0.(!nruns) <- j;
      j1.(!nruns) <- j;
      incr nruns
    end
  done;
  let nruns = !nruns in
  Fsa_obs.Metric.Counter.incr ~by:nruns runs_counter;
  let tl = Dna.length target in
  (* Right extensions in ascending start order along each diagonal, left
     extensions in descending order: the order in which a run's start can
     fall inside the previous fresh scan's best prefix. *)
  let right_score = Array.make nruns 0 and right_len = Array.make nruns 0 in
  let m = new_memo () in
  for r = 0 to nruns - 1 do
    let d = diag.(r) and s = j1.(r) + k in
    let score, len =
      extend m ~cells ~target ~q ~d ~s ~step:1 ~avail:(min (ql - s) (tl - d - s))
    in
    right_score.(r) <- score;
    right_len.(r) <- len
  done;
  let out = ref [] in
  let m = new_memo () in
  for r = nruns - 1 downto 0 do
    let d = diag.(r) and s = j0.(r) - 1 in
    let left_score, left_len =
      extend m ~cells ~target ~q ~d ~s ~step:(-1) ~avail:(min (s + 1) (s + d + 1))
    in
    let core_hi = j1.(r) + k - 1 in
    let core_score = ref 0 in
    for j = j0.(r) to core_hi do
      if Dna.get target (j + d) = Dna.get q j then incr core_score
      else decr core_score
    done;
    let score = float_of_int (!core_score + left_score + right_score.(r)) in
    if score >= min_score then
      out := emit ~d ~q_lo:(j0.(r) - left_len) ~q_hi:(core_hi + right_len.(r)) ~score
             :: !out
    else Fsa_obs.Metric.Counter.incr filtered_counter
  done;
  (* Anchors leave last run first: the score sort in [anchors] is stable,
     so this order decides ties. *)
  List.rev !out

let pack_limit = 1 lsl 30

let anchors ?(max_gap = 4) ?(min_score = 20.0) idx ~target ~query =
  Fsa_obs.Span.with_ ~name:"seed.anchors" @@ fun () ->
  let tl = Dna.length target and ql = Dna.length query in
  if tl >= pack_limit || ql >= pack_limit then
    invalid_arg
      (Printf.sprintf
         "Seed.anchors: target length %d and query length %d must both be below 2^30"
         tl ql);
  let cells = ref 0 in
  let fwd =
    strand_runs ~max_gap ~min_score ~cells idx ~target ~q:query
      ~emit:(fun ~d ~q_lo ~q_hi ~score ->
        { t_lo = q_lo + d; t_hi = q_hi + d; q_lo; q_hi; forward = true; score })
  in
  let qrc = Dna.reverse_complement query in
  let rev =
    strand_runs ~max_gap ~min_score ~cells idx ~target ~q:qrc
      ~emit:(fun ~d ~q_lo ~q_hi ~score ->
        (* Positions in qrc map back to forward-query coordinates by
           j ↦ ql - 1 - j, flipping the interval. *)
        {
          t_lo = q_lo + d;
          t_hi = q_hi + d;
          q_lo = ql - 1 - q_hi;
          q_hi = ql - 1 - q_lo;
          forward = false;
          score;
        })
  in
  Fsa_obs.Metric.Counter.incr ~by:!cells cells_counter;
  let all = fwd @ rev in
  Fsa_obs.Metric.Counter.incr ~by:(List.length all) found_counter;
  List.sort (fun a b -> Float.compare b.score a.score) all

let contains_range (lo1, hi1) (lo2, hi2) = lo1 <= lo2 && hi2 <= hi1

(* Sort-and-sweep domination filter, equivalent to the obvious quadratic
   fold ("keep each anchor unless an already kept — hence earlier in input
   order, hence at least as good — anchor covers it on both sequences").

   Equivalence: containment is transitive, so "dominated by some earlier
   input anchor" and "dominated by some kept anchor" coincide — if the
   dominator was itself dropped, whatever kept anchor dropped it also
   contains the current one and is earlier still.  Sweeping anchors by
   (t_lo asc, t_hi desc, input-pos asc) places every potential target-range
   dominator of [a] before [a]; the active list holds kept sweep-earlier
   anchors whose target interval still reaches the sweep line, and a
   dominator is any active entry with t_hi covering, query range covering,
   and an earlier input position.  Output preserves input order. *)
let filter_dominated anchors =
  let arr = Array.of_list anchors in
  let n = Array.length arr in
  let order = Array.init n (fun i -> i) in
  let cmp i j =
    let a = arr.(i) and b = arr.(j) in
    if a.t_lo <> b.t_lo then Int.compare a.t_lo b.t_lo
    else if a.t_hi <> b.t_hi then Int.compare b.t_hi a.t_hi
    else Int.compare i j
  in
  Array.sort cmp order;
  let keep = Array.make n true in
  let active = ref [] in
  Array.iter
    (fun ai ->
      let a = arr.(ai) in
      active := List.filter (fun bi -> arr.(bi).t_hi >= a.t_lo) !active;
      let dominated =
        List.exists
          (fun bi ->
            let b = arr.(bi) in
            bi < ai && b.t_hi >= a.t_hi
            && contains_range (b.q_lo, b.q_hi) (a.q_lo, a.q_hi))
          !active
      in
      if dominated then begin
        keep.(ai) <- false;
        Fsa_obs.Metric.Counter.incr dominated_counter
      end
      else active := ai :: !active)
    order;
  let out = ref [] in
  for i = n - 1 downto 0 do
    if keep.(i) then out := arr.(i) :: !out
  done;
  !out

let pp_anchor ppf a =
  Format.fprintf ppf "t[%d,%d] ~ q[%d,%d]%s score=%.1f" a.t_lo a.t_hi a.q_lo a.q_hi
    (if a.forward then "" else " (rev)")
    a.score
