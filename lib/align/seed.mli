(** Seed-and-extend homology search (a miniature BLAST).

    This is the conserved-region detector used by the genome pipeline: exact
    k-mer seeds between a target and a query (both strands), merged along
    diagonals and extended without gaps under an x-drop rule.  It substitutes
    for the precomputed alignments the paper assumes as input. *)

open Fsa_seq

type index
(** k-mer index of a target sequence. *)

val build_index : ?max_occ:int -> k:int -> Dna.t -> index
(** Positions of every k-mer, stored as flat int arrays (no list cells) in
    an open-addressing int table; k-mers occurring more than [max_occ] times
    (default 32) are dropped as repeats.  An index is immutable and reusable
    across any number of queries. *)

val index_k : index -> int

val lookup : index -> int -> int array
(** Target positions of a packed k-mer, in increasing order.  The returned
    array is owned by the index: do not mutate. *)

type anchor = {
  t_lo : int;
  t_hi : int;  (** inclusive target range *)
  q_lo : int;
  q_hi : int;  (** inclusive query range, always in forward-query coordinates *)
  forward : bool;  (** false when the query matches the reverse strand *)
  score : float;
}

val anchors :
  ?max_gap:int -> ?min_score:float -> index -> target:Dna.t -> query:Dna.t -> anchor list
(** All x-drop-extended diagonal runs of seeds with score at least
    [min_score] (default 20), both strands, sorted by decreasing score.
    [max_gap] (default 4) is the largest seed-to-seed gap merged into one run
    along a diagonal.  Extension is ungapped, scores a match +1 and a
    mismatch -1, and stops once the running score falls more than 10 below
    its best; {!extend_right} is the kernel.  Counts scanned extension cells
    in [seed.xdrop_cells].
    @raise Invalid_argument if [target] or [query] has 2^30 bases or more
    (hits pack both positions into one int). *)

val extend_right : target:Dna.t -> query:Dna.t -> d:int -> start:int -> int * int
(** The x-drop kernel of {!anchors}: ungapped extension along diagonal [d]
    (target position = query position + [d]) from query position [start]
    rightwards, until either sequence ends or the running score falls more
    than 10 below its best.  Returns the best prefix score and its length
    in cells; [(0, 0)] when no prefix scores above 0.  Adds the cells it
    scans to [seed.xdrop_cells]. *)

val filter_dominated : anchor list -> anchor list
(** Removes anchors whose target *and* query ranges are contained in a
    higher-scoring anchor's ranges. *)

val pp_anchor : Format.formatter -> anchor -> unit
