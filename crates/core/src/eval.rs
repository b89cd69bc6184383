//! Incremental evaluation of candidate selections — the RHE inner loop.
//!
//! The solvers explore a swap/add/drop neighbourhood that is `m`-wide at
//! every step. Evaluating a neighbour through [`MiningProblem::objective`]
//! and [`MiningProblem::coverage`] costs `O(k² + k·universe/64)` and (for
//! coverage) a locked scratch bitmap; done `m` times per hill-climbing
//! iteration that dominates the whole explain path.
//!
//! [`SelectionEval`] instead maintains running aggregates of the *current*
//! selection so that probing one move costs `O(k + universe/64)` with zero
//! heap allocation:
//!
//! * description error as the running sums `Σ n·mad` and `Σ n`;
//! * the diversity pairwise-gap numerator `Σ_{i<j} |mean_i − mean_j|`,
//!   adjusted with an `O(k)` delta per probe;
//! * coverage as a prefix-union stack (`prefix[d]` = union of the first
//!   `d` member covers), which also gives the exhaustive solver `O(words)`
//!   push/pop, plus lazily rebuilt per-slot "rest unions" (the union of
//!   every member except one) so a swap or drop probe is a single
//!   `union_count` / stored popcount;
//! * an `O(1)` membership mask replacing the `O(k)` `contains` scan;
//! * a batch objective probe over a prefix of the candidates in
//!   descending support order, bit-identical to the single-move probe,
//!   which the solver's neighbour scan streams slot by slot.
//!
//! Aggregates are recomputed exactly (not drifted) whenever the selection
//! itself changes, so a long random walk stays within float-association
//! distance of the naive recompute — the property-test suite in
//! `tests/prop_eval.rs` pins this to `1e-9`.

use crate::problem::{MiningProblem, Task};
use maprat_cube::Bitmap;

/// A neighbourhood move over the current selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Move {
    /// Replace the member at `pos` with (non-member) `candidate`.
    Swap {
        /// Selection slot to replace.
        pos: usize,
        /// Pool index of the incoming candidate.
        candidate: usize,
    },
    /// Append (non-member) `candidate` to the selection.
    Add {
        /// Pool index of the incoming candidate.
        candidate: usize,
    },
    /// Remove the member at `pos`.
    Drop {
        /// Selection slot to remove.
        pos: usize,
    },
}

/// Exact scalar aggregates over a prefix of the member list.
#[derive(Debug, Clone, Copy, Default)]
struct Frame {
    /// `Σ n·mad` over the prefix.
    err_weighted: f64,
    /// `Σ n` over the prefix.
    err_total: f64,
    /// `Σ_{i<j} |mean_i − mean_j|` over the prefix.
    pair_sum: f64,
}

/// Incremental evaluator for one [`MiningProblem`].
///
/// Construction allocates the scratch once; every subsequent probe is
/// allocation-free (verified by `tests/alloc_probe.rs`). Not thread-safe —
/// parallel solvers create one evaluator per worker thread.
///
/// ```
/// use maprat_core::eval::{Move, SelectionEval};
/// use maprat_core::{MiningProblem, Task};
/// use maprat_cube::{CubeOptions, RatingCube};
/// use maprat_data::synth::{generate, SynthConfig};
///
/// let dataset = generate(&SynthConfig::tiny(7)).unwrap();
/// let item = dataset.find_title("Toy Story").unwrap();
/// let idx: Vec<u32> = dataset.rating_range_for_item(item).collect();
/// let cube = RatingCube::build(&dataset, idx, CubeOptions {
///     min_support: 3, require_geo: false, max_arity: 2,
/// });
/// let problem = MiningProblem::new(&cube, 3, 0.2, 0.5);
/// let mut eval = SelectionEval::new(&problem);
/// eval.reset(&[0, 1]);
/// let naive = problem.objective(Task::Similarity, &[0, 1]);
/// assert!((eval.objective(Task::Similarity) - naive).abs() < 1e-9);
/// let mv = Move::Add { candidate: 2 };
/// let probed = eval.probe_objective(Task::Similarity, mv);
/// eval.apply(mv);
/// assert!((eval.objective(Task::Similarity) - probed).abs() < 1e-12);
/// ```
pub struct SelectionEval<'p, 'c> {
    problem: &'p MiningProblem<'c>,
    /// Current selection, in insertion order.
    members: Vec<usize>,
    /// `member_mask[i]` ⇔ candidate `i` is selected (O(1) `contains`).
    member_mask: Vec<bool>,
    /// `frames[d]` aggregates `members[..d]`; `len == members.len() + 1`.
    frames: Vec<Frame>,
    /// `prefix[d]` = union of the covers of `members[..d]`. Buffers beyond
    /// the current depth stay allocated for reuse.
    prefix: Vec<Bitmap>,
    /// `covered[d] = prefix[d].count()`; `len == members.len() + 1`.
    covered: Vec<usize>,
    /// `rest[i]` = union of every member cover except slot `i`.
    rest: Vec<Bitmap>,
    /// `rest_covered[i] = rest[i].count()` (the drop-probe coverage).
    rest_covered: Vec<usize>,
    /// Suffix-union scratch used to rebuild `rest` in `O(k·words)`.
    suffix: Vec<Bitmap>,
    /// Whether `rest`/`rest_covered` are stale (set by every mutation).
    rest_dirty: bool,
}

impl<'p, 'c> SelectionEval<'p, 'c> {
    /// Creates an evaluator with an empty selection.
    pub fn new(problem: &'p MiningProblem<'c>) -> Self {
        let universe = problem.cube().universe();
        SelectionEval {
            problem,
            members: Vec::new(),
            member_mask: vec![false; problem.pool_size()],
            frames: vec![Frame::default()],
            prefix: vec![Bitmap::new(universe)],
            covered: vec![0],
            rest: Vec::new(),
            rest_covered: Vec::new(),
            suffix: Vec::new(),
            rest_dirty: true,
        }
    }

    /// The problem being evaluated.
    pub fn problem(&self) -> &'p MiningProblem<'c> {
        self.problem
    }

    /// The current selection, in insertion order.
    pub fn selection(&self) -> &[usize] {
        &self.members
    }

    /// Number of selected members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the selection is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Whether candidate `i` is currently selected (`O(1)`).
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.member_mask[i]
    }

    /// Replaces the selection. Indexes must be in-pool and duplicate-free.
    pub fn reset(&mut self, selection: &[usize]) {
        for &i in &self.members {
            self.member_mask[i] = false;
        }
        self.members.clear();
        self.members.extend_from_slice(selection);
        for &i in &self.members {
            debug_assert!(!self.member_mask[i], "duplicate member {i}");
            self.member_mask[i] = true;
        }
        self.recompute_from(0);
    }

    /// Applies a move to the selection (`O((k − pos)·words + k²)` — once
    /// per accepted move, vs. `m` probes per iteration).
    ///
    /// # Panics
    /// Panics (in debug builds) on out-of-range slots, on adding a member
    /// twice, or on swapping in a current member.
    pub fn apply(&mut self, mv: Move) {
        match mv {
            Move::Swap { pos, candidate } => {
                debug_assert!(!self.member_mask[candidate], "swap to member {candidate}");
                self.member_mask[self.members[pos]] = false;
                self.member_mask[candidate] = true;
                self.members[pos] = candidate;
                self.recompute_from(pos);
            }
            Move::Add { candidate } => {
                debug_assert!(!self.member_mask[candidate], "re-adding member {candidate}");
                self.member_mask[candidate] = true;
                self.members.push(candidate);
                self.recompute_from(self.members.len() - 1);
            }
            Move::Drop { pos } => {
                self.member_mask[self.members[pos]] = false;
                self.members.remove(pos);
                self.recompute_from(pos);
            }
        }
    }

    /// The covered-position count of the current selection.
    pub fn covered_count(&self) -> usize {
        *self.covered.last().expect("depth-0 entry always present")
    }

    /// The coverage fraction of the current selection.
    pub fn coverage(&self) -> f64 {
        let universe = self.problem.cube().universe();
        if universe == 0 {
            return 0.0;
        }
        self.covered_count() as f64 / universe as f64
    }

    /// The task objective of the current selection (`O(1)`).
    pub fn objective(&self, task: Task) -> f64 {
        let f = self.frames[self.members.len()];
        self.problem.score_from_parts(
            task,
            self.members.len(),
            f.err_weighted,
            f.err_total,
            f.pair_sum,
        )
    }

    /// The covered-position count the selection would have after `mv`,
    /// without applying it. `&mut` only to lazily rebuild the rest-union
    /// scratch after a mutation; no allocation.
    pub fn probe_covered(&mut self, mv: Move) -> usize {
        match mv {
            Move::Add { candidate } => {
                let d = self.members.len();
                self.covered[d]
                    + self
                        .problem
                        .missing_count(candidate, self.prefix[d].block_slice())
            }
            Move::Swap { pos, candidate } => {
                self.ensure_rest();
                self.rest_covered[pos]
                    + self
                        .problem
                        .missing_count(candidate, self.rest[pos].block_slice())
            }
            Move::Drop { pos } => {
                self.ensure_rest();
                self.rest_covered[pos]
            }
        }
    }

    /// The task objective the selection would have after `mv`, without
    /// applying it (`O(k)` for Diversity, `O(1)` for Similarity — the
    /// pairwise-gap delta is only computed when the task reads it; no
    /// allocation either way).
    pub fn probe_objective(&self, task: Task, mv: Move) -> f64 {
        let k = self.members.len();
        let f = self.frames[k];
        let diversity = task == Task::Diversity;
        match mv {
            Move::Add { candidate } => {
                let (n, mad, mean) = self.problem.cand(candidate);
                let mut pair = f.pair_sum;
                if diversity {
                    for &j in &self.members {
                        pair += (mean - self.problem.cols.cand_mean[j]).abs();
                    }
                }
                self.problem.score_from_parts(
                    task,
                    k + 1,
                    f.err_weighted + n * mad,
                    f.err_total + n,
                    pair,
                )
            }
            Move::Swap { pos, candidate } => {
                let (n_out, mad_out, mean_out) = self.problem.cand(self.members[pos]);
                let (n_in, mad_in, mean_in) = self.problem.cand(candidate);
                let mut pair = f.pair_sum;
                if diversity {
                    for (j, &other) in self.members.iter().enumerate() {
                        if j != pos {
                            let m = self.problem.cols.cand_mean[other];
                            pair += (mean_in - m).abs() - (mean_out - m).abs();
                        }
                    }
                }
                self.problem.score_from_parts(
                    task,
                    k,
                    f.err_weighted - n_out * mad_out + n_in * mad_in,
                    f.err_total - n_out + n_in,
                    pair,
                )
            }
            Move::Drop { pos } => {
                let (n_out, mad_out, mean_out) = self.problem.cand(self.members[pos]);
                let mut pair = f.pair_sum;
                if diversity {
                    for (j, &other) in self.members.iter().enumerate() {
                        if j != pos {
                            pair -= (mean_out - self.problem.cols.cand_mean[other]).abs();
                        }
                    }
                }
                self.problem.score_from_parts(
                    task,
                    k - 1,
                    f.err_weighted - n_out * mad_out,
                    f.err_total - n_out,
                    pair,
                )
            }
        }
    }

    /// [`probe_objective`](Self::probe_objective) for a run of candidates
    /// at once: `out[r]` receives the objective of swapping the `r`-th
    /// candidate in descending support order into slot `pos` (or adding
    /// it, when `pos` is `None`), for `r < out.len()`. Entries for current
    /// members are meaningless; callers skip them.
    ///
    /// Every entry performs the same float operations in the same order
    /// as the single-move probe, so the two agree bit for bit. The pass
    /// reads contiguous columns and has no per-candidate branch: the
    /// Diversity pairwise-gap delta is accumulated member by member over
    /// the whole run, then the score is assembled in one sweep.
    pub(crate) fn probe_objectives_by_support(
        &self,
        task: Task,
        pos: Option<usize>,
        out: &mut [f64],
    ) {
        let p = self.problem;
        let cols = &p.cols.by_support;
        let len = out.len();
        let k = self.members.len();
        let f = self.frames[k];
        // The outgoing member's terms come off first, exactly as in
        // `probe_objective`; the incoming candidate's are added below.
        let (size, base_weighted, base_total, mean_out) = match pos {
            Some(pos) => {
                let (n_out, mad_out, mean_out) = p.cand(self.members[pos]);
                (
                    k,
                    f.err_weighted - n_out * mad_out,
                    f.err_total - n_out,
                    Some(mean_out),
                )
            }
            None => (k + 1, f.err_weighted, f.err_total, None),
        };
        // `out` first holds each entry's pairwise-gap sum (only Diversity
        // reads it), then the finished objective.
        if task == Task::Diversity {
            let means = &cols.mean[..len];
            out.fill(f.pair_sum);
            for (j, &other) in self.members.iter().enumerate() {
                if pos == Some(j) {
                    continue;
                }
                let m = p.cols.cand_mean[other];
                match mean_out {
                    Some(mean_out) => {
                        let gap_out = (mean_out - m).abs();
                        for (pair, &mean_in) in out.iter_mut().zip(means) {
                            *pair += (mean_in - m).abs() - gap_out;
                        }
                    }
                    None => {
                        for (pair, &mean_in) in out.iter_mut().zip(means) {
                            *pair += (mean_in - m).abs();
                        }
                    }
                }
            }
        }
        for ((obj, &nmad), &n) in out.iter_mut().zip(&cols.nmad[..len]).zip(&cols.n[..len]) {
            *obj = p.score_from_parts(task, size, base_weighted + nmad, base_total + n, *obj);
        }
    }

    /// Rebuilds frames / prefix unions / covered counts for depths
    /// `from..len` (earlier depths are untouched and already exact).
    fn recompute_from(&mut self, from: usize) {
        let universe = self.problem.cube().universe();
        self.frames.truncate(from + 1);
        self.covered.truncate(from + 1);
        for d in from..self.members.len() {
            let c = self.members[d];
            let (n, mad, mean) = self.problem.cand(c);
            let mut f = self.frames[d];
            f.err_weighted += n * mad;
            f.err_total += n;
            for &j in &self.members[..d] {
                f.pair_sum += (mean - self.problem.cols.cand_mean[j]).abs();
            }
            self.frames.push(f);
            Self::ensure_bitmap(&mut self.prefix, d + 1, universe);
            let (head, tail) = self.prefix.split_at_mut(d + 1);
            tail[0].copy_from(&head[d]);
            tail[0].union_with(&self.problem.cube().groups()[c].cover);
            self.covered.push(tail[0].count());
        }
        self.rest_dirty = true;
    }

    /// Rebuilds the per-slot rest unions (`O(k·words)`), only when stale.
    fn ensure_rest(&mut self) {
        if !self.rest_dirty {
            return;
        }
        let k = self.members.len();
        let universe = self.problem.cube().universe();
        let groups = self.problem.cube().groups();
        Self::ensure_bitmap(&mut self.suffix, k, universe);
        for i in 0..k {
            Self::ensure_bitmap(&mut self.rest, i, universe);
        }
        self.rest_covered.resize(k, 0);
        // suffix[d] = union of members[d..k]; walked back-to-front.
        self.suffix[k].clear();
        for d in (0..k).rev() {
            let (head, tail) = self.suffix.split_at_mut(d + 1);
            head[d].copy_from(&tail[0]);
            head[d].union_with(&groups[self.members[d]].cover);
        }
        for i in 0..k {
            self.rest[i].copy_from(&self.prefix[i]);
            self.rest[i].union_with(&self.suffix[i + 1]);
            self.rest_covered[i] = self.rest[i].count();
        }
        self.rest_dirty = false;
    }

    /// Grows `vec` until index `idx` exists (allocates only on growth).
    fn ensure_bitmap(vec: &mut Vec<Bitmap>, idx: usize, universe: usize) {
        while vec.len() <= idx {
            vec.push(Bitmap::new(universe));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maprat_cube::{CubeOptions, RatingCube};
    use maprat_data::synth::{generate, SynthConfig};

    fn fixture() -> (maprat_data::Dataset, RatingCube) {
        let dataset = generate(&SynthConfig::tiny(301)).unwrap();
        let item = dataset.find_title("Toy Story").unwrap();
        let idx: Vec<u32> = dataset.rating_range_for_item(item).collect();
        let cube = RatingCube::build(
            &dataset,
            idx,
            CubeOptions {
                min_support: 3,
                require_geo: false,
                max_arity: 2,
            },
        );
        (dataset, cube)
    }

    fn assert_matches_naive(eval: &SelectionEval<'_, '_>, sel: &[usize]) {
        let p = eval.problem();
        assert_eq!(eval.selection(), sel);
        assert!((eval.coverage() - p.coverage(sel)).abs() < 1e-12);
        for task in Task::ALL {
            assert!(
                (eval.objective(task) - p.objective(task, sel)).abs() < 1e-9,
                "{task:?}: {} vs {}",
                eval.objective(task),
                p.objective(task, sel)
            );
        }
    }

    #[test]
    fn reset_matches_naive() {
        let (_, cube) = fixture();
        let p = MiningProblem::new(&cube, 4, 0.2, 0.7);
        let mut eval = SelectionEval::new(&p);
        for sel in [vec![], vec![0], vec![2, 0], vec![1, 3, 2, 0]] {
            eval.reset(&sel);
            assert_matches_naive(&eval, &sel);
        }
    }

    #[test]
    fn probes_match_applied_state() {
        let (_, cube) = fixture();
        assert!(cube.len() >= 5);
        let p = MiningProblem::new(&cube, 3, 0.2, 0.5);
        let mut eval = SelectionEval::new(&p);
        eval.reset(&[0, 1]);
        let universe = cube.universe() as f64;
        for mv in [
            Move::Add { candidate: 3 },
            Move::Swap {
                pos: 0,
                candidate: 4,
            },
            Move::Drop { pos: 1 },
        ] {
            let cov = eval.probe_covered(mv) as f64 / universe;
            let objs: Vec<f64> = Task::ALL
                .iter()
                .map(|&t| eval.probe_objective(t, mv))
                .collect();
            eval.apply(mv);
            assert!((eval.coverage() - cov).abs() < 1e-12, "{mv:?}");
            for (t, probed) in Task::ALL.iter().zip(objs) {
                assert!((eval.objective(*t) - probed).abs() < 1e-12, "{mv:?} {t:?}");
            }
        }
    }

    #[test]
    fn mask_tracks_membership() {
        let (_, cube) = fixture();
        let p = MiningProblem::new(&cube, 3, 0.2, 0.5);
        let mut eval = SelectionEval::new(&p);
        eval.reset(&[1, 4]);
        assert!(eval.contains(1) && eval.contains(4));
        assert!(!eval.contains(0));
        eval.apply(Move::Swap {
            pos: 0,
            candidate: 0,
        });
        assert!(eval.contains(0) && !eval.contains(1));
        eval.apply(Move::Drop { pos: 1 });
        assert!(!eval.contains(4));
        assert_eq!(eval.selection(), &[0]);
    }

    #[test]
    fn drop_of_last_member_is_cheap_pop() {
        let (_, cube) = fixture();
        let p = MiningProblem::new(&cube, 3, 0.2, 0.5);
        let mut eval = SelectionEval::new(&p);
        eval.reset(&[0, 1, 2]);
        let before = eval.coverage();
        eval.apply(Move::Add { candidate: 3 });
        eval.apply(Move::Drop { pos: 3 });
        assert_matches_naive(&eval, &[0, 1, 2]);
        assert!((eval.coverage() - before).abs() < 1e-15);
    }

    #[test]
    fn batch_probe_matches_single_probes_bit_for_bit() {
        let (_, cube) = fixture();
        let p = MiningProblem::new(&cube, 4, 0.2, 0.7);
        let m = p.pool_size();
        let mut eval = SelectionEval::new(&p);
        let mut out = vec![0.0; m];
        for sel in [vec![0], vec![3, 1], vec![2, 0, 4]] {
            eval.reset(&sel);
            for task in Task::ALL {
                for pos in (0..sel.len()).map(Some).chain([None]) {
                    let len = m - sel.len();
                    eval.probe_objectives_by_support(task, pos, &mut out[..len]);
                    for (r, &obj) in out[..len].iter().enumerate() {
                        let candidate = p.cols.by_support.index[r] as usize;
                        if eval.contains(candidate) {
                            continue;
                        }
                        let mv = match pos {
                            Some(pos) => Move::Swap { pos, candidate },
                            None => Move::Add { candidate },
                        };
                        let single = eval.probe_objective(task, mv);
                        assert_eq!(obj.to_bits(), single.to_bits(), "{task:?} {mv:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn empty_selection_is_well_defined() {
        let (_, cube) = fixture();
        let p = MiningProblem::new(&cube, 3, 0.2, 0.5);
        let mut eval = SelectionEval::new(&p);
        eval.reset(&[]);
        assert_eq!(eval.covered_count(), 0);
        assert_eq!(eval.objective(Task::Similarity), 1.0);
        assert_eq!(eval.objective(Task::Diversity), 0.0);
        let obj = eval.probe_objective(Task::Similarity, Move::Add { candidate: 0 });
        assert!((obj - p.objective(Task::Similarity, &[0])).abs() < 1e-12);
    }
}
