//! The SM/DM optimization problems over a candidate pool (§2.2).
//!
//! A solution is a subset `S` of the cube's candidate groups with
//! `|S| ≤ k`, subject to the *coverage constraint*
//! `|∪_{g∈S} cover(g)| ≥ α·|R_I|`. The objective depends on the task:
//!
//! * **Similarity**: maximize `1 − err(S)/4`, where `err(S)` is the mean
//!   absolute deviation of covered ratings from their group averages
//!   (ratings covered by several selected groups count once per group, as
//!   in the MRI description-error formulation);
//! * **Diversity**: maximize the mean pairwise gap between group averages,
//!   normalized to `[0, 1]`, minus `λ · err(S)/4` so that disagreeing
//!   groups are still internally consistent.

use maprat_cube::{Bitmap, CandidateGroup, RatingCube};
use std::sync::{Arc, Mutex};

/// Which of the two mining sub-problems to solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Task {
    /// Similarity Mining: groups that rate consistently.
    Similarity,
    /// Diversity Mining: groups that disagree with each other.
    Diversity,
}

impl Task {
    /// Both tasks.
    pub const ALL: [Task; 2] = [Task::Similarity, Task::Diversity];

    /// Display name as used in the UI tabs.
    pub fn name(self) -> &'static str {
        match self {
            Task::Similarity => "Similarity Mining",
            Task::Diversity => "Diversity Mining",
        }
    }
}

/// A mining problem instance: candidate pool + constraints.
///
/// The solver's inner loops and [`max_achievable_coverage`] read the
/// pool through its [`PoolColumns`], never re-deriving per-candidate
/// scalars from the cube's aggregates. The columns do not depend on `k`,
/// `α` or `λ`, so [`MiningProblem::with_columns`] lets every re-solve of
/// one cube share a single build.
///
/// [`max_achievable_coverage`]: MiningProblem::max_achievable_coverage
pub struct MiningProblem<'a> {
    cube: &'a RatingCube,
    /// Group budget `k`.
    pub max_groups: usize,
    /// Coverage constraint `α`.
    pub min_coverage: f64,
    /// DM consistency penalty `λ`.
    pub dm_lambda: f64,
    /// The cube's k/α/λ-independent columns.
    pub(crate) cols: Arc<PoolColumns>,
    /// Reusable union scratch for [`coverage`](MiningProblem::coverage), so
    /// the cold path stops allocating a fresh bitmap per call.
    cover_scratch: Mutex<Bitmap>,
}

/// The k/α/λ-independent part of a [`MiningProblem`]: per-candidate
/// scalars (support, mean, mean absolute deviation), the candidate order
/// by descending support with those scalars permuted into it, and the
/// candidates' sparse cover words. A pure function of the cube.
pub struct PoolColumns {
    /// The cube's universe `|R_I|`, which bounds every cover word index.
    universe: usize,
    /// Per-candidate `stats.count()` as `f64`.
    pub(crate) cand_n: Vec<f64>,
    /// Per-candidate `stats.count()` as integers.
    pub(crate) cand_support: Vec<u32>,
    /// Per-candidate mean absolute deviation.
    pub(crate) cand_mad: Vec<f64>,
    /// Per-candidate mean rating.
    pub(crate) cand_mean: Vec<f64>,
    /// The pool by descending support, with the scalars the neighbour
    /// scan reads permuted into that order.
    pub(crate) by_support: SupportOrder,
    /// Sparse cover word entries, all candidates concatenated: candidate
    /// `i` owns `word_idx/word_bits[word_offsets[i]..word_offsets[i+1]]`
    /// — only its covers' *non-zero* blocks. Coverage probes intersect
    /// these few entries against the scratch unions instead of streaming
    /// every candidate's full dense bitmap per scan.
    word_idx: Vec<u32>,
    word_bits: Vec<u64>,
    word_offsets: Vec<u32>,
}

impl PoolColumns {
    /// Derives the columns of a cube's candidate pool.
    pub fn new(cube: &RatingCube) -> Self {
        let groups = cube.groups();
        let cand_n: Vec<f64> = groups.iter().map(|g| g.stats.count() as f64).collect();
        let cand_support: Vec<u32> = groups.iter().map(|g| g.support() as u32).collect();
        let cand_mad: Vec<f64> = groups
            .iter()
            .map(|g| g.stats.mean_abs_deviation().unwrap_or(0.0))
            .collect();
        let cand_mean: Vec<f64> = groups
            .iter()
            .map(|g| g.stats.mean().unwrap_or(0.0))
            .collect();
        let by_support = SupportOrder::new(&cand_support, &cand_n, &cand_mad, &cand_mean);
        let mut word_idx: Vec<u32> = Vec::new();
        let mut word_bits: Vec<u64> = Vec::new();
        let mut word_offsets: Vec<u32> = Vec::with_capacity(groups.len() + 1);
        word_offsets.push(0);
        for g in groups {
            g.cover.for_each_set_word(|w, bits| {
                word_idx.push(w as u32);
                word_bits.push(bits);
            });
            word_offsets.push(word_idx.len() as u32);
        }
        PoolColumns {
            universe: cube.universe(),
            cand_n,
            cand_support,
            cand_mad,
            cand_mean,
            by_support,
            word_idx,
            word_bits,
            word_offsets,
        }
    }
}

impl<'a> MiningProblem<'a> {
    /// Creates a problem over a materialized cube.
    pub fn new(cube: &'a RatingCube, max_groups: usize, min_coverage: f64, dm_lambda: f64) -> Self {
        Self::with_columns(
            cube,
            Arc::new(PoolColumns::new(cube)),
            max_groups,
            min_coverage,
            dm_lambda,
        )
    }

    /// Creates a problem over a cube whose [`PoolColumns`] were already
    /// built, so a re-solve under new `k`/`α`/`λ` skips deriving them.
    /// `columns` must be `PoolColumns::new(cube)`; the answer is then
    /// bit-identical to [`MiningProblem::new`]'s.
    ///
    /// # Panics
    /// If `columns` were built for a pool of another size or universe.
    pub fn with_columns(
        cube: &'a RatingCube,
        columns: Arc<PoolColumns>,
        max_groups: usize,
        min_coverage: f64,
        dm_lambda: f64,
    ) -> Self {
        // `missing_count` indexes unions of this cube's universe by the
        // columns' word indexes unchecked.
        assert!(
            columns.cand_n.len() == cube.len() && columns.universe == cube.universe(),
            "pool columns built for another cube"
        );
        MiningProblem {
            cube,
            max_groups,
            min_coverage,
            dm_lambda,
            cols: columns,
            cover_scratch: Mutex::new(Bitmap::new(cube.universe())),
        }
    }

    /// `|cover(candidate) \ base|` where `base` is a union scratch's raw
    /// blocks: the number of positions the candidate would add to it.
    /// Exactly `base.union_count(cover) - base.count()`, but it touches
    /// only the candidate's non-zero blocks — candidate covers are
    /// sparse, so a scan over the pool streams a fraction of the bytes
    /// the dense unions would.
    #[inline]
    pub(crate) fn missing_count(&self, candidate: usize, base: &[u64]) -> usize {
        let cols = &*self.cols;
        let range =
            cols.word_offsets[candidate] as usize..cols.word_offsets[candidate + 1] as usize;
        let mut missing = 0usize;
        for (&w, &bits) in cols.word_idx[range.clone()]
            .iter()
            .zip(&cols.word_bits[range])
        {
            debug_assert!((w as usize) < base.len(), "cover block outside universe");
            // SAFETY: every entry's block index comes from a cover of the
            // same universe as `base` (both `ceil(universe/64)` blocks;
            // `with_columns` asserts the columns' universe is the
            // cube's), so `w < base.len()`. This probe runs ~10⁵
            // times per solve; the bounds check is measurable.
            missing += (bits & !unsafe { *base.get_unchecked(w as usize) }).count_ones() as usize;
        }
        missing
    }

    /// Precomputed `(count, mean absolute deviation, mean)` of candidate
    /// `i` — the scalars every incremental probe combines.
    #[inline]
    pub(crate) fn cand(&self, i: usize) -> (f64, f64, f64) {
        let cols = &*self.cols;
        (cols.cand_n[i], cols.cand_mad[i], cols.cand_mean[i])
    }

    /// The task score assembled from running aggregates: `err_weighted` /
    /// `err_total` are the description-error sums `Σ n·mad` / `Σ n`, and
    /// `pair_sum` is `Σ_{i<j} |mean_i − mean_j|` over the `k` members.
    /// Single source of truth shared by the naive evaluation below and the
    /// incremental [`SelectionEval`](crate::eval::SelectionEval).
    #[inline]
    pub(crate) fn score_from_parts(
        &self,
        task: Task,
        k: usize,
        err_weighted: f64,
        err_total: f64,
        pair_sum: f64,
    ) -> f64 {
        let err = if err_total == 0.0 {
            0.0
        } else {
            err_weighted / err_total
        };
        match task {
            Task::Similarity => 1.0 - err / 4.0,
            Task::Diversity => {
                let gap = if k < 2 {
                    0.0
                } else {
                    pair_sum / (k * (k - 1) / 2) as f64 / 4.0
                };
                gap - self.dm_lambda * err / 4.0
            }
        }
    }

    /// The candidate pool.
    pub fn candidates(&self) -> &[CandidateGroup] {
        self.cube.groups()
    }

    /// The cube the problem ranges over.
    pub fn cube(&self) -> &RatingCube {
        self.cube
    }

    /// Number of candidates.
    pub fn pool_size(&self) -> usize {
        self.cube.len()
    }

    /// The effective selection size: `min(k, pool)`.
    pub fn selection_size(&self) -> usize {
        self.max_groups.min(self.pool_size())
    }

    /// Union cover of a selection, written into `scratch` (cleared first).
    pub fn union_into(&self, selection: &[usize], scratch: &mut Bitmap) {
        scratch.clear();
        for &i in selection {
            scratch.union_with(&self.cube.groups()[i].cover);
        }
    }

    /// Coverage fraction of a selection.
    ///
    /// Reuses an internal union scratch (no allocation per call); callers
    /// on the solver's hot path should use the incremental
    /// [`SelectionEval`](crate::eval::SelectionEval) instead.
    pub fn coverage(&self, selection: &[usize]) -> f64 {
        if self.cube.universe() == 0 {
            return 0.0;
        }
        let mut scratch = self
            .cover_scratch
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        self.union_into(selection, &mut scratch);
        scratch.count() as f64 / self.cube.universe() as f64
    }

    /// Whether a selection satisfies both constraints.
    pub fn is_feasible(&self, selection: &[usize]) -> bool {
        selection.len() <= self.max_groups && self.coverage(selection) + 1e-12 >= self.min_coverage
    }

    /// The description error `err(S) ∈ [0, 4]`: covered-rating-weighted
    /// mean absolute deviation from group averages.
    pub fn description_error(&self, selection: &[usize]) -> f64 {
        let cols = &*self.cols;
        let mut weighted = 0.0;
        let mut total = 0.0;
        for &i in selection {
            weighted += cols.cand_mad[i] * cols.cand_n[i];
            total += cols.cand_n[i];
        }
        if total == 0.0 {
            0.0
        } else {
            weighted / total
        }
    }

    /// The similarity score `1 − err/4 ∈ [0, 1]` (higher = more consistent).
    pub fn similarity_score(&self, selection: &[usize]) -> f64 {
        1.0 - self.description_error(selection) / 4.0
    }

    /// Mean pairwise disagreement between group averages, normalized to
    /// `[0, 1]`. Zero for selections of fewer than two groups.
    pub fn diversity_gap(&self, selection: &[usize]) -> f64 {
        if selection.len() < 2 {
            return 0.0;
        }
        let means = &self.cols.cand_mean;
        let mut sum = 0.0;
        let mut pairs = 0usize;
        for i in 0..selection.len() {
            for j in i + 1..selection.len() {
                sum += (means[selection[i]] - means[selection[j]]).abs();
                pairs += 1;
            }
        }
        sum / pairs as f64 / 4.0
    }

    /// The diversity score `gap − λ·err/4` (may be negative for terrible
    /// selections; normalized components keep λ interpretable).
    pub fn diversity_score(&self, selection: &[usize]) -> f64 {
        self.diversity_gap(selection) - self.dm_lambda * self.description_error(selection) / 4.0
    }

    /// The task objective (always maximized).
    pub fn objective(&self, task: Task, selection: &[usize]) -> f64 {
        match task {
            Task::Similarity => self.similarity_score(selection),
            Task::Diversity => self.diversity_score(selection),
        }
    }

    /// Provable upper bound on achievable coverage with `k` groups: the
    /// sum of the `k` largest supports (which over-counts overlaps),
    /// capped at 1.
    ///
    /// Used to detect provably infeasible constraint combinations before
    /// searching; when the bound is met the constraint may still be
    /// unachievable, in which case the solver reports
    /// `meets_coverage = false` on its best effort.
    ///
    /// `O(k)`: the pool is kept in descending support order, so the `k`
    /// largest supports are the head of that order.
    pub fn max_achievable_coverage(&self) -> f64 {
        if self.cube.universe() == 0 {
            return 0.0;
        }
        let top: usize = self.cols.by_support.support[..self.selection_size()]
            .iter()
            .map(|&s| s as usize)
            .sum();
        (top as f64 / self.cube.universe() as f64).min(1.0)
    }
}

/// The candidate pool in descending support order (ties by ascending
/// index), as parallel columns.
///
/// The solver's bound gates all read "support at least some threshold",
/// so the candidates passing a gate are always a prefix of this order —
/// one `partition_point` finds it, and the scan then streams contiguous
/// columns instead of testing and skipping candidates one at a time.
pub(crate) struct SupportOrder {
    /// Pool index of each position.
    pub(crate) index: Vec<u32>,
    /// Support, non-increasing.
    pub(crate) support: Vec<u32>,
    /// `stats.count()` as `f64`.
    pub(crate) n: Vec<f64>,
    /// `n · mad`, the candidate's description-error weight — the same
    /// product the single-move probes compute.
    pub(crate) nmad: Vec<f64>,
    /// Mean rating.
    pub(crate) mean: Vec<f64>,
}

impl SupportOrder {
    fn new(support: &[u32], n: &[f64], mad: &[f64], mean: &[f64]) -> Self {
        let mut index: Vec<u32> = (0..support.len() as u32).collect();
        index.sort_unstable_by_key(|&i| (std::cmp::Reverse(support[i as usize]), i));
        let column = |f: &dyn Fn(usize) -> f64| index.iter().map(|&i| f(i as usize)).collect();
        SupportOrder {
            support: index.iter().map(|&i| support[i as usize]).collect(),
            n: column(&|i| n[i]),
            nmad: column(&|i| n[i] * mad[i]),
            mean: column(&|i| mean[i]),
            index,
        }
    }

    /// Length of the prefix whose support is at least `need`.
    #[inline]
    pub(crate) fn passing(&self, need: usize) -> usize {
        self.support.partition_point(|&s| s as usize >= need)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maprat_cube::CubeOptions;
    use maprat_data::synth::{generate, SynthConfig};
    use maprat_data::Dataset;

    fn setup() -> (Dataset, RatingCube) {
        let dataset = generate(&SynthConfig::tiny(51)).unwrap();
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

    #[test]
    fn coverage_matches_union_oracle() {
        let (_, cube) = setup();
        let p = MiningProblem::new(&cube, 3, 0.2, 0.5);
        let sel = vec![0, 1.min(cube.len() - 1)];
        let mut union = Bitmap::new(cube.universe());
        for &i in &sel {
            union.union_with(&cube.groups()[i].cover);
        }
        let expected = union.count() as f64 / cube.universe() as f64;
        assert!((p.coverage(&sel) - expected).abs() < 1e-12);
    }

    #[test]
    fn similarity_prefers_consistent_groups() {
        let (_, cube) = setup();
        let p = MiningProblem::new(&cube, 1, 0.0, 0.5);
        // Find the most and least consistent candidates.
        let mut best = 0;
        let mut worst = 0;
        for (i, g) in cube.groups().iter().enumerate() {
            let mad = g.stats.mean_abs_deviation().unwrap();
            if mad < cube.groups()[best].stats.mean_abs_deviation().unwrap() {
                best = i;
            }
            if mad > cube.groups()[worst].stats.mean_abs_deviation().unwrap() {
                worst = i;
            }
        }
        assert!(p.similarity_score(&[best]) >= p.similarity_score(&[worst]));
        assert!((0.0..=1.0).contains(&p.similarity_score(&[best])));
    }

    #[test]
    fn diversity_needs_two_groups() {
        let (_, cube) = setup();
        let p = MiningProblem::new(&cube, 3, 0.0, 0.0);
        assert_eq!(p.diversity_gap(&[0]), 0.0);
        if cube.len() >= 2 {
            assert!(p.diversity_gap(&[0, 1]) >= 0.0);
        }
    }

    #[test]
    fn diversity_gap_matches_pairwise_oracle() {
        let (_, cube) = setup();
        assert!(cube.len() >= 3);
        let p = MiningProblem::new(&cube, 3, 0.0, 0.0);
        let sel = [0usize, 1, 2];
        let m: Vec<f64> = sel.iter().map(|&i| cube.groups()[i].mean()).collect();
        let oracle = ((m[0] - m[1]).abs() + (m[0] - m[2]).abs() + (m[1] - m[2]).abs()) / 3.0 / 4.0;
        assert!((p.diversity_gap(&sel) - oracle).abs() < 1e-12);
    }

    #[test]
    fn lambda_penalizes_inconsistency() {
        let (_, cube) = setup();
        let strict = MiningProblem::new(&cube, 3, 0.0, 2.0);
        let lax = MiningProblem::new(&cube, 3, 0.0, 0.0);
        let sel = [0usize, 1];
        assert!(strict.diversity_score(&sel) <= lax.diversity_score(&sel));
    }

    #[test]
    fn feasibility_checks_both_constraints() {
        let (_, cube) = setup();
        let p = MiningProblem::new(&cube, 2, 0.0, 0.5);
        assert!(p.is_feasible(&[0]));
        assert!(!p.is_feasible(&[0, 1, 2]), "k violated");
        let tight = MiningProblem::new(&cube, 1, 0.99, 0.5);
        // A single 1-arity group rarely covers 99%.
        let small = (0..cube.len())
            .min_by_key(|&i| cube.groups()[i].support())
            .unwrap();
        assert!(!tight.is_feasible(&[small]));
    }

    #[test]
    fn max_achievable_coverage_bounds_everything() {
        let (_, cube) = setup();
        let p = MiningProblem::new(&cube, 3, 0.2, 0.5);
        let bound = p.max_achievable_coverage();
        for i in 0..cube.len().min(10) {
            for j in 0..cube.len().min(10) {
                for l in 0..cube.len().min(10) {
                    let c = p.coverage(&[i, j, l]);
                    assert!(c <= bound + 1e-9, "{c} > {bound}");
                }
            }
        }
    }

    #[test]
    fn support_order_is_descending_with_index_ties() {
        let (_, cube) = setup();
        let p = MiningProblem::new(&cube, 3, 0.2, 0.5);
        let order = &p.cols.by_support;
        let mut seen = vec![false; p.pool_size()];
        for (r, &i) in order.index.iter().enumerate() {
            let i = i as usize;
            assert!(!seen[i], "candidate {i} listed twice");
            seen[i] = true;
            assert_eq!(order.support[r], p.cols.cand_support[i]);
            assert_eq!(order.n[r].to_bits(), p.cols.cand_n[i].to_bits());
            assert_eq!(
                order.nmad[r].to_bits(),
                (p.cols.cand_n[i] * p.cols.cand_mad[i]).to_bits()
            );
            assert_eq!(order.mean[r].to_bits(), p.cols.cand_mean[i].to_bits());
            if r > 0 {
                let prev = (order.support[r - 1], order.index[r - 1]);
                assert!(
                    prev.0 > order.support[r] || (prev.0 == order.support[r] && prev.1 < i as u32),
                    "order broken at {r}"
                );
            }
        }
        for need in [0, 1, 5, 20, usize::MAX] {
            let len = order.passing(need);
            assert!(order.support[..len].iter().all(|&s| s as usize >= need));
            assert!(order.support[len..].iter().all(|&s| (s as usize) < need));
        }
    }

    #[test]
    fn description_error_weighted_by_cover_size() {
        let (_, cube) = setup();
        let p = MiningProblem::new(&cube, 3, 0.0, 0.5);
        let sel = [0usize, 1];
        let g0 = &cube.groups()[0];
        let g1 = &cube.groups()[1];
        let n0 = g0.stats.count() as f64;
        let n1 = g1.stats.count() as f64;
        let oracle = (g0.stats.mean_abs_deviation().unwrap() * n0
            + g1.stats.mean_abs_deviation().unwrap() * n1)
            / (n0 + n1);
        assert!((p.description_error(&sel) - oracle).abs() < 1e-12);
    }
}
