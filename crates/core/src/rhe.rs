//! Randomized Hill Exploration — the solver of the MRI framework \[2\] that
//! MapRat employs for both mining tasks (§2.2).
//!
//! Each restart starts from a feasible (or coverage-repaired) random
//! selection of `k` groups and hill-climbs over the *swap neighbourhood*
//! (replace one selected group by one unselected candidate), taking the
//! best feasible improving move until a local optimum. The best local
//! optimum across restarts wins.
//!
//! Three performance properties distinguish this implementation:
//!
//! * the neighbour scan runs on the incremental [`SelectionEval`] — an
//!   objective probe is `O(1)` (Similarity) or `O(k)` (Diversity) and a
//!   coverage probe touches only the candidate's non-zero cover words,
//!   with zero heap allocation, instead of a full recompute per candidate;
//! * the scan never visits a candidate whose support cannot clear the
//!   slot's coverage bound: candidates are kept in descending support
//!   order, the ones that can pass form a prefix found by binary search,
//!   and that prefix's objectives are filled in one branch-free pass over
//!   contiguous columns. Exact coverage is probed only for a candidate
//!   that would become the best move. The chosen move, and therefore
//!   every solution and [`RheStats`] count except `scanned`, is exactly
//!   the one a candidate-by-candidate scan in index order picks;
//! * restarts are embarrassingly parallel and fan out over the shared
//!   worker pool (up to [`parallel::num_threads`] workers; no per-solve
//!   OS-thread spawn). Every restart derives its own RNG from
//!   `(seed, restart)`, so the result is **bit-identical for any thread
//!   count** — the cache key and regression baselines never depend on the
//!   machine's core count.
//!
//! When the coverage constraint is provably unachievable (even the `k`
//! largest covers fall short), the solver *relaxes* the constraint to the
//! achievable maximum and reports `meets_coverage = false`, mirroring how
//! the demo degrades gracefully on obscure queries rather than failing.

use crate::budget::Budget;
use crate::error::MineError;
use crate::eval::{Move, SelectionEval};
use crate::parallel;
use crate::problem::{MiningProblem, Task};
use crate::solution::Solution;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Solver parameters.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RheParams {
    /// Number of random restarts.
    pub restarts: usize,
    /// Hill-climbing iteration cap per restart (a safety valve; climbs
    /// normally converge in far fewer steps).
    pub max_iterations: usize,
    /// RNG seed — results are deterministic in it (and independent of the
    /// thread count).
    pub seed: u64,
}

impl Default for RheParams {
    fn default() -> Self {
        RheParams {
            restarts: 8,
            max_iterations: 64,
            seed: 0xCAFE,
        }
    }
}

/// Solver telemetry for the experiment harness.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RheStats {
    /// Restarts executed.
    pub restarts: usize,
    /// Total hill-climbing iterations across restarts.
    pub iterations: usize,
    /// Objective evaluations performed.
    pub evaluations: usize,
    /// `(slot, candidate)` pairs the neighbour scan visited: for every
    /// slot, the candidates whose support passes the slot's bound gate.
    /// Deterministic for a given problem and seed, so it pins the scan's
    /// work exactly where wall-clock time cannot.
    pub scanned: usize,
}

/// Solves a task with RHE. Returns `None` only for an empty candidate pool.
pub fn solve(problem: &MiningProblem<'_>, task: Task, params: &RheParams) -> Option<Solution> {
    solve_with_stats(problem, task, params).map(|(s, _)| s)
}

/// Like [`solve`] under a request [`Budget`]: every climb iteration
/// checks the deadline and an expired budget aborts the whole solve with
/// [`MineError::DeadlineExceeded`] — never a partially-climbed solution,
/// so the answer (when one is produced) is bit-identical to an
/// un-deadlined run.
pub fn solve_budget(
    problem: &MiningProblem<'_>,
    task: Task,
    params: &RheParams,
    budget: &Budget,
) -> Result<Option<Solution>, MineError> {
    solve_with_stats_budget(problem, task, params, budget).map(|r| r.map(|(s, _)| s))
}

/// Like [`solve`], also returning telemetry. Restarts fan out over the
/// shared worker pool, up to [`parallel::num_threads`] workers (sized by
/// `MAPRAT_THREADS` at first use) — except on small candidate pools,
/// where a restart converges faster than the fan-out it would have to
/// amortize, so the solve stays inline. The cut-over affects scheduling
/// only; results are identical.
pub fn solve_with_stats(
    problem: &MiningProblem<'_>,
    task: Task,
    params: &RheParams,
) -> Option<(Solution, RheStats)> {
    solve_with_stats_budget(problem, task, params, &Budget::unlimited())
        .expect("an unlimited budget never expires")
}

/// Like [`solve_with_stats`] under a request [`Budget`] (see
/// [`solve_budget`] for the deadline contract).
pub fn solve_with_stats_budget(
    problem: &MiningProblem<'_>,
    task: Task,
    params: &RheParams,
    budget: &Budget,
) -> Result<Option<(Solution, RheStats)>, MineError> {
    let threads = if problem.pool_size() >= 64 {
        parallel::num_threads()
    } else {
        1
    };
    solve_with_threads_budget(problem, task, params, threads, budget)
}

/// Like [`solve_with_stats`] with an explicit worker-thread cap. The
/// returned solution and telemetry are identical for every `threads`
/// value — parallelism only changes wall-clock time.
pub fn solve_with_threads(
    problem: &MiningProblem<'_>,
    task: Task,
    params: &RheParams,
    threads: usize,
) -> Option<(Solution, RheStats)> {
    solve_with_threads_budget(problem, task, params, threads, &Budget::unlimited())
        .expect("an unlimited budget never expires")
}

/// The fully-general entry point: explicit thread cap *and* budget.
/// Restarts cut short by the deadline abort the whole solve — partial
/// climbs are discarded rather than compared, so the winning solution
/// never depends on where the clock happened to land.
pub fn solve_with_threads_budget(
    problem: &MiningProblem<'_>,
    task: Task,
    params: &RheParams,
    threads: usize,
    budget: &Budget,
) -> Result<Option<(Solution, RheStats)>, MineError> {
    let m = problem.pool_size();
    if m == 0 {
        return Ok(None);
    }
    let k = problem.selection_size();

    // Effective coverage target: relax when provably unachievable.
    let achievable = problem.max_achievable_coverage();
    let target = if achievable + 1e-12 >= problem.min_coverage {
        problem.min_coverage
    } else {
        achievable - 1e-9
    };

    let runs = parallel::parallel_map(params.restarts, threads, |restart| {
        run_restart(problem, task, k, target, restart, params, budget)
    });

    let mut stats = RheStats::default();
    let mut best: Option<Solution> = None;
    for run in runs {
        let Some((solution, run_stats)) = run else {
            return Err(MineError::DeadlineExceeded);
        };
        stats.restarts += run_stats.restarts;
        stats.iterations += run_stats.iterations;
        stats.evaluations += run_stats.evaluations;
        stats.scanned += run_stats.scanned;
        let better = match &best {
            None => true,
            Some(b) => {
                // Feasibility first, then objective.
                (solution.meets_coverage, solution.objective) > (b.meets_coverage, b.objective)
            }
        };
        if better {
            best = Some(solution);
        }
    }
    Ok(best.map(|s| (s, stats)))
}

/// One independent restart: derive the restart's RNG, build an initial
/// selection, climb to a local optimum. Returns the solution and the
/// restart's telemetry, or `None` when `budget` expired mid-climb (the
/// caller then aborts the whole solve — see [`solve_with_threads_budget`]).
fn run_restart(
    problem: &MiningProblem<'_>,
    task: Task,
    k: usize,
    target: f64,
    restart: usize,
    params: &RheParams,
    budget: &Budget,
) -> Option<(Solution, RheStats)> {
    if budget.expired() {
        return None;
    }
    let mut rng = StdRng::seed_from_u64(restart_seed(params.seed, restart));
    let mut eval = SelectionEval::new(problem);
    initial_selection(problem, task, k, target, restart, &mut rng, &mut eval);
    let mut current_obj = eval.objective(task);
    let mut stats = RheStats {
        restarts: 1,
        evaluations: 1,
        ..RheStats::default()
    };
    let mut objs = vec![0.0; problem.pool_size()];

    for _ in 0..params.max_iterations {
        if budget.expired() {
            return None;
        }
        stats.iterations += 1;
        match best_move(
            problem,
            task,
            &mut eval,
            target,
            current_obj,
            &mut objs,
            &mut stats,
        ) {
            Some((mv, obj)) => {
                eval.apply(mv);
                current_obj = obj;
            }
            None => break, // local optimum
        }
    }

    let solution = Solution::evaluate(problem, task, eval.selection().to_vec());
    Some((solution, stats))
}

/// Mixes `(seed, restart)` into an independent per-restart seed
/// (SplitMix64 finalizer), so restarts are decorrelated and schedulable
/// in any order on any thread.
fn restart_seed(seed: u64, restart: usize) -> u64 {
    let mut z = seed ^ (restart as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Builds an initial selection into `eval`. Restarts cycle through three
/// strategies so the climbs start in genuinely different basins:
///
/// 0. *objective-greedy*: greedily extend by the candidate (from a random
///    sample) that maximizes the task objective — lands near consistency /
///    disagreement hot-spots;
/// 1. *coverage-greedy*: maximize marginal coverage — lands feasible;
/// 2. *uniform random* + coverage repair — pure exploration.
fn initial_selection(
    problem: &MiningProblem<'_>,
    task: Task,
    k: usize,
    target: f64,
    restart: usize,
    rng: &mut StdRng,
    eval: &mut SelectionEval<'_, '_>,
) {
    let m = problem.pool_size();
    match restart % 3 {
        0 => objective_greedy(problem, task, k, rng, eval),
        1 => coverage_greedy(problem, k, rng, eval),
        _ => {
            let mut all: Vec<usize> = (0..m).collect();
            all.shuffle(rng);
            all.truncate(k);
            eval.reset(&all);
            repair_coverage(problem, target, rng, eval);
        }
    }
}

/// Randomized greedy construction on the task objective itself.
fn objective_greedy(
    problem: &MiningProblem<'_>,
    task: Task,
    k: usize,
    rng: &mut StdRng,
    eval: &mut SelectionEval<'_, '_>,
) {
    let m = problem.pool_size();
    let sample = (m / 2).clamp(1, 64);
    eval.reset(&[]);
    for _ in 0..k {
        let mut best_idx = None;
        let mut best_obj = f64::NEG_INFINITY;
        for _ in 0..sample {
            let c = rng.gen_range(0..m);
            if eval.contains(c) {
                continue;
            }
            let obj = eval.probe_objective(task, Move::Add { candidate: c });
            if obj > best_obj {
                best_obj = obj;
                best_idx = Some(c);
            }
        }
        if let Some(c) = best_idx {
            eval.apply(Move::Add { candidate: c });
        }
    }
    if eval.is_empty() {
        eval.apply(Move::Add {
            candidate: rng.gen_range(0..m),
        });
    }
}

/// Randomized greedy max-coverage construction: each step picks the best of
/// a small random sample of candidates by marginal coverage.
fn coverage_greedy(
    problem: &MiningProblem<'_>,
    k: usize,
    rng: &mut StdRng,
    eval: &mut SelectionEval<'_, '_>,
) {
    let m = problem.pool_size();
    let sample = (m / 4).clamp(1, 32);
    eval.reset(&[]);
    for _ in 0..k {
        let mut best_idx = None;
        let mut best_gain = 0usize;
        for _ in 0..sample {
            let c = rng.gen_range(0..m);
            if eval.contains(c) {
                continue;
            }
            let gain = eval.probe_covered(Move::Add { candidate: c });
            if best_idx.is_none() || gain > best_gain {
                best_idx = Some(c);
                best_gain = gain;
            }
        }
        if let Some(c) = best_idx {
            eval.apply(Move::Add { candidate: c });
        }
    }
    if eval.is_empty() {
        eval.apply(Move::Add {
            candidate: rng.gen_range(0..m),
        });
    }
}

/// Swaps members for higher-coverage candidates until the target is met (or
/// no progress is possible). Coverage is read from the evaluator's running
/// union — no per-iteration bitmap allocation.
fn repair_coverage(
    problem: &MiningProblem<'_>,
    target: f64,
    rng: &mut StdRng,
    eval: &mut SelectionEval<'_, '_>,
) {
    let groups = problem.candidates();
    for _ in 0..eval.len() * 4 {
        if eval.coverage() + 1e-12 >= target {
            break;
        }
        // Replace the member with the smallest cover by a random candidate
        // with a larger cover.
        let (weakest_pos, _) = eval
            .selection()
            .iter()
            .enumerate()
            .min_by_key(|(_, &i)| groups[i].support())
            .expect("non-empty selection");
        let replacement = rng.gen_range(0..problem.pool_size());
        if !eval.contains(replacement)
            && groups[replacement].support() > groups[eval.selection()[weakest_pos]].support()
        {
            eval.apply(Move::Swap {
                pos: weakest_pos,
                candidate: replacement,
            });
        }
    }
}

/// Scans the neighbourhood — swap one member, drop one member, or add one
/// candidate (respecting `|S| ≤ k`) — and returns the best feasible
/// improving move, if any, adding its work to `stats`.
///
/// The phase sets the rules. Once the climb is feasible, a move must
/// raise the objective by more than `1e-12` and keep coverage at the
/// target. While it is infeasible, a move must reach the target or
/// strictly raise coverage, whatever it does to the objective; drops
/// (whose union can only shrink) never qualify. Among qualifying moves
/// the highest objective wins, and an exact tie goes to the move the
/// index-order scan meets first: drop before swaps within a slot, earlier
/// slot first, lower candidate index first, adds last.
///
/// Each slot (and the add "slot") has a coverage base — the union of the
/// other members, or the current union for adds — and a candidate whose
/// support cannot lift that base to the phase's bound is skipped unseen.
/// Candidates are kept in descending support order, so those passing the
/// bound are a prefix found by one binary search; the prefix's objectives
/// are filled in one pass by
/// [`SelectionEval::probe_objectives_by_support`]. Only a candidate that
/// beats the best move so far *and* whose coverage is not already
/// guaranteed by the base pays for an exact union count.
fn best_move(
    problem: &MiningProblem<'_>,
    task: Task,
    eval: &mut SelectionEval<'_, '_>,
    target: f64,
    current_obj: f64,
    objs: &mut [f64],
    stats: &mut RheStats,
) -> Option<(Move, f64)> {
    let universe = problem.cube().universe().max(1) as f64;
    let m = problem.pool_size();
    let k = eval.len();
    let current_cov = eval.coverage();
    let cols = &problem.cols.by_support;

    // Both coverage predicates are monotone in the integer covered count,
    // so they reduce to one integer threshold each, derived once here: a
    // float guess locally adjusted against the *original* predicate, so
    // every decision stays bit-identical to the division form
    // (`(a + b) as f64` and `a as f64 + b as f64` agree exactly for
    // integer counts).
    let max_count = 2 * problem.cube().universe() + 2;
    let int_threshold = |guess: f64, passes: &dyn Fn(usize) -> bool| -> usize {
        let mut t = (guess.max(0.0) as usize).min(max_count);
        while t > 0 && passes(t - 1) {
            t -= 1;
        }
        while t < max_count && !passes(t) {
            t += 1;
        }
        // `t == max_count` means "no reachable count passes": every
        // gated sum is at most `2 · universe < max_count`.
        t
    };
    // `x ≥ target_min  ⟺  x/universe + 1e-12 ≥ target`.
    let target_min = int_threshold(target * universe, &|x| {
        x as f64 / universe + 1e-12 >= target
    });
    // `gate_min`: the covered count a move's upper bound (base + support)
    // must reach to be scanned. `accept_min`: the exact covered count a
    // scanned move must reach. `floor`: the objective it must beat.
    let (gate_min, accept_min, floor) = if current_cov + 1e-12 >= target {
        (target_min, target_min, current_obj + 1e-12)
    } else {
        // `x ≥ beats_min  ⟺  x/universe > current_cov + 1e-12`.
        let beats_min = int_threshold(current_cov * universe, &|x| {
            x as f64 / universe > current_cov + 1e-12
        });
        (beats_min, target_min.min(beats_min), f64::NEG_INFINITY)
    };

    // `key` is the move's position in the index-order scan.
    let mut best: Option<(Move, f64, usize)> = None;
    let beats = |best: &Option<(Move, f64, usize)>, obj: f64, key: usize| match *best {
        None => obj > floor,
        Some((_, best_obj, best_key)) => obj > best_obj || (obj == best_obj && key < best_key),
    };
    let slots = if k < problem.max_groups { k + 1 } else { k };
    for slot in 0..slots {
        let pos = (slot < k).then_some(slot);
        let base = match pos {
            Some(pos) => eval.probe_covered(Move::Drop { pos }),
            None => eval.covered_count(),
        };
        // A base already at the bar makes every move in the slot
        // acceptable on coverage. While infeasible it never is: the base
        // is at most the current count, which is below both thresholds.
        let base_ok = base >= accept_min;
        let key0 = slot * (m + 1);
        if let Some(pos) = pos {
            if k > 1 && base_ok {
                let mv = Move::Drop { pos };
                stats.evaluations += 1;
                let obj = eval.probe_objective(task, mv);
                if beats(&best, obj, key0) {
                    best = Some((mv, obj, key0));
                }
            }
        }
        let need = gate_min.saturating_sub(base);
        let len = cols.passing(need);
        let members_in = eval
            .selection()
            .iter()
            .filter(|&&j| problem.cols.cand_support[j] as usize >= need)
            .count();
        stats.scanned += len;
        stats.evaluations += len - members_in;
        let objs = &mut objs[..len];
        eval.probe_objectives_by_support(task, pos, objs);
        for (&obj, &candidate) in objs.iter().zip(&cols.index) {
            let candidate = candidate as usize;
            let key = key0 + 1 + candidate;
            if !beats(&best, obj, key) || eval.contains(candidate) {
                continue;
            }
            let mv = match pos {
                Some(pos) => Move::Swap { pos, candidate },
                None => Move::Add { candidate },
            };
            if base_ok || eval.probe_covered(mv) >= accept_min {
                best = Some((mv, obj, key));
            }
        }
    }
    best.map(|(mv, obj, _)| (mv, obj))
}

#[cfg(test)]
mod tests {
    use super::*;
    use maprat_cube::{CubeOptions, RatingCube};
    use maprat_data::synth::{generate, SynthConfig};

    /// The index-order neighbour scan that `best_move` replaced, kept as
    /// its oracle: it visits every `(slot, candidate)` pair and gates each
    /// candidate on its own.
    fn reference_best_move(
        problem: &MiningProblem<'_>,
        task: Task,
        eval: &mut SelectionEval<'_, '_>,
        target: f64,
        current_obj: f64,
        evaluations: &mut usize,
    ) -> Option<(Move, f64)> {
        let universe = problem.cube().universe().max(1) as f64;
        let m = problem.pool_size();
        let k = eval.len();
        let current_cov = eval.coverage();
        let current_feasible = current_cov + 1e-12 >= target;
        let mut best: Option<(Move, f64)> = None;

        // The scan visits every candidate `k + 1` times per climb step; a
        // float division in the bound gate would dominate the whole sweep.
        // Both gate predicates are monotone in the integer covered count, so
        // they reduce to one integer threshold each, derived once here: a
        // float guess locally adjusted against the *original* predicate, so
        // every decision stays bit-identical to the division form
        // (`(a + b) as f64` and `a as f64 + b as f64` agree exactly for
        // integer counts).
        let max_count = 2 * problem.cube().universe() + 2;
        let int_threshold = |guess: f64, passes: &dyn Fn(usize) -> bool| -> usize {
            let mut t = (guess.max(0.0) as usize).min(max_count);
            while t > 0 && passes(t - 1) {
                t -= 1;
            }
            while t < max_count && !passes(t) {
                t += 1;
            }
            // `t == max_count` means "no reachable count passes": every
            // gated sum is at most `2 · universe < max_count`.
            t
        };
        // `x ≥ target_min  ⟺  x/universe + 1e-12 ≥ target`.
        let target_min = int_threshold(target * universe, &|x| {
            x as f64 / universe + 1e-12 >= target
        });

        if current_feasible {
            // Feasible phase: only the objective is compared.
            let consider = |mv: Move,
                            eval: &SelectionEval<'_, '_>,
                            evaluations: &mut usize,
                            best: &mut Option<(Move, f64)>| {
                *evaluations += 1;
                let obj = eval.probe_objective(task, mv);
                if obj > current_obj + 1e-12 {
                    let better = match best {
                        None => true,
                        Some((_, best_obj)) => obj > *best_obj,
                    };
                    if better {
                        *best = Some((mv, obj));
                    }
                }
            };
            // The scans read candidate supports from the problem's columnar
            // `cand_support` array (L1-resident) instead of striding the fat
            // `CandidateGroup` structs — several times less memory touched
            // per sweep.
            let supports = &problem.cols.cand_support;
            for pos in 0..k {
                // The rest-union count decides drops exactly and bounds swaps
                // from both sides: rest alone feasible ⇒ every swap at this
                // slot is feasible; rest plus the candidate's support short of
                // the target ⇒ the swap is provably infeasible. Only the
                // narrow in-between band pays for an exact union count.
                let rest_count = eval.probe_covered(Move::Drop { pos });
                let slot_feasible = rest_count >= target_min;
                if k > 1 && slot_feasible {
                    consider(Move::Drop { pos }, eval, evaluations, &mut best);
                }
                for (candidate, &support) in supports.iter().enumerate() {
                    if eval.contains(candidate) {
                        continue;
                    }
                    if !slot_feasible && rest_count + (support as usize) < target_min {
                        continue;
                    }
                    // Objective first: a candidate that does not beat both
                    // the current objective and the best move found so far
                    // can never be selected, so only objective
                    // record-breakers pay for an exact coverage probe. The
                    // accepted set (feasible ∧ better) is a conjunction —
                    // evaluating it in this order picks the same move.
                    let mv = Move::Swap { pos, candidate };
                    *evaluations += 1;
                    let obj = eval.probe_objective(task, mv);
                    let better = obj > current_obj + 1e-12
                        && match best {
                            None => true,
                            Some((_, best_obj)) => obj > best_obj,
                        };
                    if better && (slot_feasible || eval.probe_covered(mv) >= target_min) {
                        best = Some((mv, obj));
                    }
                }
            }
            // Adds never shrink the union, so they inherit feasibility.
            if k < problem.max_groups {
                for candidate in 0..m {
                    if eval.contains(candidate) {
                        continue;
                    }
                    consider(Move::Add { candidate }, eval, evaluations, &mut best);
                }
            }
            return best;
        }

        // Infeasible phase: coverage drives the climb. A move improves iff
        // it reaches feasibility or strictly raises coverage; drops (whose
        // union can only shrink) are never improving, and a swap or add
        // whose disjoint-union *upper* bound — the other members' rest count
        // plus the candidate's support — cannot beat the current coverage is
        // skipped before any bitmap work.
        //
        // `x ≥ beats_min  ⟺  x/universe > current_cov + 1e-12` (the strict
        // complement of the old `upper <= current_cov + 1e-12` skip).
        let beats_min = int_threshold(current_cov * universe, &|x| {
            x as f64 / universe > current_cov + 1e-12
        });
        // Objective first, as in the feasible phase: only objective
        // record-breakers pay for an exact coverage probe (accepting requires
        // improving ∧ better, a conjunction — same move either order).
        let consider_improving = |mv: Move,
                                  eval: &mut SelectionEval<'_, '_>,
                                  evaluations: &mut usize,
                                  best: &mut Option<(Move, f64)>| {
            *evaluations += 1;
            let obj = eval.probe_objective(task, mv);
            let better = match best {
                None => true,
                Some((_, best_obj)) => obj > *best_obj,
            };
            if better {
                let cov_count = eval.probe_covered(mv);
                if cov_count >= target_min || cov_count >= beats_min {
                    *best = Some((mv, obj));
                }
            }
        };

        let supports = &problem.cols.cand_support;
        for pos in 0..k {
            let rest_count = eval.probe_covered(Move::Drop { pos });
            for (candidate, &support) in supports.iter().enumerate() {
                if eval.contains(candidate) {
                    continue;
                }
                if rest_count + (support as usize) < beats_min {
                    continue;
                }
                let mv = Move::Swap { pos, candidate };
                consider_improving(mv, eval, evaluations, &mut best);
            }
        }
        // Add moves.
        if k < problem.max_groups {
            let covered = eval.covered_count();
            for (candidate, &support) in supports.iter().enumerate() {
                if eval.contains(candidate) {
                    continue;
                }
                if covered + (support as usize) < beats_min {
                    continue;
                }
                let mv = Move::Add { candidate };
                consider_improving(mv, eval, evaluations, &mut best);
            }
        }

        best
    }

    fn fixture(seed: u64, geo: bool) -> (maprat_data::Dataset, RatingCube) {
        let dataset = generate(&SynthConfig::tiny(seed)).unwrap();
        let item = dataset.find_title("Toy Story").unwrap();
        let idx: Vec<u32> = dataset.rating_range_for_item(item).collect();
        let cube = RatingCube::build(
            &dataset,
            idx,
            CubeOptions {
                min_support: 3,
                require_geo: geo,
                max_arity: 3,
            },
        );
        (dataset, cube)
    }

    #[test]
    fn shared_pool_columns_solve_bit_identically() {
        // One columns build serves every k/α re-solve of a cube: each
        // solve over it matches a fresh `MiningProblem::new` in solution
        // bits and in solver work.
        for geo in [false, true] {
            let (_, cube) = fixture(71, geo);
            let columns = std::sync::Arc::new(crate::problem::PoolColumns::new(&cube));
            for k in 1..=6 {
                for step in 0..=9 {
                    let alpha = step as f64 / 10.0;
                    let fresh = MiningProblem::new(&cube, k, alpha, 0.5);
                    let shared = MiningProblem::with_columns(
                        &cube,
                        std::sync::Arc::clone(&columns),
                        k,
                        alpha,
                        0.5,
                    );
                    for task in Task::ALL {
                        let params = RheParams::default();
                        let (a, a_stats) = solve_with_stats(&fresh, task, &params).unwrap();
                        let (b, b_stats) = solve_with_stats(&shared, task, &params).unwrap();
                        let at = format!("geo={geo} k={k} alpha={alpha} {task:?}");
                        assert_eq!(a.indices, b.indices, "{at}");
                        assert_eq!(a.objective.to_bits(), b.objective.to_bits(), "{at}");
                        assert_eq!(a.coverage.to_bits(), b.coverage.to_bits(), "{at}");
                        assert_eq!(a.meets_coverage, b.meets_coverage, "{at}");
                        assert_eq!(a_stats, b_stats, "{at}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "pool columns built for another cube")]
    fn pool_columns_of_another_cube_are_rejected() {
        let (_, plain) = fixture(71, false);
        let (_, geo) = fixture(71, true);
        assert_ne!(plain.len(), geo.len());
        let columns = std::sync::Arc::new(crate::problem::PoolColumns::new(&plain));
        let _ = MiningProblem::with_columns(&geo, columns, 3, 0.2, 0.5);
    }

    #[test]
    fn solutions_respect_constraints() {
        let (_, cube) = fixture(71, false);
        let p = MiningProblem::new(&cube, 3, 0.3, 0.5);
        for task in Task::ALL {
            let s = solve(&p, task, &RheParams::default()).unwrap();
            assert!(s.indices.len() <= 3);
            if s.meets_coverage {
                assert!(s.coverage + 1e-9 >= 0.3);
            }
            let unique: std::collections::HashSet<_> = s.indices.iter().collect();
            assert_eq!(unique.len(), s.indices.len(), "no duplicate groups");
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let (_, cube) = fixture(72, false);
        let p = MiningProblem::new(&cube, 3, 0.2, 0.5);
        let a = solve(&p, Task::Similarity, &RheParams::default()).unwrap();
        let b = solve(&p, Task::Similarity, &RheParams::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_restarts_match_single_thread_bit_for_bit() {
        let (_, cube) = fixture(78, false);
        let p = MiningProblem::new(&cube, 3, 0.25, 0.5);
        let params = RheParams {
            restarts: 7,
            ..Default::default()
        };
        for task in Task::ALL {
            let (single, single_stats) = solve_with_threads(&p, task, &params, 1).unwrap();
            for threads in [2, 4, 16] {
                let (multi, multi_stats) = solve_with_threads(&p, task, &params, threads).unwrap();
                assert_eq!(single, multi, "{task:?} diverged at {threads} threads");
                assert_eq!(single_stats, multi_stats, "{task:?} telemetry diverged");
            }
        }
    }

    #[test]
    fn more_restarts_never_hurt() {
        let (_, cube) = fixture(73, false);
        let p = MiningProblem::new(&cube, 3, 0.2, 0.5);
        let few = solve(
            &p,
            Task::Similarity,
            &RheParams {
                restarts: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let many = solve(
            &p,
            Task::Similarity,
            &RheParams {
                restarts: 16,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(many.objective >= few.objective - 1e-12);
    }

    #[test]
    fn unachievable_coverage_relaxes() {
        let (_, cube) = fixture(74, true);
        // α = 0.999 with k = 1 group is unachievable on geo candidates.
        let p = MiningProblem::new(&cube, 1, 0.999, 0.5);
        let s = solve(&p, Task::Similarity, &RheParams::default()).unwrap();
        assert!(!s.meets_coverage);
        assert!(!s.indices.is_empty());
    }

    #[test]
    fn empty_pool_returns_none() {
        let dataset = generate(&SynthConfig::tiny(75)).unwrap();
        let cube = RatingCube::build(&dataset, Vec::new(), CubeOptions::default());
        let p = MiningProblem::new(&cube, 3, 0.2, 0.5);
        assert!(solve(&p, Task::Similarity, &RheParams::default()).is_none());
    }

    #[test]
    fn diversity_solutions_actually_disagree() {
        let dataset = generate(&SynthConfig::small(76)).unwrap();
        let item = dataset.find_title("The Twilight Saga: Eclipse").unwrap();
        let idx: Vec<u32> = dataset.rating_range_for_item(item).collect();
        let cube = RatingCube::build(
            &dataset,
            idx,
            CubeOptions {
                min_support: 5,
                require_geo: false,
                max_arity: 2,
            },
        );
        let p = MiningProblem::new(&cube, 2, 0.1, 0.5);
        let s = solve(&p, Task::Diversity, &RheParams::default()).unwrap();
        assert_eq!(s.indices.len(), 2);
        let means: Vec<f64> = s.indices.iter().map(|&i| cube.groups()[i].mean()).collect();
        assert!(
            (means[0] - means[1]).abs() > 1.5,
            "planted controversy should yield a wide gap, got {means:?}"
        );
    }

    #[test]
    fn telemetry_counts_work() {
        let (_, cube) = fixture(77, false);
        let p = MiningProblem::new(&cube, 3, 0.2, 0.5);
        let (_, stats) = solve_with_stats(&p, Task::Similarity, &RheParams::default()).unwrap();
        assert_eq!(stats.restarts, RheParams::default().restarts);
        assert!(stats.evaluations > stats.restarts);
    }

    #[test]
    fn budget_solve_matches_unbudgeted_solve_bit_for_bit() {
        let (_, cube) = fixture(79, false);
        let p = MiningProblem::new(&cube, 3, 0.25, 0.5);
        let params = RheParams::default();
        for task in Task::ALL {
            let plain = solve_with_stats(&p, task, &params).unwrap();
            let generous = Budget::from_deadline_ms(120_000);
            let budgeted = solve_with_stats_budget(&p, task, &params, &generous)
                .expect("generous deadline must not expire")
                .unwrap();
            assert_eq!(plain, budgeted, "{task:?} diverged under a live budget");
        }
    }

    #[test]
    fn expired_budget_aborts_with_deadline_exceeded() {
        let (_, cube) = fixture(80, false);
        let p = MiningProblem::new(&cube, 3, 0.25, 0.5);
        let expired = Budget::with_deadline(std::time::Duration::ZERO);
        for task in Task::ALL {
            let r = solve_with_stats_budget(&p, task, &RheParams::default(), &expired);
            assert_eq!(r, Err(MineError::DeadlineExceeded));
        }
        // Empty pools still report "no candidates" (None), not a timeout.
        let dataset = generate(&SynthConfig::tiny(75)).unwrap();
        let empty = RatingCube::build(&dataset, Vec::new(), CubeOptions::default());
        let p = MiningProblem::new(&empty, 3, 0.2, 0.5);
        assert_eq!(
            solve_with_stats_budget(&p, Task::Similarity, &RheParams::default(), &expired),
            Ok(None)
        );
    }

    #[test]
    fn restart_seeds_are_decorrelated() {
        let s: std::collections::HashSet<u64> = (0..64).map(|r| restart_seed(0xCAFE, r)).collect();
        assert_eq!(s.len(), 64, "restart seeds must not collide");
        assert_ne!(restart_seed(1, 0), restart_seed(2, 0));
    }

    /// Runs the support-ordered scan and the index-order oracle from the
    /// same state; they must pick the same move with the same objective
    /// bits after the same number of objective evaluations.
    fn scans_agree(
        problem: &MiningProblem<'_>,
        task: Task,
        eval: &mut SelectionEval<'_, '_>,
        target: f64,
    ) -> Option<(Move, f64)> {
        let current_obj = eval.objective(task);
        let mut expected_evaluations = 0;
        let expected = reference_best_move(
            problem,
            task,
            eval,
            target,
            current_obj,
            &mut expected_evaluations,
        );
        let mut stats = RheStats::default();
        let mut objs = vec![0.0; problem.pool_size()];
        let got = best_move(
            problem,
            task,
            eval,
            target,
            current_obj,
            &mut objs,
            &mut stats,
        );
        let bits = |r: Option<(Move, f64)>| r.map(|(mv, obj)| (mv, obj.to_bits()));
        assert_eq!(
            bits(got),
            bits(expected),
            "{task:?} from {:?}",
            eval.selection()
        );
        assert_eq!(stats.evaluations, expected_evaluations, "{task:?}");
        assert!(stats.scanned <= (eval.len() + 1) * problem.pool_size());
        got
    }

    /// Climbs from `start`, checking every step against the oracle.
    /// Returns how many steps started infeasible and feasible.
    fn climb_agrees(
        problem: &MiningProblem<'_>,
        task: Task,
        start: &[usize],
        target: f64,
        mut on_step: impl FnMut(&mut SelectionEval<'_, '_>, Option<Move>),
    ) -> [usize; 2] {
        let mut eval = SelectionEval::new(problem);
        eval.reset(start);
        let mut phases = [0; 2];
        for _ in 0..64 {
            phases[usize::from(eval.coverage() + 1e-12 >= target)] += 1;
            let chosen = scans_agree(problem, task, &mut eval, target).map(|(mv, _)| mv);
            on_step(&mut eval, chosen);
            match chosen {
                Some(mv) => eval.apply(mv),
                None => break,
            }
        }
        phases
    }

    fn random_selection(rng: &mut StdRng, m: usize, k: usize) -> Vec<usize> {
        let mut all: Vec<usize> = (0..m).collect();
        all.shuffle(rng);
        all.truncate(rng.gen_range(1..=k.min(m)));
        all
    }

    fn shared_dataset() -> &'static maprat_data::Dataset {
        static DATASET: std::sync::OnceLock<maprat_data::Dataset> = std::sync::OnceLock::new();
        DATASET.get_or_init(|| generate(&SynthConfig::tiny(2024)).unwrap())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Random cubes, budgets, coverage targets, tasks and starting
        /// selections: every climb step of the support-ordered scan
        /// matches the index-order oracle in both phases.
        #[test]
        fn support_ordered_scan_matches_index_order_scan(
            title_idx in 0usize..4,
            min_support in 2usize..6,
            max_arity in 1usize..4,
            geo in 0usize..2,
            k in 1usize..7,
            alpha in 0.0f64..0.9,
            task_idx in 0usize..2,
            seed in 0u64..10_000,
        ) {
            const TITLES: [&str; 4] = [
                "Toy Story",
                "The Twilight Saga: Eclipse",
                "Forrest Gump",
                "Saving Private Ryan",
            ];
            let d = shared_dataset();
            let item = d.find_title(TITLES[title_idx]).unwrap();
            let cube = RatingCube::build(
                d,
                d.rating_range_for_item(item).collect(),
                CubeOptions { min_support, require_geo: geo == 1, max_arity },
            );
            if cube.is_empty() {
                return Ok(());
            }
            let problem = MiningProblem::new(&cube, k, alpha, 0.5);
            let mut rng = StdRng::seed_from_u64(seed);
            let start = random_selection(&mut rng, problem.pool_size(), k);
            climb_agrees(&problem, Task::ALL[task_idx], &start, alpha, |_, _| {});
        }
    }

    /// Every move the scan may choose from the current state, in scan
    /// order, with its objective — the phase rules restated by brute
    /// force over the whole neighbourhood.
    fn qualifying_moves(
        problem: &MiningProblem<'_>,
        task: Task,
        eval: &mut SelectionEval<'_, '_>,
        target: f64,
    ) -> Vec<(usize, Move, f64)> {
        let universe = problem.cube().universe().max(1) as f64;
        let current_cov = eval.coverage();
        let feasible = current_cov + 1e-12 >= target;
        let current_obj = eval.objective(task);
        let reaches = |count: usize| count as f64 / universe + 1e-12 >= target;
        let raises = |count: usize| count as f64 / universe > current_cov + 1e-12;
        let k = eval.len();
        let slots = if k < problem.max_groups { k + 1 } else { k };
        let mut out = Vec::new();
        for slot in 0..slots {
            let base = if slot < k {
                eval.probe_covered(Move::Drop { pos: slot })
            } else {
                eval.covered_count()
            };
            let mut moves = Vec::new();
            if slot < k && k > 1 {
                moves.push(Move::Drop { pos: slot });
            }
            for candidate in (0..problem.pool_size()).filter(|&c| !eval.contains(c)) {
                moves.push(if slot < k {
                    Move::Swap {
                        pos: slot,
                        candidate,
                    }
                } else {
                    Move::Add { candidate }
                });
            }
            for mv in moves {
                let obj = eval.probe_objective(task, mv);
                let count = eval.probe_covered(mv);
                let qualifies = if feasible {
                    obj > current_obj + 1e-12 && reaches(count)
                } else {
                    match mv {
                        Move::Drop { .. } => false,
                        Move::Swap { candidate, .. } | Move::Add { candidate } => {
                            let support = problem.candidates()[candidate].support();
                            raises(base + support) && (reaches(count) || raises(count))
                        }
                    }
                };
                if qualifies {
                    out.push((slot, mv, obj));
                }
            }
        }
        out
    }

    #[test]
    fn duplicate_candidates_break_ties_in_scan_order() {
        let d = shared_dataset();
        let item = d.find_title("Toy Story").unwrap();
        let cube = RatingCube::build(
            d,
            d.rating_range_for_item(item).collect(),
            CubeOptions {
                min_support: 2,
                require_geo: false,
                max_arity: 3,
            },
        );
        let p = MiningProblem::new(&cube, 4, 0.3, 0.5);
        // Candidates sharing `(n, mad, mean)` bit for bit.
        let mut twins: std::collections::HashMap<(u64, u64, u64), Vec<usize>> =
            std::collections::HashMap::new();
        for i in 0..p.pool_size() {
            let (n, mad, mean) = p.cand(i);
            twins
                .entry((n.to_bits(), mad.to_bits(), mean.to_bits()))
                .or_default()
                .push(i);
        }
        let pairs: Vec<Vec<usize>> = twins.into_values().filter(|v| v.len() > 1).collect();
        assert!(pairs.len() >= 4, "fixture needs duplicates, got {pairs:?}");

        let mut across_slots = 0;
        let mut among_adds = 0;
        let mut rng = StdRng::seed_from_u64(83);
        for round in 0..24 {
            let task = Task::ALL[round % 2];
            let target = [0.05, 0.3, 0.6][round % 3];
            let k = 2 + round % 3;
            let p = MiningProblem::new(&cube, k, target, 0.5);
            // Start on a twin pair so two slots hold identical members,
            // leaving room for adds on every other round.
            let twin = &pairs[rng.gen_range(0..pairs.len())];
            let mut start = vec![twin[0], twin[1]];
            let size = if (round / 2) % 2 == 0 { k } else { 2 };
            for c in random_selection(&mut rng, p.pool_size(), k) {
                if start.len() < size && !start.contains(&c) {
                    start.push(c);
                }
            }
            climb_agrees(&p, task, &start, target, |eval, chosen| {
                let moves = qualifying_moves(&p, task, eval, target);
                let top = moves.iter().map(|m| m.2).fold(f64::NEG_INFINITY, f64::max);
                let tied: Vec<_> = moves.iter().filter(|m| m.2 == top).collect();
                assert_eq!(chosen, tied.first().map(|m| m.1), "first of the tied moves");
                if tied.iter().any(|m| m.0 != tied[0].0) {
                    across_slots += 1;
                }
                if tied
                    .iter()
                    .filter(|m| matches!(m.1, Move::Add { .. }))
                    .count()
                    > 1
                {
                    among_adds += 1;
                }
            });
        }
        assert!(across_slots > 0, "no tie across slots was exercised");
        assert!(among_adds > 0, "no tie among adds was exercised");
    }

    /// Exact work of two fixed solves. `iterations` and `evaluations`
    /// equal the index-order scan's, so a change here means the search
    /// itself changed; `scanned` pins how much of the pool the bound
    /// gates let through.
    #[test]
    fn scan_work_counters_are_pinned() {
        let (_, cube) = fixture(82, false);
        let p = MiningProblem::new(&cube, 5, 0.45, 0.5);
        let work: Vec<(usize, usize, usize)> = Task::ALL
            .iter()
            .map(|&task| {
                let (_, s) = solve_with_threads(&p, task, &RheParams::default(), 1).unwrap();
                (s.iterations, s.evaluations, s.scanned)
            })
            .collect();
        assert_eq!(work, vec![(67, 14341, 15479), (41, 9528, 10275)]);
    }
}
