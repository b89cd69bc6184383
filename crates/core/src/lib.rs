//! MapRat's core contribution: *meaningful explanation* of collaborative
//! ratings via Similarity Mining and Diversity Mining (§2.2), solved with
//! the Randomized Hill Exploration algorithm of the companion MRI paper
//! (Das et al., PVLDB 4(11), 2011).
//!
//! Given a set of items selected by an [`query::ItemQuery`], the
//! [`miner::Miner`] collects the rating tuples `R_I`, materializes the
//! candidate group pool through `maprat-cube`, and solves two constrained
//! optimization problems over subsets of at most `k` groups that must
//! jointly cover a fraction `α` of `R_I`:
//!
//! * **Similarity Mining** maximizes within-group rating consistency
//!   (equivalently, minimizes the *description error* — the mean absolute
//!   deviation of covered ratings from their group averages);
//! * **Diversity Mining** maximizes the average pairwise gap between group
//!   means, penalized by within-group error so each group remains
//!   internally consistent.
//!
//! Both problems are NP-hard; [`rhe`] implements the randomized-restart
//! hill-climbing solver, and [`greedy`], [`random`], [`exhaustive`] and
//! [`anneal`] (a simulated-annealing extension) provide the baselines
//! used by the experiment harness.
//!
//! All solvers share the incremental [`eval::SelectionEval`] — running
//! aggregates that price a swap/add/drop probe at `O(k + universe/64)`
//! with zero allocation — and the RHE restarts fan out deterministically
//! over the shared worker [`pool`] (via the [`parallel`] façade), so no
//! per-solve OS thread is ever spawned.

#![warn(missing_docs)]

pub mod anneal;
pub mod budget;
pub mod error;
pub mod eval;
pub mod exhaustive;
pub mod greedy;
pub mod miner;
pub mod parallel;
pub mod problem;
pub mod query;
pub mod random;
pub mod rhe;
pub mod settings;
pub mod solution;

/// The shared worker pool (re-export of the [`maprat_pool`] leaf crate,
/// which was extracted from this module so the cube layer below can fan
/// out on the same substrate; every pre-split `maprat_core::pool` call
/// site keeps compiling).
pub use maprat_pool as pool;

pub use budget::Budget;
pub use error::MineError;
pub use eval::SelectionEval;
pub use miner::{Explanation, Miner};
pub use problem::{MiningProblem, PoolColumns, Task};
pub use rhe::{RheParams, RheStats};
pub use settings::{SearchSettings, SearchSettingsBuilder};
pub use solution::{ExplainedGroup, Interpretation, Solution};
