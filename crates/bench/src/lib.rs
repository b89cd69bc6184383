//! Shared harness for the figure-regeneration binaries and criterion
//! benches (deliverable (d); see EXPERIMENTS.md for the experiment index).
//!
//! Scale selection: the binaries default to the `small` preset (~80k
//! ratings, generates in under a second, recovers every planted scenario).
//! Set `MAPRAT_SCALE=full` for the MovieLens-1M-sized run the paper demoed
//! on, `MAPRAT_SCALE=huge` for the 10M-rating world the approximate-mining
//! crossover is measured on, or `MAPRAT_SCALE=tiny` for smoke tests. A
//! `--scale <name>` CLI flag overrides the environment, so scheduled CI
//! jobs can pin a scale per invocation without `env:` plumbing.

#![warn(missing_docs)]

pub mod args;
pub mod gate;
pub mod table;
pub mod timing;

use maprat_data::synth::{generate, SynthConfig};
use maprat_data::Dataset;
use std::sync::{Arc, OnceLock};

/// The benchmark dataset scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// ~6k ratings (smoke tests).
    Tiny,
    /// ~80k ratings (default).
    Small,
    /// ~1M ratings (MovieLens-1M sized).
    Full,
    /// ~10M ratings (the exact-vs-approximate crossover scale).
    Huge,
}

impl Scale {
    /// Parses a scale name (`tiny`/`small`/`full`/`huge`).
    pub fn parse(s: &str) -> Option<Scale> {
        match s.trim().to_ascii_lowercase().as_str() {
            "tiny" => Some(Scale::Tiny),
            "small" => Some(Scale::Small),
            "full" => Some(Scale::Full),
            "huge" => Some(Scale::Huge),
            _ => None,
        }
    }

    /// Reads `MAPRAT_SCALE` (default `small`).
    pub fn from_env() -> Scale {
        std::env::var("MAPRAT_SCALE")
            .ok()
            .as_deref()
            .and_then(Scale::parse)
            .unwrap_or(Scale::Small)
    }

    /// The scale the current invocation runs at: a `--scale <name>` (or
    /// `--scale=<name>`) CLI flag beats `MAPRAT_SCALE` beats the `small`
    /// default. The flag exists so one CI job can run several binaries at
    /// different scales without mutating the process environment.
    pub fn from_args_or_env() -> Scale {
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            if arg == "--scale" {
                if let Some(s) = args.next().as_deref().and_then(Scale::parse) {
                    return s;
                }
            } else if let Some(s) = arg.strip_prefix("--scale=").and_then(Scale::parse) {
                return s;
            }
        }
        Scale::from_env()
    }

    /// The generator configuration for this scale (seed 42 everywhere so
    /// every experiment sees the same world).
    pub fn config(self) -> SynthConfig {
        match self {
            Scale::Tiny => SynthConfig::tiny(42),
            Scale::Small => SynthConfig::small(42),
            Scale::Full => SynthConfig::movielens_1m(42),
            Scale::Huge => SynthConfig::huge(42),
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Full => "full (MovieLens-1M sized)",
            Scale::Huge => "huge (10M ratings)",
        }
    }
}

fn dataset_cell() -> &'static Arc<Dataset> {
    static DATASET: OnceLock<Arc<Dataset>> = OnceLock::new();
    DATASET.get_or_init(|| {
        let scale = Scale::from_args_or_env();
        eprintln!("[maprat-bench] generating {} dataset…", scale.name());
        let d = generate(&scale.config()).expect("synthetic generation cannot fail");
        eprintln!("[maprat-bench] {}", d.summary());
        Arc::new(d)
    })
}

/// The process-wide benchmark dataset at the environment-selected scale.
pub fn dataset() -> &'static Dataset {
    dataset_cell()
}

/// The canonical cube-bench universe: item rating ranges concatenated
/// until `n` positions, truncated to exactly `n` — the one workload
/// shape `bench_cube`, `bench_cube_build` and the perf-gate snapshot
/// all measure, so they cannot silently diverge.
pub fn cube_universe(dataset: &Dataset, n: usize) -> Vec<u32> {
    let mut universe: Vec<u32> = Vec::with_capacity(n);
    for item in dataset.items() {
        universe.extend(dataset.rating_range_for_item(item.id));
        if universe.len() >= n {
            break;
        }
    }
    universe.truncate(n);
    universe
}

/// The geo-required, full-arity materialization options the cube
/// benches and the perf-gate snapshot share.
pub fn cube_options_geo4() -> maprat_cube::CubeOptions {
    maprat_cube::CubeOptions {
        min_support: 5,
        require_geo: true,
        max_arity: 4,
    }
}

/// The attribute-free, arity-2 counterpart of [`cube_options_geo4`].
pub fn cube_options_free2() -> maprat_cube::CubeOptions {
    maprat_cube::CubeOptions {
        min_support: 5,
        require_geo: false,
        max_arity: 2,
    }
}

/// A shareable handle to the process-wide benchmark dataset — what
/// `MapRatEngine` construction wants.
pub fn dataset_arc() -> Arc<Dataset> {
    Arc::clone(dataset_cell())
}

/// Whether `--check` was passed: figure binaries then verify their shape
/// contract and exit non-zero on violation, so CI can smoke them.
pub fn check_mode() -> bool {
    std::env::args().any(|a| a == "--check")
}

/// Shape-contract helper: print and remember failures, used by `--check`.
#[derive(Debug, Default)]
pub struct ShapeCheck {
    failures: Vec<String>,
}

impl ShapeCheck {
    /// Fresh checker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Asserts a named condition.
    pub fn expect(&mut self, name: &str, ok: bool) {
        if ok {
            eprintln!("[check] ok: {name}");
        } else {
            eprintln!("[check] FAILED: {name}");
            self.failures.push(name.to_string());
        }
    }

    /// Exits non-zero when `--check` was requested and anything failed.
    pub fn finish(self) {
        if !check_mode() {
            return;
        }
        if self.failures.is_empty() {
            eprintln!("[check] all shape checks passed");
        } else {
            eprintln!(
                "[check] {} failure(s): {:?}",
                self.failures.len(),
                self.failures
            );
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_default_is_small() {
        // Do not mutate the environment (tests run in parallel); just
        // check the default path.
        if std::env::var("MAPRAT_SCALE").is_err() {
            assert_eq!(Scale::from_env(), Scale::Small);
        }
    }

    #[test]
    fn configs_scale() {
        assert!(Scale::Huge.config().num_ratings > Scale::Full.config().num_ratings);
        assert!(Scale::Full.config().num_ratings > Scale::Small.config().num_ratings);
        assert!(Scale::Small.config().num_ratings > Scale::Tiny.config().num_ratings);
    }

    #[test]
    fn scale_names_parse_round_trip() {
        for scale in [Scale::Tiny, Scale::Small, Scale::Full, Scale::Huge] {
            let word = scale.name().split_whitespace().next().unwrap();
            assert_eq!(Scale::parse(word), Some(scale));
            assert_eq!(Scale::parse(&word.to_uppercase()), Some(scale));
        }
        assert_eq!(Scale::parse("galactic"), None);
        // The test harness's own args carry no --scale flag, so the
        // arg-aware reader agrees with the env reader here.
        assert_eq!(Scale::from_args_or_env(), Scale::from_env());
    }

    #[test]
    fn shape_check_records_failures() {
        let mut c = ShapeCheck::new();
        c.expect("passes", true);
        c.expect("fails", false);
        assert_eq!(c.failures.len(), 1);
        // finish() only exits under --check; safe to call here.
        c.finish();
    }
}
