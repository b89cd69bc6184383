//! Deterministic stratified sampling of `R_I` by packed base-cell profile.
//!
//! The reviewer schema is fully enumerable — every rating already carries
//! its reviewer's 15-bit [`PackedUserCode`] in a dense column of its item's
//! chunk ([`maprat_data::RatingChunk::user_codes`]) — so stratum assignment is a counting
//! pass, not a join: the stratum of a rating IS its packed demographic
//! profile. Stratifying on the base cell means every nonempty demographic
//! cell of `R_I` keeps at least one representative in the sample
//! (allocation is `max(1, ceil(frac · N_s))` per stratum), so rare cells
//! that an unstratified sample would wipe out survive and the cube built
//! on the sample still materializes their ancestors.
//!
//! # Determinism
//!
//! Sampling is *systematic within stratum*: the ratings of stratum `s`
//! are ranked in dataset order, and rank `r` is selected iff
//!
//! ```text
//! floor(((r+1)·n_s + φ_s) / N_s)  >  floor((r·n_s + φ_s) / N_s)
//! ```
//!
//! where `N_s` is the stratum population, `n_s` the allocation, and the
//! phase `φ_s ∈ [0, N_s)` is a hash of `(seed, s)` — selecting exactly
//! `n_s` ranks with an O(1) integer membership test and **no data-dependent
//! RNG stream**. Both passes (count, select) run over fixed-size position
//! chunks whose results are merged in chunk order, so the selected set is
//! bit-identical for any worker count; the determinism CI matrix pins
//! this.
//!
//! ```
//! use maprat_approx::StratifiedSampler;
//! use maprat_data::synth::{generate, SynthConfig};
//!
//! let d = generate(&SynthConfig::tiny(7)).unwrap();
//! let all: Vec<u32> = (0..d.num_ratings() as u32).collect();
//! let sample = StratifiedSampler::new(0.2, 42).sample(&d, &all);
//! // Every nonempty stratum keeps at least one rating…
//! assert!(sample.strata.iter().all(|s| s.sampled >= 1));
//! // …and the same inputs reproduce the same sample exactly.
//! let again = StratifiedSampler::new(0.2, 42).sample(&d, &all);
//! assert_eq!(sample.rating_idx, again.rating_idx);
//! ```

use maprat_data::packed::PackedUserCode;
use maprat_data::Dataset;
use maprat_pool::parallel_map;

/// Number of possible strata: one per 15-bit packed profile.
pub const STRATUM_SPACE: usize = 1 << PackedUserCode::BITS;

/// Fixed chunk width (in universe positions) for both parallel passes.
/// Chunking by a constant — not by worker count — is what makes the
/// selected set independent of `MAPRAT_THREADS`.
const CHUNK: usize = 1 << 20;

/// One nonempty stratum of a [`StratifiedSample`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StratumSummary {
    /// The packed demographic profile shared by the stratum's ratings.
    pub code: u16,
    /// Ratings of `R_I` in this stratum.
    pub population: u32,
    /// Ratings selected into the sample (`max(1, ceil(frac · population))`).
    pub sampled: u32,
}

/// The output of [`StratifiedSampler::sample`]: the selected subset of the
/// input universe plus the per-stratum census the bound computation needs.
#[derive(Debug, Clone)]
pub struct StratifiedSample {
    /// Selected rating indexes — a subset of the input, in input order.
    pub rating_idx: Vec<u32>,
    /// Size of the input universe (`|R_I|`).
    pub population: usize,
    /// Nonempty strata in ascending code order, with exact populations.
    pub strata: Vec<StratumSummary>,
    /// The sampling fraction that was asked for (clamped to `[0, 1]`).
    pub requested_frac: f64,
    /// The seed the per-stratum phases were derived from.
    pub seed: u64,
}

impl StratifiedSample {
    /// Number of selected ratings.
    pub fn sampled(&self) -> usize {
        self.rating_idx.len()
    }

    /// The fraction actually achieved (≥ requested: per-stratum ceilings
    /// and the one-per-stratum floor round the allocation up).
    pub fn achieved_frac(&self) -> f64 {
        if self.population == 0 {
            return 0.0;
        }
        self.rating_idx.len() as f64 / self.population as f64
    }

    /// Whether the sample is the whole universe (nothing was skipped) —
    /// callers should fall back to the exact path when this holds.
    pub fn is_exhaustive(&self) -> bool {
        self.rating_idx.len() == self.population
    }

    /// Exact number of input ratings whose packed profile satisfies
    /// `pred` — a census query over the stratum table, no rescan.
    pub fn population_where(&self, pred: impl Fn(PackedUserCode) -> bool) -> u64 {
        self.strata
            .iter()
            .filter(|s| pred(PackedUserCode::from_raw(s.code)))
            .map(|s| u64::from(s.population))
            .sum()
    }
}

/// The seed- and fraction-independent half of a stratified sample: the
/// per-stratum populations of a universe plus each chunk's starting
/// rank per stratum (the prefix sums Pass B seeds its Bresenham
/// counters from).
///
/// The census is the sampler's only full pass over `R_I` whose output
/// does not move with the seed (`seed_changes_selection_but_not_census`
/// pins this), so serving layers memoize one census per query and share
/// it between the primary sample, its paired validation sample, and
/// every later sampled explain of the same universe.
#[derive(Debug, Clone)]
pub struct StratumCensus {
    population: Vec<u32>,
    chunk_start_rank: Vec<Vec<u32>>,
    n: usize,
}

impl StratumCensus {
    /// Runs the census pass (Pass A plus the chunk-order fold) over a
    /// universe with the process-default worker count.
    pub fn over(dataset: &Dataset, rating_idx: &[u32]) -> StratumCensus {
        Self::over_with_threads(dataset, rating_idx, maprat_pool::num_threads())
    }

    /// Like [`StratumCensus::over`] with an explicit worker-count cap.
    /// Bit-identical for every `threads` value (fixed-size chunks merged
    /// in chunk order).
    pub fn over_with_threads(dataset: &Dataset, rating_idx: &[u32], threads: usize) -> Self {
        let n = rating_idx.len();
        let chunks = n.div_ceil(CHUNK);

        // Pass A — census: per-chunk stratum counts over the u16 profile
        // column (no user-table chasing).
        let chunk_counts: Vec<Vec<u32>> = parallel_map(chunks, threads, |c| {
            let mut counts = vec![0u32; STRATUM_SPACE];
            let mut cursor = dataset.cursor();
            for &r in &rating_idx[c * CHUNK..((c + 1) * CHUNK).min(n)] {
                let (chunk, at) = cursor.locate(r);
                counts[usize::from(chunk.user_codes()[at])] += 1;
            }
            counts
        });

        // Fold in chunk order: global populations plus each chunk's
        // starting rank per stratum (the prefix sums).
        let mut population = vec![0u32; STRATUM_SPACE];
        let mut chunk_start_rank: Vec<Vec<u32>> = Vec::with_capacity(chunks);
        for counts in &chunk_counts {
            chunk_start_rank.push(population.clone());
            for (p, c) in population.iter_mut().zip(counts) {
                *p += *c;
            }
        }
        StratumCensus {
            population,
            chunk_start_rank,
            n,
        }
    }

    /// Size of the censused universe (`|R_I|`).
    pub fn population(&self) -> usize {
        self.n
    }

    /// Number of nonempty strata.
    pub fn strata(&self) -> usize {
        self.population.iter().filter(|&&p| p > 0).count()
    }
}

/// Deterministic stratified sampler over a rating universe.
///
/// See the [module docs](self) for the scheme. The same `(frac, seed,
/// universe)` triple always yields the same sample, on any machine and
/// any worker count.
#[derive(Debug, Clone, Copy)]
pub struct StratifiedSampler {
    frac: f64,
    seed: u64,
}

impl StratifiedSampler {
    /// Creates a sampler targeting `frac` of each stratum (clamped to
    /// `[0, 1]`; every nonempty stratum contributes at least one rating).
    pub fn new(frac: f64, seed: u64) -> Self {
        let frac = if frac.is_finite() {
            frac.clamp(0.0, 1.0)
        } else {
            1.0
        };
        StratifiedSampler { frac, seed }
    }

    /// The clamped sampling fraction.
    pub fn frac(&self) -> f64 {
        self.frac
    }

    /// The seed phases are derived from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The paired *validation* sampler: same fraction (hence the same
    /// per-stratum allocations and census), but phases derived from an
    /// independent seed. Mining selects groups on the primary sample;
    /// computing their error bounds from this second sample removes the
    /// winner's-curse bias of estimating a group from the very draw that
    /// made it look extreme (see `docs/APPROX.md`).
    pub fn validation(&self) -> StratifiedSampler {
        StratifiedSampler {
            frac: self.frac,
            seed: splitmix64(self.seed ^ VALIDATION_SALT),
        }
    }

    /// Samples `rating_idx` with the process-default worker count.
    pub fn sample(&self, dataset: &Dataset, rating_idx: &[u32]) -> StratifiedSample {
        self.sample_with_threads(dataset, rating_idx, maprat_pool::num_threads())
    }

    /// Samples `rating_idx` with an explicit worker-count cap. The result
    /// is bit-identical for every `threads` value.
    pub fn sample_with_threads(
        &self,
        dataset: &Dataset,
        rating_idx: &[u32],
        threads: usize,
    ) -> StratifiedSample {
        let census = StratumCensus::over_with_threads(dataset, rating_idx, threads);
        self.sample_with_census(dataset, rating_idx, &census, threads)
    }

    /// Samples `rating_idx` reusing a memoized [`StratumCensus`] of the
    /// same universe, skipping Pass A entirely. Bit-identical to
    /// [`StratifiedSampler::sample_with_threads`] — the census is seed-
    /// and fraction-independent, so one census serves every sampler over
    /// the universe (the engine shares it between the primary and
    /// validation samples and across repeated sampled explains).
    ///
    /// # Panics
    /// Debug-asserts that the census was taken over a universe of the
    /// same size; a mismatched census would silently mis-select.
    pub fn sample_with_census(
        &self,
        dataset: &Dataset,
        rating_idx: &[u32],
        census: &StratumCensus,
        threads: usize,
    ) -> StratifiedSample {
        debug_assert_eq!(
            census.n,
            rating_idx.len(),
            "census universe size must match the sampled universe"
        );
        let n = rating_idx.len();
        if n == 0 {
            return StratifiedSample {
                rating_idx: Vec::new(),
                population: 0,
                strata: Vec::new(),
                requested_frac: self.frac,
                seed: self.seed,
            };
        }
        let chunks = n.div_ceil(CHUNK);
        let population = &census.population;
        let chunk_start_rank = &census.chunk_start_rank;

        // Per-stratum allocation and phase. `max(1, ceil(frac·N_s))`
        // guarantees rare cells survive; the phase is a pure function of
        // (seed, stratum) so no RNG state crosses strata or chunks.
        let mut alloc = vec![0u32; STRATUM_SPACE];
        let mut phase = vec![0u32; STRATUM_SPACE];
        for s in 0..STRATUM_SPACE {
            let pop = population[s];
            if pop == 0 {
                continue;
            }
            let want = (self.frac * f64::from(pop)).ceil() as u64;
            alloc[s] = want.clamp(1, u64::from(pop)) as u32;
            phase[s] = (splitmix64(self.seed ^ (s as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                % u64::from(pop)) as u32;
        }

        // Pass B — systematic selection, Bresenham form: per stratum keep
        // rem = (rank·n_s + φ_s) mod N_s and select whenever adding n_s
        // carries past N_s. Each chunk seeds its counters from the fold's
        // prefix ranks, so chunks are independent and order-merged.
        let picks: Vec<Vec<u32>> = parallel_map(chunks, threads, |c| {
            let lo = c * CHUNK;
            let hi = ((c + 1) * CHUNK).min(n);
            let start = &chunk_start_rank[c];
            let mut rem = vec![0u64; STRATUM_SPACE];
            for s in 0..STRATUM_SPACE {
                if population[s] == 0 {
                    continue;
                }
                rem[s] = ((u128::from(start[s]) * u128::from(alloc[s]) + u128::from(phase[s]))
                    % u128::from(population[s])) as u64;
            }
            let mut out = Vec::with_capacity((hi - lo) / 8 + 16);
            let mut cursor = dataset.cursor();
            for &r in &rating_idx[lo..hi] {
                let (chunk, at) = cursor.locate(r);
                let s = usize::from(chunk.user_codes()[at]);
                let next = rem[s] + u64::from(alloc[s]);
                if next >= u64::from(population[s]) {
                    rem[s] = next - u64::from(population[s]);
                    out.push(r);
                } else {
                    rem[s] = next;
                }
            }
            out
        });

        let mut selected = Vec::with_capacity(picks.iter().map(Vec::len).sum());
        for p in picks {
            selected.extend(p);
        }
        let strata: Vec<StratumSummary> = (0..STRATUM_SPACE)
            .filter(|&s| population[s] > 0)
            .map(|s| StratumSummary {
                code: s as u16,
                population: population[s],
                sampled: alloc[s],
            })
            .collect();
        debug_assert_eq!(
            selected.len() as u64,
            strata.iter().map(|s| u64::from(s.sampled)).sum::<u64>(),
            "systematic selection must hit every stratum allocation exactly"
        );
        StratifiedSample {
            rating_idx: selected,
            population: n,
            strata,
            requested_frac: self.frac,
            seed: self.seed,
        }
    }
}

/// Domain separator between a sampler's phase stream and its paired
/// validation sampler's phase stream.
const VALIDATION_SALT: u64 = 0xC0FF_EE11_D15C_0E5A;

/// SplitMix64 finalizer — the phase hash.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use maprat_data::synth::{generate, SynthConfig};

    fn dataset() -> Dataset {
        generate(&SynthConfig::tiny(11)).unwrap()
    }

    fn full_universe(d: &Dataset) -> Vec<u32> {
        (0..d.num_ratings() as u32).collect()
    }

    /// Every rating's packed code, in rating-index order.
    fn flat_codes(d: &Dataset) -> Vec<u16> {
        d.items()
            .iter()
            .flat_map(|it| d.chunk(it.id).user_codes().iter().copied())
            .collect()
    }

    #[test]
    fn sample_is_ordered_subset_with_exact_allocations() {
        let d = dataset();
        let idx = full_universe(&d);
        let s = StratifiedSampler::new(0.15, 1).sample(&d, &idx);
        assert_eq!(s.population, idx.len());
        assert!(s.sampled() < s.population);
        // Subset, strictly increasing (input order preserved).
        assert!(s.rating_idx.windows(2).all(|w| w[0] < w[1]));
        // Per-stratum counts in the output match the declared allocations.
        let codes = flat_codes(&d);
        let mut got = vec![0u32; STRATUM_SPACE];
        for &r in &s.rating_idx {
            got[codes[r as usize] as usize] += 1;
        }
        for st in &s.strata {
            assert_eq!(got[st.code as usize], st.sampled, "code {}", st.code);
            assert!(st.sampled >= 1);
            assert!(st.sampled <= st.population);
        }
        // Census totals cover the whole universe.
        let total: u64 = s.strata.iter().map(|st| u64::from(st.population)).sum();
        assert_eq!(total, idx.len() as u64);
    }

    #[test]
    fn worker_count_does_not_change_the_sample() {
        let d = dataset();
        let idx = full_universe(&d);
        let sampler = StratifiedSampler::new(0.1, 99);
        let single = sampler.sample_with_threads(&d, &idx, 1);
        for threads in [2, 4, 16] {
            let multi = sampler.sample_with_threads(&d, &idx, threads);
            assert_eq!(single.rating_idx, multi.rating_idx, "threads={threads}");
            assert_eq!(single.strata, multi.strata, "threads={threads}");
        }
    }

    #[test]
    fn seed_changes_selection_but_not_census() {
        let d = dataset();
        let idx = full_universe(&d);
        let a = StratifiedSampler::new(0.1, 1).sample(&d, &idx);
        let b = StratifiedSampler::new(0.1, 2).sample(&d, &idx);
        assert_eq!(a.strata, b.strata, "census is seed-independent");
        assert_eq!(a.sampled(), b.sampled(), "allocations are seed-independent");
        assert_ne!(a.rating_idx, b.rating_idx, "phases move with the seed");
    }

    #[test]
    fn full_fraction_is_exhaustive_and_zero_keeps_one_per_stratum() {
        let d = dataset();
        let idx = full_universe(&d);
        let all = StratifiedSampler::new(1.0, 5).sample(&d, &idx);
        assert!(all.is_exhaustive());
        assert_eq!(all.rating_idx, idx);
        let floor = StratifiedSampler::new(0.0, 5).sample(&d, &idx);
        assert_eq!(floor.sampled(), floor.strata.len(), "one per stratum");
    }

    #[test]
    fn memoized_census_reproduces_the_direct_sample() {
        // One census serves every (seed, frac) sampler over the universe
        // bit-identically — the contract the engine's census memo rests on.
        let d = dataset();
        let idx = full_universe(&d);
        let census = StratumCensus::over(&d, &idx);
        assert_eq!(census.population(), idx.len());
        assert!(census.strata() >= 1);
        for (frac, seed) in [(0.1, 1u64), (0.25, 99), (0.0, 7)] {
            let sampler = StratifiedSampler::new(frac, seed);
            let direct = sampler.sample(&d, &idx);
            let via_census = sampler.sample_with_census(&d, &idx, &census, 1);
            assert_eq!(direct.rating_idx, via_census.rating_idx, "frac={frac}");
            assert_eq!(direct.strata, via_census.strata, "frac={frac}");
            let validation = sampler
                .validation()
                .sample_with_census(&d, &idx, &census, 1);
            assert_eq!(
                validation.rating_idx,
                sampler.validation().sample(&d, &idx).rating_idx,
                "validation shares the census"
            );
        }
    }

    #[test]
    fn empty_universe_yields_empty_sample() {
        let d = dataset();
        let s = StratifiedSampler::new(0.5, 3).sample(&d, &[]);
        assert_eq!(s.sampled(), 0);
        assert_eq!(s.population, 0);
        assert!(s.strata.is_empty());
        assert_eq!(s.achieved_frac(), 0.0);
    }

    #[test]
    fn census_query_matches_rescan() {
        let d = dataset();
        let idx = full_universe(&d);
        let s = StratifiedSampler::new(0.2, 8).sample(&d, &idx);
        let codes = flat_codes(&d);
        use maprat_data::UserAttr;
        let pred = |c: PackedUserCode| c.field(UserAttr::Gender) == 0;
        let by_census = s.population_where(pred);
        let by_scan = idx
            .iter()
            .filter(|&&r| pred(PackedUserCode::from_raw(codes[r as usize])))
            .count() as u64;
        assert_eq!(by_census, by_scan);
    }

    #[test]
    fn subset_of_universe_strata_shrink() {
        let d = dataset();
        let idx: Vec<u32> = (0..d.num_ratings() as u32).step_by(3).collect();
        let s = StratifiedSampler::new(0.25, 4).sample(&d, &idx);
        assert_eq!(s.population, idx.len());
        assert!(s.rating_idx.iter().all(|r| idx.contains(r)));
    }
}
