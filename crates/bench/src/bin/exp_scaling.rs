//! EXT-SCALING — end-to-end explain latency as `|R_I|` and the candidate
//! pool grow, plus the exact-vs-approximate crossover the sampling layer
//! exists for (docs/APPROX.md).
//!
//! Section 1 times the exact pipeline's components (cube build, RHE per
//! task) per universe size. Section 2 races the exact cold explain
//! against the stratified-sampling path (`MAPRAT_SAMPLE_FRAC`-style
//! frac 0.1) at every size, verifies the reported confidence intervals
//! contain the exact group means, and records where sampling starts
//! paying for itself — at `--scale huge` (10M ratings) the approximate
//! answer must be ≥10× faster than the exact one.
//!
//! Shape expectations: cube build is linear-ish in `|R_I|`; RHE cost grows
//! with the pool (universe-sized bitmap unions dominate); total stays
//! interactive at MovieLens scale; every approx bound contains the exact
//! mean it estimates.
//!
//! Run: `cargo run --release -p maprat-bench --bin exp_scaling
//! [-- [out.json] [--check] [--scale huge] [--baseline committed.json
//! [--max-regress 0.5]]]` (default output: `BENCH_scaling_head.json` —
//! deliberately *not* the committed `BENCH_pr9.json` baseline, so a bare
//! local run can never clobber what the gate compares against).

use maprat_approx::{ApproxInfo, StratifiedSampler, DEFAULT_CONFIDENCE};
use maprat_bench::args::{unmatched_flag, usage_error};
use maprat_bench::gate::GateArgs;
use maprat_bench::timing::{ms, time_once};
use maprat_bench::{dataset, table::Table, Scale, ShapeCheck};
use maprat_core::query::ItemQuery;
use maprat_core::{parallel, rhe, Miner, MiningProblem, RheParams, SearchSettings, Task};
use maprat_cube::{CubeOptions, RatingCube};
use std::fmt::Write as _;

/// The sampling fraction the crossover is measured at — the
/// `MAPRAT_SAMPLE_FRAC` default, so the bench reports what the serving
/// default would do.
const FRAC: f64 = 0.1;

/// The metrics the CI `quick-bench` gate fails on.
const GATED_KEYS: [&str; 2] = ["exact_cold_ms", "approx_cold_ms"];

/// One crossover measurement.
struct CrossoverRow {
    n: usize,
    exact_ms: f64,
    approx_ms: f64,
    achieved_frac: f64,
    max_half_width: f64,
    joined: usize,
    contained: usize,
    exhaustive: bool,
}

const BIN: &str = "exp_scaling";
const USAGE: &str = "usage: exp_scaling [out.json] [--check] [--scale tiny|small|full|huge] \
[--baseline committed.json [--max-regress R]]";

fn main() {
    let mut out_path: Option<String> = None;
    let mut gate = GateArgs::new(0.5);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if gate
            .accept(&arg, &mut args)
            .unwrap_or_else(|e| usage_error(BIN, &e))
        {
            continue;
        }
        match arg.as_str() {
            "--scale" => {
                args.next(); // consumed by Scale::from_args_or_env
            }
            "--check" => {} // read by check_mode
            bare if !bare.starts_with("--") => out_path = Some(bare.to_string()),
            flag => unmatched_flag(BIN, USAGE, flag),
        }
    }
    let out_path = out_path.unwrap_or_else(|| "BENCH_scaling_head.json".to_string());
    let scale = Scale::from_args_or_env();

    let mut check = ShapeCheck::new();
    let d = dataset();
    let item = d.find_title("Toy Story").expect("planted");
    let full: Vec<u32> = d.rating_range_for_item(item).collect();

    // Grow |R_I| by prefix-slicing the item's (time-ordered) ratings, then
    // top up with every other item's ratings for the larger sizes (at
    // `huge` scale the top-up reaches multi-million-rating universes).
    let mut universe: Vec<u32> = full.clone();
    for other in d.items() {
        if other.id != item {
            universe.extend(d.rating_range_for_item(other.id));
        }
    }
    let sizes: Vec<usize> = [
        500usize, 2_000, 8_000, 32_000, 128_000, 512_000, 2_048_000, 8_192_000,
    ]
    .into_iter()
    .filter(|&n| n <= universe.len())
    .collect();

    println!(
        "=== EXT-SCALING: cost vs |R_I| (universe available: {}) ===\n",
        universe.len()
    );
    let mut t = Table::new([
        "|R_I|",
        "pool",
        "cube ms",
        "RHE(SM) ms",
        "RHE(DM) ms",
        "total ms",
    ]);
    let mut rows: Vec<(usize, f64)> = Vec::new();

    for &n in &sizes {
        let slice: Vec<u32> = universe[..n].to_vec();
        let (cube, cube_time) = time_once(|| {
            RatingCube::build(
                d,
                slice.clone(),
                CubeOptions {
                    min_support: 5.max(n / 2000),
                    require_geo: false,
                    max_arity: 2,
                },
            )
        });
        let problem = MiningProblem::new(&cube, 3, 0.15, 0.5);
        let params = RheParams::default();
        let (_, sm_time) = time_once(|| rhe::solve(&problem, Task::Similarity, &params));
        let (_, dm_time) = time_once(|| rhe::solve(&problem, Task::Diversity, &params));
        let total = cube_time + sm_time + dm_time;
        rows.push((n, total.as_secs_f64()));
        t.row([
            n.to_string(),
            cube.len().to_string(),
            ms(cube_time),
            ms(sm_time),
            ms(dm_time),
            ms(total),
        ]);
    }
    t.print();

    // Shape checks: super-linear blowup would break interactivity.
    if rows.len() >= 3 {
        let (n0, t0) = rows[0];
        let (n_last, t_last) = rows[rows.len() - 1];
        let growth = (t_last / t0.max(1e-9)) / (n_last as f64 / n0 as f64);
        println!("\ncost growth per unit of |R_I| growth: {growth:.2}× (≈1 is linear)");
        check.expect(
            "total cost grows at most ~quadratically in |R_I|",
            growth < (n_last as f64 / n0 as f64), // strictly below n² behaviour
        );
    }
    check.expect(
        "largest configuration stays interactive (< 30 s)",
        rows.last().is_some_and(|&(_, t)| t < 30.0),
    );

    // === Exact vs approximate crossover (docs/APPROX.md) ===
    //
    // Per size, the exact cold path (cube over the full slice + both
    // solves) races the sampled path (stratified sample at FRAC + cube
    // over the sample + both solves + bound computation). Containment is
    // checked by joining each reported group bound against the exact
    // cube's group of the same token.
    println!("\n=== EXT-SCALING: exact vs approx cold explain (frac {FRAC}) ===\n");
    let mut settings = SearchSettings::default()
        .with_min_coverage(0.15)
        .with_require_geo(false);
    settings.max_arity = 2;
    let query = ItemQuery::title("Toy Story");
    let items = query.items(d);
    let miner = Miner::new(d);
    let mut t2 = Table::new([
        "|R_I|",
        "exact ms",
        "approx ms",
        "speedup",
        "read frac",
        "max ±",
        "contained",
    ]);
    let mut cross: Vec<CrossoverRow> = Vec::new();

    for &n in &sizes {
        let slice: Vec<u32> = universe[..n].to_vec();
        let min_support = 5.max(n / 2000);
        settings.min_support = min_support;

        // Exact cold path.
        let (exact_cube, exact_cube_time) = time_once(|| {
            RatingCube::build(
                d,
                slice.clone(),
                CubeOptions {
                    min_support,
                    require_geo: false,
                    max_arity: 2,
                },
            )
        });
        let (_exact, exact_mine_time) = time_once(|| {
            miner
                .explain_cube(&query, items.clone(), &exact_cube, &settings)
                .expect("exact explain")
        });
        let exact_ms = (exact_cube_time + exact_mine_time).as_secs_f64() * 1e3;

        // Approximate cold path: sample + sampled cube + solves + bounds
        // (including the validation-sample pass the bounds are priced on).
        let ((_approx, info), approx_time) = time_once(|| {
            let sampler = StratifiedSampler::new(FRAC, settings.rhe.seed);
            let sample = sampler.sample(d, &slice);
            // Same support-density threshold as the engine: scale the
            // iceberg floor by the fraction actually read.
            let scaled = ((min_support as f64) * sample.achieved_frac())
                .round()
                .max(1.0) as usize;
            let cube = RatingCube::build(
                d,
                sample.rating_idx.clone(),
                CubeOptions {
                    min_support: scaled,
                    require_geo: false,
                    max_arity: 2,
                },
            );
            let e = miner
                .explain_cube(&query, items.clone(), &cube, &settings)
                .expect("approx explain");
            let validation = sampler.validation().sample(d, &slice);
            let info = ApproxInfo::for_explanation(d, &e, &sample, &validation);
            (e, info)
        });
        let approx_ms = approx_time.as_secs_f64() * 1e3;

        // Containment: every reported interval must hold the group's
        // exact mean over the full slice (looked up in the exact cube by
        // token; groups the exact cube pruned are skipped).
        let mut joined = 0usize;
        let mut contained = 0usize;
        for bounds in [&info.similarity, &info.diversity] {
            for b in &bounds.groups {
                let exact_mean = exact_cube
                    .groups()
                    .iter()
                    .find(|g| g.desc.token() == b.token)
                    .and_then(|g| g.stats.mean());
                if let Some(m) = exact_mean {
                    joined += 1;
                    if b.contains(m) {
                        contained += 1;
                    }
                }
            }
        }

        let exhaustive = info.sampled >= info.population;
        t2.row([
            n.to_string(),
            format!("{exact_ms:.2}"),
            format!("{approx_ms:.2}"),
            format!("{:.2}×", exact_ms / approx_ms.max(1e-9)),
            format!("{:.3}", info.achieved_frac),
            format!("{:.3}", info.max_half_width()),
            format!("{contained}/{joined}"),
        ]);
        cross.push(CrossoverRow {
            n,
            exact_ms,
            approx_ms,
            achieved_frac: info.achieved_frac,
            max_half_width: info.max_half_width(),
            joined,
            contained,
            exhaustive,
        });
    }
    t2.print();

    let last = cross.last().expect("at least one size");
    let speedup = last.exact_ms / last.approx_ms.max(1e-9);
    println!(
        "\ncrossover at |R_I| = {}: exact {:.2} ms vs approx {:.2} ms ({speedup:.2}× speedup, read {:.1}% of R_I)",
        last.n,
        last.exact_ms,
        last.approx_ms,
        last.achieved_frac * 100.0
    );

    // The intervals are 95% *per group*: across a table of a few dozen
    // bounds a fixed seed is expected to produce the occasional ~2-SE
    // near-miss, so the shape check asserts the containment *rate* the
    // contract promises, not perfection.
    let joined: usize = cross.iter().map(|r| r.joined).sum();
    let contained: usize = cross.iter().map(|r| r.contained).sum();
    println!(
        "bound containment: {contained}/{joined} ({:.0}% nominal per-interval)",
        DEFAULT_CONFIDENCE * 100.0
    );
    check.expect(
        "≥85% of approx bounds contain their exact group mean",
        contained as f64 >= 0.85 * joined as f64,
    );
    check.expect(
        "every size joined at least one group against the exact cube",
        cross.iter().all(|r| r.joined > 0),
    );
    // Small slices are singleton-strata heavy and the one-per-stratum
    // floor reads most of them — sampling only pays off once strata fill
    // up, which is the crossover the table shows. Only the big scales
    // get hard latency expectations.
    if matches!(scale, Scale::Full | Scale::Huge) {
        check.expect("largest universe samples a strict subset", !last.exhaustive);
        check.expect(
            "approx is faster than exact at the largest universe",
            last.approx_ms < last.exact_ms,
        );
    }
    if scale == Scale::Huge {
        check.expect(
            "approx cold explain ≥10× faster than exact at huge scale",
            speedup >= 10.0,
        );
    }

    // Machine-readable snapshot (largest universe = the headline numbers).
    let snapshot_label: String = std::path::Path::new(&out_path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("BENCH")
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect();
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"snapshot\": \"{snapshot_label}\",");
    let _ = writeln!(json, "  \"scale\": \"{}\",", scale.name());
    let _ = writeln!(json, "  \"threads\": {},", parallel::num_threads());
    let _ = writeln!(json, "  \"sample_frac\": {FRAC},");
    let _ = writeln!(json, "  \"largest_universe\": {},", last.n);
    let _ = writeln!(json, "  \"exact_cold_ms\": {:.4},", last.exact_ms);
    let _ = writeln!(json, "  \"approx_cold_ms\": {:.4},", last.approx_ms);
    let _ = writeln!(json, "  \"speedup\": {speedup:.4},");
    let _ = writeln!(json, "  \"achieved_frac\": {:.6},", last.achieved_frac);
    let _ = writeln!(json, "  \"max_half_width\": {:.6},", last.max_half_width);
    let _ = writeln!(
        json,
        "  \"bound_containment\": {:.6}",
        if joined == 0 {
            1.0
        } else {
            contained as f64 / joined as f64
        }
    );
    let _ = writeln!(json, "}}");
    std::fs::write(&out_path, &json).expect("write scaling snapshot");
    println!("\nwrote {out_path}:\n{json}");

    gate.enforce(&json, &GATED_KEYS, 16);
    check.finish();
}
