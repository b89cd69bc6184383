//! Spread mode: repeats every workload in rotated order, one seed per
//! round, and checks the run-to-run spread of each end-to-end metric
//! against its bound in `BENCHMARK.json`.
//!
//! `loadbench spread [--runs N] [--seconds S] [--seed B]` runs round `r`
//! with seed `B + r`, rotating which workload goes first. A metric is
//! steady when the distance between its first and third quartile, as a
//! share of its median, is below a third of its bound; `setup_s` is shown
//! but not judged. Exits non-zero when a run fails its checks or a spread
//! exceeds its bound.

use crate::stats::{median, quartiles, spread};
use maprat_server::Json;
use std::process::Command;

pub fn main(argv: &[String]) -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let bench = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| match bench.get(key) {
        Some(Json::Arr(items)) => items.clone(),
        _ => Vec::new(),
    };
    let workloads: Vec<String> = list("workloads")
        .iter()
        .filter_map(|w| w.get("name")?.as_str().map(String::from))
        .collect();
    let bounds: Vec<(String, f64)> = list("end_to_end")
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect();
    let mut runs = 10usize;
    let mut seconds = bench
        .get("run_seconds")
        .and_then(Json::as_f64)
        .unwrap_or(10.0);
    let mut seed = 1000u64;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--runs" => runs = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    // values[w][m] = one value per round
    let mut values = vec![vec![Vec::new(); bounds.len()]; workloads.len()];
    let mut failures = 0;
    for round in 0..runs {
        for k in 0..workloads.len() {
            let w = (round + k) % workloads.len();
            let run_seed = seed + round as u64;
            let output = Command::new(&exe)
                .args([
                    "--workload",
                    &workloads[w],
                    "--seed",
                    &run_seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                    "--trace",
                    "0",
                ])
                .output()
                .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let result = stdout.lines().last().and_then(|l| Json::parse(l).ok());
            let correct = result
                .as_ref()
                .and_then(|r| r.get("correct"))
                .is_some_and(|c| matches!(c, Json::Bool(true)));
            eprintln!(
                "round {round} {} seed {run_seed}: {}",
                workloads[w],
                if correct { "ok" } else { "FAILED" }
            );
            if !output.status.success() || !correct {
                failures += 1;
                continue;
            }
            let metrics = result.as_ref().and_then(|r| r.get("metrics"));
            for (m, (name, _)) in bounds.iter().enumerate() {
                if let Some(v) = metrics
                    .and_then(|ms| ms.get(name))
                    .and_then(|v| v.get("value"))
                    .and_then(Json::as_f64)
                {
                    values[w][m].push(v);
                }
            }
        }
    }
    println!(
        "{:<16} {:<18} {:>12} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "median", "q1", "q3", "spread", "bound"
    );
    let mut wide = 0;
    for (w, name) in workloads.iter().enumerate() {
        for (m, (metric, bound)) in bounds.iter().enumerate() {
            let v = &values[w][m];
            let (q1, q3) = quartiles(v);
            let s = spread(v);
            let verdict = if metric == "setup_s" {
                "not judged"
            } else if s < bound / 3.0 {
                "steady"
            } else if s <= *bound {
                "within bound"
            } else {
                wide += 1;
                "WIDER THAN BOUND"
            };
            println!("{name:<16} {metric:<18} {:>12.4} {q1:>12.4} {q3:>12.4} {s:>8.4} {bound:>6}  {verdict}", median(v));
        }
    }
    if failures > 0 || wide > 0 {
        return Err(format!(
            "{failures} failed runs, {wide} spreads wider than their bound"
        ));
    }
    Ok(())
}
