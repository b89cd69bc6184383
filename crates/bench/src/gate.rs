//! The baseline regression gate shared by the `exp_*` binaries.
//!
//! A binary that writes a JSON snapshot accepts `--baseline
//! <committed.json> [--max-regress R]`; after writing the snapshot it
//! compares its own gated keys against the committed baseline and exits
//! non-zero when any of them grew by more than `R` (a fraction: `0.25` =
//! +25%). Improvements never fail the gate, and a key the baseline does
//! not carry is skipped.

use crate::args::parse_value;
use maprat_server::Json;

/// The gate's command-line state: `--baseline <path>` and
/// `--max-regress <R>`.
#[derive(Debug)]
pub struct GateArgs {
    /// The committed snapshot to compare against (`None` = no gate).
    baseline: Option<String>,
    /// The tolerated relative growth of each gated key.
    max_regress: f64,
}

impl GateArgs {
    /// No baseline, and `default_max_regress` until `--max-regress`
    /// overrides it.
    pub fn new(default_max_regress: f64) -> Self {
        GateArgs {
            baseline: None,
            max_regress: default_max_regress,
        }
    }

    /// Consumes `arg` — and its value from `rest` — if it is one of the
    /// gate's flags. Returns whether it was, or an error naming the flag
    /// when its value is missing or, for `--max-regress`, not a number.
    pub fn accept(
        &mut self,
        arg: &str,
        rest: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        match arg {
            "--baseline" => self.baseline = Some(parse_value(arg, rest.next())?),
            "--max-regress" => self.max_regress = parse_value(arg, rest.next())?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Runs the gate when a baseline was given: prints one line per key
    /// (key names padded to `key_width`), then a pass line, or the
    /// failures on stderr followed by exit status 1.
    ///
    /// # Panics
    /// Panics when the baseline cannot be read or either document is not
    /// valid JSON.
    pub fn enforce(&self, snapshot_json: &str, keys: &[&str], key_width: usize) {
        let Some(baseline_path) = &self.baseline else {
            return;
        };
        let snapshot = Json::parse(snapshot_json).expect("own snapshot is valid JSON");
        let text = std::fs::read_to_string(baseline_path)
            .unwrap_or_else(|e| panic!("read baseline {baseline_path}: {e}"));
        let baseline = Json::parse(&text).expect("baseline must be valid JSON");
        let failures = compare(&snapshot, &baseline, keys, key_width, self.max_regress);
        if failures.is_empty() {
            println!(
                "[gate] pass: no gated metric regressed more than {:.0}% vs {baseline_path}",
                self.max_regress * 100.0
            );
        } else {
            eprintln!("[gate] FAIL vs {baseline_path}:");
            for f in &failures {
                eprintln!("[gate]   {f}");
            }
            std::process::exit(1);
        }
    }
}

/// Compares each of `keys` in `snapshot` against `baseline`, printing
/// one verdict line per key, and returns the failure messages (empty =
/// the gate passes). A value exactly at `baseline · (1 + max_regress)`
/// passes.
///
/// # Panics
/// Panics when `snapshot` lacks one of `keys`.
fn compare(
    snapshot: &Json,
    baseline: &Json,
    keys: &[&str],
    key_width: usize,
    max_regress: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    for &key in keys {
        let Some(base) = baseline.get(key).and_then(Json::as_f64) else {
            println!("[gate] {key:<key_width$} absent from baseline — skipped");
            continue;
        };
        let new = snapshot
            .get(key)
            .and_then(Json::as_f64)
            .expect("snapshot carries every gated key");
        let limit = base * (1.0 + max_regress);
        let verdict = if new <= limit { "ok" } else { "REGRESSED" };
        println!(
            "[gate] {key:<key_width$} baseline {base:>9.4} ms | now {new:>9.4} ms | limit {limit:>9.4} ms | {verdict}"
        );
        if new > limit {
            failures.push(format!(
                "{key}: {new:.4} ms exceeds {limit:.4} ms (baseline {base:.4} ms +{:.0}%)",
                max_regress * 100.0
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json(text: &str) -> Json {
        Json::parse(text).unwrap()
    }

    #[test]
    fn limit_passes_above_fails_absent_skips() {
        let baseline = json(r#"{"a_ms": 2.0, "b_ms": 4.0}"#);
        // a_ms sits exactly at 2.0 · 1.5, b_ms just above 4.0 · 1.5, and
        // c_ms has no baseline.
        let snapshot = json(r#"{"a_ms": 3.0, "b_ms": 6.001, "c_ms": 100.0}"#);
        let failures = compare(&snapshot, &baseline, &["a_ms", "b_ms", "c_ms"], 8, 0.5);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].starts_with("b_ms:"), "{failures:?}");
        assert!(compare(&snapshot, &baseline, &["a_ms", "c_ms"], 8, 0.5).is_empty());
    }

    #[test]
    fn accept_consumes_only_gate_flags() {
        let mut gate = GateArgs::new(0.25);
        let mut rest = ["base.json".to_string(), "0.5".to_string()].into_iter();
        assert_eq!(gate.accept("--baseline", &mut rest), Ok(true));
        assert_eq!(gate.accept("--max-regress", &mut rest), Ok(true));
        assert_eq!(gate.accept("--check", &mut rest), Ok(false));
        assert_eq!(gate.baseline.as_deref(), Some("base.json"));
        assert_eq!(gate.max_regress, 0.5);
    }

    #[test]
    fn accept_rejects_bad_or_missing_values() {
        let mut gate = GateArgs::new(0.25);
        let mut bad = ["fast".to_string()].into_iter();
        let err = gate.accept("--max-regress", &mut bad).unwrap_err();
        assert!(
            err.contains("--max-regress") && err.contains("fast"),
            "{err}"
        );
        assert_eq!(gate.max_regress, 0.25, "a rejected value sets nothing");
        let mut empty = std::iter::empty();
        assert!(gate.accept("--max-regress", &mut empty).is_err());
        assert!(gate.accept("--baseline", &mut empty).is_err());
        assert_eq!(gate.baseline, None);
    }
}
