//! Command-line handling shared by the `exp_*` binaries.
//!
//! `--help` prints the binary's usage and exits 0 before any measurement
//! runs. A flag the binary does not know, or a flag value that does not
//! parse, is a usage error: a message on stderr and exit status 2.

use std::str::FromStr;

/// Prints `[bin] message` on stderr and exits with status 2.
pub fn usage_error(bin: &str, message: &str) -> ! {
    eprintln!("[{bin}] {message} (see --help)");
    std::process::exit(2)
}

/// Handles a flag the binary's own argument loop did not match:
/// `--help` prints `usage` and exits 0, anything else is a usage error.
pub fn unmatched_flag(bin: &str, usage: &str, flag: &str) -> ! {
    if flag == "--help" {
        println!("{usage}");
        std::process::exit(0);
    }
    usage_error(bin, &format!("unknown flag {flag}"))
}

/// Parses the value that follows `flag`, exiting with a usage error when
/// it is missing or does not parse.
pub fn value<T: FromStr>(bin: &str, flag: &str, rest: &mut impl Iterator<Item = String>) -> T {
    parse_value(flag, rest.next()).unwrap_or_else(|e| usage_error(bin, &e))
}

/// The parsed `value` of `flag`, or a message naming what is wrong.
pub(crate) fn parse_value<T: FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot parse {value:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_parse_or_name_the_flag() {
        assert_eq!(parse_value::<usize>("--commits", Some("12".into())), Ok(12));
        let missing = parse_value::<usize>("--commits", None).unwrap_err();
        assert!(missing.contains("--commits"), "{missing}");
        let bad = parse_value::<f64>("--max-regress", Some("fast".into())).unwrap_err();
        assert!(
            bad.contains("--max-regress") && bad.contains("fast"),
            "{bad}"
        );
    }
}
