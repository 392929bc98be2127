//! The `bench_trend` report schemas and the machine-speed-normalized gate
//! comparison, shared by the `bench_trend` CI binary and the sweep
//! round-trip tests.
//!
//! Reading is a schema walk over [`crate::json::parse`]'s tree:
//!
//! ```text
//! { "kernels": { "<name>": { "mean_ns": 1.0, ... }, ... } }
//! ```
//!
//! [`parse_report`] accepts exactly that shape — a numeric `mean_ns` per
//! kernel, every other field a number or `null` (the writer's rendering
//! of a non-finite float); anything else is a hard error. The hot-path
//! bench report (written by the criterion shim) and the scenario sweeps'
//! raw and reduced reports ([`crate::json::sweep`],
//! [`crate::json::reduced`]) all use this schema, so every artifact rides
//! the same gate.

use crate::json::{self, Value};
use std::collections::BTreeMap;

/// Mean nanoseconds per kernel, keyed by benchmark name.
pub type Report = BTreeMap<String, f64>;

/// The fields of the one top-level section `name` (an empty document
/// `{}` has none).
fn section(text: &str, name: &str) -> Result<Vec<(String, Value)>, String> {
    let root = json::parse(text)?;
    let top = root.as_object().ok_or("report is not a JSON object")?;
    let mut fields = Vec::new();
    for (key, value) in top {
        if key != name {
            return Err(format!("unexpected top-level key '{key}'"));
        }
        let body = value.as_object().ok_or_else(|| format!("'{name}' is not an object"))?;
        fields.extend_from_slice(body);
    }
    Ok(fields)
}

/// Extracts `name → mean_ns` from a bench report.
///
/// # Errors
///
/// Any deviation from the report schema (unknown top-level keys,
/// non-numeric fields, a kernel without `mean_ns`, malformed JSON).
pub fn parse_report(text: &str) -> Result<Report, String> {
    let mut report = Report::new();
    for (kernel, fields) in section(text, "kernels")? {
        let fields =
            fields.as_object().ok_or_else(|| format!("kernel '{kernel}' is not an object"))?;
        let mut mean = None;
        for (field, value) in fields {
            match (value, field.as_str()) {
                (Value::Int(_) | Value::Float(_), "mean_ns") => mean = value.as_f64(),
                (Value::Int(_) | Value::Float(_), _) | (Value::Null, _) => {}
                _ => return Err(format!("kernel '{kernel}' field '{field}' is not a number")),
            }
        }
        let mean = mean.ok_or_else(|| format!("kernel '{kernel}' lacks mean_ns"))?;
        report.insert(kernel, mean);
    }
    Ok(report)
}

/// Counter totals from a stats-registry snapshot, keyed by counter name
/// (the keys of `StatsSnapshot::to_kv`).
pub type RegistryReport = BTreeMap<String, u64>;

/// Extracts `counter → total` from a registry-snapshot report:
///
/// ```text
/// { "registry": { "<counter>": 123, ... } }
/// ```
///
/// This is the `stats` RPC payload of the `dbacd` daemon and the
/// `stats.json` CI artifact; parsing it here lets `bench_trend` gate on
/// counter regressions next to the nanosecond kernels.
///
/// # Errors
///
/// Any deviation from the schema (unknown top-level keys, negative or
/// fractional counters, malformed JSON).
pub fn parse_registry_report(text: &str) -> Result<RegistryReport, String> {
    let mut report = RegistryReport::new();
    for (counter, value) in section(text, "registry")? {
        let total = match value {
            Value::Int(i) => u64::try_from(i).ok(),
            Value::Float(x) if x >= 0.0 && x.fract() == 0.0 && x <= u64::MAX as f64 => {
                Some(x as u64)
            }
            _ => None,
        };
        let total = total.ok_or_else(|| format!("counter '{counter}' is not a u64: {value}"))?;
        report.insert(counter, total);
    }
    Ok(report)
}

/// The registry-counter gate: message-ledger counters may not *grow*
/// beyond `max_ratio` times the baseline (more traffic for the same
/// scenario is the regression; less is an improvement), and no baseline
/// counter may disappear. Timing-valued counters (`wall_nanos`) and
/// in-flight gauges are skipped — they vary run to run by construction.
/// Returns the list of failures (empty = gate passes).
#[must_use]
pub fn compare_registry(
    baseline: &RegistryReport,
    current: &RegistryReport,
    max_ratio: f64,
) -> Vec<String> {
    const UNGATED: &[&str] = &["wall_nanos", "undelivered", "max_queue_depth", "virtual_time"];
    let mut failures = Vec::new();
    for (name, &base) in baseline {
        if UNGATED.contains(&name.as_str()) {
            continue;
        }
        let Some(&cur) = current.get(name) else {
            failures.push(format!("{name}: present in baseline but missing from current run"));
            continue;
        };
        if base == 0 {
            continue; // a zero baseline cannot anchor a ratio
        }
        let ratio = cur as f64 / base as f64;
        if ratio > max_ratio {
            failures.push(format!("{name}: {base} → {cur} ({ratio:.2}x, limit {max_ratio}x)"));
        }
    }
    failures
}

/// The median of a sample (mean of the middle pair for even sizes).
///
/// # Panics
///
/// Panics on an empty sample.
#[must_use]
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The gate comparison proper, separated from I/O for testability.
/// Normalizes by the median `current / baseline` ratio across kernels (so
/// a uniformly faster or slower machine does not trip the gate) and
/// returns the list of failures (empty = gate passes).
#[must_use]
pub fn compare(baseline: &Report, current: &Report, max_ratio: f64) -> Vec<String> {
    let mut failures = Vec::new();
    let ratios: Vec<(String, f64)> = baseline
        .iter()
        .filter_map(|(name, &base)| current.get(name).map(|&cur| (name.clone(), cur / base)))
        .collect();
    if ratios.is_empty() {
        return vec!["no kernels in common between baseline and current".into()];
    }
    let med = median(ratios.iter().map(|&(_, r)| r).collect()).max(f64::MIN_POSITIVE);
    println!("median current/baseline ratio: {med:.3} (machine-speed normalizer)");
    println!("{:<55} {:>12} {:>12} {:>8} {:>8}", "kernel", "baseline", "current", "ratio", "norm");
    for (name, ratio) in &ratios {
        let norm = ratio / med;
        let verdict = if norm > max_ratio { "REGRESSED" } else { "ok" };
        println!(
            "{:<55} {:>10.1}ns {:>10.1}ns {:>8.3} {:>8.3}  {}",
            name, baseline[name], current[name], ratio, norm, verdict
        );
        if norm > max_ratio {
            failures.push(format!(
                "{name}: {:.1}ns → {:.1}ns ({norm:.2}x the median trend, limit {max_ratio}x)",
                baseline[name], current[name]
            ));
        }
    }
    for name in baseline.keys() {
        if !current.contains_key(name) {
            failures.push(format!("{name}: present in baseline but missing from current run"));
        }
    }
    for name in current.keys() {
        if !baseline.contains_key(name) {
            println!("note: new kernel '{name}' has no baseline yet (not gated)");
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
      "kernels": {
        "mc_scan/fig1b_small/batched": { "mean_ns": 100.0, "min_ns": 90.0, "max_ns": 120.0 },
        "fra_scan/fig1b_small/batched": { "mean_ns": 50.5, "min_ns": 48.0, "max_ns": 52.0 }
      }
    }"#;

    #[test]
    fn parses_the_report_schema() {
        let report = parse_report(SAMPLE).unwrap();
        assert_eq!(report.len(), 2);
        assert_eq!(report["mc_scan/fig1b_small/batched"], 100.0);
        assert_eq!(report["fra_scan/fig1b_small/batched"], 50.5);
    }

    #[test]
    fn rejects_malformed_reports() {
        assert!(parse_report("{").is_err());
        assert!(parse_report(r#"{"kernels": {"a": {"mean": 1}}}"#).is_err());
        assert!(parse_report(r#"{"other": {}}"#).is_err());
        assert!(parse_report(r#"{"kernels": {}}"#).unwrap().is_empty());
        assert!(parse_report(r#"{"kernels": {"a": {"mean_ns": 1, "note": "x"}}}"#).is_err());
        assert!(parse_report(r#"{"kernels": {"a": {"mean_ns": null}}}"#).is_err());
    }

    #[test]
    fn keeps_non_ascii_names_and_admits_null_fields() {
        // `null` is how the writer renders a non-finite float; only
        // `mean_ns` must be a number.
        let report =
            parse_report(r#"{"kernels": {"eps=ε": {"mean_ns": 2.5, "spread": null}}}"#).unwrap();
        assert_eq!(report.into_iter().collect::<Vec<_>>(), [("eps=ε".to_string(), 2.5)]);
    }

    fn report(entries: &[(&str, f64)]) -> Report {
        entries.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    #[test]
    fn uniform_machine_speed_shift_passes() {
        let base = report(&[("a", 100.0), ("b", 200.0), ("c", 300.0)]);
        // A 3x slower machine across the board: no regression.
        let cur = report(&[("a", 300.0), ("b", 600.0), ("c", 900.0)]);
        assert!(compare(&base, &cur, 2.0).is_empty());
    }

    #[test]
    fn single_kernel_regression_fails() {
        let base = report(&[("a", 100.0), ("b", 200.0), ("c", 300.0)]);
        // Same machine, but kernel c regressed 5x.
        let cur = report(&[("a", 100.0), ("b", 200.0), ("c", 1500.0)]);
        let failures = compare(&base, &cur, 2.0);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].starts_with("c:"));
    }

    #[test]
    fn missing_kernel_fails_and_new_kernel_does_not() {
        let base = report(&[("a", 100.0), ("b", 200.0)]);
        let cur = report(&[("a", 100.0), ("new", 1.0)]);
        let failures = compare(&base, &cur, 2.0);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("missing"));
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(vec![1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(vec![1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    #[test]
    fn parses_the_registry_schema() {
        let report = parse_registry_report(
            r#"{ "registry": { "sent": 120, "delivered": 118, "rounds_fired": 12 } }"#,
        )
        .unwrap();
        assert_eq!(report.len(), 3);
        assert_eq!(report["sent"], 120);
        assert_eq!(report["rounds_fired"], 12);
    }

    #[test]
    fn rejects_malformed_registry_reports() {
        assert!(parse_registry_report(r#"{"kernels": {}}"#).is_err());
        assert!(parse_registry_report(r#"{"registry": {"sent": -1}}"#).is_err());
        assert!(parse_registry_report(r#"{"registry": {"sent": 1.5}}"#).is_err());
        assert!(parse_registry_report(r#"{"registry": {}}"#).unwrap().is_empty());
    }

    fn registry(entries: &[(&str, u64)]) -> RegistryReport {
        entries.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    #[test]
    fn registry_gate_flags_growth_and_missing_counters() {
        let base = registry(&[("sent", 100), ("delivered", 98), ("wall_nanos", 5)]);
        let ok = registry(&[("sent", 110), ("delivered", 98), ("wall_nanos", 900)]);
        assert!(compare_registry(&base, &ok, 1.5).is_empty(), "10% growth under a 1.5x limit");

        let grown = registry(&[("sent", 300), ("delivered", 98), ("wall_nanos", 5)]);
        let failures = compare_registry(&base, &grown, 1.5);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].starts_with("sent:"));

        let missing = registry(&[("sent", 100)]);
        let failures = compare_registry(&base, &missing, 1.5);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("missing"));
    }

    #[test]
    fn registry_gate_ignores_timing_counters_and_zero_baselines() {
        let base = registry(&[("dropped", 0), ("wall_nanos", 10), ("undelivered", 1)]);
        let cur = registry(&[("dropped", 50), ("wall_nanos", 10_000), ("undelivered", 40)]);
        assert!(compare_registry(&base, &cur, 1.1).is_empty());
    }
}
