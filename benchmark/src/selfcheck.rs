//! `--selfcheck`: does the benchmark repeat?
//!
//! The untraced suite runs N times with one seed. Every *exact* metric
//! (simulated, a pure function of the seed) must read the same in every
//! run, digit for digit; every host-time metric's spread — the distance
//! between the first and third quartile as a share of the median, the
//! statistic the benchmark's driver uses — must stay inside half its
//! bound in `BENCHMARK.json`.

use crate::metrics::EndToEnd;
use crate::stats::{iqr_spread, quartiles};
use std::fmt::Write as _;

/// One `<workload> <name> <value> <unit>` line a run printed.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Workload name.
    pub workload: String,
    /// Metric name (or `correct` / `attempted` / `failed`).
    pub metric: String,
    /// The value as printed.
    pub value: String,
}

/// Lines that must be identical in every run besides the exact metrics.
const IDENTICAL: [&str; 3] = ["correct", "attempted", "failed"];

fn values<'a>(run: &'a [Sample], workload: &str, metric: &str) -> Option<&'a str> {
    run.iter()
        .find(|s| s.workload == workload && s.metric == metric)
        .map(|s| s.value.as_str())
}

/// Builds the report over `runs` (one sample list per suite run) and
/// says whether the benchmark repeated. `lookup` resolves a metric name
/// to its end-to-end definition.
pub fn selfcheck_report(
    runs: &[Vec<Sample>],
    workloads: &[&str],
    lookup: impl Fn(&str) -> Option<EndToEnd>,
) -> (String, bool) {
    let mut out = String::new();
    let mut ok = true;
    let _ = writeln!(
        out,
        "## Self-check over {} runs of the untraced suite, one seed\n",
        runs.len()
    );
    let _ = writeln!(
        out,
        "| workload | metric | min | q1 | median | q3 | max | (max-min)/median | IQR/median | limit | verdict |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|---|---|");
    let metrics: Vec<String> = runs
        .first()
        .map(|r| {
            let mut names: Vec<String> = Vec::new();
            for s in r {
                if !names.contains(&s.metric) {
                    names.push(s.metric.clone());
                }
            }
            names
        })
        .unwrap_or_default();
    for workload in workloads {
        for metric in &metrics {
            let texts: Vec<&str> = runs
                .iter()
                .filter_map(|r| values(r, workload, metric))
                .collect();
            if texts.len() != runs.len() {
                ok = false;
                let _ = writeln!(
                    out,
                    "| {workload} | {metric} | missing in {} runs | | | | | | | | FAIL |",
                    runs.len() - texts.len()
                );
                continue;
            }
            let def = lookup(metric);
            let must_match = IDENTICAL.contains(&metric.as_str()) || def.is_some_and(|d| d.exact);
            if must_match {
                let same = texts.iter().all(|t| *t == texts[0]);
                let wrong = metric == "correct" && texts[0] != "true";
                ok &= same && !wrong;
                let _ = writeln!(
                    out,
                    "| {workload} | {metric} | {} | | | | | | | identical | {} |",
                    texts[0],
                    if same && !wrong { "ok" } else { "FAIL" }
                );
                continue;
            }
            let Some(def) = def else {
                continue; // an informational line
            };
            let nums: Vec<f64> = texts.iter().filter_map(|t| t.parse().ok()).collect();
            if nums.len() < 2 {
                continue;
            }
            let [q1, q2, q3] = quartiles(&nums);
            let min = nums.iter().copied().fold(f64::INFINITY, f64::min);
            let max = nums.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let spread = iqr_spread(&nums);
            let limit = def.bound / 2.0;
            let pass = spread <= limit;
            ok &= pass;
            let _ = writeln!(
                out,
                "| {workload} | {metric} | {min:.5} | {q1:.5} | {q2:.5} | {q3:.5} | {max:.5} | {:.4} | {spread:.4} | {limit:.4} | {} |",
                (max - min) / q2,
                if pass { "ok" } else { "FAIL" }
            );
        }
    }
    let _ = writeln!(out, "\nverdict: {}", if ok { "PASS" } else { "FAIL" });
    (out, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(ns: &str, bytes: &str, correct: &str) -> Vec<Sample> {
        [
            ("ns_per_cp", ns),
            ("control_bytes_per_cp", bytes),
            ("correct", correct),
        ]
        .into_iter()
        .map(|(m, v)| Sample {
            workload: "w".into(),
            metric: m.into(),
            value: v.into(),
        })
        .collect()
    }

    fn lookup(name: &str) -> Option<EndToEnd> {
        crate::metrics::end_to_end(name).copied()
    }

    #[test]
    fn steady_runs_pass() {
        let runs = vec![
            run("100.0", "24.5", "true"),
            run("100.4", "24.5", "true"),
            run("99.8", "24.5", "true"),
        ];
        let (text, ok) = selfcheck_report(&runs, &["w"], lookup);
        assert!(ok, "{text}");
        assert!(text.contains("verdict: PASS"));
    }

    #[test]
    fn an_exact_metric_that_moves_fails() {
        let runs = vec![
            run("100.0", "24.5", "true"),
            run("100.0", "24.50001", "true"),
        ];
        let (text, ok) = selfcheck_report(&runs, &["w"], lookup);
        assert!(!ok, "{text}");
    }

    #[test]
    fn a_wide_host_time_spread_fails() {
        let runs = vec![
            run("100.0", "24.5", "true"),
            run("110.0", "24.5", "true"),
            run("90.0", "24.5", "true"),
            run("120.0", "24.5", "true"),
        ];
        let (_, ok) = selfcheck_report(&runs, &["w"], lookup);
        assert!(!ok);
    }

    #[test]
    fn incorrect_output_fails_even_when_it_repeats() {
        let runs = vec![run("100.0", "24.5", "false"), run("100.0", "24.5", "false")];
        let (_, ok) = selfcheck_report(&runs, &["w"], lookup);
        assert!(!ok);
    }
}
