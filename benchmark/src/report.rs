//! Output: the printed lines, the final JSON line the driver reads, the
//! per-run manifest and the files under `benchmark/target/benchmark/`.

use crate::run::{Metric, RunConfig, RunReport};
use std::fmt::Write as _;
use std::path::PathBuf;

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite `f64` as a JSON number with all its digits (`Display` for
/// `f64` prints the shortest text that reads back exactly).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Where result files go: `benchmark/target/benchmark/`.
pub fn output_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target/benchmark"))
}

/// Writes `contents` to `name` under [`output_dir`]. Result files are a
/// convenience; a read-only tree must not fail the measurement, so
/// errors are reported on stderr and otherwise ignored.
pub fn write_output(name: &str, contents: &str) {
    let dir = output_dir();
    let result =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(name), contents));
    if let Err(err) = result {
        eprintln!(
            "escra-benchmark: could not write {}: {err}",
            dir.join(name).display()
        );
    }
}

/// The 1-minute load average, or a negative number where `/proc` has none.
pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(-1.0)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit the tree is at, read from `.git` beside the benchmark
/// directory (no `git` process: the benchmark may run where there is
/// no repository at all).
fn git_rev() -> String {
    let git = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.git"));
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Who measured what, where: enough to tell whether two results are
/// comparable.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Traced run or end-to-end run.
    pub trace: bool,
    /// Commit of the tree.
    pub git_rev: String,
    /// Compiler.
    pub rustc: String,
    /// CPU model.
    pub cpu_model: String,
    /// Hardware threads available to this process.
    pub nproc: usize,
    /// Workload sizes.
    pub sizes: String,
    /// Hash of the generated inputs.
    pub inputs: u64,
    /// Container-periods per repetition.
    pub container_periods: u64,
    /// Driver wall time of each untraced repetition, in seconds; the
    /// first three are the ones that end the set-ups.
    pub rep_wall_s: Vec<f64>,
    /// Fewest decision samples any repetition took.
    pub min_decision_samples: usize,
    /// Output digest (identical across repetitions when `correct`).
    pub digest: u64,
    /// 1-minute load average when the run started and when it ended.
    pub loadavg: (f64, f64),
    /// The machine was busy (load ≥ nproc): host-time numbers are suspect.
    pub noisy: bool,
}

impl Manifest {
    /// Gathers the manifest at the end of a run.
    #[allow(clippy::too_many_arguments)] // one call site; a builder would only rename the arguments
    pub fn collect(
        cfg: &RunConfig,
        sizes: String,
        inputs: u64,
        container_periods: u64,
        rep_wall_s: Vec<f64>,
        min_decision_samples: usize,
        digest: u64,
        load_start: f64,
    ) -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let load_end = loadavg();
        Manifest {
            workload: cfg.workload.clone(),
            seed: cfg.seed,
            trace: cfg.trace,
            git_rev: git_rev(),
            rustc: rustc_version(),
            cpu_model: cpu_model(),
            nproc,
            sizes,
            inputs,
            container_periods,
            rep_wall_s,
            min_decision_samples,
            digest,
            loadavg: (load_start, load_end),
            noisy: load_start.max(load_end) >= nproc as f64,
        }
    }

    fn json(&self) -> String {
        let walls: Vec<String> = self.rep_wall_s.iter().map(|w| json_number(*w)).collect();
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"git_rev\": {}, \"rustc\": {}, \
             \"cpu_model\": {}, \"nproc\": {}, \"sizes\": {}, \"inputs\": \"{:016x}\", \
             \"container_periods_per_rep\": {}, \
             \"rep_wall_s\": [{}], \"min_decision_samples\": {}, \"digest\": \"{:016x}\", \
             \"loadavg_start\": {}, \"loadavg_end\": {}, \"noisy\": {}}}",
            json_string(&self.workload),
            self.seed,
            self.trace,
            json_string(&self.git_rev),
            json_string(&self.rustc),
            json_string(&self.cpu_model),
            self.nproc,
            json_string(&self.sizes),
            self.inputs,
            self.container_periods,
            walls.join(", "),
            self.min_decision_samples,
            self.digest,
            json_number(self.loadavg.0),
            json_number(self.loadavg.1),
            self.noisy
        )
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

impl RunReport {
    /// The metrics this run answers for: per-layer for a traced run,
    /// end-to-end otherwise.
    pub fn reported(&self) -> &[Metric] {
        if self.manifest.trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// The one JSON object the driver reads from the last line of
    /// standard output.
    pub fn result_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics_json(self.reported())
        )
    }

    /// Everything about the run, for `results.json`.
    pub fn full_json(&self) -> String {
        format!(
            "{{\"manifest\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
             \"end_to_end\": {}, \"per_layer\": {}}}",
            self.manifest.json(),
            self.correct,
            self.attempted,
            self.failed,
            metrics_json(&self.end_to_end),
            metrics_json(&self.per_layer)
        )
    }

    /// Every metric as `<workload> <name> <value> <unit>`, then
    /// `correct` / `attempted` / `failed` in the same shape.
    pub fn lines(&self) -> String {
        let w = &self.manifest.workload;
        let mut out = String::new();
        for m in self.end_to_end.iter().chain(&self.per_layer) {
            let _ = writeln!(out, "{w} {} {} {}", m.name, json_number(m.value), m.unit);
        }
        let _ = writeln!(out, "{w} correct {} bool", self.correct);
        let _ = writeln!(out, "{w} attempted {} count", self.attempted);
        let _ = writeln!(out, "{w} failed {} count", self.failed);
        if self.manifest.noisy {
            let _ = writeln!(
                out,
                "{w} noisy true bool  # load average {:.2} -> {:.2} on {} threads",
                self.manifest.loadavg.0, self.manifest.loadavg.1, self.manifest.nproc
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_numbers_are_valid_json() {
        assert_eq!(json_string("a\"b\\c\nd\u{1}"), "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(json_number(1.5), "1.5");
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(f64::NAN), "null");
    }

    #[test]
    fn proc_readers_do_not_panic() {
        assert!(peak_rss_mib() >= 0.0);
        let _ = loadavg();
        assert!(!cpu_model().is_empty());
        assert!(!git_rev().is_empty());
    }
}
