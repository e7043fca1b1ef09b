//! # escra-bench
//!
//! The benchmark harness that regenerates **every table and figure** of
//! the paper's evaluation. One binary, `escra-bench`, runs each artifact
//! as a subcommand (see the experiment index in `DESIGN.md`, or run it
//! with no argument); this library holds what the experiments share:
//! the flag parser, the committed-baseline gate, the experiment-matrix
//! runner (so Figs. 4–6 and Table I reuse one set of runs) and the
//! renderers of Figs. 5/6 and 8/9.
//!
//! Run any artifact with, e.g.:
//!
//! ```text
//! cargo run -p escra-bench --release -- table1_summary
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use escra_harness::sweep::{default_threads, run_serial, run_sweep, scenarios, Scenario};
use escra_harness::{profile_run, run_with_profiles, MicroSimConfig, Policy};
use escra_metrics::{downsample_cdf, to_json, RunMetrics, SlackRecorder, Table};
use escra_simcore::time::SimDuration;
use escra_workloads::{
    alibaba_workload, hipster_shop, media_microservice, teastore, train_ticket, MicroserviceApp,
    WorkloadKind,
};

/// Default measured duration of one microservice run.
pub const RUN_SECS: u64 = 60;
/// Shortened run used by `--smoke` (CI identity checks, not artifacts).
pub const SMOKE_RUN_SECS: u64 = 8;
/// Default master seed for the experiment matrix.
pub const SEED: u64 = 20220701;

/// Every flag an experiment can accept.
pub const FLAGS: [&str; 5] = ["--smoke", "--serial", "--threads", "--check", "--record"];

/// An experiment's command line, parsed by [`Args::parse`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Args {
    /// `--smoke`: the short CI variant of the experiment.
    pub smoke: bool,
    /// `--serial`: re-run the grid serially and assert the serialized
    /// results are byte-identical to the parallel run (the CI gate).
    pub serial: bool,
    /// `--threads N`: sweep worker count (shard count for
    /// `overhead_controller`).
    pub threads: Option<usize>,
    /// `--check`: gate the run against its committed [`Baseline`].
    pub check: bool,
    /// `--record`: write the run's numbers as the committed [`Baseline`].
    pub record: bool,
}

impl Args {
    /// Parses the arguments after the experiment name, accepting only the
    /// flags in `accepted` (a subset of [`FLAGS`]). The error names the
    /// accepted flags.
    pub fn parse(
        accepted: &[&str],
        argv: impl IntoIterator<Item = String>,
    ) -> Result<Args, String> {
        let reject = |what: String| format!("{what}; accepted: {}", usage(accepted));
        let mut args = Args::default();
        let mut it = argv.into_iter();
        while let Some(flag) = it.next() {
            if !accepted.contains(&flag.as_str()) {
                return Err(reject(format!("unexpected flag {flag:?}")));
            }
            match flag.as_str() {
                "--smoke" => args.smoke = true,
                "--serial" => args.serial = true,
                "--check" => args.check = true,
                "--record" => args.record = true,
                "--threads" => {
                    let n = it.next().and_then(|v| v.parse::<usize>().ok());
                    let n = n.filter(|&n| n > 0);
                    let n = n.ok_or_else(|| reject("--threads needs a positive integer".into()))?;
                    args.threads = Some(n);
                }
                _ => return Err(reject(format!("unknown flag {flag:?}"))),
            }
        }
        Ok(args)
    }

    /// The sweep worker count: `--threads`, else [`default_threads`].
    pub fn workers(&self) -> usize {
        self.threads.unwrap_or_else(default_threads)
    }

    /// The per-run duration these options select.
    pub fn duration_secs(&self) -> u64 {
        if self.smoke {
            SMOKE_RUN_SECS
        } else {
            RUN_SECS
        }
    }
}

/// `accepted` as the index and parse errors print it.
pub fn usage(accepted: &[&str]) -> String {
    if accepted.is_empty() {
        return "none".into();
    }
    let shown: Vec<&str> = accepted
        .iter()
        .map(|&f| if f == "--threads" { "--threads N" } else { f })
        .collect();
    shown.join(", ")
}

/// Prints `FAIL: {msg}` to stderr and exits with status 1: how a gate
/// reports a failed check.
pub fn fail(msg: &str) -> ! {
    eprintln!("FAIL: {msg}");
    std::process::exit(1)
}

/// A committed `BENCH_*.json` baseline at the repository root: what
/// `--record` writes and `--check` gates against.
#[derive(Debug)]
pub struct Baseline {
    /// File name under the repository root.
    pub file: &'static str,
    /// Every key the experiment's `--check` reads.
    pub keys: &'static [&'static str],
}

impl Baseline {
    /// The committed file's path.
    fn path(&self) -> String {
        format!("{}/../../{}", env!("CARGO_MANIFEST_DIR"), self.file)
    }

    /// Commits `json` as the new baseline.
    pub fn record(&self, json: &str) {
        let path = self.path();
        std::fs::write(&path, json).expect("write committed baseline");
        println!("committed baseline recorded to {path}");
    }

    /// Reads the committed file and looks up every gated key.
    pub fn load(&self) -> Result<Committed, String> {
        let path = self.path();
        let json = std::fs::read_to_string(&path)
            .map_err(|e| format!("read {path}: {e} (run with --record first)"))?;
        self.lookup(&json)
    }

    /// Looks up every gated key in `json`; the error names the first
    /// missing key and the file.
    fn lookup(&self, json: &str) -> Result<Committed, String> {
        let values = self.keys.iter().map(|&key| {
            extract_number(json, key)
                .map(|v| (key, v))
                .ok_or_else(|| format!("{} has no numeric {key:?}", self.file))
        });
        Ok(Committed {
            file: self.file,
            values: values.collect::<Result<_, _>>()?,
        })
    }
}

/// The gated numbers of a loaded [`Baseline`].
#[derive(Debug)]
pub struct Committed {
    file: &'static str,
    values: Vec<(&'static str, f64)>,
}

impl Committed {
    /// The committed value of `key`.
    ///
    /// # Panics
    ///
    /// Panics if `key` is not one of the baseline's gated keys.
    pub fn get(&self, key: &str) -> f64 {
        let found = self.values.iter().find(|(k, _)| *k == key);
        found.map(|&(_, v)| v).unwrap_or_else(|| {
            panic!("{key:?} is not a gated key of {}", self.file);
        })
    }

    /// Prints `measured` against its floor, `frac` × the committed `key`,
    /// and [`fail`]s the run below it.
    pub fn gate(&self, key: &str, frac: f64, measured: f64) {
        let committed = self.get(key);
        let floor = frac * committed;
        println!(
            "check: {measured:.0} vs {frac} x committed {key} {committed:.0} (floor {floor:.0})"
        );
        if measured < floor {
            fail(&format!(
                "{measured:.0} fell below {frac} x the committed {key:?} of {} \
                 ({committed:.0})",
                self.file
            ));
        }
    }
}

/// Minimal JSON number extraction: the vendored serde_json shim only
/// serializes, so a committed baseline is read back by string search.
fn extract_number(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\"");
    let at = json.find(&pat)?;
    let rest = &json[at + pat.len()..];
    let rest = &rest[rest.find(':')? + 1..];
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// First line of `cmd args…`'s stdout, or "unknown".
fn first_line_of(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Who measured the numbers, as a JSON object: the commit the tree was
/// at (`-dirty` with uncommitted changes), the compiler, the CPU and the
/// threads the run used (the drivers are single-threaded).
pub fn manifest_json() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"git_rev\": {:?}, \"rustc\": {:?}, \"cpu\": {:?}, \"threads\": 1}}",
        first_line_of("git", &["describe", "--always", "--dirty", "--abbrev=12"]),
        first_line_of("rustc", &["--version"]),
        cpu,
    )
}

/// Results of one (app, workload) cell under the five compared policies.
#[derive(Debug, serde::Serialize)]
pub struct CellResult {
    /// Application display name.
    pub app: &'static str,
    /// Workload display name.
    pub workload: &'static str,
    /// Escra run.
    pub escra: RunMetrics,
    /// Static-1.5× run.
    pub static_1_5: RunMetrics,
    /// Autopilot (1 s best case) run.
    pub autopilot: RunMetrics,
    /// Tiny-autoscaler (window-percentile predictor) run.
    pub tiny: RunMetrics,
    /// ARC-V (phase-aware in-place vertical scaling) run.
    pub arc_v: RunMetrics,
}

impl CellResult {
    /// The cell's runs in display order (baselines first, Escra last).
    pub fn runs(&self) -> [&RunMetrics; 5] {
        [
            &self.static_1_5,
            &self.autopilot,
            &self.tiny,
            &self.arc_v,
            &self.escra,
        ]
    }
}

/// Runs one cell: a single profiling pre-run shared by the baselines,
/// then one run per policy.
pub fn run_cell(cell: &MatrixCell, duration_secs: u64, seed: u64) -> CellResult {
    let (app, workload) = (cell.app.clone(), cell.workload.clone());
    let base = MicroSimConfig::new(app, workload, Policy::static_1_5x(), seed)
        .with_duration(SimDuration::from_secs(duration_secs));
    let profiles = profile_run(&base);

    let run_policy = |policy: Policy| {
        let cfg = MicroSimConfig {
            policy,
            ..base.clone()
        };
        run_with_profiles(&cfg, &profiles).metrics
    };

    CellResult {
        app: cell.app_name,
        workload: cell.workload_name,
        escra: run_policy(Policy::escra_default()),
        static_1_5: run_policy(Policy::static_1_5x()),
        autopilot: run_policy(Policy::autopilot_default()),
        tiny: run_policy(Policy::tiny_default()),
        arc_v: run_policy(Policy::arc_v_default()),
    }
}

/// One (app, workload) cell of the experiment grid, as fed to the
/// sweep runner.
#[derive(Debug, Clone)]
pub struct MatrixCell {
    /// Application display name.
    pub app_name: &'static str,
    /// The application.
    pub app: MicroserviceApp,
    /// Workload display name.
    pub workload_name: &'static str,
    /// The workload.
    pub workload: WorkloadKind,
}

/// The full 4 × 4 grid (the paper's 16 microservice cells; run under
/// 5 policies, its "all 32 experiments" are these runs for the two
/// paper baseline comparisons, and tiny/ARC-V extend the same grid), in
/// serial iteration order: apps outer, workloads inner.
pub fn matrix_cells() -> Vec<MatrixCell> {
    let apps = [
        ("MediaMicroservice", media_microservice()),
        ("HipsterShop", hipster_shop()),
        ("TrainTicket", train_ticket()),
        ("Teastore", teastore()),
    ];
    let mut cells = Vec::new();
    for (app_name, app) in apps {
        for (workload_name, workload) in [
            ("alibaba", alibaba_workload(240)),
            ("burst", WorkloadKind::paper_burst()),
            ("exp", WorkloadKind::paper_exp()),
            ("fixed", WorkloadKind::paper_fixed()),
        ] {
            cells.push(MatrixCell {
                app_name,
                app: app.clone(),
                workload_name,
                workload,
            });
        }
    }
    cells
}

/// The grid cells of a figure's named `(app, workload)` panels, in
/// panel order.
pub fn panel_cells(panels: &[(&'static str, &'static str)]) -> Vec<MatrixCell> {
    let grid = matrix_cells();
    panels
        .iter()
        .map(|&(app, workload)| {
            grid.iter()
                .find(|c| c.app_name == app && c.workload_name == workload)
                .unwrap_or_else(|| panic!("unknown panel {app} x {workload}"))
                .clone()
        })
        .collect()
}

/// Asserts two result sets serialize to byte-identical JSON — the
/// parallel-vs-serial identity gate behind the `--serial` flag.
///
/// # Panics
///
/// Panics with the first divergent byte offset if the runs differ.
pub fn assert_byte_identical<T: serde::Serialize>(parallel: &[T], serial: &[T]) {
    let p = escra_metrics::to_json(&parallel);
    let s = escra_metrics::to_json(&serial);
    if p != s {
        let at = p
            .bytes()
            .zip(s.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(p.len().min(s.len()));
        panic!("parallel and serial sweep outputs diverge at byte {at}");
    }
    eprintln!(
        "serial identity check: OK ({} items, {} bytes)",
        parallel.len(),
        p.len()
    );
}

/// Runs `cells` per `args` on the deterministic parallel sweep runner,
/// preserving input order, with the byte-identity re-run when `--serial`
/// was given.
///
/// Every cell runs with the *master* seed itself (`scenario.seed` is
/// derived and available, but every committed artifact in
/// `EXPERIMENTS.md` was produced with one shared seed per cell, and
/// changing that would invalidate the recorded numbers). The
/// fork-derived seeds are exercised by the sweep runner's own tests.
pub fn run_cells_args(cells: Vec<MatrixCell>, args: &Args) -> Vec<CellResult> {
    let f = |s: &Scenario<MatrixCell>| {
        let cell = &s.input;
        eprintln!("running {} x {} ...", cell.app_name, cell.workload_name);
        run_cell(cell, args.duration_secs(), SEED)
    };
    let results = run_sweep(scenarios(SEED, cells.clone()), args.workers(), f);
    if args.serial {
        let serial = run_serial(scenarios(SEED, cells), f);
        assert_byte_identical(&results, &serial);
    }
    results
}

/// The four panels of Figs. 5 and 6: (app, workload).
const SLACK_PANELS: [(&str, &str); 4] = [
    ("TrainTicket", "fixed"),
    ("Teastore", "alibaba"),
    ("HipsterShop", "exp"),
    ("MediaMicroservice", "burst"),
];

/// Figs. 5/6: one slack CDF per policy (Escra, Autopilot, Static) on
/// each of the four highlighted panels.
#[derive(Debug)]
pub struct SlackCdfFigure {
    /// Figure label, e.g. `"Fig. 5"`.
    pub fig: &'static str,
    /// The slack resource and its unit, as the panel caption names them.
    pub caption: &'static str,
    /// One percentile of the slack, formatted for the panel table.
    pub percentile: fn(&SlackRecorder, f64) -> String,
    /// The slack CDF.
    pub cdf: fn(&SlackRecorder) -> Vec<(f64, f64)>,
    /// Closing lines quoting the paper.
    pub paper: &'static [&'static str],
    /// Artifact name under `target/escra-results/`.
    pub artifact: &'static str,
}

impl SlackCdfFigure {
    /// Runs the panels per `args`, prints one percentile table per panel
    /// and writes the downsampled CDFs.
    pub fn run(&self, args: &Args) {
        let cells = run_cells_args(panel_cells(&SLACK_PANELS), args);
        let mut dump = Vec::new();
        for cell in &cells {
            println!(
                "\n{} panel: {} - {} ({})",
                self.fig, cell.app, cell.workload, self.caption
            );
            let mut table = Table::new(vec!["policy", "p25", "p50", "p75", "p90", "p99"]);
            for m in [&cell.escra, &cell.autopilot, &cell.static_1_5] {
                let mut row = vec![m.policy.clone()];
                for p in [25.0, 50.0, 75.0, 90.0, 99.0] {
                    row.push((self.percentile)(&m.slack, p));
                }
                table.row(row);
                let cdf = downsample_cdf(&(self.cdf)(&m.slack), 200);
                dump.push((cell.app, cell.workload, m.policy.clone(), cdf));
            }
            println!("{}", table.render());
        }
        for line in self.paper {
            println!("{line}");
        }
        let path = write_json(self.artifact, &to_json(&dump));
        println!("CDFs written to {}", path.display());
    }
}

/// Figs. 8/9: prints `header`, then OpenWhisk's and Escra's aggregate
/// CPU/memory limits and the savings between them in 30 s buckets, then
/// `footer`, and writes the four limit series at 1 s as `artifact`.
pub fn limits_figure(
    artifact: &str,
    header: &[&str],
    vanilla: &RunMetrics,
    escra: &RunMetrics,
    footer: &[String],
) {
    let mut table = Table::new(vec![
        "t(s)",
        "OW cpu(cores)",
        "Escra cpu",
        "cpu savings",
        "OW mem(MiB)",
        "Escra mem",
        "mem savings",
    ]);
    let v_cpu = vanilla.cpu_limit_series.resample_secs(30);
    let e_cpu = escra.cpu_limit_series.resample_secs(30);
    let v_mem = vanilla.mem_limit_series.resample_secs(30);
    let e_mem = escra.mem_limit_series.resample_secs(30);
    for i in 0..v_cpu.len().min(e_cpu.len()) {
        table.row(vec![
            format!("{:.0}", v_cpu[i].0),
            format!("{:.1}", v_cpu[i].1),
            format!("{:.1}", e_cpu[i].1),
            format!("{:.1}", v_cpu[i].1 - e_cpu[i].1),
            format!("{:.0}", v_mem[i].1),
            format!("{:.0}", e_mem[i].1),
            format!("{:.0}", v_mem[i].1 - e_mem[i].1),
        ]);
    }
    for line in header {
        println!("{line}");
    }
    println!("\n{}", table.render());
    for line in footer {
        println!("{line}");
    }
    let dump = (
        vanilla.cpu_limit_series.resample_secs(1),
        escra.cpu_limit_series.resample_secs(1),
        vanilla.mem_limit_series.resample_secs(1),
        escra.mem_limit_series.resample_secs(1),
    );
    let path = write_json(artifact, &to_json(&dump));
    println!("series written to {}", path.display());
}

/// Formats the cost-efficiency columns shared by every table-rendering
/// experiment: total run cost in normalized dollars and dollars per
/// 1 000 successful requests, both under the default [`CostModel`]
/// (see `DESIGN.md` §13).
///
/// [`CostModel`]: escra_metrics::CostModel
pub fn cost_columns(m: &RunMetrics) -> (String, String) {
    let model = escra_metrics::CostModel::default();
    let cost = model.run_cost(m);
    let per_kilo = model.per_kilo_request(&cost, m.latency.successes());
    (format!("{:.4}", cost.total()), format!("{per_kilo:.4}"))
}

/// Writes an artifact's JSON dump under `target/escra-results/`.
pub fn write_json(name: &str, json: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new("target").join("escra-results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, json).expect("write results");
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    const SWEEP: &[&str] = &["--smoke", "--serial", "--threads"];

    fn args_of(accepted: &[&str], argv: &[&str]) -> Result<Args, String> {
        Args::parse(accepted, argv.iter().map(|a| a.to_string()))
    }

    #[test]
    fn parser_sets_the_flags_it_accepts() {
        let args = args_of(
            &FLAGS,
            &["--smoke", "--threads", "4", "--serial", "--check"],
        );
        let want = Args {
            smoke: true,
            serial: true,
            threads: Some(4),
            check: true,
            record: false,
        };
        assert_eq!(args, Ok(want));
        assert_eq!(args_of(&[], &[]), Ok(Args::default()));
    }

    #[test]
    fn parser_rejections_name_the_accepted_flags() {
        for (accepted, argv) in [
            (SWEEP, &["--bogus"][..]),
            (&["--smoke"][..], &["--check"][..]),
            (SWEEP, &["--threads", "0"][..]),
            (SWEEP, &["--smoke", "--threads"][..]),
            (SWEEP, &["--threads", "four"][..]),
        ] {
            let err = args_of(accepted, argv).expect_err("must be rejected");
            assert!(err.ends_with(&usage(accepted)), "{argv:?}: {err}");
        }
        let err = args_of(&[], &["--smoke"]).expect_err("takes no flags");
        assert!(err.ends_with("accepted: none"), "{err}");
        assert_eq!(usage(SWEEP), "--smoke, --serial, --threads N");
    }

    #[test]
    fn a_missing_gated_key_fails_naming_key_and_file() {
        let baseline = Baseline {
            file: "BENCH_x.json",
            keys: &["t4", "columnar_t8"],
        };
        let committed = baseline
            .lookup("{\n  \"t4\": 7,\n  \"columnar_t8\": 9\n}\n")
            .expect("both keys present");
        assert_eq!(
            (committed.get("t4"), committed.get("columnar_t8")),
            (7.0, 9.0)
        );
        let err = baseline
            .lookup("{\n  \"t4\": 7,\n  \"columnar_t4\": 9\n}\n")
            .expect_err("columnar_t8 is missing");
        assert!(
            err.contains("columnar_t8") && err.contains("BENCH_x.json"),
            "{err}"
        );
    }

    #[test]
    fn the_grid_and_panels_are_complete() {
        assert_eq!(matrix_cells().len(), 16);
        assert_eq!(panel_cells(&SLACK_PANELS).len(), 4);
    }

    #[test]
    fn one_small_cell_runs() {
        let cell = MatrixCell {
            app_name: "Teastore", // the smallest app
            app: teastore(),
            workload_name: "fixed",
            workload: WorkloadKind::Fixed { rps: 120.0 },
        };
        let cell = run_cell(&cell, 10, 1);
        assert!(cell.escra.latency.successes() > 800);
        assert!(cell.static_1_5.latency.successes() > 800);
        assert!(cell.autopilot.latency.successes() > 600);
        assert!(cell.tiny.latency.successes() > 600);
        assert!(cell.arc_v.latency.successes() > 600);
        for m in cell.runs() {
            let (cost, per_kilo) = cost_columns(m);
            let cost: f64 = cost.parse().expect("cost is numeric");
            let per_kilo: f64 = per_kilo.parse().expect("$/1k req is numeric");
            assert!(cost > 0.0 && cost.is_finite(), "{}: cost {cost}", m.policy);
            assert!(per_kilo > 0.0 && per_kilo.is_finite());
        }
    }
}
