//! `escra-benchmark`: one command that prints every metric.
//!
//! ```text
//! escra-benchmark [--workload <name>|all] [--seed N] [--seconds N]
//!                 [--trace 0|1] [--selfcheck [N]]
//! ```
//!
//! `--workload`, `--seed`, `--seconds` and `--trace 0|1` are the
//! arguments the benchmark's driver passes. A named workload runs in
//! this process, so `setup_s` and `peak_rss_mib` are its own, and the
//! last line it prints is the JSON object the driver reads.
//! `--workload all` (the default) runs each workload in a child process,
//! untraced and then traced unless `--trace` picks one, and gathers
//! `results.json`.

use escra_benchmark::metrics::{end_to_end, RUN_SECONDS, WORKLOADS};
use escra_benchmark::report::{output_dir, write_output};
use escra_benchmark::run::{run_workload, RunConfig};
use escra_benchmark::selfcheck::{selfcheck_report, Sample};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Default seed (the repository's master seed).
const DEFAULT_SEED: u64 = 20220701;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    /// `None`: both modes for the suite, untraced for one workload.
    trace: Option<bool>,
    selfcheck: Option<usize>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: None,
        selfcheck: None,
    };
    let mut i = 0;
    let number = |i: &mut usize, flag: &str| -> Result<u64, String> {
        *i += 1;
        argv.get(*i)
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or_else(|| format!("{flag} needs a whole number"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--workload" => {
                i += 1;
                args.workload = argv.get(i).ok_or("--workload needs a name")?.clone();
            }
            "--seed" => args.seed = number(&mut i, "--seed")?,
            "--seconds" => args.seconds = number(&mut i, "--seconds")?,
            "--trace" => args.trace = Some(number(&mut i, "--trace")? != 0),
            "--selfcheck" => {
                // The count is optional (default 10).
                let n = argv.get(i + 1).and_then(|v| v.parse::<usize>().ok());
                i += n.is_some() as usize;
                args.selfcheck = Some(n.unwrap_or(10).max(2));
            }
            other => {
                return Err(format!(
                    "unknown argument {other:?} (expected --workload <name>|all, --seed N, \
                     --seconds N, --trace 0|1, --selfcheck [N])"
                ))
            }
        }
        i += 1;
    }
    if args.workload != "all" && !WORKLOADS.iter().any(|w| w.0 == args.workload) {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        return Err(format!(
            "unknown workload {:?} (expected one of {known:?} or all)",
            args.workload
        ));
    }
    Ok(args)
}

/// Runs one workload here and prints its report; the result line last.
fn run_here(args: &Args, start: Instant) -> Result<(), String> {
    let cfg = RunConfig {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace.unwrap_or(false),
    };
    let report = run_workload(&cfg, start)?;
    if let Some(ledger) = &report.ledger {
        print!("{ledger}");
    }
    print!("{}", report.lines());
    let suffix = if cfg.trace { "traced" } else { "untraced" };
    write_output(
        &format!("{}.{suffix}.json", cfg.workload),
        &report.full_json(),
    );
    println!("{}", report.result_line());
    Ok(())
}

/// Runs one workload in a child process, echoing its output; returns
/// the `<workload> <name> <value> <unit>` lines it printed.
fn run_child(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<Vec<Sample>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut samples = Vec::new();
    for line in stdout.lines() {
        if line.starts_with('{') {
            continue; // the driver's result line; the suite keeps the files
        }
        println!("{line}");
        let mut words = line.split_whitespace();
        if let (Some(w), Some(name), Some(value)) = (words.next(), words.next(), words.next()) {
            if w == workload {
                samples.push(Sample {
                    workload: workload.to_string(),
                    metric: name.to_string(),
                    value: value.to_string(),
                });
            }
        }
    }
    if !output.status.success() {
        return Err(format!("the {workload} run failed ({})", output.status));
    }
    Ok(samples)
}

/// The suite: every workload in its own child process.
fn run_suite(args: &Args, modes: &[bool]) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    let mut files = Vec::new();
    for &trace in modes {
        for (workload, _) in WORKLOADS {
            samples.extend(run_child(workload, args.seed, args.seconds, trace)?);
            let suffix = if trace { "traced" } else { "untraced" };
            files.push(output_dir().join(format!("{workload}.{suffix}.json")));
        }
    }
    let runs: Vec<String> = files
        .iter()
        .filter_map(|f| std::fs::read_to_string(f).ok())
        .collect();
    write_output("results.json", &format!("[\n{}\n]\n", runs.join(",\n")));
    println!(
        "results written to {}",
        output_dir().join("results.json").display()
    );
    Ok(samples)
}

/// Runs the untraced suite `n` times with one seed and checks that it
/// repeats: host-time spreads inside half their bound, exact metrics
/// identical.
fn selfcheck(args: &Args, n: usize) -> Result<bool, String> {
    let mut runs = Vec::with_capacity(n);
    for i in 0..n {
        println!("# selfcheck run {} of {n}", i + 1);
        runs.push(run_suite(args, &[false])?);
    }
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
    let (text, ok) = selfcheck_report(&runs, &names, |metric| end_to_end(metric).copied());
    print!("{text}");
    write_output("selfcheck.md", &text);
    Ok(ok)
}

fn main() -> ExitCode {
    let start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("escra-benchmark: {err}");
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some(n) = args.selfcheck {
        selfcheck(&args, n)
    } else if args.workload == "all" {
        let modes: &[bool] = match args.trace {
            None => &[false, true],
            Some(false) => &[false],
            Some(true) => &[true],
        };
        run_suite(&args, modes).map(|_| true)
    } else {
        run_here(&args, start).map(|()| true)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(err) => {
            eprintln!("escra-benchmark: {err}");
            ExitCode::FAILURE
        }
    }
}
