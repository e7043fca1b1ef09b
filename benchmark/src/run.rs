//! The run shape shared by every workload.
//!
//! A run sets up [`SETUPS`] times — generate the inputs from the seed,
//! register everything, run one full repetition — and `setup_s` is the
//! fastest of those: one measurement of ~3 s is at the mercy of a single
//! noise burst. It then repeats the same fixed work until `--seconds`
//! have passed, always finishing the repetition it is in. A traced run
//! measures in pairs, one repetition with spans off and one with spans
//! on, so both sides of the overhead figure see the same machine; then
//! it runs the per-layer probes and prints the ledger.
//!
//! # Why the fastest repetition, not the median
//!
//! The work of a repetition is fixed, so noise can only add time. On the
//! two-core reference VM it comes from the neighbours: for stretches of
//! ten seconds to minutes every cache miss costs more (a pointer chase
//! over 32 MiB slows by 40 % while an arithmetic loop holds its speed to
//! 3 %), and the workloads, which live in the last-level cache, slow by
//! 10-45 %. Over 70 back-to-back repetitions of `micro_scale`,
//! median-of-7 spread 11.6 % (quartile distance over median) from one
//! group of seven to the next, fastest-of-7 2.5 % (`NOISE.md`): a
//! stretch that covers four of seven repetitions moves their median and
//! leaves their minimum alone. So one rule serves every host-time metric:
//! **whatever is timed is run several times doing identical work, and
//! its time is that of its fastest run.** A set-up is run three times
//! (`setup_s`), a repetition seven times (`ns_per_cp`, the whole
//! repetition, never pieces of several), and a decision once in every
//! repetition: sample `i` of each repetition times the same Controller
//! calls on the same state, so decision `i` is timed by the fastest of
//! them, and `decision_p50_us` / `decision_p99_us` are the quantiles
//! over the decisions so timed. A quantile taken inside one repetition
//! would not do: on `ctl_mixed` the seven repetitions of one run read a
//! p99 of 34.5-38.9 µs each — the tail of a single repetition is the
//! neighbours' — and the p99 over fastest-timed decisions reads 13.5 µs
//! run after run. The repetitions that end the set-ups count too: a
//! colder run is only ever slower, and a minimum ignores it. (The first
//! set-up, which also starts the process and faults its memory in, is
//! the slowest of the three as a rule; their median would be the slower
//! of the other two.) The per-repetition walls are kept in the manifest.

use crate::inputs::{CtlInputs, MatrixInputs, MicroInputs, TraceInputs};
use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::probes::run_probes;
use crate::report::{self, Manifest};
use crate::span::{self, Ledger, Tracer};
use crate::stats::{fastest, quantile};
use crate::workloads::{
    CtlWorkloadRun, LayerValues, MatrixWorkloadRun, MicroWorkloadRun, RepOutput, TraceWorkloadRun,
    Workload,
};
use std::time::Instant;

/// What to run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure for, set-ups not counted.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// Set-ups per run; `setup_s` is the fastest.
pub const SETUPS: usize = 3;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value, with all its digits.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The end-to-end metrics (always measured).
    pub end_to_end: Vec<Metric>,
    /// The per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Outputs were correct: digests identical across repetitions, state
    /// invariants held, workload self-check passed.
    pub correct: bool,
    /// Operations issued in one repetition.
    pub attempted: u64,
    /// Operations that failed in one repetition.
    pub failed: u64,
    /// Who, what, where.
    pub manifest: Manifest,
    /// The ledger, rendered (traced runs only).
    pub ledger: Option<String>,
}

/// Generates `name`'s inputs from `seed` and registers them.
///
/// # Errors
///
/// An unknown workload name.
pub fn build_workload(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "trace_dense" => Box::new(TraceWorkloadRun::new(TraceInputs::dense(seed))),
        "trace_sparse" => Box::new(TraceWorkloadRun::new(TraceInputs::sparse(seed))),
        "micro_scale" => Box::new(MicroWorkloadRun::new(MicroInputs::generate(seed))),
        "paper_matrix" => Box::new(MatrixWorkloadRun::new(MatrixInputs::generate(seed))),
        "ctl_mixed" => Box::new(CtlWorkloadRun::new(CtlInputs::generate(seed), seed)),
        other => {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
            return Err(format!(
                "unknown workload {other:?} (expected one of {known:?} or all)"
            ));
        }
    })
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Runs one workload in this process. `process_start` is when `main`
/// began: the first set-up runs from there to the end of its repetition.
///
/// # Errors
///
/// An unknown workload name.
pub fn run_workload(cfg: &RunConfig, process_start: Instant) -> Result<RunReport, String> {
    let load_start = report::loadavg();
    let mut tracer = Tracer::new(false);
    let mut setups = Vec::with_capacity(SETUPS);
    // Every repetition run with spans off, the set-ups' included.
    let mut untraced: Vec<RepOutput> = Vec::new();
    let mut workload = build_workload(&cfg.workload, cfg.seed)?;
    let mut started = process_start;
    for k in 0..SETUPS {
        if k > 0 {
            started = Instant::now();
            // Free the old inputs first: two copies alive at once would
            // show up in `peak_rss_mib`.
            drop(workload);
            workload = build_workload(&cfg.workload, cfg.seed)?;
        }
        untraced.push(workload.rep(&mut tracer));
        setups.push(started.elapsed().as_secs_f64());
    }

    let measuring = Instant::now();
    let mut traced: Vec<RepOutput> = Vec::new();
    loop {
        if cfg.trace {
            // Spans on for one repetition of the pair, first or second
            // in turn so that a drift in machine speed cancels.
            let on_first = traced.len() % 2 == 1;
            tracer.set_enabled(on_first);
            let a = workload.rep(&mut tracer);
            tracer.set_enabled(!on_first);
            let b = workload.rep(&mut tracer);
            tracer.set_enabled(false);
            let (off, on) = if on_first { (b, a) } else { (a, b) };
            untraced.push(off);
            traced.push(on);
        } else {
            untraced.push(workload.rep(&mut tracer));
        }
        if measuring.elapsed().as_secs_f64() >= cfg.seconds as f64 {
            break;
        }
    }
    let setup_s = fastest(setups.iter().copied());

    let first = &untraced[0];
    let correct = untraced
        .iter()
        .chain(&traced)
        .all(|o| o.digest == first.digest && o.state_ok)
        && workload.self_check(first);

    let periods = first.container_periods.max(1) as f64;
    // Every repetition makes the same decisions in the same order, so
    // each decision, like each repetition, is timed by its fastest run.
    let mut decisions = first.decisions.clone();
    for o in &untraced[1..] {
        for (best, &t) in decisions.iter_mut().zip(&o.decisions) {
            *best = best.min(t);
        }
    }
    decisions.sort_unstable_by(f32::total_cmp);
    let values = [
        setup_s,
        fastest(untraced.iter().map(|o| o.driver_wall_s * 1e9 / periods)),
        quantile(&decisions, 0.50) / 1e3,
        quantile(&decisions, 0.99) / 1e3,
        report::peak_rss_mib(),
        ratio(first.control_bytes, first.container_periods),
        first.slack_p99_cores,
        ratio(first.throttled, first.throttle_base),
    ];
    let end_to_end = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, value)| Metric {
            name: m.name,
            value,
            unit: m.unit,
        })
        .collect();

    // The ledger explains the fastest untraced repetition, with that
    // repetition's own counts (they differ between repetitions only
    // where they hold host time).
    let best = untraced
        .iter()
        .min_by(|a, b| a.driver_wall_s.total_cmp(&b.driver_wall_s))
        .unwrap_or(first);
    let driver_wall_s = best.driver_wall_s;
    let mut per_layer = Vec::new();
    let mut ledger_text = None;
    if cfg.trace {
        tracer.set_enabled(true);
        let mut layers: LayerValues = run_probes(workload.plant_inputs(), cfg.seed, &mut tracer);
        layers.extend(workload.driver_layers(&best.counts, driver_wall_s));
        let ledger = Ledger {
            rows: workload.ledger_rows(&best.counts, &layers),
            driver_wall_s,
        };
        layers.insert("harness.self_frac", ledger.self_frac());
        // Fastest against fastest, over the pairs alone: as many
        // repetitions on either side, interleaved.
        let paired = &untraced[SETUPS..];
        let wall = |reps: &[RepOutput]| fastest(reps.iter().map(|o| o.driver_wall_s));
        layers.insert(
            "bench.trace_overhead_frac",
            wall(&traced) / wall(paired) - 1.0,
        );
        per_layer = PER_LAYER
            .iter()
            .map(|&(name, unit, _)| Metric {
                name,
                // A layer this workload's driver never enters reads 0.
                value: layers.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect();
        let mut text = ledger.render(&cfg.workload);
        text.push_str(&format!(
            "  decisions: one sample is up to {} decision(s) inside one pair of clock reads \
             ({:.0} ns a pair); p50 {:.0} ns per decision\n",
            workload.plant_inputs().shape.decisions_per_sample,
            layers.get("bench.timer_ns").copied().unwrap_or(0.0),
            quantile(&decisions, 0.50)
        ));
        text.push_str(&span_summary(&tracer));
        report::write_output(
            &format!("{}.spans.json", cfg.workload),
            &span::spans_json(tracer.spans()),
        );
        ledger_text = Some(text);
    }

    let manifest = Manifest::collect(
        cfg,
        workload.sizes(),
        workload.inputs_fingerprint(),
        first.container_periods,
        untraced.iter().map(|o| o.driver_wall_s).collect(),
        untraced
            .iter()
            .map(|o| o.decisions.len())
            .min()
            .unwrap_or(0),
        first.digest,
        load_start,
    );
    Ok(RunReport {
        end_to_end,
        per_layer,
        correct,
        attempted: first.attempted,
        failed: first.failed,
        manifest,
        ledger: ledger_text,
    })
}

/// Where the traced repetitions' wall time went, by top-level span name:
/// total time, self time (duration minus child coverage) and operations.
fn span_summary(tracer: &Tracer) -> String {
    let spans = tracer.spans();
    let mut names: Vec<&str> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.name.as_str())
        .collect();
    names.sort_unstable();
    names.dedup();
    let mut out = String::from("spans (top level): name | count | total s | self s | ops\n");
    for name in names {
        let (mut count, mut total, mut own, mut ops) = (0u64, 0u64, 0u64, 0u64);
        for (i, s) in spans.iter().enumerate() {
            if s.parent.is_none() && s.name == name {
                count += 1;
                total += s.duration_ns();
                own += span::self_time_ns(spans, i);
                ops += s.ops;
            }
        }
        out.push_str(&format!(
            "  {name:<44} {count:>7} {:>10.4} {:>10.4} {ops:>14}\n",
            total as f64 / 1e9,
            own as f64 / 1e9
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_workload_is_an_error() {
        let err = build_workload("nope", 1).err().expect("rejected");
        assert!(err.contains("trace_dense") && err.contains("nope"), "{err}");
    }
}
