//! Deterministic synthetic serverless traces.
//!
//! Generates Azure-Functions-flavoured populations — many tiny steady
//! apps, a band of diurnal mid-rate apps, a few heavy bursty ones —
//! normalized into the shared [`TraceWorkload`] form. Everything is
//! seeded: the same [`SyntheticTraceConfig`] always yields a
//! byte-identical workload, and every generated per-minute rate is
//! clamped to the config's envelope (mirroring the `alibaba_trace`
//! envelope contract).

use crate::trace_workload::{TraceApp, TraceWorkload};
use escra_simcore::rng::{lognormal_params, SimRng};

/// Shape of one app class's per-minute arrival-rate series.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalShape {
    /// Flat at the app's mean rpm.
    Steady,
    /// Sinusoid around the mean: `mean × (1 + amplitude·sin)`, one full
    /// cycle every `period_minutes`.
    Diurnal {
        /// Cycle length in minutes.
        period_minutes: f64,
        /// Relative swing in `[0, 1]`.
        amplitude: f64,
    },
    /// The mean rpm, multiplied by `factor` for `len_minutes` every
    /// `every_minutes` (phase-shifted per app so bursts don't align).
    Bursty {
        /// Minutes between burst starts.
        every_minutes: usize,
        /// Burst length in minutes.
        len_minutes: usize,
        /// Rate multiplier during a burst.
        factor: f64,
    },
}

/// One class of synthetic apps sharing arrival/duration/memory
/// distributions (the dslab-faas `SyntheticTraceAppConfig` shape,
/// adapted to the minute-grid normal form).
#[derive(Debug, Clone, PartialEq)]
pub struct AppClass {
    /// Class name; generated apps are `"{name}-{i}"`.
    pub name: String,
    /// Number of apps drawn from this class.
    pub apps: usize,
    /// Per-app mean rpm, sampled log-uniformly from this range.
    pub rpm_range: (f64, f64),
    /// Arrival-rate shape over the minute grid.
    pub arrival: ArrivalShape,
    /// Median execution duration in ms, sampled log-uniformly.
    pub exec_ms_median_range: (f64, f64),
    /// Coefficient of variation of the lognormal execution duration
    /// (`sigma² = ln(1 + cv²)`).
    pub exec_cv: f64,
    /// Peak invocation memory in MiB, sampled uniformly (integer).
    pub mem_mib_range: (u64, u64),
}

/// A complete synthetic-trace recipe.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticTraceConfig {
    /// The app classes.
    pub classes: Vec<AppClass>,
    /// Trace length, in minutes.
    pub minutes: usize,
    /// Master seed; equal seeds give byte-identical workloads.
    pub seed: u64,
    /// Envelope `[min, max]` every generated per-minute rate is clamped
    /// to.
    pub rpm_clamp: (f64, f64),
}

/// Generates the workload described by `cfg`.
///
/// Deterministic and enveloped, like the `alibaba_trace` contract:
///
/// ```
/// use escra_workloads::synthetic_trace::{mega_mix, synthetic_trace};
/// let cfg = mega_mix(100, 3, 7);
/// let w = synthetic_trace(&cfg);
/// assert_eq!(w.apps.len(), 100);
/// assert_eq!(w, synthetic_trace(&cfg)); // same seed ⇒ identical
/// let (lo, hi) = cfg.rpm_clamp;
/// assert!(w
///     .apps
///     .iter()
///     .flat_map(|a| a.rpm.iter())
///     .all(|r| (lo..=hi).contains(r)));
/// ```
pub fn synthetic_trace(cfg: &SyntheticTraceConfig) -> TraceWorkload {
    let (lo, hi) = cfg.rpm_clamp;
    assert!(lo >= 0.0 && hi >= lo, "bad rpm envelope [{lo}, {hi}]");
    let mut apps = Vec::new();
    for (ci, class) in cfg.classes.iter().enumerate() {
        let class_rng = SimRng::new(cfg.seed)
            .fork(0x0074_7263) /* "trc" */
            .fork(ci as u64);
        for ai in 0..class.apps {
            let mut rng = class_rng.fork(ai as u64);
            let mean_rpm = log_uniform(&mut rng, class.rpm_range);
            let exec_median = log_uniform(&mut rng, class.exec_ms_median_range);
            let mem_mib = int_uniform(&mut rng, class.mem_mib_range);
            // Per-app phase so diurnal peaks and bursts don't all align.
            let phase = rng.uniform(0.0, 1.0);
            let rpm: Vec<f64> = (0..cfg.minutes)
                .map(|m| {
                    let shaped = match &class.arrival {
                        ArrivalShape::Steady => mean_rpm,
                        ArrivalShape::Diurnal {
                            period_minutes,
                            amplitude,
                        } => {
                            let x = (m as f64 / period_minutes.max(1e-9) + phase)
                                * core::f64::consts::TAU;
                            mean_rpm * (1.0 + amplitude.clamp(0.0, 1.0) * x.sin())
                        }
                        ArrivalShape::Bursty {
                            every_minutes,
                            len_minutes,
                            factor,
                        } => {
                            let every = (*every_minutes).max(1);
                            let offset = (phase * every as f64) as usize % every;
                            if (m + offset) % every < *len_minutes {
                                mean_rpm * factor
                            } else {
                                mean_rpm
                            }
                        }
                    };
                    shaped.clamp(lo, hi)
                })
                .collect();
            // The classes give a median, so `mu` is its logarithm; only
            // the CV-to-sigma half of the parameterisation applies.
            let (_, exec_ms_sigma) = lognormal_params(exec_median, class.exec_cv);
            apps.push(TraceApp {
                name: format!("{}-{ai}", class.name),
                rpm,
                exec_ms_mu: exec_median.ln(),
                exec_ms_sigma,
                mem_mib,
                idle_mem_mib: (mem_mib / 4).max(4),
            });
        }
    }
    TraceWorkload {
        apps,
        minutes: cfg.minutes,
    }
}

/// The `trace_mega` population: ~76 % tiny steady apps, ~19 % diurnal
/// mid-rate apps, ~5 % heavy bursty apps — the skew of the public Azure
/// Functions traces, scaled to `apps` total.
pub fn mega_mix(apps: usize, minutes: usize, seed: u64) -> SyntheticTraceConfig {
    let tiny = apps * 76 / 100;
    let diurnal = apps * 19 / 100;
    let heavy = apps - tiny - diurnal;
    SyntheticTraceConfig {
        classes: vec![
            AppClass {
                name: "tiny".into(),
                apps: tiny,
                rpm_range: (0.2, 6.0),
                arrival: ArrivalShape::Steady,
                exec_ms_median_range: (30.0, 300.0),
                exec_cv: 1.5,
                mem_mib_range: (32, 128),
            },
            AppClass {
                name: "diurnal".into(),
                apps: diurnal,
                rpm_range: (6.0, 60.0),
                arrival: ArrivalShape::Diurnal {
                    period_minutes: 12.0,
                    amplitude: 0.7,
                },
                exec_ms_median_range: (80.0, 800.0),
                exec_cv: 1.0,
                mem_mib_range: (64, 256),
            },
            AppClass {
                name: "heavy".into(),
                apps: heavy,
                rpm_range: (20.0, 120.0),
                arrival: ArrivalShape::Bursty {
                    every_minutes: 5,
                    len_minutes: 1,
                    factor: 6.0,
                },
                exec_ms_median_range: (300.0, 3_000.0),
                exec_cv: 0.6,
                mem_mib_range: (128, 512),
            },
        ],
        minutes,
        seed,
        rpm_clamp: (0.0, 600.0),
    }
}

fn log_uniform(rng: &mut SimRng, (lo, hi): (f64, f64)) -> f64 {
    assert!(lo > 0.0 && hi >= lo, "bad log-uniform range [{lo}, {hi}]");
    rng.uniform(lo.ln(), hi.ln()).exp()
}

fn int_uniform(rng: &mut SimRng, (lo, hi): (u64, u64)) -> u64 {
    assert!(hi >= lo, "bad range [{lo}, {hi}]");
    lo + rng.next_below(hi - lo + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_byte_identical() {
        let cfg = mega_mix(500, 4, 20220701);
        let a = synthetic_trace(&cfg);
        let b = synthetic_trace(&cfg);
        assert_eq!(a, b);
        // Byte-identical once serialized, the sweep-gate currency.
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
        // A different seed moves the draws.
        let c = synthetic_trace(&mega_mix(500, 4, 7));
        assert_ne!(a, c);
    }

    #[test]
    fn population_split_and_shapes() {
        let w = synthetic_trace(&mega_mix(1_000, 10, 1));
        assert_eq!(w.apps.len(), 1_000);
        assert_eq!(
            w.apps
                .iter()
                .filter(|a| a.name.starts_with("tiny-"))
                .count(),
            760
        );
        assert_eq!(
            w.apps
                .iter()
                .filter(|a| a.name.starts_with("diurnal-"))
                .count(),
            190
        );
        assert_eq!(
            w.apps
                .iter()
                .filter(|a| a.name.starts_with("heavy-"))
                .count(),
            50
        );
        // Bursty apps actually vary; steady ones don't.
        let heavy = w
            .apps
            .iter()
            .find(|a| a.name.starts_with("heavy-"))
            .unwrap();
        let (mn, mx) = heavy
            .rpm
            .iter()
            .fold((f64::INFINITY, 0.0f64), |(mn, mx), &r| {
                (mn.min(r), mx.max(r))
            });
        assert!(mx > 2.0 * mn, "burst peak {mx} vs base {mn}");
        let tiny = w.apps.iter().find(|a| a.name.starts_with("tiny-")).unwrap();
        assert!(tiny.rpm.windows(2).all(|p| p[0] == p[1]));
    }

    #[test]
    fn envelope_clamps_hold_for_tight_bounds() {
        // Force the clamp to bite: heavy bursts at factor 6 on a 120-rpm
        // mean exceed 600 and must be clamped, and a tiny floor lifts
        // quiet minutes.
        let mut cfg = mega_mix(200, 6, 3);
        cfg.rpm_clamp = (1.0, 50.0);
        let w = synthetic_trace(&cfg);
        for a in &w.apps {
            for &r in &a.rpm {
                assert!(
                    (1.0..=50.0).contains(&r),
                    "{} rpm {r} out of envelope",
                    a.name
                );
            }
        }
        // The clamp actually bit at both ends.
        assert!(w.apps.iter().any(|a| a.rpm.contains(&50.0)));
        assert!(w.apps.iter().any(|a| a.rpm.contains(&1.0)));
    }

    #[test]
    fn minutes_grid_is_uniform() {
        let w = synthetic_trace(&mega_mix(50, 7, 9));
        assert!(w.apps.iter().all(|a| a.rpm.len() == 7));
        assert_eq!(w.minutes, 7);
    }
}
