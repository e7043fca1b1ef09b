//! Decision-identity property tests for the columnar CPU telemetry
//! ingest path: the per-message (`CpuStats`), row-batch
//! (`ingest_cpu_batch`) and columnar (`ingest_cpu_columns`) forms must
//! make the same decisions, bump the same counters, and render
//! byte-identical merged decision traces, and the app-sharded capacity
//! model must make the same decisions at every shard count
//! N ∈ {1, 2, 4, 7} — under content-keyed telemetry fault plans (lost
//! and duplicated reports).
//!
//! ## Why the forms are exactly comparable
//!
//! Telemetry is generated directly in the columnar wire encoding
//! (u32 microseconds / millicores, a packed throttle bitset); the row
//! forms are derived via [`CpuPeriodStats::from_fixed_point`]. Every
//! u32 is exactly representable in f64 and the columnar ingest's bulk
//! u32→cores conversion is bit-identical to the row paths' per-entry
//! division, so there is no quantization gap between the encodings —
//! any divergence the test finds is a real decision divergence.
//!
//! ## What the sharded side additionally exercises
//!
//! The sharded run consumes each node's report list as a content-keyed
//! *mix* of one-entry row batches, longer row batches and columnar
//! blocks, so the router's per-shard split of both forms must keep each
//! shard's reports in arrival order, or decision identity breaks.
//!
//! ## Fault plans
//!
//! As in `app_partition_prop`, faults are content-keyed — a report's fate is
//! a hash of `(container, namespace, round, seed)` — so every
//! representation of the stream loses or duplicates exactly the same
//! logical reports, independent of delivery order.

use escra::cfs::CpuPeriodStats;
use escra::cluster::{AppId, ContainerId, NodeId};
use escra::core::telemetry::{CpuStatsColumns, ToController};
use escra::core::{Action, Controller, CpuStatsEntry, EscraConfig, ShardedController, ToAgent};
use escra::metrics::trace::{render_merged, TraceRecorder};
use escra::simcore::time::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Containers in the scenario (two per app — sibling pool interactions
/// must behave identically across ingest forms).
const N_CONT: u64 = 8;
/// Applications; container `i` belongs to app `i / 2`.
const N_APPS: u64 = 4;
/// Nodes; container `i` reports from node `i % 3`.
const N_NODES: u64 = 3;
/// Per-recorder event capacity: must hold a worst-case run in full
/// (`dropped() == 0` is asserted) so trace byte-equality compares
/// complete streams, not ring-buffer suffixes.
const TRACE_CAP: usize = 1 << 13;

/// Fate-key namespaces for the content-keyed fault plan.
const FATE_LOSS: u64 = 1;
const FATE_DUP: u64 = 2;
const FATE_FORM: u64 = 3;

fn app_of(i: u64) -> AppId {
    AppId::new(i / 2)
}

fn node_of(i: u64) -> NodeId {
    NodeId::new(i % N_NODES)
}

/// Content-keyed fate in `[0, 1)`: depends only on the report's
/// identity, never on delivery order or representation.
fn fate(seed: u64, a: u64, kind: u64, b: u64) -> f64 {
    let mut x = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(a.rotate_left(17))
        .wrapping_add(kind.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(b.rotate_left(43));
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// One container's period report in the fixed-point wire encoding —
/// the single source of truth all three ingest forms are derived from.
#[derive(Clone, Copy)]
struct Report {
    container: u64,
    quota_mcores: u32,
    usage_us: u32,
    unused_us: u32,
    throttled: bool,
}

impl Report {
    /// The row (struct-of-structs) form of this report.
    fn entry(&self) -> CpuStatsEntry {
        CpuStatsEntry {
            container: ContainerId::new(self.container),
            stats: CpuPeriodStats::from_fixed_point(
                self.quota_mcores,
                self.unused_us,
                self.usage_us,
                self.throttled,
            ),
        }
    }

    /// Appends this report to a columnar block.
    fn push_into(&self, cols: &mut CpuStatsColumns) {
        cols.push_raw(
            ContainerId::new(self.container),
            self.quota_mcores,
            self.unused_us,
            self.usage_us,
            self.throttled,
        );
    }
}

/// Canonical CPU command: `(container, node, quota_bits, rank)` with
/// the shard-local seq replaced by the per-container occurrence rank
/// (representation-independent), sorted for order-insensitive
/// comparison against the sharded drain.
fn canon_cpu(actions: &[Action]) -> Vec<(u64, u64, u64, u64)> {
    let mut ranks: BTreeMap<u64, u64> = BTreeMap::new();
    let mut v: Vec<(u64, u64, u64, u64)> = actions
        .iter()
        .map(|a| match *a {
            Action::Agent {
                node,
                cmd:
                    ToAgent::SetCpuQuota {
                        container,
                        quota_cores,
                        ..
                    },
            } => {
                let c = container.as_u64();
                let r = ranks.entry(c).or_insert(0);
                let rank = *r;
                *r += 1;
                (c, node.as_u64(), quota_cores.to_bits(), rank)
            }
            ref other => panic!("unexpected action in a CPU-only scenario: {other:?}"),
        })
        .collect();
    v.sort_unstable();
    v
}

proptest! {
    /// The acceptance-criteria identity: columnar vs `ingest_cpu_batch`
    /// vs per-message `CpuStats`, serial and sharded at N ∈ {1, 2, 4,
    /// 7}, under content-keyed loss/duplication fault plans — equal
    /// decisions (the serial sides byte-equal including seqs), equal
    /// stats counters, and byte-equal merged decision traces across the
    /// three serial forms.
    #[test]
    fn columnar_batch_and_per_message_ingest_are_decision_identical(
        fault_seed in any::<u64>(),
        loss in 0.0f64..0.5,
        dup in 0.0f64..0.4,
        rounds in proptest::collection::vec(
            (any::<u8>(), any::<u64>(), any::<u64>(), any::<u8>()),
            1..50,
        ),
    ) {
        for n_shards in [1usize, 2, 4, 7] {
            let rec = || TraceRecorder::with_capacity(TRACE_CAP);
            let mut by_msg = Controller::with_sink(EscraConfig::default(), rec());
            let mut by_batch = Controller::with_sink(EscraConfig::default(), rec());
            let mut by_cols = Controller::with_sink(EscraConfig::default(), rec());
            let mut sharded = ShardedController::new(EscraConfig::default(), n_shards);
            for a in 0..N_APPS {
                let (app, omega, mem) = (AppId::new(a), 6.0, 1u64 << 30);
                by_msg.register_app(app, omega, mem);
                by_batch.register_app(app, omega, mem);
                by_cols.register_app(app, omega, mem);
                sharded.register_app(app, omega, mem);
            }
            for i in 0..N_CONT {
                let c = ContainerId::new(i);
                by_msg.register_container(c, app_of(i), node_of(i), 1.5, 128 << 20)
                    .expect("register");
                by_batch.register_container(c, app_of(i), node_of(i), 1.5, 128 << 20)
                    .expect("register");
                by_cols.register_container(c, app_of(i), node_of(i), 1.5, 128 << 20)
                    .expect("register");
                sharded.register_container(c, app_of(i), node_of(i), 1.5, 128 << 20)
                    .expect("register");
            }
            // Identical registration bootstrap on every side; discard it.
            sharded.drain_actions_into(&mut Vec::new());

            let mut acts_m: Vec<Action> = Vec::new();
            let mut acts_b: Vec<Action> = Vec::new();
            let mut acts_c: Vec<Action> = Vec::new();
            let mut acts_s: Vec<Action> = Vec::new();
            let mut now = SimTime::ZERO;
            for (round_idx, &(mask, usage_seed, unused_seed, throttle_mask)) in
                rounds.iter().enumerate()
            {
                now += SimDuration::from_millis(100);
                let r = round_idx as u64;

                // The three serial forms agree bit-for-bit on every
                // tracked quota before the round's telemetry lands.
                for i in 0..N_CONT {
                    let c = ContainerId::new(i);
                    let q = by_msg.allocator().quota_of(c).expect("tracked").to_bits();
                    prop_assert_eq!(
                        q,
                        by_batch.allocator().quota_of(c).expect("tracked").to_bits()
                    );
                    prop_assert_eq!(
                        q,
                        by_cols.allocator().quota_of(c).expect("tracked").to_bits()
                    );
                }

                // The round's reports, through the content-keyed fault
                // plan: a lost report vanishes from every form, a
                // duplicated one appears twice back-to-back in every
                // form.
                let mut per_node: Vec<Vec<Report>> =
                    (0..N_NODES).map(|_| Vec::new()).collect();
                for i in 0..N_CONT {
                    if mask & (1 << i) == 0 || fate(fault_seed, i, FATE_LOSS, r) < loss {
                        continue;
                    }
                    let quota = by_msg
                        .allocator()
                        .quota_of(ContainerId::new(i))
                        .expect("tracked");
                    let report = Report {
                        container: i,
                        quota_mcores: (quota * 1000.0).round().clamp(0.0, u32::MAX as f64)
                            as u32,
                        usage_us: (((usage_seed >> (8 * i)) & 0xFF) as u32) * 1_000,
                        unused_us: (((unused_seed >> (8 * i)) & 0xFF) as u32) * 400,
                        throttled: throttle_mask & (1 << i) != 0,
                    };
                    let copies = if fate(fault_seed, i, FATE_DUP, r) < dup { 2 } else { 1 };
                    for _ in 0..copies {
                        per_node[(i % N_NODES) as usize].push(report);
                    }
                }

                acts_m.clear();
                acts_b.clear();
                acts_c.clear();
                acts_s.clear();
                for (node, reports) in per_node.iter().enumerate() {
                    if reports.is_empty() {
                        continue;
                    }
                    // Serial side 1: one wire message per report.
                    for rep in reports {
                        let e = rep.entry();
                        by_msg.handle_into(
                            now,
                            ToController::CpuStats {
                                container: e.container,
                                stats: e.stats,
                            },
                            &mut acts_m,
                        );
                    }
                    // Serial side 2: the node's reports as one row batch.
                    let entries: Vec<CpuStatsEntry> =
                        reports.iter().map(Report::entry).collect();
                    by_batch.ingest_cpu_batch_at(now, &entries, &mut acts_b);
                    // Serial side 3: the same reports as one columnar block.
                    let mut cols = CpuStatsColumns::new();
                    for rep in reports {
                        rep.push_into(&mut cols);
                    }
                    by_cols.ingest_cpu_columns_at(now, &cols, &mut acts_c);
                    // Sharded side: the same reports as content-keyed
                    // runs of one-entry batches, longer batches and
                    // columnar blocks, which interleaves columnar
                    // sub-blocks with row-form deliveries to the same
                    // shards.
                    let form_of = |k: usize| {
                        (fate(fault_seed, (node as u64) * 131 + k as u64, FATE_FORM, r)
                            * 3.0) as usize
                    };
                    let mut k = 0usize;
                    while k < reports.len() {
                        let form = form_of(k);
                        let mut end = k + 1;
                        while end < reports.len() && form_of(end) == form {
                            end += 1;
                        }
                        let run = &reports[k..end];
                        match form.min(2) {
                            0 => {
                                for rep in run {
                                    sharded.ingest_cpu_batch(&[rep.entry()]);
                                }
                            }
                            1 => {
                                let entries: Vec<CpuStatsEntry> =
                                    run.iter().map(Report::entry).collect();
                                sharded.ingest_cpu_batch(&entries);
                            }
                            _ => {
                                let mut sub = CpuStatsColumns::new();
                                for rep in run {
                                    rep.push_into(&mut sub);
                                }
                                sharded.ingest_cpu_columns(&sub);
                            }
                        }
                        k = end;
                    }
                }
                sharded.drain_actions_into(&mut acts_s);

                // The serial forms emit the *same action bytes* — same
                // decisions, same emission order, same seq numbers.
                prop_assert_eq!(&acts_m, &acts_b, "per-message vs batch (n={})", n_shards);
                prop_assert_eq!(&acts_m, &acts_c, "per-message vs columnar (n={})", n_shards);
                // The sharded drain matches up to per-shard seq
                // numbering and cross-shard emission order.
                prop_assert_eq!(
                    canon_cpu(&acts_m),
                    canon_cpu(&acts_s),
                    "serial vs sharded (n={})",
                    n_shards
                );
                prop_assert_eq!(by_msg.stats(), by_batch.stats());
                prop_assert_eq!(by_msg.stats(), by_cols.stats());
                prop_assert_eq!(by_msg.stats(), sharded.stats(), "stats (n={})", n_shards);
            }

            // Merged decision traces are byte-identical across the three
            // serial forms — full streams, nothing wrapped away.
            prop_assert_eq!(by_msg.sink().dropped(), 0);
            prop_assert_eq!(by_batch.sink().dropped(), 0);
            prop_assert_eq!(by_cols.sink().dropped(), 0);
            let t_msg = render_merged(&[by_msg.sink()]);
            let t_batch = render_merged(&[by_batch.sink()]);
            let t_cols = render_merged(&[by_cols.sink()]);
            prop_assert_eq!(&t_msg, &t_batch, "trace: per-message vs batch");
            prop_assert_eq!(&t_msg, &t_cols, "trace: per-message vs columnar");
        }
    }
}
