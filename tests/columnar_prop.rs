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
//!
//! ## Datagrams at fleet shape
//!
//! The second property drives the three serial forms with datagrams of
//! 20–80 entries over a 96-container registry that churns between
//! rounds: a container repeats within one datagram (as a node flushing
//! several periods at once reports it), and unknown ids — never
//! registered, or deregistered in an earlier round — sit within
//! [`EDGE`] entries of both ends of a datagram. That is the shape a walk
//! that reads ahead of the entry it decides has to get right. Beside the
//! identity of the three forms, which a defect shared by all three would
//! pass, every live container's windowed decision inputs are held to a
//! plain `VecDeque` model of its last reports, and every app's Σ-sums to
//! its pool. A sibling property repeats this at window lengths on both
//! sides of the allocator's inline ring (1, 4, 5, 6, 7 and 24 periods),
//! so the ring arena is reached through both walks too.
//!
//! ## Ragged blocks
//!
//! `CpuStatsColumns`' fields are `pub`, so any caller can build a block
//! whose columns disagree in length and hand it to the Controller. The
//! third property feeds such blocks and holds the Controller to refusing
//! them whole.

use escra::cfs::CpuPeriodStats;
use escra::cluster::{AppId, ContainerId, NodeId};
use escra::core::telemetry::{CpuStatsColumns, ToController};
use escra::core::{Action, Controller, CpuStatsEntry, EscraConfig, ShardedController, ToAgent};
use escra::metrics::fingerprint::StateHash;
use escra::metrics::trace::{render_merged, TraceRecorder};
use escra::simcore::rng::SimRng;
use escra::simcore::time::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};

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

/// Containers registered before the fleet-shape property's first round.
const REACH_CONT: u64 = 96;
/// Applications of the fleet-shape property; container `i` belongs to
/// app `i % REACH_APPS`.
const REACH_APPS: u64 = 6;
/// Raw ids from here up are never registered: past the end of every
/// container index the fleet-shape property builds.
const GHOST_BASE: u64 = 1 << 20;
/// Unknown ids land within this many entries of each datagram end: the
/// reach of the Controller's read-ahead over a datagram's entries.
const EDGE: usize = 16;

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

/// Uniform in `0..n`: the per-case draws of the fleet-shape and
/// ragged-block properties.
fn below(rng: &mut SimRng, n: usize) -> usize {
    rng.next_below(n as u64) as usize
}

/// Registers container `id` on every side of the fleet-shape property.
fn register_everywhere(sides: &mut [Controller<TraceRecorder>], id: u64) {
    for c in sides {
        c.register_container(
            ContainerId::new(id),
            AppId::new(id % REACH_APPS),
            NodeId::new(id % N_NODES),
            1.0,
            128 << 20,
        )
        .expect("register");
    }
}

/// One fleet-shape datagram's container ids: `k` distinct live
/// containers reported `m` times over, period-major — so each recurs
/// every `k` entries, with `k` just inside, on and just past [`EDGE`] —
/// for 20–76 entries, then one never-registered and one deregistered id
/// planted within [`EDGE`] entries of each end (24–80 entries in all).
fn fleet_datagram_ids(rng: &mut SimRng, live: &[u64], dead: &[u64]) -> Vec<u64> {
    const STRIDES: [usize; 8] = [5, 8, 12, 15, 16, 17, 24, 38];
    let k = STRIDES[below(rng, STRIDES.len())];
    let (lo, hi) = (20usize.div_ceil(k), 76 / k);
    let m = lo + below(rng, hi - lo + 1);
    let mut chosen: Vec<u64> = Vec::with_capacity(k);
    while chosen.len() < k {
        let c = live[below(rng, live.len())];
        if !chosen.contains(&c) {
            chosen.push(c);
        }
    }
    let mut ids: Vec<u64> = (0..m).flat_map(|_| chosen.iter().copied()).collect();
    for at_end in [false, true] {
        let ghost = GHOST_BASE + below(rng, 1 << 20) as u64;
        let stale = dead[below(rng, dead.len())];
        for unknown in [ghost, stale] {
            let pos = if at_end {
                ids.len() - below(rng, EDGE)
            } else {
                below(rng, EDGE)
            };
            ids.insert(pos, unknown);
        }
    }
    ids
}

/// One block for the ragged-block property: `n` entries, of which each
/// of the five columns (the four `u32` columns, then the throttle words)
/// is cut short or padded by 1–3 values when its bit of `skew` is set;
/// `skew >= 32` leaves every column whole. Ids cover the registry and a
/// few unknown ones; the throttle words are random to the last bit.
/// Returns the block and whether every column was left whole.
fn hostile_block(n: usize, skew: u8, seed: u64) -> (CpuStatsColumns, bool) {
    let mut rng = SimRng::new(seed);
    let whole = skew >= 32 || skew & 0x1F == 0;
    let mut lens = [n, n, n, n, n.div_ceil(64)];
    for (bit, len) in lens.iter_mut().enumerate() {
        if !whole && skew & (1 << bit) != 0 {
            let d = 1 + below(&mut rng, 3);
            *len = if *len >= d && below(&mut rng, 2) == 0 {
                *len - d
            } else {
                *len + d
            };
        }
    }
    let mut column = |len: usize, bound: usize| -> Vec<u32> {
        (0..len).map(|_| below(&mut rng, bound) as u32).collect()
    };
    let container_raw = column(lens[0], N_CONT as usize + 4);
    let quota_mcores = column(lens[1], 3_000);
    let unused_us = column(lens[2], 100_000);
    let usage_us = column(lens[3], 100_000);
    let throttled = (0..lens[4]).map(|_| rng.next_u64()).collect();
    let block = CpuStatsColumns {
        container_raw,
        quota_mcores,
        unused_us,
        usage_us,
        throttled,
    };
    (block, whole)
}

/// The Controller's canonical state hash (allocator books, seqs,
/// pending grants; not its stats).
fn state_hash(c: &Controller<TraceRecorder>) -> u64 {
    let mut h = StateHash::new();
    c.fingerprint_into(&mut h);
    h.finish()
}

/// One case of the fleet-shape properties under `cfg`. Beside the
/// identity of the three serial forms, every side's windowed decision
/// inputs for every live container must be those of a plain model of
/// its last `window_periods` reports (reset when the id registers), and
/// every app's tracked quotas and memory limits must sum to its pool's
/// allocation.
fn fleet_shape_case(cfg: EscraConfig, seed: u64, rounds: usize) -> Result<(), TestCaseError> {
    let mut rng = SimRng::new(seed);
    let mut sides = [(); 3]
        .map(|_| Controller::with_sink(cfg.clone(), TraceRecorder::with_capacity(TRACE_CAP)));
    for a in 0..REACH_APPS {
        for c in &mut sides {
            c.register_app(AppId::new(a), 24.0, 8 << 30);
        }
    }
    let mut live: Vec<u64> = (0..REACH_CONT).collect();
    // Each live container's last `window_periods` (throttled, unused
    // cores) reports, oldest first.
    let mut model: BTreeMap<u64, VecDeque<(bool, f64)>> = BTreeMap::new();
    for &id in &live {
        register_everywhere(&mut sides, id);
        model.insert(id, VecDeque::new());
    }
    let mut dead: Vec<u64> = Vec::new();
    let mut next_id = REACH_CONT;
    let (mut acts_m, mut acts_b, mut acts_c) = (Vec::new(), Vec::new(), Vec::new());
    let mut now = SimTime::ZERO;
    for round in 0..rounds {
        now += SimDuration::from_millis(100);
        // Some containers leave — their ids stay in the stream as
        // stale telemetry — and fresh ones take the freed slab slots.
        for _ in 0..1 + below(&mut rng, 3) {
            let gone = live.swap_remove(below(&mut rng, live.len()));
            for c in &mut sides {
                c.deregister_container(ContainerId::new(gone))
                    .expect("live");
            }
            model.remove(&gone);
            dead.push(gone);
        }
        for _ in 0..1 + below(&mut rng, 3) {
            register_everywhere(&mut sides, next_id);
            model.insert(next_id, VecDeque::new());
            live.push(next_id);
            next_id += 1;
        }
        for datagram in 0..2 {
            let ids = fleet_datagram_ids(&mut rng, &live, &dead);
            let reports: Vec<Report> = ids
                .iter()
                .map(|&id| {
                    let quota = sides[0].allocator().quota_of(ContainerId::new(id));
                    let quota_mcores = (quota.unwrap_or(1.0) * 1000.0).round() as u32;
                    let usage_us = below(&mut rng, quota_mcores as usize * 100 + 1) as u32;
                    Report {
                        container: id,
                        quota_mcores,
                        usage_us,
                        unused_us: quota_mcores * 100 - usage_us,
                        throttled: below(&mut rng, 5) < 2,
                    }
                })
                .collect();
            let [by_msg, by_batch, by_cols] = &mut sides;
            acts_m.clear();
            acts_b.clear();
            acts_c.clear();
            for rep in &reports {
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
            let entries: Vec<CpuStatsEntry> = reports.iter().map(Report::entry).collect();
            by_batch.ingest_cpu_batch_at(now, &entries, &mut acts_b);
            let mut cols = CpuStatsColumns::new();
            for rep in &reports {
                rep.push_into(&mut cols);
            }
            by_cols.ingest_cpu_columns_at(now, &cols, &mut acts_c);
            prop_assert_eq!(
                &acts_m,
                &acts_b,
                "per-message vs batch ({}/{})",
                round,
                datagram
            );
            prop_assert_eq!(
                &acts_m,
                &acts_c,
                "per-message vs columnar ({}/{})",
                round,
                datagram
            );
            prop_assert_eq!(by_msg.stats(), by_batch.stats());
            prop_assert_eq!(by_msg.stats(), by_cols.stats());
            for rep in &reports {
                if let Some(window) = model.get_mut(&rep.container) {
                    let unused = rep.entry().stats.unused_cores(cfg.report_period);
                    window.push_back((rep.throttled, unused));
                    if window.len() > cfg.window_periods {
                        window.pop_front();
                    }
                }
            }
            for (&id, window) in &model {
                let expect = if window.is_empty() {
                    (0.0, 0.0)
                } else {
                    let n = window.len() as f64;
                    let ones = window.iter().filter(|s| s.0).count() as f64;
                    let mut sum = 0.0;
                    for s in window {
                        sum += s.1;
                    }
                    (ones / n, sum / n)
                };
                for side in sides.iter() {
                    let got = side.allocator().decision_inputs(ContainerId::new(id));
                    prop_assert_eq!(
                        got.map(|(t, u)| (t.to_bits(), u.to_bits())),
                        Some((expect.0.to_bits(), expect.1.to_bits())),
                        "windows of {} ({}/{})",
                        id,
                        round,
                        datagram
                    );
                }
            }
            for a in 0..REACH_APPS {
                let app = AppId::new(a);
                for side in sides.iter() {
                    let (alloc, pool) = (side.allocator(), side.allocator().app_pool(app));
                    let pool = pool.expect("registered app");
                    prop_assert_eq!(alloc.tracked_mem_sum(app), pool.allocated_mem_bytes());
                    prop_assert!(
                        (alloc.tracked_cpu_sum(app) - pool.allocated_cpu_cores()).abs() < 1e-6
                    );
                }
            }
        }
    }
    let [by_msg, by_batch, by_cols] = &sides;
    prop_assert!(by_msg.stats().scale_ups > 0 && by_msg.stats().scale_downs > 0);
    for side in &sides {
        prop_assert_eq!(side.sink().dropped(), 0);
    }
    let t_msg = render_merged(&[by_msg.sink()]);
    prop_assert_eq!(
        &t_msg,
        &render_merged(&[by_batch.sink()]),
        "trace: per-message vs batch"
    );
    prop_assert_eq!(
        &t_msg,
        &render_merged(&[by_cols.sink()]),
        "trace: per-message vs columnar"
    );
    Ok(())
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

    /// Datagrams at fleet shape (module docs): per-message, row-batch
    /// and columnar ingest emit byte-equal actions, seqs included, keep
    /// equal stats and render byte-equal merged decision traces, through
    /// registry churn that recycles the slab slots of deregistered ids
    /// still in the stream.
    #[test]
    fn fleet_shape_datagrams_are_decision_identical(
        seed in any::<u64>(),
        rounds in 2usize..10,
    ) {
        fleet_shape_case(EscraConfig::default(), seed, rounds)?;
    }

    /// The same datagrams at window lengths on both sides of the
    /// allocator's inline ring (5 periods): the shortest window, the
    /// longest inline one, the first that spills to the ring arena and
    /// the longest supported, with their neighbours.
    #[test]
    fn fleet_shape_datagrams_are_decision_identical_at_every_window_length(
        seed in any::<u64>(),
        rounds in 2usize..6,
    ) {
        for periods in [1, 4, 5, 6, 7, 24] {
            fleet_shape_case(EscraConfig::default().with_window(periods), seed, rounds)?;
        }
    }

    /// Column blocks off a hostile wire: the four `u32` columns and the
    /// throttle words of random, often unequal lengths. Nothing panics;
    /// a ragged block leaves the Controller's state, stats and trace
    /// untouched and emits nothing; a well-formed one decides exactly as
    /// its `to_entries()` row batch does. The sharded capacity model
    /// refuses the same blocks.
    #[test]
    fn ragged_column_blocks_are_refused_whole(
        blocks in proptest::collection::vec((0usize..150, 0u8..64, any::<u64>()), 1..16),
    ) {
        let setup = || {
            let mut c = Controller::with_sink(
                EscraConfig::default(),
                TraceRecorder::with_capacity(TRACE_CAP),
            );
            for a in 0..N_APPS {
                c.register_app(AppId::new(a), 6.0, 1 << 30);
            }
            for i in 0..N_CONT {
                c.register_container(ContainerId::new(i), app_of(i), node_of(i), 1.5, 128 << 20)
                    .expect("register");
            }
            c
        };
        let (mut by_cols, mut by_rows) = (setup(), setup());
        let mut sharded = ShardedController::new(EscraConfig::default(), 2);
        for a in 0..N_APPS {
            sharded.register_app(AppId::new(a), 6.0, 1 << 30);
        }
        for i in 0..N_CONT {
            sharded
                .register_container(ContainerId::new(i), app_of(i), node_of(i), 1.5, 128 << 20)
                .expect("register");
        }
        let (mut acts_c, mut acts_r) = (Vec::new(), Vec::new());
        let mut now = SimTime::ZERO;
        for &(n, skew, seed) in &blocks {
            now += SimDuration::from_millis(100);
            let (cols, whole) = hostile_block(n, skew, seed);
            prop_assert_eq!(cols.is_well_formed(), whole);
            let before = (state_hash(&by_cols), by_cols.stats(), by_cols.sink().emitted());
            acts_c.clear();
            acts_r.clear();
            sharded.ingest_cpu_columns(&cols);
            by_cols.handle_into(
                now,
                ToController::CpuStatsColumns { node: NodeId::new(0), columns: cols.clone() },
                &mut acts_c,
            );
            if whole {
                by_rows.handle_into(
                    now,
                    ToController::CpuStatsBatch { node: NodeId::new(0), entries: cols.to_entries() },
                    &mut acts_r,
                );
                prop_assert_eq!(&acts_c, &acts_r);
            } else {
                prop_assert!(acts_c.is_empty());
                prop_assert_eq!(
                    before,
                    (state_hash(&by_cols), by_cols.stats(), by_cols.sink().emitted())
                );
            }
            prop_assert_eq!(state_hash(&by_cols), state_hash(&by_rows));
            prop_assert_eq!(by_cols.stats(), by_rows.stats());
            prop_assert_eq!(sharded.stats(), by_rows.stats());
        }
        prop_assert_eq!(render_merged(&[by_cols.sink()]), render_merged(&[by_rows.sink()]));
    }
}
