//! Controller telemetry ingest at fleet scale, in row and columnar form.
//!
//! An `#[ignore]`d timing test, not a tier-1 check. It builds a
//! 100 000-container, 256-node registry — 20–80 containers per
//! application, placed on nodes at random, as the benchmark's
//! `ctl_mixed` builds its own — and replays the same closed-loop periods
//! once through `ingest_cpu_batch_at` (rows) and once through
//! `ingest_cpu_columns_at` (columns), each on a fresh Controller. A
//! period's datagrams report the generated demand against the quota the
//! Controller last granted; they are built outside the timer, and the
//! quota commands are fed back after each datagram, inside it, as
//! `ctl_mixed` does. Run it with
//!
//! ```text
//! cargo test --release --test fleet_ingest -- --ignored --nocapture
//! ```
//!
//! It prints the nanoseconds per ingested entry of each form (median and
//! fastest timed epoch) and asserts that both forms made the same
//! decisions.

use escra::cluster::{AppId, ContainerId, NodeId};
use escra::core::{
    Action, Controller, ControllerStats, CpuStatsColumns, CpuStatsEntry, EscraConfig, ToAgent,
};
use escra::simcore::rng::SimRng;
use escra::simcore::time::{SimDuration, SimTime};
use std::time::{Duration, Instant};

const CONTAINERS: usize = 100_000;
const NODES: usize = 256;
/// Periods in the generated epoch.
const PERIODS: usize = 40;
/// Replays of the epoch per form; the first one warms up and is not
/// reported.
const EPOCHS: usize = 6;
const SEED: u64 = 20_220_701;
const MEM_LIMIT: u64 = 256 << 20;

/// The registry and one epoch of demand.
struct Fleet {
    /// `(cpu_limit_cores, mem_limit_bytes)` per application.
    apps: Vec<(f64, u64)>,
    /// `(app, node, start quota in millicores)`, indexed by raw id.
    containers: Vec<(u32, u32, u32)>,
    /// CPU time each container wants, in µs: `[period][container]`.
    demand_us: Vec<Vec<u32>>,
}

impl Fleet {
    /// Per-container demand is a level times a bursty AR(1) process;
    /// each application's pool is 8× its members' start quotas.
    fn generate(seed: u64) -> Self {
        let mut rng = SimRng::new(seed);
        let (mut apps, mut containers, mut levels) = (Vec::new(), Vec::new(), Vec::new());
        while containers.len() < CONTAINERS {
            let app = apps.len() as u32;
            let members = (20 + rng.next_below(61) as usize).min(CONTAINERS - containers.len());
            let mut quota_sum = 0.0;
            for _ in 0..members {
                let level = rng.uniform(0.2f64.ln(), 2.0f64.ln()).exp();
                let quota_mcores = ((level * 1.3 + 0.25) * 1000.0).round() as u32;
                quota_sum += quota_mcores as f64 / 1000.0;
                levels.push(level);
                let node = rng.next_below(NODES as u64) as u32;
                containers.push((app, node, quota_mcores));
            }
            apps.push((quota_sum * 8.0, members as u64 * 3 * MEM_LIMIT));
        }
        let mut x = vec![0.0f64; CONTAINERS];
        let mut burst_left = vec![0u32; CONTAINERS];
        let demand_us = (0..PERIODS)
            .map(|_| {
                (0..CONTAINERS)
                    .map(|i| {
                        x[i] = 0.8 * x[i] + 0.2 * (rng.next_f64() * 2.0 - 1.0);
                        if burst_left[i] > 0 {
                            burst_left[i] -= 1;
                        } else if rng.chance(0.04) {
                            burst_left[i] = 2 + rng.next_below(4) as u32;
                        }
                        let burst = if burst_left[i] > 0 { 2.5 } else { 1.0 };
                        (levels[i] * (1.0 + 0.5 * x[i]) * burst * 100_000.0).round() as u32
                    })
                    .collect()
            })
            .collect();
        Fleet {
            apps,
            containers,
            demand_us,
        }
    }

    fn controller(&self) -> Controller {
        let mut controller = Controller::new(EscraConfig::default());
        for (a, &(cpu, mem)) in self.apps.iter().enumerate() {
            controller.register_app(AppId::new(a as u64), cpu, mem);
        }
        for (i, &(app, node, quota_mcores)) in self.containers.iter().enumerate() {
            controller
                .register_container(
                    ContainerId::new(i as u64),
                    AppId::new(app as u64),
                    NodeId::new(node as u64),
                    quota_mcores as f64 / 1000.0,
                    MEM_LIMIT,
                )
                .expect("generated registry is consistent");
        }
        controller
    }

    /// Period `p`'s datagrams, one per node, for containers running with
    /// `quota_mcores`: each uses what it wants up to its quota and is
    /// throttled when it wants more.
    fn encode(&self, p: usize, quota_mcores: &[u32], blocks: &mut [CpuStatsColumns]) {
        for block in blocks.iter_mut() {
            block.clear();
        }
        for (i, &(_, node, _)) in self.containers.iter().enumerate() {
            let quota_us = quota_mcores[i] * 100;
            let demand = self.demand_us[p][i];
            let usage = demand.min(quota_us);
            blocks[node as usize].push_raw(
                ContainerId::new(i as u64),
                quota_mcores[i],
                quota_us - usage,
                usage,
                demand > quota_us,
            );
        }
    }
}

/// Applies the quota commands in `actions` as the nodes would, folding
/// each into `digest`, and clears the buffer.
fn feed_back(actions: &mut Vec<Action>, quota_mcores: &mut [u32], digest: &mut u64) {
    for action in actions.drain(..) {
        if let Action::Agent {
            cmd:
                ToAgent::SetCpuQuota {
                    container,
                    quota_cores,
                    seq,
                },
            ..
        } = action
        {
            quota_mcores[container.as_u64() as usize] = (quota_cores * 1000.0).round() as u32;
            for word in [container.as_u64(), quota_cores.to_bits(), seq] {
                *digest = (*digest ^ word).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
}

/// Replays the epoch [`EPOCHS`] times through one ingest form. Returns
/// the ns per entry of every epoch after the first, the action digest
/// and the Controller's stats.
fn replay(fleet: &Fleet, rows: bool) -> (Vec<f64>, u64, ControllerStats) {
    let mut controller = fleet.controller();
    let mut quota_mcores: Vec<u32> = fleet.containers.iter().map(|c| c.2).collect();
    let mut blocks = vec![CpuStatsColumns::new(); NODES];
    let mut row_blocks: Vec<Vec<CpuStatsEntry>> = vec![Vec::new(); NODES];
    let (mut actions, mut digest, mut now) = (Vec::new(), 0u64, SimTime::ZERO);
    let mut ns_per_entry = Vec::new();
    for epoch in 0..EPOCHS {
        let mut busy = Duration::ZERO;
        for p in 0..PERIODS {
            now += SimDuration::from_millis(100);
            fleet.encode(p, &quota_mcores, &mut blocks);
            if rows {
                for (row, block) in row_blocks.iter_mut().zip(&blocks) {
                    *row = block.to_entries();
                }
            }
            let start = Instant::now();
            for n in 0..NODES {
                if rows {
                    controller.ingest_cpu_batch_at(now, &row_blocks[n], &mut actions);
                } else {
                    controller.ingest_cpu_columns_at(now, &blocks[n], &mut actions);
                }
                feed_back(&mut actions, &mut quota_mcores, &mut digest);
            }
            busy += start.elapsed();
        }
        if epoch > 0 {
            ns_per_entry.push(busy.as_nanos() as f64 / (PERIODS * CONTAINERS) as f64);
        }
    }
    (ns_per_entry, digest, controller.stats())
}

#[test]
#[ignore = "timing run at fleet scale; see the module docs"]
fn row_and_columnar_ingest_at_fleet_scale() {
    let fleet = Fleet::generate(SEED);
    let (row_ns, row_digest, row_stats) = replay(&fleet, true);
    let (col_ns, col_digest, col_stats) = replay(&fleet, false);
    assert_eq!(
        row_digest, col_digest,
        "rows and columns decided differently"
    );
    assert_eq!(row_stats, col_stats);
    assert!(row_stats.quota_updates > 0);
    for (form, mut ns) in [("rows", row_ns), ("columns", col_ns)] {
        ns.sort_by(f64::total_cmp);
        println!(
            "fleet_ingest {form}: median {:.2} ns/entry, fastest {:.2} ns/entry over {} epochs of {} entries",
            ns[ns.len() / 2],
            ns[0],
            ns.len(),
            PERIODS * CONTAINERS
        );
    }
}
