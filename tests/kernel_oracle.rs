//! The decision kernel against a reference that shares no code with it.
//!
//! Every other gate on the Resource Allocator compares it with itself:
//! the goldens with its past, `columnar_prop` and `app_partition_prop`
//! Controllers with Controllers. Here a deliberately naive reference,
//! written from the rules as PAPER.md §1 and DESIGN.md §4 state them,
//! books the same stream as two Controllers, one fed row datagrams and
//! one columnar blocks. The reference keeps its tracks in a `BTreeMap`,
//! each window in a `VecDeque` summed oldest first, and each pool as
//! plain numbers.
//!
//! After every datagram, OOM event, reclaim report, churn step and tick,
//! the quotas, memory limits, windowed means and pool allocations of
//! both Controllers must equal the reference's to the bit. The commands
//! each step emits must be the ones the reference predicts: quota moves,
//! memory grants and kills.
//!
//! The stream is drawn in the columnar fixed-point form (whole
//! microseconds), which the row form reads back exactly, so both walks
//! see the same numbers. It draws exact edges on purpose: a headroom
//! `quota − usage` of exactly γ, and a window of unused runtime whose
//! mean is exactly γ. `the_stream_reaches_every_rule` holds the
//! generator to reaching each rule and both edges.
//!
//! The reference is `Pool`, `Track` and `Reference` below, some 200
//! lines; the rest of the file draws the stream and compares.

use escra::cluster::{AppId, ContainerId, NodeId};
use escra::core::telemetry::{CpuStatsColumns, ToController};
use escra::core::{Action, Controller, EscraConfig, ReclaimEntry, ToAgent};
use escra::simcore::rng::SimRng;
use escra::simcore::time::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::{BTreeMap, VecDeque};

const MIB: u64 = 1 << 20;

/// One application's Distributed Container: its limits and what is
/// handed out of them.
struct Pool {
    cpu_limit: f64,
    cpu_alloc: f64,
    mem_limit: u64,
    mem_alloc: u64,
}

impl Pool {
    /// Unallocated CPU, the `Ωl − Σ C(i)q` of the scale-up rule.
    fn cpu_free(&self) -> f64 {
        (self.cpu_limit - self.cpu_alloc).max(0.0)
    }

    fn take_cpu(&mut self, want: f64) -> f64 {
        let got = want.min(self.cpu_free());
        self.cpu_alloc += got;
        got
    }

    fn give_cpu(&mut self, cores: f64) {
        self.cpu_alloc = (self.cpu_alloc - cores).max(0.0);
    }

    fn take_mem(&mut self, want: u64) -> u64 {
        let got = want.min(self.mem_limit.saturating_sub(self.mem_alloc));
        self.mem_alloc += got;
        got
    }

    fn give_mem(&mut self, bytes: u64) {
        self.mem_alloc = self.mem_alloc.saturating_sub(bytes);
    }
}

/// One container as the Allocator books it.
struct Track {
    app: u64,
    quota: f64,
    mem_limit: u64,
    /// The last `window_periods` (throttled, unused cores), oldest first.
    window: VecDeque<(bool, f64)>,
}

/// What a step tells the Agents or the OS: `(container, kind, value)`
/// with kind `q` (a quota, as f64 bits), `m` (a memory limit) or `k`
/// (a kill, value 0).
type Effect = (u64, char, u64);

/// The reference Allocator.
struct Reference {
    cfg: EscraConfig,
    pools: BTreeMap<u64, Pool>,
    tracks: BTreeMap<u64, Track>,
    /// OOMs the pool could not cover, waiting for a reclaim report.
    pending: Vec<(u64, u64)>,
    /// Decisions taken at each edge: headroom exactly γ, mean exactly γ.
    edges: [u64; 2],
}

impl Reference {
    /// A container's initial limits come out of its pool, at least the
    /// configured floors and at most what the pool has left.
    fn register(&mut self, id: u64, app: u64, cpu: f64, mem: u64) {
        let pool = self.pools.get_mut(&app).expect("app");
        let quota = pool.take_cpu(cpu.max(self.cfg.min_quota_cores));
        let mem_limit = pool.take_mem(mem.max(self.cfg.min_mem_bytes));
        let window = VecDeque::new();
        let track = Track {
            app,
            quota,
            mem_limit,
            window,
        };
        self.tracks.insert(id, track);
    }

    fn deregister(&mut self, id: u64) {
        let t = self.tracks.remove(&id).expect("live");
        let pool = self.pools.get_mut(&t.app).expect("app");
        pool.give_cpu(t.quota);
        pool.give_mem(t.mem_limit);
        self.pending.retain(|&(c, _)| c != id);
    }

    /// One period statistic (§IV-D1): the new quota, if it moved.
    fn cpu(&mut self, id: u64, throttled: bool, usage: f64, unused: f64) -> Option<f64> {
        let cfg = &self.cfg;
        let t = self.tracks.get_mut(&id)?;
        let pool = self.pools.get_mut(&t.app).expect("app");
        t.window.push_back((throttled, unused));
        if t.window.len() > cfg.window_periods {
            t.window.pop_front();
        }
        let n = t.window.len() as f64;
        if throttled {
            // Scale up by rate · unallocated · Υ, a step of at most
            // (growth − 1) · quota (never less than the minimum quota),
            // and only what the pool has.
            let rate = t.window.iter().filter(|s| s.0).count() as f64 / n;
            let want = rate * pool.cpu_free() * cfg.upsilon;
            let step = (t.quota * (cfg.max_quota_growth_factor - 1.0)).max(cfg.min_quota_cores);
            let grant = pool.take_cpu(want.min(step));
            if grant > 0.0 {
                t.quota += grant;
                return Some(t.quota);
            }
            return None;
        }
        self.edges[0] += (t.quota - usage == cfg.gamma_cores) as u64;
        if t.quota - usage <= cfg.gamma_cores {
            return None;
        }
        let mut sum = 0.0;
        for s in &t.window {
            sum += s.1;
        }
        let mean = sum / n;
        self.edges[1] += (mean == cfg.gamma_cores) as u64;
        if mean <= cfg.gamma_cores {
            return None;
        }
        // Scale down by κ times the windowed excess over γ, never below
        // this period's usage nor the minimum quota; a release of a
        // nanocore or less is no move.
        let floor = usage.max(cfg.min_quota_cores);
        let target = (t.quota - (mean - cfg.gamma_cores) * cfg.kappa).max(floor);
        let released = t.quota - target;
        if released <= 1e-9 {
            return None;
        }
        pool.give_cpu(released);
        t.quota = target;
        Some(target)
    }

    /// An OOM event (§IV-D2): re-send a limit the Agent has not applied,
    /// else grant a block from the pool, else wait for a reclaim sweep.
    fn oom(&mut self, id: u64, shortfall: u64, current: u64) -> Option<u64> {
        let t = self.tracks.get_mut(&id)?;
        if t.mem_limit > current {
            return Some(t.mem_limit);
        }
        let pool = self.pools.get_mut(&t.app).expect("app");
        let need = shortfall.max(self.cfg.oom_grant_bytes);
        if pool.mem_limit.saturating_sub(pool.mem_alloc) >= need {
            pool.take_mem(need);
            t.mem_limit += need;
            return Some(t.mem_limit);
        }
        self.pending.push((id, shortfall));
        None
    }

    /// A reclaim report: each shrunk limit returns ψ to its pool, then
    /// each waiting OOM is granted what covers its shortfall or killed.
    fn reclaim(&mut self, report: &[(u64, u64)]) -> Vec<Effect> {
        for &(id, new_limit) in report {
            if let Some(t) = self.tracks.get_mut(&id) {
                if new_limit < t.mem_limit {
                    self.pools
                        .get_mut(&t.app)
                        .expect("app")
                        .give_mem(t.mem_limit - new_limit);
                    t.mem_limit = new_limit;
                }
            }
        }
        let mut effects = Vec::new();
        for (id, shortfall) in std::mem::take(&mut self.pending) {
            let t = self.tracks.get_mut(&id).expect("pending OOMs are live");
            let pool = self.pools.get_mut(&t.app).expect("app");
            let got = pool.take_mem(shortfall.max(self.cfg.oom_grant_bytes));
            if got >= shortfall && got > 0 {
                t.mem_limit += got;
                effects.push((id, 'm', t.mem_limit));
            } else {
                pool.give_mem(got);
                effects.push((id, 'k', 0));
            }
        }
        effects
    }
}

/// The effects among a Controller's actions, in order; reclaim sweeps
/// are not effects of the kernel and are left out.
fn effects(actions: &[Action]) -> Vec<Effect> {
    let mut v = Vec::new();
    for a in actions {
        match *a {
            Action::KillContainer(c) => v.push((c.as_u64(), 'k', 0)),
            Action::Agent { cmd, .. } => match cmd {
                ToAgent::SetCpuQuota {
                    container,
                    quota_cores,
                    ..
                } => v.push((container.as_u64(), 'q', quota_cores.to_bits())),
                ToAgent::SetMemLimit {
                    container,
                    limit_bytes,
                    ..
                } => v.push((container.as_u64(), 'm', limit_bytes)),
                ToAgent::ReclaimMemory { .. } => {}
            },
        }
    }
    v
}

/// What the Allocator books, as bits: per container (id, quota, memory
/// limit, windowed throttle rate, windowed mean unused), then per app
/// the CPU and memory handed out.
type Books = (Vec<(u64, u64, u64, u64, u64)>, Vec<(u64, u64)>);

fn books_of(c: &Controller, apps: u64) -> Books {
    let a = c.allocator();
    let tracks = a.container_ids().map(|id| {
        let (rate, unused) = a.decision_inputs(id).expect("live");
        let quota = a.quota_of(id).expect("live").to_bits();
        let limit = a.mem_limit_of(id).expect("live");
        (id.as_u64(), quota, limit, rate.to_bits(), unused.to_bits())
    });
    let pools = (0..apps).map(|app| {
        let p = a.app_pool(AppId::new(app)).expect("app");
        (p.allocated_cpu_cores().to_bits(), p.allocated_mem_bytes())
    });
    (tracks.collect(), pools.collect())
}

impl Reference {
    fn books(&self) -> Books {
        let tracks = self.tracks.iter().map(|(&id, t)| {
            let n = t.window.len().max(1) as f64;
            let rate = t.window.iter().filter(|s| s.0).count() as f64 / n;
            let mut sum = 0.0;
            for s in &t.window {
                sum += s.1;
            }
            let mean = sum / n;
            (
                id,
                t.quota.to_bits(),
                t.mem_limit,
                rate.to_bits(),
                mean.to_bits(),
            )
        });
        let pools = self
            .pools
            .values()
            .map(|p| (p.cpu_alloc.to_bits(), p.mem_alloc));
        (tracks.collect(), pools.collect())
    }
}

/// Fails the case at the first item where `got` and `want` differ.
fn same<T: PartialEq + std::fmt::Debug>(
    what: &str,
    step: usize,
    got: &[T],
    want: &[T],
) -> Result<(), TestCaseError> {
    if got == want {
        return Ok(());
    }
    let at = (0..)
        .find(|&i| got.get(i) != want.get(i))
        .expect("they differ");
    let (g, w) = (got.get(at), want.get(at));
    let msg = format!("{what} at step {step}, item {at}: {g:?}, reference {w:?}");
    Err(TestCaseError::fail(msg))
}

/// How often a case took each rule: scale-ups, scale-downs, OOM grants,
/// waits for reclaim, kills, and decisions at the two γ edges.
type Coverage = [u64; 7];

/// One period's fixed-point statistic `(usage_us, unused_us, throttled)`
/// for a container booked at `quota` cores: throttled at its quota,
/// throttled anyhow, idle, at the headroom edge, at the mean edge, or
/// anything at all.
fn draw_stat(rng: &mut SimRng, quota: f64, cfg: &EscraConfig) -> (u32, u32, bool) {
    let period = cfg.report_period.as_micros() as f64;
    let q = (quota * period) as u64;
    let gamma = (cfg.gamma_cores * period) as u32;
    let usage = rng.next_below(q + 1) as u32;
    match rng.next_below(6) {
        0 => (q as u32, 0, true),
        1 => (usage, rng.next_below(q + 1) as u32, true),
        2 => (usage, (q - usage as u64) as u32, false),
        3 => {
            let u = ((quota - cfg.gamma_cores) * period).round().max(0.0) as u32;
            let exact = quota - u as f64 / period == cfg.gamma_cores;
            let u = if exact { u } else { usage };
            (u, gamma * rng.next_below(3) as u32, false)
        }
        4 => (rng.next_below(20_000) as u32, gamma, false),
        _ => (
            rng.next_below(400_000) as u32,
            rng.next_below(400_000) as u32,
            rng.next_below(2) == 0,
        ),
    }
}

/// One case: a config with a `window`-period window, three apps, twelve
/// containers, then `steps` steps of datagrams, churn, OOMs, reclaim
/// reports and ticks, checked after every step.
fn run_case(seed: u64, window: usize, steps: usize) -> Result<Coverage, TestCaseError> {
    let mut rng = SimRng::new(seed);
    let mut cfg = EscraConfig::default().with_window(window);
    cfg.kappa = [1.0, 0.8][rng.next_below(2) as usize];
    cfg.upsilon = [20.0, 35.0][rng.next_below(2) as usize];
    cfg.max_quota_growth_factor = [1.5, 2.5][rng.next_below(2) as usize];
    let period = cfg.report_period.as_micros() as f64;
    let mut rows = Controller::new(cfg.clone());
    let mut cols = Controller::new(cfg.clone());
    let (pools, tracks) = (BTreeMap::new(), BTreeMap::new());
    let mut r = Reference {
        cfg: cfg.clone(),
        pools,
        tracks,
        pending: Vec::new(),
        edges: [0; 2],
    };
    for app in 0..3u64 {
        let cpu = [1.5, 4.0, 12.0][rng.next_below(3) as usize];
        let mem = [128, 256, 1024][rng.next_below(3) as usize] * MIB;
        rows.register_app(AppId::new(app), cpu, mem);
        cols.register_app(AppId::new(app), cpu, mem);
        let pool = Pool {
            cpu_limit: cpu,
            cpu_alloc: 0.0,
            mem_limit: mem,
            mem_alloc: 0,
        };
        r.pools.insert(app, pool);
    }
    let mut cov: Coverage = [0; 7];
    let (mut next_id, mut dead) = (0u64, vec![1 << 22]);
    let mut now = SimTime::ZERO;
    let (mut out_r, mut out_c) = (Vec::new(), Vec::new());
    for step in 0..steps + 12 {
        now += SimDuration::from_millis(100);
        let live: Vec<u64> = r.tracks.keys().copied().collect();
        let pick = |rng: &mut SimRng| match live.len() {
            0 => dead[0],
            n if rng.next_below(10) > 0 => live[rng.next_below(n as u64) as usize],
            _ => dead[rng.next_below(dead.len() as u64) as usize],
        };
        let mut want: Vec<Effect> = Vec::new();
        let (mut leaving, mut fresh): (Vec<u64>, u64) = (Vec::new(), 0);
        match if step < 12 || live.is_empty() {
            9
        } else {
            rng.next_below(10)
        } {
            // A datagram of 1–80 entries.
            0..=4 => {
                let mut entries = Vec::new();
                let mut block = CpuStatsColumns::new();
                for _ in 0..1 + rng.next_below(80) {
                    let id = pick(&mut rng);
                    let quota = r.tracks.get(&id).map_or(1.0, |t| t.quota);
                    let (usage, unused, throttled) = draw_stat(&mut rng, quota, &cfg);
                    let cid = ContainerId::new(id);
                    block.push_raw(cid, (quota * 1000.0) as u32, unused, usage, throttled);
                    entries.push(block.entry(block.len() - 1));
                    let moved = r.cpu(id, throttled, usage as f64 / period, unused as f64 / period);
                    if let Some(q) = moved {
                        cov[if throttled { 0 } else { 1 }] += 1;
                        want.push((id, 'q', q.to_bits()));
                    }
                }
                let node = NodeId::new(0);
                rows.handle_into(
                    now,
                    ToController::CpuStatsBatch { node, entries },
                    &mut out_r,
                );
                cols.handle_into(
                    now,
                    ToController::CpuStatsColumns {
                        node,
                        columns: block,
                    },
                    &mut out_c,
                );
            }
            // Churn: one or two leave, and fresh ids take their slots.
            5 => {
                for _ in 0..1 + rng.next_below(2) {
                    if let Some(&id) = r
                        .tracks
                        .keys()
                        .nth(rng.next_below(r.tracks.len() as u64) as usize)
                    {
                        leaving.push(id);
                    }
                }
                fresh = rng.next_below(3);
            }
            // OOM events, some reporting a limit the books are above.
            6 => {
                for _ in 0..1 + rng.next_below(3) {
                    let id = pick(&mut rng);
                    let tracked = r.tracks.get(&id).map_or(64 * MIB, |t| t.mem_limit);
                    let current = tracked - rng.next_below(2) * (tracked / 2);
                    let shortfall = 1 + rng.next_below(48 * MIB);
                    let waiting = r.pending.len();
                    match r.oom(id, shortfall, current) {
                        Some(limit) => {
                            cov[2] += (current == tracked) as u64;
                            want.push((id, 'm', limit));
                        }
                        None => cov[3] += (r.pending.len() > waiting) as u64,
                    }
                    let msg = ToController::OomEvent {
                        container: ContainerId::new(id),
                        shortfall_bytes: shortfall,
                        current_limit_bytes: current,
                    };
                    rows.handle_into(now, msg.clone(), &mut out_r);
                    cols.handle_into(now, msg, &mut out_c);
                }
            }
            // A reclaim report: some limits shrink, some reports are
            // stale (at or above the books, or for unknown ids).
            7 => {
                let mut report = Vec::new();
                for _ in 0..rng.next_below(5) {
                    let id = pick(&mut rng);
                    let tracked = r.tracks.get(&id).map_or(64 * MIB, |t| t.mem_limit);
                    let new_limit = tracked + MIB - rng.next_below(tracked / 2 + MIB);
                    report.push((id, new_limit));
                }
                want = r.reclaim(&report);
                cov[4] += want.iter().filter(|e| e.1 == 'k').count() as u64;
                let report: Vec<ReclaimEntry> = report
                    .iter()
                    .map(|&(id, new_limit_bytes)| ReclaimEntry {
                        container: ContainerId::new(id),
                        new_limit_bytes,
                        psi_bytes: 0,
                    })
                    .collect();
                out_r = rows.on_reclaim_report(now, &report);
                out_c = cols.on_reclaim_report(now, &report);
                leaving.extend(want.iter().filter(|e| e.1 == 'k').map(|e| e.0));
            }
            // A tick: sweeps and grant re-sends, which book nothing.
            8 => {
                rows.tick_into(now, &mut out_r);
                cols.tick_into(now, &mut out_c);
                out_r.clear();
                out_c.clear();
            }
            // A registration (the first twelve steps are all this).
            _ => fresh = 1,
        }
        same("rows' commands", step, &effects(&out_r), &want)?;
        same("columns' commands", step, &effects(&out_c), &want)?;
        out_r.clear();
        out_c.clear();
        // Killed and leaving containers deregister, then fresh ids
        // register into the slots they freed.
        leaving.sort_unstable();
        leaving.dedup();
        for id in leaving {
            r.deregister(id);
            rows.deregister_container(ContainerId::new(id))
                .expect("live");
            cols.deregister_container(ContainerId::new(id))
                .expect("live");
            dead.push(id);
        }
        for _ in 0..fresh {
            let (id, app) = (next_id, rng.next_below(3));
            next_id += 1;
            let cpu = [0.02, 0.25, 0.5, 1.0, 1.5][rng.next_below(5) as usize];
            let mem = [8, 64, 128][rng.next_below(3) as usize] * MIB;
            r.register(id, app, cpu, mem);
            for c in [&mut rows, &mut cols] {
                c.register_container(
                    ContainerId::new(id),
                    AppId::new(app),
                    NodeId::new(id % 4),
                    cpu,
                    mem,
                )
                .expect("register");
            }
        }
        let (tracks, pools) = r.books();
        for (walk, c) in [("rows'", &rows), ("columns'", &cols)] {
            let got = books_of(c, 3);
            same(&format!("{walk} tracks"), step, &got.0, &tracks)?;
            same(&format!("{walk} pools"), step, &got.1, &pools)?;
        }
    }
    cov[5] = r.edges[0];
    cov[6] = r.edges[1];
    Ok(cov)
}

proptest! {
    /// Both ingest walks book exactly what the reference books, at every
    /// window length from 1 to 24 periods.
    #[test]
    fn the_kernel_books_what_the_reference_books(seed in any::<u64>(), window in 1usize..25) {
        run_case(seed, window, 60)?;
    }
}

/// The stream reaches every rule and both γ edges: a generator that
/// stopped drawing one would leave that rule unchecked.
#[test]
fn the_stream_reaches_every_rule() {
    let mut total = [0u64; 7];
    for seed in 0..24u64 {
        let cov = run_case(seed, 1 + seed as usize, 60).expect("agrees");
        for (t, c) in total.iter_mut().zip(cov) {
            *t += c;
        }
    }
    let names = [
        "scale-up",
        "scale-down",
        "OOM grant",
        "reclaim wait",
        "kill",
        "headroom γ",
        "mean γ",
    ];
    for (name, n) in names.iter().zip(total) {
        assert!(n > 0, "no {name} in the stream: {total:?}");
    }
}
