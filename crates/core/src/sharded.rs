//! App-sharded Controller (§VI-I capacity model).
//!
//! The paper's Controller is *logically* centralized, and §VI-I judges
//! it by how many containers one core can manage. [`ShardedController`]
//! partitions that Controller into N independent [`Controller`] shards
//! (each with its own slab allocator) behind an app-affine router, and
//! clocks every shard's telemetry ingest separately
//! ([`ShardedController::ingest_busy_per_shard`]). With one core per
//! shard, aggregate ingest capacity is `entries / max(per-shard busy)`;
//! that quotient is a per-shard CPU-time model, so it is computed on one
//! thread: every routed item is applied inline, on the caller's thread,
//! to its home shard. There are no workers, channels or locks.
//!
//! ## Routing rule: by application id
//!
//! A container is routed to shard `app.as_u64() % n_shards`. All
//! Distributed Container state — the per-app CPU/memory pools, sibling
//! membership, OOM grant arithmetic — is scoped to one application, so
//! keeping an application's containers on one shard preserves
//! decision-for-decision identity with a sequential Controller: each
//! shard sees exactly the subsequence of messages its apps would have
//! seen, in the same order, against exactly the same pool state. Any
//! other partition (by container, by node) would split an application's
//! pool across shards and change grant/scale decisions.
//!
//! Two things are *not* app-scoped and need care:
//!
//! * **Node knowledge.** A sequential Controller's reclamation sweep
//!   covers every node it has ever seen. Every registered node is
//!   therefore broadcast to every shard ([`Controller::note_node`]), so
//!   a sweep launched by any one shard (e.g. for an OOM on its app)
//!   still covers the whole cluster. When all shards launch their
//!   periodic sweep on the same schedule, the duplicate
//!   [`ToAgent::ReclaimMemory`] commands are deduplicated per drain —
//!   they are idempotent on Agents, but charging them to the wire N
//!   times would distort the §VI-I overhead numbers.
//! * **Command sequence numbers.** Each shard stamps its own monotonic
//!   sequence. Agents filter staleness *per container*, and all of a
//!   container's commands come from its one home shard in emission
//!   order, so the per-container guarantee is unchanged; only the
//!   global numbering differs from a sequential Controller (the
//!   identity property test canonicalises seqs to per-container ranks).
//!
//! ## Determinism
//!
//! Each shard's actions are a deterministic function of the routed
//! message sequence, and [`ShardedController::drain_actions_into`]
//! concatenates the shard buffers in shard order, so the drained stream
//! is reproducible run to run.

use crate::agent::ReclaimEntry;
use crate::allocator::AllocatorError;
use crate::config::EscraConfig;
use crate::controller::{Action, Controller, ControllerStats};
use crate::telemetry::{CpuStatsColumns, CpuStatsEntry, ToAgent, ToController};
use escra_cluster::{AppId, ContainerId, NodeId};
use escra_metrics::trace::{NoopSink, TraceEventKind, TraceSink};
use escra_simcore::time::SimTime;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Sentinel for "container not seen by the router yet".
const NO_SHARD: u32 = u32::MAX;

/// A point-in-time copy of one application pool's books.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolSnapshot {
    /// The pool's global CPU limit Ω, in cores.
    pub cpu_limit_cores: f64,
    /// The pool's global memory limit, in bytes.
    pub mem_limit_bytes: u64,
    /// Σ member CPU quotas currently allocated from the pool.
    pub allocated_cpu_cores: f64,
    /// Σ member memory limits currently allocated from the pool.
    pub allocated_mem_bytes: u64,
}

/// One shard: its Controller, the actions it has emitted since the last
/// drain, and the CPU time it has spent inside batch/columnar ingest.
#[derive(Debug)]
struct Shard<S: TraceSink> {
    controller: Controller<S>,
    pending: Vec<Action>,
    ingest_busy: Duration,
}

impl<S: TraceSink> Shard<S> {
    /// Applies one wire message, collecting its actions in `pending`.
    fn handle(&mut self, now: SimTime, msg: ToController) {
        self.controller.handle_into(now, msg, &mut self.pending);
    }
}

/// The app-affine router in front of N [`Controller`] shards (see
/// module docs).
///
/// Emitted [`Action`]s accumulate inside each shard and are collected —
/// in deterministic shard order, into a caller-owned buffer — with
/// [`ShardedController::drain_actions_into`].
///
/// Generic over a [`TraceSink`] like [`Controller`]: each shard's
/// Controller records into its own sink (created per shard by
/// [`ShardedController::with_sinks`]) and the router records per-shard
/// work depth into one more; a finished run extracts all of them with
/// [`ShardedController::take_sinks`]. The default [`NoopSink`] compiles
/// all of it out.
#[derive(Debug)]
pub struct ShardedController<S: TraceSink = NoopSink> {
    shards: Vec<Shard<S>>,
    /// Direct-mapped container → shard index (`NO_SHARD` = unknown),
    /// keyed by the raw container id exactly like the allocator's slab
    /// index (ids are sequential and never reused).
    container_shard: Vec<u32>,
    /// Per-shard scratch for splitting one node's row batch.
    split_rows: Vec<Vec<CpuStatsEntry>>,
    /// Per-shard scratch for splitting one node's columnar block.
    split_columns: Vec<CpuStatsColumns>,
    /// Nodes already broadcast to every shard.
    known_nodes: BTreeSet<NodeId>,
    /// Per-drain scratch for deduplicating cluster-wide sweep commands.
    seen_reclaims: Vec<(NodeId, u64)>,
    /// The router's own sink: shard enqueue/dequeue events.
    sink: S,
    /// Work items routed to each shard since its last drain. Only
    /// maintained when `S::ENABLED` (the depth exists for the trace).
    queue_depth: Vec<u32>,
    /// The latest time observed by the router, stamped on the shard
    /// events (drains carry no `now` of their own).
    last_now: SimTime,
}

impl ShardedController {
    /// Builds `n_shards` independent [`Controller`]s from `cfg`, with
    /// tracing compiled out.
    ///
    /// # Panics
    ///
    /// Panics if `n_shards` is zero.
    pub fn new(cfg: EscraConfig, n_shards: usize) -> Self {
        ShardedController::with_sinks(cfg, n_shards, |_| NoopSink)
    }
}

impl<S: TraceSink + Default> ShardedController<S> {
    /// Builds `n_shards` independent [`Controller`]s from `cfg`, shard
    /// `i` recording into `mk(i)`. `mk(n_shards)` — one past the last
    /// shard — builds the router's own sink for shard events.
    ///
    /// # Panics
    ///
    /// Panics if `n_shards` is zero.
    pub fn with_sinks(cfg: EscraConfig, n_shards: usize, mut mk: impl FnMut(usize) -> S) -> Self {
        assert!(n_shards > 0, "a sharded controller needs at least 1 shard");
        ShardedController {
            shards: (0..n_shards)
                .map(|i| Shard {
                    controller: Controller::with_sink(cfg.clone(), mk(i)),
                    pending: Vec::new(),
                    ingest_busy: Duration::ZERO,
                })
                .collect(),
            container_shard: Vec::new(),
            split_rows: vec![Vec::new(); n_shards],
            split_columns: vec![CpuStatsColumns::new(); n_shards],
            known_nodes: BTreeSet::new(),
            seen_reclaims: Vec::new(),
            sink: mk(n_shards),
            queue_depth: vec![0; n_shards],
            last_now: SimTime::ZERO,
        }
    }

    /// Extracts every recorded trace: each shard Controller's sink (in
    /// shard order), then the router's own — `n_shards + 1` sinks total.
    /// The live Controllers continue recording into fresh defaults.
    pub fn take_sinks(&mut self) -> Vec<S> {
        let mut sinks: Vec<S> = self
            .shards
            .iter_mut()
            .map(|s| s.controller.replace_sink(S::default()))
            .collect();
        sinks.push(std::mem::take(&mut self.sink));
        sinks
    }
}

impl<S: TraceSink> ShardedController<S> {
    /// Records one routed work item (telemetry, tick, reclaim report)
    /// for `shard` in the router's sink. Control operations
    /// (registration, queries, drains) are not counted — they are not
    /// part of the §VI-I data path the trace observes.
    fn note_work(&mut self, shard: usize) {
        if S::ENABLED {
            self.queue_depth[shard] += 1;
            self.sink.emit(
                self.last_now,
                TraceEventKind::ShardEnqueue {
                    shard: shard as u32,
                    depth: self.queue_depth[shard],
                },
            );
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The routing rule: the shard owning `app` and all its containers.
    pub fn route_of(&self, app: AppId) -> usize {
        (app.as_u64() % self.shards.len() as u64) as usize
    }

    /// Shard currently routing `container`, if the router has seen it.
    pub fn shard_of_container(&self, container: ContainerId) -> Option<usize> {
        let idx = container.as_u64() as usize;
        match self.container_shard.get(idx) {
            Some(&s) if s != NO_SHARD => Some(s as usize),
            _ => None,
        }
    }

    /// Called only after `shard`'s allocator accepted the registration,
    /// so the raw id is below [`crate::allocator::MAX_CONTAINER_ID`] and
    /// the resize is bounded by it.
    fn record_container(&mut self, container: ContainerId, shard: usize) {
        let idx = container.as_u64() as usize;
        if idx >= self.container_shard.len() {
            self.container_shard.resize(idx + 1, NO_SHARD);
        }
        self.container_shard[idx] = shard as u32;
    }

    /// Routes a container-addressed message; unknown containers fall
    /// back to shard 0, which ingests-and-ignores them exactly like a
    /// sequential Controller does with stale telemetry.
    fn shard_for(&self, container: ContainerId) -> usize {
        self.shard_of_container(container).unwrap_or(0)
    }

    /// Broadcasts `node` to every shard the first time it is seen, so
    /// any shard's reclamation sweep covers the whole cluster.
    fn broadcast_node(&mut self, node: NodeId) {
        if self.known_nodes.insert(node) {
            for shard in &mut self.shards {
                shard.controller.note_node(node);
            }
        }
    }

    /// Registers an application's global limits on its home shard.
    pub fn register_app(&mut self, app: AppId, cpu_limit_cores: f64, mem_limit_bytes: u64) {
        let shard = self.route_of(app);
        self.shards[shard]
            .controller
            .register_app(app, cpu_limit_cores, mem_limit_bytes);
    }

    /// Registers a container with initial limits on its app's home
    /// shard. The cgroup-bootstrap commands a sequential Controller
    /// returns here instead appear in the next
    /// [`ShardedController::drain_actions_into`].
    ///
    /// # Errors
    ///
    /// Propagates [`AllocatorError`] for unknown apps, duplicate ids and
    /// out-of-range ids.
    pub fn register_container(
        &mut self,
        container: ContainerId,
        app: AppId,
        node: NodeId,
        initial_cpu_cores: f64,
        initial_mem_bytes: u64,
    ) -> Result<(), AllocatorError> {
        self.broadcast_node(node);
        let shard = self.route_of(app);
        let home = &mut self.shards[shard];
        let actions = home.controller.register_container(
            container,
            app,
            node,
            initial_cpu_cores,
            initial_mem_bytes,
        )?;
        home.pending.extend(actions);
        self.record_container(container, shard);
        Ok(())
    }

    /// Deregisters a container on its home shard.
    ///
    /// # Errors
    ///
    /// Propagates [`AllocatorError::UnknownContainer`].
    pub fn deregister_container(&mut self, container: ContainerId) -> Result<(), AllocatorError> {
        let shard = self.shard_for(container);
        self.shards[shard]
            .controller
            .deregister_container(container)?;
        if let Some(slot) = self.container_shard.get_mut(container.as_u64() as usize) {
            *slot = NO_SHARD;
        }
        Ok(())
    }

    /// Routes one inbound wire message to its home shard.
    ///
    /// The caller charges the message's wire bytes
    /// ([`ToController::wire_bytes`]) exactly once *before* routing: a
    /// [`ToController::CpuStatsBatch`] (or columnar block) whose entries
    /// fan out to several shards is still one datagram on the wire — the
    /// fan-out happens after the envelope, so per-shard sub-batches must
    /// never be re-charged (a test in this module holds that property).
    pub fn handle(&mut self, now: SimTime, msg: ToController) {
        if S::ENABLED {
            self.last_now = now;
        }
        match msg {
            ToController::Register {
                container,
                app,
                node,
            } => {
                self.broadcast_node(node);
                let shard = self.route_of(app);
                // The wire path swallows a refusal into
                // `register_errors`; success means "the container now
                // belongs to `app` on this shard", which is what the
                // router records as the home shard.
                let home = &mut self.shards[shard];
                home.handle(now, msg);
                if home.controller.allocator().app_of(container) == Some(app) {
                    self.record_container(container, shard);
                }
            }
            ToController::CpuStatsBatch { node, entries } => {
                // The envelope-level ingest event is the router's (the
                // shards see only sub-batches): one per node datagram,
                // exactly like the sequential Controller's.
                if S::ENABLED {
                    self.sink.emit(
                        now,
                        TraceEventKind::BatchIngest {
                            node: node.as_u64(),
                            entries: entries.len() as u32,
                        },
                    );
                }
                self.ingest_cpu_batch_at(now, &entries);
            }
            ToController::CpuStatsColumns { node, columns } => {
                if S::ENABLED {
                    self.sink.emit(
                        now,
                        TraceEventKind::BatchIngest {
                            node: node.as_u64(),
                            entries: columns.len() as u32,
                        },
                    );
                }
                self.ingest_cpu_columns_at(now, &columns);
            }
            ToController::CpuStats { container, .. }
            | ToController::OomEvent { container, .. }
            | ToController::LimitAck { container, .. } => {
                let shard = self.shard_for(container);
                self.note_work(shard);
                self.shards[shard].handle(now, msg);
            }
        }
    }

    /// Splits one node's telemetry batch across home shards and feeds
    /// each shard its slice, preserving entry order within each shard.
    /// Equivalent to [`ShardedController::ingest_cpu_batch_at`] at
    /// `SimTime::ZERO` (the shard Controllers' decision logic is
    /// time-independent; the time only stamps trace events).
    pub fn ingest_cpu_batch(&mut self, entries: &[CpuStatsEntry]) {
        self.ingest_cpu_batch_at(SimTime::ZERO, entries);
    }

    /// Time-stamped batch ingest: like
    /// [`ShardedController::ingest_cpu_batch`], with `now` carried to
    /// the shard Controllers for their trace events. Each shard's
    /// `ingest_cpu_batch_at` call is clocked into its ingest-busy time;
    /// the split is router work and is not.
    pub fn ingest_cpu_batch_at(&mut self, now: SimTime, entries: &[CpuStatsEntry]) {
        for e in entries {
            let shard = self.shard_for(e.container);
            self.split_rows[shard].push(*e);
        }
        for i in 0..self.shards.len() {
            if self.split_rows[i].is_empty() {
                continue;
            }
            self.note_work(i);
            let shard = &mut self.shards[i];
            let t0 = Instant::now();
            shard
                .controller
                .ingest_cpu_batch_at(now, &self.split_rows[i], &mut shard.pending);
            shard.ingest_busy += t0.elapsed();
            self.split_rows[i].clear();
        }
    }

    /// Splits one node's columnar telemetry block across home shards,
    /// preserving entry order within each shard, and feeds each shard
    /// its sub-block — the columnar counterpart of
    /// [`ShardedController::ingest_cpu_batch`], at `SimTime::ZERO`.
    pub fn ingest_cpu_columns(&mut self, columns: &CpuStatsColumns) {
        self.ingest_cpu_columns_at(SimTime::ZERO, columns);
    }

    /// Time-stamped columnar ingest: like
    /// [`ShardedController::ingest_cpu_columns`], with `now` carried to
    /// the shard Controllers for their trace events, clocked like
    /// [`ShardedController::ingest_cpu_batch_at`].
    pub fn ingest_cpu_columns_at(&mut self, now: SimTime, columns: &CpuStatsColumns) {
        for i in 0..columns.len() {
            let container = ContainerId::new(columns.container_raw[i] as u64);
            let shard = self.shard_for(container);
            self.split_columns[shard].push_raw(
                container,
                columns.quota_mcores[i],
                columns.unused_us[i],
                columns.usage_us[i],
                columns.throttled_bit(i),
            );
        }
        for i in 0..self.shards.len() {
            if self.split_columns[i].is_empty() {
                continue;
            }
            self.note_work(i);
            let shard = &mut self.shards[i];
            let t0 = Instant::now();
            shard
                .controller
                .ingest_cpu_columns_at(now, &self.split_columns[i], &mut shard.pending);
            shard.ingest_busy += t0.elapsed();
            self.split_columns[i].clear();
        }
    }

    /// Advances time on every shard: grant retries and the reclaim
    /// schedule run shard-locally; resulting commands appear in the next
    /// drain (duplicate cluster-wide sweeps are deduplicated there).
    pub fn tick(&mut self, now: SimTime) {
        if S::ENABLED {
            self.last_now = now;
        }
        for i in 0..self.shards.len() {
            self.note_work(i);
            let shard = &mut self.shards[i];
            shard.controller.tick_into(now, &mut shard.pending);
        }
    }

    /// Ingests an Agent's reclamation report.
    ///
    /// Entries are routed to each container's home shard; every shard
    /// receives a report (even an empty slice) because a report is also
    /// the signal to retry pending OOMs, whichever shard holds them —
    /// exactly as [`Controller::on_reclaim_report`] retries on any
    /// report.
    pub fn on_reclaim_report(&mut self, now: SimTime, entries: &[ReclaimEntry]) {
        if S::ENABLED {
            self.last_now = now;
        }
        let mut slices: Vec<Vec<ReclaimEntry>> = vec![Vec::new(); self.shards.len()];
        for e in entries {
            slices[self.shard_for(e.container)].push(*e);
        }
        for (i, slice) in slices.iter().enumerate() {
            self.note_work(i);
            let shard = &mut self.shards[i];
            let actions = shard.controller.on_reclaim_report(now, slice);
            shard.pending.extend(actions);
        }
    }

    /// Collects every shard's accumulated actions into `out`, in shard
    /// order, *appending without clearing* — the same caller-owned-buffer
    /// contract as [`Controller::handle_into`]. The shards' buffers keep
    /// their capacity, so a steady-state drain allocates nothing.
    ///
    /// Identical cluster-wide [`ToAgent::ReclaimMemory`] commands are
    /// deduplicated within one drain: when all N shards launch their
    /// periodic sweep at the same tick, the Agents must see (and the
    /// wire must carry) one sweep, as under a sequential Controller.
    pub fn drain_actions_into(&mut self, out: &mut Vec<Action>) {
        self.seen_reclaims.clear();
        for (i, shard) in self.shards.iter_mut().enumerate() {
            if S::ENABLED {
                self.sink.emit(
                    self.last_now,
                    TraceEventKind::ShardDequeue {
                        shard: i as u32,
                        drained: self.queue_depth[i],
                    },
                );
                self.queue_depth[i] = 0;
            }
            for a in shard.pending.drain(..) {
                if let Action::Agent {
                    node,
                    cmd: ToAgent::ReclaimMemory { delta_bytes },
                } = a
                {
                    if self.seen_reclaims.contains(&(node, delta_bytes)) {
                        continue;
                    }
                    self.seen_reclaims.push((node, delta_bytes));
                }
                out.push(a);
            }
        }
    }

    /// Work items routed to each shard since its last drain, in shard
    /// order. All zeros unless `S::ENABLED` (the counters exist for the
    /// shard trace events).
    pub fn queue_depths(&self) -> &[u32] {
        &self.queue_depth
    }

    /// Aggregate lifetime counters, merged across shards with
    /// [`ControllerStats::merge`] (see its note on `reclaim_sweeps`).
    pub fn stats(&self) -> ControllerStats {
        let mut total = ControllerStats::default();
        for s in &self.shards {
            total.merge(&s.controller.stats());
        }
        total
    }

    /// Lifetime counters of each shard, in shard order.
    pub fn per_shard_stats(&self) -> Vec<ControllerStats> {
        self.shards.iter().map(|s| s.controller.stats()).collect()
    }

    /// The home shard's Controller for `container`.
    fn home(&self, container: ContainerId) -> &Controller<S> {
        &self.shards[self.shard_for(container)].controller
    }

    /// The home shard's Controller for `app`.
    fn app_home(&self, app: AppId) -> &Controller<S> {
        &self.shards[self.route_of(app)].controller
    }

    /// The container's current CPU quota, from its home shard's books.
    pub fn quota_of(&self, container: ContainerId) -> Option<f64> {
        self.home(container).allocator().quota_of(container)
    }

    /// The container's current memory limit, from its home shard's books.
    pub fn mem_limit_of(&self, container: ContainerId) -> Option<u64> {
        self.home(container).allocator().mem_limit_of(container)
    }

    /// Σ tracked CPU quotas of `app`'s containers on its home shard.
    pub fn tracked_cpu_sum(&self, app: AppId) -> f64 {
        self.app_home(app).allocator().tracked_cpu_sum(app)
    }

    /// Σ tracked memory limits of `app`'s containers on its home shard.
    pub fn tracked_mem_sum(&self, app: AppId) -> u64 {
        self.app_home(app).allocator().tracked_mem_sum(app)
    }

    /// A snapshot of `app`'s Distributed Container pool books.
    pub fn app_pool(&self, app: AppId) -> Option<PoolSnapshot> {
        self.app_home(app)
            .allocator()
            .app_pool(app)
            .map(|p| PoolSnapshot {
                cpu_limit_cores: p.cpu_limit_cores(),
                mem_limit_bytes: p.mem_limit_bytes(),
                allocated_cpu_cores: p.allocated_cpu_cores(),
                allocated_mem_bytes: p.allocated_mem_bytes(),
            })
    }

    /// Total memory grants awaiting an Agent ack, across shards.
    pub fn pending_grant_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.controller.pending_grant_count())
            .sum()
    }

    /// CPU time each shard's Controller spent inside batch/columnar
    /// ingest, in shard order. Only telemetry batches and blocks are
    /// clocked, and only on the shard whose books they update: ticks,
    /// wire messages and reclaim reports leave it unchanged.
    ///
    /// This is the per-shard critical path of telemetry processing: on a
    /// machine with one core per shard, aggregate ingest throughput is
    /// `total entries / max(per-shard busy)`. The capacity benchmark
    /// (`overhead_controller`) reports exactly that quotient.
    pub fn ingest_busy_per_shard(&self) -> Vec<Duration> {
        self.shards.iter().map(|s| s.ingest_busy).collect()
    }

    /// Test/fault-injection hook: deliver a wire message directly to
    /// `shard`, bypassing the app-affine router — e.g. a registration
    /// arriving at the wrong shard must be *rejected and counted* in
    /// `register_errors`, never silently absorbed.
    pub fn inject_wire_to_shard(&mut self, shard: usize, now: SimTime, msg: ToController) {
        self.shards[shard].handle(now, msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::MAX_CONTAINER_ID;
    use crate::telemetry::{CPU_STATS_ENTRY_BYTES, CPU_STATS_HEADER_BYTES};
    use escra_cfs::{CpuPeriodStats, MIB};
    use escra_net::{batch_wire_bytes, BandwidthAccountant};

    fn throttled(quota: f64) -> CpuPeriodStats {
        CpuPeriodStats {
            quota_cores: quota,
            usage_us: quota * 100_000.0,
            unused_runtime_us: 0.0,
            throttled: true,
        }
    }

    fn sharded_with_apps(n_shards: usize, n_apps: u64, per_app: u64) -> ShardedController {
        let mut s = ShardedController::new(EscraConfig::default(), n_shards);
        for a in 0..n_apps {
            s.register_app(AppId::new(a), 8.0, 1024 * MIB);
            for i in 0..per_app {
                let cid = a * per_app + i;
                s.register_container(
                    ContainerId::new(cid),
                    AppId::new(a),
                    NodeId::new(cid % 2),
                    1.0,
                    64 * MIB,
                )
                .unwrap();
            }
        }
        s
    }

    #[test]
    fn routing_is_app_affine() {
        let s = sharded_with_apps(3, 6, 2);
        for a in 0..6u64 {
            assert_eq!(s.route_of(AppId::new(a)), (a % 3) as usize);
            for i in 0..2u64 {
                assert_eq!(
                    s.shard_of_container(ContainerId::new(a * 2 + i)),
                    Some((a % 3) as usize)
                );
            }
        }
    }

    #[test]
    fn registration_bootstraps_cgroups_via_drain() {
        let mut s = sharded_with_apps(2, 2, 1);
        let mut actions = Vec::new();
        s.drain_actions_into(&mut actions);
        // Two containers, two bootstrap commands each.
        assert_eq!(actions.len(), 4);
    }

    #[test]
    fn telemetry_routes_to_the_home_shard_and_drains() {
        let mut s = sharded_with_apps(2, 2, 1);
        s.drain_actions_into(&mut Vec::new()); // discard bootstrap
        let quota = s.quota_of(ContainerId::new(1)).unwrap();
        s.handle(
            SimTime::ZERO,
            ToController::CpuStats {
                container: ContainerId::new(1),
                stats: throttled(quota),
            },
        );
        let mut actions = Vec::new();
        s.drain_actions_into(&mut actions);
        assert_eq!(actions.len(), 1);
        assert!(matches!(
            actions[0],
            Action::Agent {
                cmd: ToAgent::SetCpuQuota { container, .. },
                ..
            } if container == ContainerId::new(1)
        ));
        assert_eq!(s.stats().quota_updates, 1);
        assert_eq!(s.stats().cpu_stats_ingested, 1);
    }

    #[test]
    fn periodic_sweeps_are_deduplicated_across_shards() {
        let mut s = sharded_with_apps(4, 4, 1);
        s.drain_actions_into(&mut Vec::new());
        s.tick(SimTime::from_secs(5));
        let mut actions = Vec::new();
        s.drain_actions_into(&mut actions);
        // 4 shards each launch a sweep over both nodes; the drain must
        // carry each node's command once.
        let reclaims: Vec<_> = actions
            .iter()
            .filter(|a| {
                matches!(
                    a,
                    Action::Agent {
                        cmd: ToAgent::ReclaimMemory { .. },
                        ..
                    }
                )
            })
            .collect();
        assert_eq!(reclaims.len(), 2, "one per node, not one per shard");
        // Each shard still counted its own sweep (documented divergence).
        assert_eq!(s.stats().reclaim_sweeps, 4);
    }

    #[test]
    fn batch_fan_out_is_charged_one_envelope() {
        // A 4-entry batch spanning both shards is one datagram on the
        // wire: the embedding charges `wire_bytes()` once before routing
        // and the router's fan-out adds nothing.
        let mut s = sharded_with_apps(2, 4, 1);
        s.drain_actions_into(&mut Vec::new());
        let entries: Vec<CpuStatsEntry> = (0..4u64)
            .map(|i| CpuStatsEntry {
                container: ContainerId::new(i),
                stats: throttled(1.0),
            })
            .collect();
        let msg = ToController::CpuStatsBatch {
            node: NodeId::new(0),
            entries,
        };
        let mut acc = BandwidthAccountant::new();
        acc.record(SimTime::ZERO, msg.wire_bytes());
        s.handle(SimTime::ZERO, msg);
        assert_eq!(
            acc.total_bytes(),
            batch_wire_bytes(CPU_STATS_HEADER_BYTES, CPU_STATS_ENTRY_BYTES, 4)
        );
        assert_eq!(s.stats().cpu_stats_ingested, 4);
    }

    #[test]
    fn unknown_telemetry_is_counted_and_ignored_like_sequential() {
        let mut s = sharded_with_apps(2, 2, 1);
        s.drain_actions_into(&mut Vec::new());
        s.handle(
            SimTime::ZERO,
            ToController::CpuStats {
                container: ContainerId::new(99),
                stats: throttled(1.0),
            },
        );
        let mut actions = Vec::new();
        s.drain_actions_into(&mut actions);
        assert!(actions.is_empty());
        assert_eq!(s.stats().cpu_stats_ingested, 1);
    }

    #[test]
    fn wrong_shard_registration_is_rejected_and_counted() {
        let mut s = sharded_with_apps(2, 2, 1);
        s.drain_actions_into(&mut Vec::new());
        // App 1's home is shard 1; inject its registration at shard 0.
        let wrong = ToController::Register {
            container: ContainerId::new(7),
            app: AppId::new(1),
            node: NodeId::new(0),
        };
        s.inject_wire_to_shard(0, SimTime::ZERO, wrong);
        let mut actions = Vec::new();
        s.drain_actions_into(&mut actions);
        assert!(actions.is_empty(), "no bootstrap for a reject");
        let per_shard = s.per_shard_stats();
        assert_eq!(per_shard[0].register_errors, 1);
        assert_eq!(per_shard[1].register_errors, 0);
        assert_eq!(s.stats().register_errors, 1);
    }

    #[test]
    fn out_of_range_container_ids_are_rejected_without_allocating() {
        // The router's shard map is addressed by the raw wire id, like
        // the allocator's index: neither may grow for a refused id.
        let mut s = sharded_with_apps(2, 2, 1);
        s.drain_actions_into(&mut Vec::new());
        let registered = |s: &ShardedController| -> usize {
            s.shards
                .iter()
                .map(|sh| sh.controller.allocator().container_count())
                .sum()
        };
        let map_len = s.container_shard.len();
        let hostile = [u64::MAX, u32::MAX as u64, MAX_CONTAINER_ID];
        for (i, raw) in hostile.into_iter().enumerate() {
            let id = ContainerId::new(raw);
            assert_eq!(
                s.register_container(id, AppId::new(1), NodeId::new(0), 1.0, 64 * MIB),
                Err(AllocatorError::ContainerIdOutOfRange(id))
            );
            // The wire path counts it on the app's home shard.
            s.handle(
                SimTime::ZERO,
                ToController::Register {
                    container: id,
                    app: AppId::new(1),
                    node: NodeId::new(0),
                },
            );
            let mut actions = Vec::new();
            s.drain_actions_into(&mut actions);
            assert!(actions.is_empty(), "no bootstrap for a reject");
            assert_eq!(s.per_shard_stats()[1].register_errors, i as u64 + 1);
            assert_eq!(s.shard_of_container(id), None);
            assert_eq!(registered(&s), 2);
            assert_eq!(s.container_shard.len(), map_len);
        }
        // A valid registration still works afterwards.
        s.register_container(
            ContainerId::new(2),
            AppId::new(1),
            NodeId::new(0),
            1.0,
            64 * MIB,
        )
        .unwrap();
        assert_eq!(s.shard_of_container(ContainerId::new(2)), Some(1));
        assert_eq!(registered(&s), 3);
    }

    #[test]
    fn single_shard_matches_sequential_controller_exactly() {
        // With one shard the router is a pass-through: same actions, same
        // seqs, same stats as the sequential Controller.
        let mut seq = Controller::new(EscraConfig::default());
        let mut sharded = ShardedController::new(EscraConfig::default(), 1);
        seq.register_app(AppId::new(0), 8.0, 1024 * MIB);
        sharded.register_app(AppId::new(0), 8.0, 1024 * MIB);
        let mut seq_actions = seq
            .register_container(
                ContainerId::new(0),
                AppId::new(0),
                NodeId::new(0),
                1.0,
                64 * MIB,
            )
            .unwrap();
        sharded
            .register_container(
                ContainerId::new(0),
                AppId::new(0),
                NodeId::new(0),
                1.0,
                64 * MIB,
            )
            .unwrap();
        for round in 0..30u64 {
            let now = SimTime::from_millis(round * 100);
            let quota = seq.allocator().quota_of(ContainerId::new(0)).unwrap();
            let msg = ToController::CpuStats {
                container: ContainerId::new(0),
                stats: throttled(quota),
            };
            seq.handle_into(now, msg.clone(), &mut seq_actions);
            sharded.handle(now, msg);
            seq_actions.extend(seq.tick(now));
            sharded.tick(now);
        }
        let mut sharded_actions = Vec::new();
        sharded.drain_actions_into(&mut sharded_actions);
        assert_eq!(seq_actions, sharded_actions);
        assert_eq!(seq.stats(), sharded.stats());
    }

    #[test]
    fn columnar_ingest_matches_row_batch_ingest_across_shards() {
        // The same telemetry stream fed as columnar blocks and as row
        // batches must produce identical actions and stats, shard count
        // notwithstanding — the sharded face of the columnar identity.
        for n_shards in [1usize, 3] {
            let mut by_rows = sharded_with_apps(n_shards, 4, 2);
            let mut by_cols = sharded_with_apps(n_shards, 4, 2);
            by_rows.drain_actions_into(&mut Vec::new());
            by_cols.drain_actions_into(&mut Vec::new());
            for round in 0..12u64 {
                let now = SimTime::from_millis(round * 100);
                let entries: Vec<CpuStatsEntry> = (0..8u64)
                    .map(|i| CpuStatsEntry {
                        container: ContainerId::new(i),
                        stats: if (round + i) % 3 == 0 {
                            throttled(1.0)
                        } else {
                            CpuPeriodStats {
                                quota_cores: 1.0,
                                usage_us: 30_000.0,
                                unused_runtime_us: 70_000.0,
                                throttled: false,
                            }
                        },
                    })
                    .collect();
                let columns = CpuStatsColumns::from_entries(&entries);
                // Quantization is lossless for these values, so the two
                // forms carry identical statistics.
                assert_eq!(columns.to_entries(), entries);
                by_rows.handle(
                    now,
                    ToController::CpuStatsBatch {
                        node: NodeId::new(0),
                        entries,
                    },
                );
                by_cols.handle(
                    now,
                    ToController::CpuStatsColumns {
                        node: NodeId::new(0),
                        columns,
                    },
                );
            }
            let (mut rows_actions, mut cols_actions) = (Vec::new(), Vec::new());
            by_rows.drain_actions_into(&mut rows_actions);
            by_cols.drain_actions_into(&mut cols_actions);
            assert_eq!(rows_actions, cols_actions);
            assert_eq!(by_rows.stats(), by_cols.stats());
        }
    }

    #[test]
    fn skewed_routing_stays_correct_with_idle_shards() {
        // Every app hashes to shard 0 (app ids ≡ 0 mod 4): three shards
        // sit idle, and the result must still be decision-for-decision
        // identical to a sequential Controller.
        let mut seq = Controller::new(EscraConfig::default());
        let mut sharded = ShardedController::new(EscraConfig::default(), 4);
        for a in [0u64, 4, 8] {
            seq.register_app(AppId::new(a), 8.0, 1024 * MIB);
            sharded.register_app(AppId::new(a), 8.0, 1024 * MIB);
            assert_eq!(sharded.route_of(AppId::new(a)), 0, "skew by construction");
        }
        let mut seq_actions = Vec::new();
        for c in 0..6u64 {
            let app = AppId::new((c % 3) * 4);
            seq_actions.extend(
                seq.register_container(ContainerId::new(c), app, NodeId::new(0), 1.0, 64 * MIB)
                    .unwrap(),
            );
            sharded
                .register_container(ContainerId::new(c), app, NodeId::new(0), 1.0, 64 * MIB)
                .unwrap();
        }
        for round in 0..40u64 {
            let now = SimTime::from_millis(round * 100);
            let entries: Vec<CpuStatsEntry> = (0..6u64)
                .map(|c| CpuStatsEntry {
                    container: ContainerId::new(c),
                    stats: throttled(seq.allocator().quota_of(ContainerId::new(c)).unwrap()),
                })
                .collect();
            seq.ingest_cpu_batch_at(now, &entries, &mut seq_actions);
            sharded.ingest_cpu_batch_at(now, &entries);
        }
        let mut sharded_actions = Vec::new();
        sharded.drain_actions_into(&mut sharded_actions);
        assert_eq!(seq_actions, sharded_actions);
        assert_eq!(seq.stats(), sharded.stats());
    }

    #[test]
    fn ingest_busy_counts_telemetry_on_the_home_shard_only() {
        // Apps 0/1/2 live on shards 0/1/2; containers 2a and 2a+1 are
        // app a's. The busy clocks are the capacity model's input.
        let mut s = sharded_with_apps(3, 3, 2);
        s.drain_actions_into(&mut Vec::new());
        let now = SimTime::from_secs(5);
        s.tick(now);
        s.handle(
            now,
            ToController::LimitAck {
                container: ContainerId::new(0),
                seq: 1,
            },
        );
        s.handle(
            now,
            ToController::OomEvent {
                container: ContainerId::new(2),
                shortfall_bytes: 8 * MIB,
                current_limit_bytes: 64 * MIB,
            },
        );
        s.on_reclaim_report(
            now,
            &[ReclaimEntry {
                container: ContainerId::new(4),
                new_limit_bytes: 60 * MIB,
                psi_bytes: 4 * MIB,
            }],
        );
        s.drain_actions_into(&mut Vec::new());
        assert_eq!(s.ingest_busy_per_shard(), vec![Duration::ZERO; 3]);

        // A row batch for containers on shards {0, 2} leaves shard 1 idle.
        let entry = |c: u64| CpuStatsEntry {
            container: ContainerId::new(c),
            stats: throttled(1.0),
        };
        s.ingest_cpu_batch_at(now, &[0, 1, 4, 5].map(entry));
        let busy = s.ingest_busy_per_shard();
        assert!(busy[0] > Duration::ZERO);
        assert_eq!(busy[1], Duration::ZERO);
        assert!(busy[2] > Duration::ZERO);

        // A columnar block for shard 1's containers clocks shard 1 only.
        s.ingest_cpu_columns_at(now, &CpuStatsColumns::from_entries(&[2, 3].map(entry)));
        let after = s.ingest_busy_per_shard();
        assert_eq!((after[0], after[2]), (busy[0], busy[2]));
        assert!(after[1] > Duration::ZERO);
    }

    #[test]
    fn deregister_returns_resources_and_clears_routing() {
        let mut s = sharded_with_apps(2, 2, 1);
        s.drain_actions_into(&mut Vec::new());
        s.deregister_container(ContainerId::new(0)).unwrap();
        assert_eq!(s.shard_of_container(ContainerId::new(0)), None);
        assert!(matches!(
            s.deregister_container(ContainerId::new(0)),
            Err(AllocatorError::UnknownContainer(_))
        ));
    }

    #[test]
    fn stats_merge_sums_every_counter() {
        let mut a = ControllerStats {
            cpu_stats_ingested: 1,
            quota_updates: 2,
            scale_ups: 3,
            scale_downs: 4,
            mem_grants: 5,
            ooms_absorbed: 6,
            ooms_fatal: 7,
            reclaim_sweeps: 8,
            reclaimed_bytes: 9,
            grant_retries: 10,
            grant_reconciles: 11,
            grants_abandoned: 12,
            register_errors: 13,
            ack_mismatches: 14,
        };
        let b = a;
        a.merge(&b);
        // Full-struct equality: a struct literal with every field named
        // means adding a counter without updating merge (and this
        // expectation) fails to compile, not silently under-merges.
        assert_eq!(
            a,
            ControllerStats {
                cpu_stats_ingested: 2,
                quota_updates: 4,
                scale_ups: 6,
                scale_downs: 8,
                mem_grants: 10,
                ooms_absorbed: 12,
                ooms_fatal: 14,
                reclaim_sweeps: 16,
                reclaimed_bytes: 18,
                grant_retries: 20,
                grant_reconciles: 22,
                grants_abandoned: 24,
                register_errors: 26,
                ack_mismatches: 28,
            }
        );
    }
}
