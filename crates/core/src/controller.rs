//! The Escra Controller (paper §IV-C).
//!
//! The Controller "brings all of the system components together": it
//! registers containers into the per-application pool, forwards telemetry
//! and OOM events to the Resource Allocator, carries out the Allocator's
//! decisions as Agent commands, and launches the periodic reclamation
//! loop. It makes no allocation decisions itself.
//!
//! The Controller is driven by the embedding simulation: `handle_into`
//! for each arriving message, `tick_into` at each time step, and
//! `on_reclaim_report` when an Agent finishes a sweep. All outputs are
//! [`Action`] values the embedding applies (with control-plane latency);
//! the `_into` forms append them to a caller-owned buffer.

use crate::agent::ReclaimEntry;
use crate::allocator::{AllocatorError, CpuDecision, OomDecision, ResourceAllocator, NO_SLOT};
use crate::columnar::{self, ColumnScratch};
use crate::config::EscraConfig;
use crate::telemetry::{CpuStatsColumns, CpuStatsEntry, ToAgent, ToController};
use escra_cluster::{AppId, ContainerId, NodeId};
use escra_metrics::fingerprint::StateHash;
use escra_metrics::trace::{NoopSink, TraceEventKind, TraceSink};
use escra_simcore::time::SimTime;
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};

/// How many entries ahead of the one it decides a telemetry walk
/// prefetches a container's track ([`ResourceAllocator::prefetch_slot`]).
/// On a registry too large for the cache, the first read of each track
/// is a miss whose latency the decision procedure's data-dependent
/// branches cannot overlap; issued this far ahead, the load overlaps
/// about that many decisions. Sized on 100 000-container registries
/// (DESIGN.md §VI-I): 4, 8 and 16 read within noise of each other, 32
/// slower; 16 leaves the most room for a slower memory.
const LOOKAHEAD: usize = 16;

/// An effect the Controller wants carried out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Action {
    /// Send a command to the Agent on `node`.
    Agent {
        /// Target node.
        node: NodeId,
        /// The command.
        cmd: ToAgent,
    },
    /// Let the OS OOM-kill this container (no memory could be found).
    KillContainer(ContainerId),
}

/// Lifetime counters for the overhead analysis (§VI-I) and the OOM
/// comparison (§VI-E).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ControllerStats {
    /// Telemetry messages ingested.
    pub cpu_stats_ingested: u64,
    /// Quota updates issued.
    pub quota_updates: u64,
    /// Quota updates that were scale-ups (throttle reactions).
    pub scale_ups: u64,
    /// Quota updates that were scale-downs (slack reclaim).
    pub scale_downs: u64,
    /// Memory-limit updates issued (OOM grants).
    pub mem_grants: u64,
    /// OOM events that were absorbed (container survived).
    pub ooms_absorbed: u64,
    /// OOM events that ended in a kill.
    pub ooms_fatal: u64,
    /// Reclamation sweeps launched.
    pub reclaim_sweeps: u64,
    /// Total ψ bytes returned by sweeps.
    pub reclaimed_bytes: u64,
    /// Memory grants re-sent because no ack arrived in time.
    pub grant_retries: u64,
    /// Tracked limits re-sent because an OOM event revealed the
    /// container was running with an older (lower) limit.
    pub grant_reconciles: u64,
    /// Pending grants dropped after exhausting their retries.
    pub grants_abandoned: u64,
    /// Wire registrations rejected by the Allocator (unknown app,
    /// duplicate or out-of-range id). Silently swallowing these hid
    /// misconfigured deployments; now they are counted and logged in
    /// debug builds.
    pub register_errors: u64,
    /// `LimitAck`s whose seq did not match the container's pending
    /// grant (straggler acks of superseded sends, or acks of unrelated
    /// commands in the shared seq space). They never retire a grant.
    pub ack_mismatches: u64,
}

impl ControllerStats {
    /// Folds another shard's counters into this one.
    ///
    /// Every field is a lifetime *count*, so the app-sharded capacity
    /// model (`crate::sharded`) aggregates its shards by plain summation.
    /// It drives telemetry ingest only, which never launches a sweep, so
    /// no counter is double-counted across shards.
    pub fn merge(&mut self, other: &ControllerStats) {
        // Full destructuring, no `..`: adding a stats field without
        // deciding how it merges must fail to compile, not silently
        // lose the new counter in sharded runs.
        let ControllerStats {
            cpu_stats_ingested,
            quota_updates,
            scale_ups,
            scale_downs,
            mem_grants,
            ooms_absorbed,
            ooms_fatal,
            reclaim_sweeps,
            reclaimed_bytes,
            grant_retries,
            grant_reconciles,
            grants_abandoned,
            register_errors,
            ack_mismatches,
        } = *other;
        self.cpu_stats_ingested += cpu_stats_ingested;
        self.quota_updates += quota_updates;
        self.scale_ups += scale_ups;
        self.scale_downs += scale_downs;
        self.mem_grants += mem_grants;
        self.ooms_absorbed += ooms_absorbed;
        self.ooms_fatal += ooms_fatal;
        self.reclaim_sweeps += reclaim_sweeps;
        self.reclaimed_bytes += reclaimed_bytes;
        self.grant_retries += grant_retries;
        self.grant_reconciles += grant_reconciles;
        self.grants_abandoned += grants_abandoned;
        self.register_errors += register_errors;
        self.ack_mismatches += ack_mismatches;
    }
}

/// A memory grant the Controller sent but has not yet seen acked. If the
/// `SetMemLimit` is lost, the trapped container stays frozen at its old
/// limit — so unacked grants are re-sent on a timeout rather than
/// stranding it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingGrant {
    seq: u64,
    sent_at: SimTime,
    retries: u32,
}

/// The logically centralized Escra Controller.
///
/// Generic over a [`TraceSink`] so a per-decision audit trail can be
/// recorded without taxing untraced embeddings: the default
/// [`NoopSink`] has `ENABLED = false`, every instrumentation site is
/// guarded by that constant, and the compiled hot path is identical to
/// the uninstrumented one (held by the `overhead_controller --check`
/// regression gate).
///
/// `Clone` (for sinks that are themselves `Clone`, like the default
/// [`NoopSink`]) exists for the model checker, which forks the whole
/// control-plane state at every branching point.
#[derive(Debug, Clone)]
pub struct Controller<S: TraceSink = NoopSink> {
    allocator: ResourceAllocator,
    nodes: BTreeSet<NodeId>,
    next_reclaim_at: SimTime,
    /// OOMs waiting for a reclamation sweep to finish.
    pending_ooms: Vec<(ContainerId, u64)>,
    /// Monotonic sequence stamped on every outgoing limit command, so
    /// Agents can discard duplicated/reordered deliveries.
    next_seq: u64,
    /// OOM grants awaiting an Agent ack.
    pending_mem_grants: BTreeMap<ContainerId, PendingGrant>,
    stats: ControllerStats,
    sink: S,
    /// Reused per-ingest column buffers (slots + converted cores) so the
    /// steady-state columnar path allocates nothing.
    scratch: ColumnScratch,
    /// Reused collection buffer for overdue grant ids in
    /// [`Controller::tick_into`].
    due_scratch: Vec<ContainerId>,
}

impl Controller {
    /// Creates an untraced Controller (and its embedded Resource
    /// Allocator).
    pub fn new(cfg: EscraConfig) -> Self {
        Controller::with_sink(cfg, NoopSink)
    }
}

impl<S: TraceSink> Controller<S> {
    /// Creates a Controller recording its decisions into `sink`.
    pub fn with_sink(cfg: EscraConfig, sink: S) -> Self {
        let first_reclaim = SimTime::ZERO + cfg.reclaim_interval;
        Controller {
            allocator: ResourceAllocator::new(cfg),
            nodes: BTreeSet::new(),
            next_reclaim_at: first_reclaim,
            pending_ooms: Vec::new(),
            next_seq: 0,
            pending_mem_grants: BTreeMap::new(),
            stats: ControllerStats::default(),
            sink,
            scratch: ColumnScratch::default(),
            due_scratch: Vec::new(),
        }
    }

    /// Read access to the trace sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Swaps the trace sink, returning the old one — how a finished run
    /// extracts its recorder without tearing the Controller down.
    pub fn replace_sink(&mut self, sink: S) -> S {
        std::mem::replace(&mut self.sink, sink)
    }

    fn next_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq
    }

    /// Builds a `SetMemLimit` carrying `container`'s memory limit and
    /// records it as pending until the Agent acks it: a fresh grant or
    /// reconcile (`retries` 0) or the `retries`-th re-send of one.
    fn mem_grant_action(
        &mut self,
        now: SimTime,
        node: NodeId,
        container: ContainerId,
        limit_bytes: u64,
        retries: u32,
    ) -> Action {
        let seq = self.next_seq();
        self.pending_mem_grants.insert(
            container,
            PendingGrant {
                seq,
                sent_at: now,
                retries,
            },
        );
        Action::Agent {
            node,
            cmd: ToAgent::SetMemLimit {
                container,
                limit_bytes,
                seq,
            },
        }
    }

    /// An OOM the pool absorbed: counts it, traces the grant and sends
    /// the raised limit (tracked until acked).
    fn grant_oom(
        &mut self,
        now: SimTime,
        container: ContainerId,
        new_limit_bytes: u64,
        out: &mut Vec<Action>,
    ) {
        self.stats.mem_grants += 1;
        self.stats.ooms_absorbed += 1;
        if S::ENABLED {
            self.sink.emit(
                now,
                TraceEventKind::GrantIssued {
                    container: container.as_u64(),
                    new_limit_bytes,
                },
            );
        }
        if let Some(node) = self.allocator.node_of(container) {
            let action = self.mem_grant_action(now, node, container, new_limit_bytes, 0);
            out.push(action);
        }
    }

    /// An OOM no memory could be found for: counts it, traces it and
    /// lets the OS kill the container.
    fn kill_oom(&mut self, now: SimTime, container: ContainerId, out: &mut Vec<Action>) {
        self.stats.ooms_fatal += 1;
        if S::ENABLED {
            self.sink.emit(
                now,
                TraceEventKind::OomKill {
                    container: container.as_u64(),
                },
            );
        }
        out.push(Action::KillContainer(container));
    }

    /// Read access to the embedded allocator (pools, quotas).
    pub fn allocator(&self) -> &ResourceAllocator {
        &self.allocator
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ControllerStats {
        self.stats
    }

    /// Number of memory grants still awaiting an Agent ack.
    pub fn pending_grant_count(&self) -> usize {
        self.pending_mem_grants.len()
    }

    /// The seq of `container`'s pending (unacked) memory grant, if any.
    pub fn pending_grant_seq(&self, container: ContainerId) -> Option<u64> {
        self.pending_mem_grants.get(&container).map(|p| p.seq)
    }

    /// Number of OOM events parked behind an in-flight reclamation sweep.
    pub fn pending_oom_count(&self) -> usize {
        self.pending_ooms.len()
    }

    /// Feeds the Controller's behaviourally relevant state into a
    /// canonical state hash: allocator books, known nodes, the seq
    /// counter, the reclaim schedule, parked OOMs and pending grants.
    /// `stats` is excluded — the audit counters never influence a
    /// decision — so the model checker's visited set merges states that
    /// differ only in how they were reached.
    pub fn fingerprint_into(&self, h: &mut StateHash) {
        self.allocator.fingerprint_into(h);
        h.write_u64(self.nodes.len() as u64);
        for n in &self.nodes {
            h.write_u64(n.as_u64());
        }
        h.write_u64(self.next_seq);
        h.write_u64(self.next_reclaim_at.as_micros());
        h.write_u64(self.pending_ooms.len() as u64);
        for (c, shortfall) in &self.pending_ooms {
            h.write_u64(c.as_u64());
            h.write_u64(*shortfall);
        }
        h.write_u64(self.pending_mem_grants.len() as u64);
        for (c, p) in &self.pending_mem_grants {
            h.write_u64(c.as_u64());
            h.write_u64(p.seq);
            h.write_u64(p.sent_at.as_micros());
            h.write_u32(p.retries);
        }
    }

    /// Registers an application's global limits (sent by the Deployer
    /// before any container deploys).
    pub fn register_app(&mut self, app: AppId, cpu_limit_cores: f64, mem_limit_bytes: u64) {
        self.allocator
            .register_app(app, cpu_limit_cores, mem_limit_bytes);
    }

    /// Records that `node` exists, so reclamation sweeps include it even
    /// if no container of this Controller's registry runs there.
    ///
    /// `register_container` learns nodes implicitly; this explicit path
    /// is for embeddings that know the node set up front: `trace_sim`
    /// notes every node before any pod deploys, and the app-partition
    /// property test notes every node on every partition so that each
    /// partition's sweep covers the whole cluster, exactly like one
    /// Controller's sweep does.
    pub fn note_node(&mut self, node: NodeId) {
        self.nodes.insert(node);
    }

    /// Registers a container with initial limits; returns the Agent
    /// commands that bootstrap its cgroups to the granted values.
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
    ) -> Result<Vec<Action>, AllocatorError> {
        self.nodes.insert(node);
        let (cpu, mem) = self.allocator.register_container(
            container,
            app,
            node,
            initial_cpu_cores,
            initial_mem_bytes,
        )?;
        let cpu_seq = self.next_seq();
        let mem_seq = self.next_seq();
        Ok(vec![
            Action::Agent {
                node,
                cmd: ToAgent::SetCpuQuota {
                    container,
                    quota_cores: cpu,
                    seq: cpu_seq,
                },
            },
            Action::Agent {
                node,
                cmd: ToAgent::SetMemLimit {
                    container,
                    limit_bytes: mem,
                    seq: mem_seq,
                },
            },
        ])
    }

    /// Sizes the allocator's slab for `additional` more containers (see
    /// [`ResourceAllocator::reserve_containers`]).
    pub fn reserve_containers(&mut self, additional: usize) {
        self.allocator.reserve_containers(additional);
    }

    /// Deregisters a container (terminated pod), returning its resources
    /// to the application pool.
    ///
    /// # Errors
    ///
    /// Propagates [`AllocatorError::UnknownContainer`].
    pub fn deregister_container(&mut self, container: ContainerId) -> Result<(), AllocatorError> {
        self.pending_ooms.retain(|(c, _)| *c != container);
        self.pending_mem_grants.remove(&container);
        self.allocator.deregister_container(container)
    }

    /// Handles one inbound message, appending the actions to carry out
    /// to `out` (the buffer is *not* cleared — the caller owns it and
    /// drains it between calls). With a warm buffer the steady-state
    /// telemetry path allocates nothing.
    ///
    /// Unknown containers are ignored (they may have deregistered while
    /// the message was in flight) — the Controller must not crash on
    /// stale telemetry.
    pub fn handle_into(&mut self, now: SimTime, msg: ToController, out: &mut Vec<Action>) {
        match msg {
            ToController::Register {
                container,
                app,
                node,
            } => {
                // Registration without explicit limits: bootstrap from the
                // pool evenly (runtime-created pods carry their own spec
                // through `register_container` instead).
                match self.register_container(container, app, node, 1.0, 256 * escra_cfs::MIB) {
                    Ok(actions) => out.extend(actions),
                    Err(err) => {
                        // A rejected wire registration means a container is
                        // running unmanaged — never swallow it silently.
                        self.stats.register_errors += 1;
                        if cfg!(debug_assertions) {
                            eprintln!(
                                "escra-controller: wire registration of {container} \
                                 (app {app}, node {node}) rejected: {err}"
                            );
                        }
                    }
                }
            }
            ToController::CpuStats { container, stats } => {
                self.ingest_cpu_batch_at(now, &[CpuStatsEntry { container, stats }], out);
            }
            ToController::CpuStatsBatch { node, entries } => {
                self.ingest_node_batch(now, node, &entries, out);
            }
            ToController::CpuStatsColumns { node, columns } => {
                if columns.is_well_formed() {
                    self.trace_batch(now, node, columns.len());
                }
                self.ingest_cpu_columns_at(now, &columns, out);
            }
            ToController::OomEvent {
                container,
                shortfall_bytes,
                current_limit_bytes,
            } => {
                if S::ENABLED {
                    self.sink.emit(
                        now,
                        TraceEventKind::OomTrap {
                            container: container.as_u64(),
                            shortfall_bytes,
                            current_limit_bytes,
                        },
                    );
                }
                // Reconcile first: if our books say the container should
                // already be above the limit it reports, the grant that
                // raised it was lost in flight. Re-send the tracked limit
                // (no new pool allocation — the bytes are already
                // charged) instead of granting on top of stale state.
                if let (Some(tracked), Some(node)) = (
                    self.allocator.mem_limit_of(container),
                    self.allocator.node_of(container),
                ) {
                    if tracked > current_limit_bytes {
                        self.stats.grant_reconciles += 1;
                        if S::ENABLED {
                            self.sink.emit(
                                now,
                                TraceEventKind::GrantReconciled {
                                    container: container.as_u64(),
                                    tracked_limit_bytes: tracked,
                                },
                            );
                        }
                        let action = self.mem_grant_action(now, node, container, tracked, 0);
                        out.push(action);
                        return;
                    }
                }
                match self.allocator.on_oom(container, shortfall_bytes) {
                    Ok(OomDecision::Grant { new_limit_bytes }) => {
                        self.grant_oom(now, container, new_limit_bytes, out);
                    }
                    Ok(OomDecision::NeedReclaim) => {
                        if S::ENABLED {
                            self.sink.emit(
                                now,
                                TraceEventKind::GrantDenied {
                                    container: container.as_u64(),
                                },
                            );
                        }
                        self.pending_ooms.push((container, shortfall_bytes));
                        self.launch_reclaim_into(now, out);
                    }
                    Ok(OomDecision::Kill) | Err(_) => {}
                }
            }
            ToController::LimitAck { container, seq } => {
                if let Some(pending) = self.pending_mem_grants.get(&container) {
                    // Exact-seq match only. Acks and limit commands share
                    // one `next_seq` space across both resources, so an
                    // ack for a *later unrelated* command (e.g. a CPU
                    // quota update racing the grant) carries a higher
                    // seq; the old `pending.seq <= seq` rule let it
                    // retire a grant the agent never applied, silently
                    // losing it. Lower seqs are straggler acks of
                    // superseded sends; both kinds leave the pending
                    // entry armed for the retry timer and are counted.
                    if pending.seq == seq {
                        self.pending_mem_grants.remove(&container);
                        if S::ENABLED {
                            self.sink.emit(
                                now,
                                TraceEventKind::GrantAcked {
                                    container: container.as_u64(),
                                },
                            );
                        }
                    } else {
                        self.stats.ack_mismatches += 1;
                    }
                }
            }
        }
    }

    /// Ingests one node's batched per-period statistics, exactly as if
    /// each entry had arrived as its own [`ToController::CpuStats`]
    /// message in entry order (a single message *is* a one-entry batch).
    /// Appends actions to `out` without clearing it.
    ///
    /// Timeless compatibility wrapper over
    /// [`Controller::ingest_cpu_batch_at`]: trace events (if any) are
    /// stamped at `SimTime::ZERO`. Decisions do not depend on the stamp.
    pub fn ingest_cpu_batch(&mut self, entries: &[CpuStatsEntry], out: &mut Vec<Action>) {
        self.ingest_cpu_batch_at(SimTime::ZERO, entries, out);
    }

    /// [`Controller::ingest_cpu_batch`] with the arrival time, so the
    /// per-decision trace is stamped correctly.
    ///
    /// The row walk: each entry's slab slot is resolved once, its
    /// statistic converted to cores, and the shared decision step
    /// ([`Controller::decide_into`]) does the rest. Unknown reporters
    /// (deregistered with telemetry in flight) are counted as ingested
    /// and skipped. Before deciding an entry the walk prefetches the
    /// track of the entry `LOOKAHEAD` places further on.
    pub fn ingest_cpu_batch_at(
        &mut self,
        now: SimTime,
        entries: &[CpuStatsEntry],
        out: &mut Vec<Action>,
    ) {
        let period = self.allocator.config().report_period;
        self.stats.cpu_stats_ingested += entries.len() as u64;
        for (i, entry) in entries.iter().enumerate() {
            if let Some(ahead) = entries
                .get(i + LOOKAHEAD)
                .and_then(|e| self.allocator.slot_of(e.container))
            {
                self.allocator.prefetch_slot(ahead);
            }
            let Some(slot) = self.allocator.slot_of(entry.container) else {
                continue;
            };
            let stats = entry.stats;
            self.decide_into(
                now,
                slot,
                entry.container,
                stats.usage_cores(period),
                stats.unused_cores(period),
                stats.throttled,
                out,
            );
        }
    }

    /// Handles a [`ToController::CpuStatsBatch`] from `node` by
    /// reference — the `BatchIngest` trace event, then
    /// [`Controller::ingest_cpu_batch_at`] — so a driver that delivers
    /// the datagram in the instant it was sent can keep the node's
    /// buffer instead of moving it into a message.
    pub fn ingest_node_batch(
        &mut self,
        now: SimTime,
        node: NodeId,
        entries: &[CpuStatsEntry],
        out: &mut Vec<Action>,
    ) {
        self.trace_batch(now, node, entries.len());
        self.ingest_cpu_batch_at(now, entries, out);
    }

    /// Traces the arrival of one node's telemetry datagram (either form).
    fn trace_batch(&mut self, now: SimTime, node: NodeId, entries: usize) {
        if S::ENABLED {
            self.sink.emit(
                now,
                TraceEventKind::BatchIngest {
                    node: node.as_u64(),
                    entries: entries as u32,
                },
            );
        }
    }

    /// Ingests one node's period statistics in columnar (struct-of-arrays)
    /// form, exactly as if [`Controller::ingest_cpu_batch`] had been fed
    /// `columns.to_entries()` — decision-for-decision, counter-for-counter
    /// and trace-event-for-trace-event identical (property-tested).
    ///
    /// Timeless compatibility wrapper over
    /// [`Controller::ingest_cpu_columns_at`].
    pub fn ingest_cpu_columns(&mut self, columns: &CpuStatsColumns, out: &mut Vec<Action>) {
        self.ingest_cpu_columns_at(SimTime::ZERO, columns, out);
    }

    /// [`Controller::ingest_cpu_columns`] with the arrival time.
    ///
    /// The columnar walk runs in two phases. Phase A is columnar and
    /// branch-free: slab slots are gathered straight off the allocator's
    /// direct-mapped index, and the fixed-point `usage_us`/`unused_us`
    /// columns are converted to cores in bulk by one plain loop the
    /// compiler vectorises (see [`crate::columnar`]). Phase B walks the
    /// resolved columns and hands each known entry to the same decision
    /// step as the row walk ([`Controller::decide_into`]); pool state is
    /// inherently sequential (each grant changes what the next entry can
    /// take), so only this phase is serial. Before deciding an entry it
    /// prefetches the track of the entry `LOOKAHEAD` places further on.
    ///
    /// A block that is not [`CpuStatsColumns::is_well_formed`] has no
    /// row reading to be identical to: it is refused whole, deciding
    /// and counting nothing.
    pub fn ingest_cpu_columns_at(
        &mut self,
        now: SimTime,
        columns: &CpuStatsColumns,
        out: &mut Vec<Action>,
    ) {
        if !columns.is_well_formed() {
            return;
        }
        let period_us = self.allocator.config().report_period.as_micros() as f64;
        let mut scratch = std::mem::take(&mut self.scratch);
        // Phase A: gather slots, convert integer columns to cores.
        scratch.slots.clear();
        scratch.slots.reserve(columns.len());
        let index = self.allocator.raw_index();
        scratch.slots.extend(
            columns
                .container_raw
                .iter()
                .map(|&raw| index.get(raw as usize).copied().unwrap_or(NO_SLOT)),
        );
        columnar::u32_to_cores(&columns.usage_us, period_us, &mut scratch.usage_cores);
        columnar::u32_to_cores(&columns.unused_us, period_us, &mut scratch.unused_cores);
        // Phase B: the sequential decision loop over resolved columns.
        // Every entry counts as ingested (known or not), exactly like the
        // row walk. The columns are walked as zipped iterators (no
        // per-entry bounds checks) and the packed throttle words as a
        // shifting cursor: entry `i`'s bit is the low bit of the current
        // word, refilled every 64 entries — the same LSB-first order
        // [`CpuStatsColumns::throttled_bit`] reads.
        self.stats.cpu_stats_ingested += columns.len() as u64;
        let mut thr_words = columns.throttled.iter();
        let mut thr_cursor = 0u64;
        let rows = scratch
            .slots
            .iter()
            .zip(&scratch.usage_cores)
            .zip(&scratch.unused_cores)
            .zip(&columns.container_raw);
        for (i, (((&slot, &usage_cores), &unused_cores), &raw)) in rows.enumerate() {
            if let Some(&ahead) = scratch.slots.get(i + LOOKAHEAD) {
                self.allocator.prefetch_slot(ahead);
            }
            if i % 64 == 0 {
                thr_cursor = thr_words.next().copied().unwrap_or(0);
            }
            let throttled = thr_cursor & 1 == 1;
            thr_cursor >>= 1;
            if slot == NO_SLOT {
                continue;
            }
            self.decide_into(
                now,
                slot,
                ContainerId::new(raw as u64),
                usage_cores,
                unused_cores,
                throttled,
                out,
            );
        }
        self.scratch = scratch;
    }

    /// The decision step both telemetry walks share: the end-of-period
    /// statistic of the registered container in slab `slot` goes to the
    /// Allocator and, if it moves the quota, becomes one `SetCpuQuota` to
    /// the container's node, counted in `quota_updates` and
    /// `scale_ups`/`scale_downs` and traced as a `CpuDecision`. A Hold
    /// changes nothing on any Agent and counts nothing — the §VI-I
    /// overhead tables derive messages-on-the-wire from these counters.
    /// Always inlined: it runs once per telemetry entry, inside both
    /// walks' loops.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn decide_into(
        &mut self,
        now: SimTime,
        slot: u32,
        container: ContainerId,
        usage_cores: f64,
        unused_cores: f64,
        throttled: bool,
        out: &mut Vec<Action>,
    ) {
        let decision = self
            .allocator
            .decide_at_slot(slot, usage_cores, unused_cores, throttled);
        let (new_quota_cores, is_scale_up) = match decision {
            CpuDecision::ScaleUp { new_quota_cores } => (new_quota_cores, true),
            CpuDecision::ScaleDown { new_quota_cores } => (new_quota_cores, false),
            CpuDecision::Hold => return,
        };
        self.stats.quota_updates += 1;
        if is_scale_up {
            self.stats.scale_ups += 1;
        } else {
            self.stats.scale_downs += 1;
        }
        if S::ENABLED {
            let (throttle_rate, unused_mean_cores) = self.allocator.decision_inputs_at_slot(slot);
            self.sink.emit(
                now,
                TraceEventKind::CpuDecision {
                    container: container.as_u64(),
                    scale_up: is_scale_up,
                    new_quota_cores,
                    throttle_rate,
                    unused_mean_cores,
                },
            );
        }
        let seq = self.next_seq();
        out.push(Action::Agent {
            node: self.allocator.node_at_slot(slot),
            cmd: ToAgent::SetCpuQuota {
                container,
                quota_cores: new_quota_cores,
                seq,
            },
        });
    }

    /// Periodic work: launches the proactive reclamation loop every
    /// `reclaim_interval` (paper: 5 s) and re-sends memory grants whose
    /// ack is overdue. Actions are appended to a caller-owned buffer
    /// (not cleared), mirroring the [`Controller::handle_into`]
    /// contract; with no grants pending and no sweep due, a tick
    /// allocates nothing.
    pub fn tick_into(&mut self, now: SimTime, out: &mut Vec<Action>) {
        self.retry_stale_grants_into(now, out);
        if now >= self.next_reclaim_at {
            // Advance from the *scheduled* time, not from `now`:
            // rescheduling off the observed tick made every late tick
            // push all later sweeps back, so a coarse tick grid ran
            // fewer sweeps per hour than configured. If the embedding
            // stalled for several intervals, collapse the backlog into
            // one sweep rather than bursting.
            let interval = self.allocator.config().reclaim_interval;
            while self.next_reclaim_at <= now {
                self.next_reclaim_at += interval;
            }
            self.launch_reclaim_into(now, out);
        }
    }

    /// Re-sends unacked memory grants past the retry timeout. After
    /// `grant_max_retries` unanswered re-sends the grant is abandoned:
    /// the books already carry the bytes, so if the container is still
    /// alive its next OOM event will reconcile against the tracked limit.
    fn retry_stale_grants_into(&mut self, now: SimTime, out: &mut Vec<Action>) {
        if self.pending_mem_grants.is_empty() {
            return;
        }
        let timeout = self.allocator.config().grant_retry_timeout;
        let max_retries = self.allocator.config().grant_max_retries;
        // The map cannot be mutated while iterated; collect the overdue
        // ids into a scratch buffer the Controller owns and reuses.
        let mut due = std::mem::take(&mut self.due_scratch);
        due.clear();
        due.extend(
            self.pending_mem_grants
                .iter()
                .filter(|(_, g)| now >= g.sent_at + timeout)
                .map(|(c, _)| *c),
        );
        for container in due.drain(..) {
            let Some(grant) = self.pending_mem_grants.get(&container).copied() else {
                continue;
            };
            // Re-send the *currently tracked* limit, not the one the
            // original grant carried: a reclamation sweep may have moved
            // the books since, and the books are authoritative.
            let target = (
                self.allocator.mem_limit_of(container),
                self.allocator.node_of(container),
            );
            let (Some(limit), Some(node)) = target else {
                self.pending_mem_grants.remove(&container);
                continue;
            };
            if grant.retries >= max_retries {
                self.pending_mem_grants.remove(&container);
                self.stats.grants_abandoned += 1;
                if S::ENABLED {
                    self.sink.emit(
                        now,
                        TraceEventKind::GrantAbandoned {
                            container: container.as_u64(),
                        },
                    );
                }
                continue;
            }
            self.stats.grant_retries += 1;
            if S::ENABLED {
                self.sink.emit(
                    now,
                    TraceEventKind::GrantRetried {
                        container: container.as_u64(),
                        retries: grant.retries + 1,
                    },
                );
            }
            let action = self.mem_grant_action(now, node, container, limit, grant.retries + 1);
            out.push(action);
        }
        self.due_scratch = due;
    }

    fn launch_reclaim_into(&mut self, now: SimTime, out: &mut Vec<Action>) {
        self.stats.reclaim_sweeps += 1;
        let delta = self.allocator.config().delta_bytes;
        if S::ENABLED {
            self.sink.emit(
                now,
                TraceEventKind::ReclaimSweep {
                    nodes: self.nodes.len() as u32,
                    delta_bytes: delta,
                },
            );
        }
        out.extend(self.nodes.iter().map(|node| Action::Agent {
            node: *node,
            cmd: ToAgent::ReclaimMemory { delta_bytes: delta },
        }));
    }

    /// Ingests an Agent's reclamation report: credits ψ back to the pools
    /// and retries any pending OOMs (grant or kill).
    pub fn on_reclaim_report(&mut self, now: SimTime, entries: &[ReclaimEntry]) -> Vec<Action> {
        for e in entries {
            if let Ok(psi) = self.allocator.apply_reclaim(e.container, e.new_limit_bytes) {
                self.stats.reclaimed_bytes += psi;
                if S::ENABLED {
                    self.sink.emit(
                        now,
                        TraceEventKind::ReclaimApplied {
                            container: e.container.as_u64(),
                            new_limit_bytes: e.new_limit_bytes,
                            psi_bytes: psi,
                        },
                    );
                }
            }
        }
        let pending = std::mem::take(&mut self.pending_ooms);
        let mut actions = Vec::new();
        for (container, shortfall) in pending {
            match self.allocator.retry_oom_after_reclaim(container, shortfall) {
                Ok(OomDecision::Grant { new_limit_bytes }) => {
                    self.grant_oom(now, container, new_limit_bytes, &mut actions);
                }
                // `NeedReclaim` and an unknown container cannot come out
                // of a retry; should they, the container is killed too.
                Ok(OomDecision::Kill | OomDecision::NeedReclaim) | Err(_) => {
                    self.kill_oom(now, container, &mut actions);
                }
            }
        }
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::MAX_CONTAINER_ID;
    use escra_cfs::{CpuPeriodStats, MIB};

    const APP: AppId = AppId::new(0);
    const C0: ContainerId = ContainerId::new(0);
    const N0: NodeId = NodeId::new(0);

    fn controller_with_one() -> Controller {
        let mut c = Controller::new(EscraConfig::default());
        c.register_app(APP, 8.0, 1024 * MIB);
        let actions = c.register_container(C0, APP, N0, 2.0, 256 * MIB).unwrap();
        assert_eq!(actions.len(), 2);
        c
    }

    fn throttled_stats(quota: f64) -> CpuPeriodStats {
        CpuPeriodStats {
            quota_cores: quota,
            usage_us: quota * 100_000.0,
            unused_runtime_us: 0.0,
            throttled: true,
        }
    }

    /// One message's actions, collected into a fresh buffer.
    fn handle(c: &mut Controller, now: SimTime, msg: ToController) -> Vec<Action> {
        let mut out = Vec::new();
        c.handle_into(now, msg, &mut out);
        out
    }

    /// One tick's actions, collected into a fresh buffer.
    fn tick(c: &mut Controller, now: SimTime) -> Vec<Action> {
        let mut out = Vec::new();
        c.tick_into(now, &mut out);
        out
    }

    #[test]
    fn telemetry_drives_quota_update_action() {
        let mut c = controller_with_one();
        let actions = handle(
            &mut c,
            SimTime::ZERO,
            ToController::CpuStats {
                container: C0,
                stats: throttled_stats(2.0),
            },
        );
        assert_eq!(actions.len(), 1);
        match actions[0] {
            Action::Agent {
                node,
                cmd:
                    ToAgent::SetCpuQuota {
                        container,
                        quota_cores,
                        ..
                    },
            } => {
                assert_eq!(node, N0);
                assert_eq!(container, C0);
                assert!(quota_cores > 2.0);
            }
            other => panic!("unexpected action {other:?}"),
        }
        assert_eq!(c.stats().quota_updates, 1);
        assert_eq!(c.stats().cpu_stats_ingested, 1);
    }

    #[test]
    fn oom_grant_action() {
        let mut c = controller_with_one();
        let actions = handle(
            &mut c,
            SimTime::ZERO,
            ToController::OomEvent {
                container: C0,
                shortfall_bytes: MIB,
                current_limit_bytes: 256 * MIB,
            },
        );
        assert!(matches!(
            actions[0],
            Action::Agent {
                cmd: ToAgent::SetMemLimit { .. },
                ..
            }
        ));
        assert_eq!(c.stats().ooms_absorbed, 1);
        assert_eq!(c.stats().ooms_fatal, 0);
        // The grant is tracked until the Agent acks it.
        assert_eq!(c.pending_grant_count(), 1);
    }

    #[test]
    fn oom_with_exhausted_pool_triggers_reclaim_then_kill() {
        let mut c = Controller::new(EscraConfig::default());
        c.register_app(APP, 2.0, 256 * MIB);
        c.register_container(C0, APP, N0, 1.0, 256 * MIB).unwrap();
        let actions = handle(
            &mut c,
            SimTime::ZERO,
            ToController::OomEvent {
                container: C0,
                shortfall_bytes: 64 * MIB,
                current_limit_bytes: 256 * MIB,
            },
        );
        // Pool empty -> reclamation sweep to the (single) node.
        assert_eq!(actions.len(), 1);
        assert!(matches!(
            actions[0],
            Action::Agent {
                cmd: ToAgent::ReclaimMemory { .. },
                ..
            }
        ));
        // Sweep found nothing -> kill.
        let actions = c.on_reclaim_report(SimTime::ZERO, &[]);
        assert_eq!(actions, vec![Action::KillContainer(C0)]);
        assert_eq!(c.stats().ooms_fatal, 1);
    }

    #[test]
    fn oom_survives_via_reclaim() {
        let mut c = Controller::new(EscraConfig::default());
        c.register_app(APP, 2.0, 512 * MIB);
        c.register_container(C0, APP, N0, 1.0, 256 * MIB).unwrap();
        let c1 = ContainerId::new(1);
        c.register_container(c1, APP, N0, 1.0, 256 * MIB).unwrap();
        handle(
            &mut c,
            SimTime::ZERO,
            ToController::OomEvent {
                container: C0,
                shortfall_bytes: 16 * MIB,
                current_limit_bytes: 256 * MIB,
            },
        );
        // Agent reclaimed 100 MiB from c1.
        let actions = c.on_reclaim_report(
            SimTime::ZERO,
            &[ReclaimEntry {
                container: c1,
                new_limit_bytes: 156 * MIB,
                psi_bytes: 100 * MIB,
            }],
        );
        assert!(matches!(
            actions[0],
            Action::Agent {
                cmd: ToAgent::SetMemLimit { container, .. },
                ..
            } if container == C0
        ));
        assert_eq!(c.stats().reclaimed_bytes, 100 * MIB);
        assert_eq!(c.stats().ooms_absorbed, 1);
    }

    #[test]
    fn periodic_reclaim_fires_on_interval() {
        let mut c = controller_with_one();
        assert!(tick(&mut c, SimTime::from_secs(4)).is_empty());
        let actions = tick(&mut c, SimTime::from_secs(5));
        assert_eq!(actions.len(), 1); // one node
        assert!(tick(&mut c, SimTime::from_secs(6)).is_empty());
        let actions = tick(&mut c, SimTime::from_secs(10));
        assert_eq!(actions.len(), 1);
        assert_eq!(c.stats().reclaim_sweeps, 2);
    }

    #[test]
    fn coarse_tick_grid_does_not_drift_the_reclaim_schedule() {
        // Interval is 5 s but the embedding only ticks every 3 s. Each
        // sweep fires at the first tick past its scheduled time, and the
        // schedule stays anchored at 5 s multiples: sweeps land at
        // t = 6, 12, 15, 21, 27, 30 — six sweeps in 30 s. The old
        // `next = now + interval` rescheduling drifted the anchor to the
        // tick time and lost one sweep over the same horizon.
        let mut c = controller_with_one();
        for step in 1..=10u64 {
            tick(&mut c, SimTime::from_secs(3 * step));
        }
        assert_eq!(c.stats().reclaim_sweeps, 6);
    }

    #[test]
    fn stalled_embedding_catches_up_with_one_sweep() {
        let mut c = controller_with_one();
        // No ticks for 23 s (4 missed deadlines): one catch-up sweep,
        // and the schedule resumes at the next 5 s multiple.
        let actions = tick(&mut c, SimTime::from_secs(23));
        assert_eq!(actions.len(), 1);
        assert_eq!(c.stats().reclaim_sweeps, 1);
        assert!(tick(&mut c, SimTime::from_secs(24)).is_empty());
        assert_eq!(tick(&mut c, SimTime::from_secs(25)).len(), 1);
    }

    #[test]
    fn stale_telemetry_is_ignored() {
        let mut c = controller_with_one();
        let ghost = ContainerId::new(42);
        let actions = handle(
            &mut c,
            SimTime::ZERO,
            ToController::CpuStats {
                container: ghost,
                stats: throttled_stats(1.0),
            },
        );
        assert!(actions.is_empty());
    }

    #[test]
    fn deregister_cancels_pending_oom() {
        let mut c = Controller::new(EscraConfig::default());
        c.register_app(APP, 2.0, 256 * MIB);
        c.register_container(C0, APP, N0, 1.0, 256 * MIB).unwrap();
        handle(
            &mut c,
            SimTime::ZERO,
            ToController::OomEvent {
                container: C0,
                shortfall_bytes: MIB,
                current_limit_bytes: 256 * MIB,
            },
        );
        c.deregister_container(C0).unwrap();
        // Pending OOM was dropped with the container; report is a no-op.
        let actions = c.on_reclaim_report(SimTime::ZERO, &[]);
        assert!(actions.is_empty());
    }

    /// Raises one OOM grant and returns (controller, granted limit, seq).
    fn controller_with_unacked_grant() -> (Controller, u64, u64) {
        let mut c = controller_with_one();
        let actions = handle(
            &mut c,
            SimTime::ZERO,
            ToController::OomEvent {
                container: C0,
                shortfall_bytes: MIB,
                current_limit_bytes: 256 * MIB,
            },
        );
        match actions[0] {
            Action::Agent {
                cmd:
                    ToAgent::SetMemLimit {
                        limit_bytes, seq, ..
                    },
                ..
            } => (c, limit_bytes, seq),
            ref other => panic!("expected a grant, got {other:?}"),
        }
    }

    #[test]
    fn limit_ack_clears_the_pending_grant() {
        let (mut c, _, seq) = controller_with_unacked_grant();
        handle(
            &mut c,
            SimTime::from_millis(1),
            ToController::LimitAck { container: C0, seq },
        );
        assert_eq!(c.pending_grant_count(), 0);
        // No ack, no retry traffic.
        assert!(tick(&mut c, SimTime::from_secs(1)).is_empty());
        assert_eq!(c.stats().grant_retries, 0);
    }

    #[test]
    fn unacked_grant_is_resent_after_the_timeout() {
        let (mut c, granted, seq) = controller_with_unacked_grant();
        // Before the timeout: silence.
        assert!(tick(&mut c, SimTime::from_millis(400)).is_empty());
        // After: the tracked limit goes out again under a fresh seq.
        let actions = tick(&mut c, SimTime::from_millis(600));
        assert_eq!(actions.len(), 1);
        match actions[0] {
            Action::Agent {
                cmd:
                    ToAgent::SetMemLimit {
                        container,
                        limit_bytes,
                        seq: retry_seq,
                    },
                ..
            } => {
                assert_eq!(container, C0);
                assert_eq!(limit_bytes, granted);
                assert!(retry_seq > seq, "retry must carry a newer seq");
            }
            ref other => panic!("expected a re-sent grant, got {other:?}"),
        }
        assert_eq!(c.stats().grant_retries, 1);
        // A late ack for the *old* seq must not clear the newer retry...
        handle(
            &mut c,
            SimTime::from_millis(700),
            ToController::LimitAck { container: C0, seq },
        );
        assert_eq!(c.pending_grant_count(), 1);
    }

    #[test]
    fn grant_is_abandoned_after_max_retries() {
        let (mut c, _, _) = controller_with_unacked_grant();
        let max = c.allocator().config().grant_max_retries;
        let mut retries_seen = 0;
        for step in 1..20u64 {
            // Tick on a grid coarser than the timeout so each tick is
            // eligible to retry; never ack.
            let actions = tick(&mut c, SimTime::from_millis(600 * step));
            retries_seen += actions
                .iter()
                .filter(|a| {
                    matches!(
                        a,
                        Action::Agent {
                            cmd: ToAgent::SetMemLimit { .. },
                            ..
                        }
                    )
                })
                .count() as u32;
        }
        assert_eq!(retries_seen, max);
        assert_eq!(c.pending_grant_count(), 0);
        assert_eq!(c.stats().grants_abandoned, 1);
    }

    #[test]
    fn ack_for_the_retry_seq_clears_the_grant_but_a_straggler_does_not() {
        // Regression for the retry/ack seq interaction: the retry must
        // carry a *fresh* seq in the pending-grant table, so an ack for
        // the original (possibly lost) send cannot clear the retry, while
        // the ack for the retry itself does.
        let (mut c, _granted, first_seq) = controller_with_unacked_grant();
        let actions = tick(&mut c, SimTime::from_millis(600));
        let retry_seq = match actions[0] {
            Action::Agent {
                cmd: ToAgent::SetMemLimit { seq, .. },
                ..
            } => seq,
            ref other => panic!("expected a re-sent grant, got {other:?}"),
        };
        assert!(retry_seq > first_seq);
        // Straggler ack for the original send: the retry stays pending.
        handle(
            &mut c,
            SimTime::from_millis(700),
            ToController::LimitAck {
                container: C0,
                seq: first_seq,
            },
        );
        assert_eq!(c.pending_grant_count(), 1);
        // Ack carrying the retry's seq: cleared, and no more retry
        // traffic on later ticks (only the periodic reclaim sweep).
        handle(
            &mut c,
            SimTime::from_millis(800),
            ToController::LimitAck {
                container: C0,
                seq: retry_seq,
            },
        );
        assert_eq!(c.pending_grant_count(), 0);
        let later = tick(&mut c, SimTime::from_secs(2));
        assert!(later.iter().all(|a| !matches!(
            a,
            Action::Agent {
                cmd: ToAgent::SetMemLimit { .. },
                ..
            }
        )));
        assert_eq!(c.stats().grant_retries, 1);
    }

    /// Regression (found by the `escra-mc` model checker): CPU quota
    /// commands and memory grants share one `next_seq` space, and the
    /// agent acks every limit-update RPC. Under the old
    /// `pending.seq <= seq` rule, the ack of a *CPU* command issued
    /// after the grant carried a higher seq and retired the unapplied
    /// memory grant — the container stayed frozen at its old limit and
    /// no retry ever fired. Acks must match the pending grant's exact
    /// seq; everything else is counted as a mismatch.
    #[test]
    fn ack_of_a_later_unrelated_command_does_not_retire_the_grant() {
        let (mut c, _granted, grant_seq) = controller_with_unacked_grant();
        // A throttled period scales the quota up: the SetCpuQuota takes
        // the next seq in the shared space.
        let actions = handle(
            &mut c,
            SimTime::from_millis(10),
            ToController::CpuStats {
                container: C0,
                stats: throttled_stats(1.0),
            },
        );
        let cpu_seq = match actions[..] {
            [Action::Agent {
                cmd: ToAgent::SetCpuQuota { seq, .. },
                ..
            }] => seq,
            ref other => panic!("expected a quota scale-up, got {other:?}"),
        };
        assert!(cpu_seq > grant_seq, "shared seq space must advance");
        // The agent applies the quota and acks it. Pre-fix this cleared
        // the still-unapplied memory grant.
        handle(
            &mut c,
            SimTime::from_millis(20),
            ToController::LimitAck {
                container: C0,
                seq: cpu_seq,
            },
        );
        assert_eq!(
            c.pending_grant_count(),
            1,
            "a CPU-side ack must not retire the pending memory grant"
        );
        assert_eq!(c.stats().ack_mismatches, 1);
        // The grant is still armed: the retry timer re-sends it.
        let retries = tick(&mut c, SimTime::from_millis(600));
        let retry_seq = retries
            .iter()
            .find_map(|a| match a {
                Action::Agent {
                    cmd: ToAgent::SetMemLimit { seq, .. },
                    ..
                } => Some(*seq),
                _ => None,
            })
            .expect("the unacked grant must be re-sent");
        // The matching ack still clears it.
        handle(
            &mut c,
            SimTime::from_millis(700),
            ToController::LimitAck {
                container: C0,
                seq: retry_seq,
            },
        );
        assert_eq!(c.pending_grant_count(), 0);
    }

    #[test]
    fn rejected_wire_registration_is_counted() {
        // App was never registered: the old path swallowed the error via
        // unwrap_or_default() and the container ran unmanaged, invisibly.
        let mut c = Controller::new(EscraConfig::default());
        let actions = handle(
            &mut c,
            SimTime::ZERO,
            ToController::Register {
                container: C0,
                app: APP,
                node: N0,
            },
        );
        assert!(actions.is_empty());
        assert_eq!(c.stats().register_errors, 1);
        // A duplicate id is rejected and counted too.
        c.register_app(APP, 8.0, 1024 * MIB);
        c.register_container(C0, APP, N0, 1.0, 256 * MIB).unwrap();
        handle(
            &mut c,
            SimTime::ZERO,
            ToController::Register {
                container: C0,
                app: APP,
                node: N0,
            },
        );
        assert_eq!(c.stats().register_errors, 2);
        // A well-formed wire registration still bootstraps cgroups.
        let actions = handle(
            &mut c,
            SimTime::ZERO,
            ToController::Register {
                container: ContainerId::new(1),
                app: APP,
                node: N0,
            },
        );
        assert_eq!(actions.len(), 2);
        assert_eq!(c.stats().register_errors, 2);
    }

    #[test]
    fn out_of_range_container_ids_are_rejected_without_allocating() {
        // The container index is addressed by the raw wire id: before the
        // bound, one of these registrations resized it to gigabytes (or
        // overflowed `raw + 1`).
        let mut c = Controller::new(EscraConfig::default());
        c.register_app(APP, 8.0, 1024 * MIB);
        c.register_container(C0, APP, N0, 1.0, 256 * MIB).unwrap();
        let index_len = c.allocator().raw_index().len();
        let allocated = c.allocator().app_pool(APP).unwrap().allocated_mem_bytes();
        let hostile = [u64::MAX, u32::MAX as u64, MAX_CONTAINER_ID];
        for (i, raw) in hostile.into_iter().enumerate() {
            let id = ContainerId::new(raw);
            assert_eq!(
                c.register_container(id, APP, N0, 1.0, 256 * MIB),
                Err(AllocatorError::ContainerIdOutOfRange(id))
            );
            // The wire path counts it like every other rejection.
            let actions = handle(
                &mut c,
                SimTime::ZERO,
                ToController::Register {
                    container: id,
                    app: APP,
                    node: N0,
                },
            );
            assert!(actions.is_empty());
            assert_eq!(c.stats().register_errors, i as u64 + 1);
            assert_eq!(c.allocator().container_count(), 1);
            assert_eq!(c.allocator().raw_index().len(), index_len);
        }
        let pool = c.allocator().app_pool(APP).unwrap();
        assert_eq!(pool.allocated_mem_bytes(), allocated, "nothing drawn");
        // A valid registration still works afterwards.
        let c1 = ContainerId::new(1);
        assert_eq!(
            c.register_container(c1, APP, N0, 1.0, 256 * MIB)
                .unwrap()
                .len(),
            2
        );
        assert_eq!(c.allocator().container_count(), 2);
    }

    #[test]
    fn quota_counters_match_emitted_actions() {
        // The §VI-I tables derive wire messages from these counters, so
        // they must count emitted Actions, not Allocator decisions.
        let mut c = Controller::new(EscraConfig::default());
        c.register_app(APP, 8.0, 1024 * MIB);
        for i in 0..4u64 {
            c.register_container(ContainerId::new(i), APP, N0, 1.0, 64 * MIB)
                .unwrap();
        }
        let (mut ups, mut downs) = (0u64, 0u64);
        for round in 0..50u64 {
            for i in 0..4u64 {
                let quota = c.allocator().quota_of(ContainerId::new(i)).unwrap();
                let stats = if (round + i) % 3 == 0 {
                    throttled_stats(quota)
                } else {
                    CpuPeriodStats {
                        quota_cores: quota,
                        usage_us: quota * 10_000.0,
                        unused_runtime_us: quota * 90_000.0,
                        throttled: false,
                    }
                };
                let actions = handle(
                    &mut c,
                    SimTime::from_millis(round * 100),
                    ToController::CpuStats {
                        container: ContainerId::new(i),
                        stats,
                    },
                );
                for a in actions {
                    if let Action::Agent {
                        cmd: ToAgent::SetCpuQuota { quota_cores, .. },
                        ..
                    } = a
                    {
                        if quota_cores > quota {
                            ups += 1;
                        } else {
                            downs += 1;
                        }
                    }
                }
            }
        }
        let s = c.stats();
        assert!(ups > 0 && downs > 0, "workload must move quotas both ways");
        assert_eq!((s.scale_ups, s.scale_downs), (ups, downs));
        assert_eq!(s.scale_ups + s.scale_downs, s.quota_updates);
    }

    #[test]
    fn batched_ingest_matches_per_entry_ingest() {
        // Smoke-level check of the batch/single equivalence (the property
        // test in tests/invariants_prop.rs drives this much harder).
        let mk = || {
            let mut c = Controller::new(EscraConfig::default());
            c.register_app(APP, 8.0, 1024 * MIB);
            for i in 0..3u64 {
                c.register_container(ContainerId::new(i), APP, N0, 1.0, 64 * MIB)
                    .unwrap();
            }
            c
        };
        let (mut single, mut batched) = (mk(), mk());
        for round in 0..20u64 {
            let entries: Vec<CpuStatsEntry> = (0..3u64)
                .map(|i| CpuStatsEntry {
                    container: ContainerId::new(i),
                    stats: throttled_stats(
                        single.allocator().quota_of(ContainerId::new(i)).unwrap(),
                    ),
                })
                .collect();
            let now = SimTime::from_millis(round * 100);
            let mut a = Vec::new();
            for e in &entries {
                single.handle_into(
                    now,
                    ToController::CpuStats {
                        container: e.container,
                        stats: e.stats,
                    },
                    &mut a,
                );
            }
            let b = handle(
                &mut batched,
                now,
                ToController::CpuStatsBatch { node: N0, entries },
            );
            assert_eq!(a, b, "round {round}");
        }
        assert_eq!(single.stats(), batched.stats());
    }

    #[test]
    fn handle_into_appends_without_clearing() {
        let mut c = controller_with_one();
        let mut out = vec![Action::KillContainer(ContainerId::new(99))];
        c.handle_into(
            SimTime::ZERO,
            ToController::CpuStats {
                container: C0,
                stats: throttled_stats(2.0),
            },
            &mut out,
        );
        assert_eq!(out.len(), 2, "prior contents must be preserved");
        assert!(matches!(out[0], Action::KillContainer(_)));
    }

    #[test]
    fn oom_with_stale_limit_reconciles_instead_of_regranting() {
        let mut c = controller_with_one();
        let tracked = c.allocator().mem_limit_of(C0).unwrap();
        // The container reports a limit *below* the books: the grant that
        // raised it was lost. The Controller re-sends the tracked limit
        // without touching the pool.
        let actions = handle(
            &mut c,
            SimTime::ZERO,
            ToController::OomEvent {
                container: C0,
                shortfall_bytes: MIB,
                current_limit_bytes: tracked / 2,
            },
        );
        assert_eq!(actions.len(), 1);
        match actions[0] {
            Action::Agent {
                cmd: ToAgent::SetMemLimit { limit_bytes, .. },
                ..
            } => assert_eq!(limit_bytes, tracked),
            ref other => panic!("expected reconciling SetMemLimit, got {other:?}"),
        }
        assert_eq!(c.stats().grant_reconciles, 1);
        assert_eq!(c.stats().mem_grants, 0, "no new pool allocation");
        assert_eq!(c.allocator().mem_limit_of(C0).unwrap(), tracked);
    }
}
