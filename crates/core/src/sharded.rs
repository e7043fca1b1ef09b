//! App-sharded, multi-threaded Controller (§VI-I scalability).
//!
//! The paper's Controller is *logically* centralized; PR 2 made its
//! telemetry ingest batched and allocation-free, but it still ran on one
//! core. [`ShardedController`] removes that ceiling: N worker threads,
//! each owning an independent [`Controller`] (and therefore its own slab
//! allocator), fed over lock-free SPSC ring buffers carrying recycled
//! batch buffers — row batches or columnar blocks — so no per-batch
//! allocation crosses the shard boundary in steady state.
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
//! pool across threads and change grant/scale decisions.
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
//! ## Ring + mutex architecture
//!
//! Each shard owns a [`SpscRing`] work ring (router is the sole
//! producer), two recycle rings returning emptied batch buffers to the
//! router, and a `Mutex<ShardCore>` holding its [`Controller`], its
//! pending action buffer, and its ingest-busy clock. The invariant tying
//! them together: **work is popped only while holding the core mutex**,
//! and everything popped is applied before the mutex is released.
//! Whoever acquires a shard's core and finds its ring empty therefore
//! sees fully up-to-date state. That one invariant buys three things:
//!
//! * **Inline control operations.** Registration, queries, drains and
//!   sink extraction no longer need request/reply channels: the router
//!   locks the core, drains the ring itself (preserving FIFO order), and
//!   operates on the books directly.
//! * **Cross-shard work stealing.** An idle worker may `try_lock` a
//!   sibling's core and drain *its* ring: per-shard FIFO order and
//!   state-under-lock make the result identical to the owner doing it,
//!   so a skewed `app % N` distribution no longer leaves threads idle
//!   while one shard backs up. Busy time is attributed to the shard
//!   whose Controller ran, not the thread that ran it.
//! * **Backpressure without blocking channels.** If a work ring fills,
//!   the router flushes that shard on its own thread and retries.
//!
//! ## Determinism
//!
//! The router (the caller's thread) is the only producer into each
//! shard's work ring, rings are FIFO, and every pop happens under the
//! shard's core mutex with the popped message applied before release —
//! so each shard's action stream is a deterministic function of the
//! routed message sequence, independent of thread scheduling and of
//! *which* thread (owner, stealer, router) did the processing.
//! [`ShardedController::drain_actions_into`] concatenates the shard
//! buffers in shard order, making the drained stream reproducible
//! run-to-run as well.

use crate::agent::ReclaimEntry;
use crate::allocator::AllocatorError;
use crate::config::EscraConfig;
use crate::controller::{Action, Controller, ControllerStats};
use crate::spsc::SpscRing;
use crate::telemetry::{CpuStatsColumns, CpuStatsEntry, ToAgent, ToController};
use escra_cluster::{AppId, ContainerId, NodeId};
use escra_metrics::trace::{NoopSink, TraceEventKind, TraceSink};
use escra_simcore::time::SimTime;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sentinel for "container not seen by the router yet".
const NO_SHARD: u32 = u32::MAX;

/// Work-ring depth: enough to pipeline a burst of per-node batches
/// without unbounded queue growth (overflow flushes on the router).
const WORK_RING_DEPTH: usize = 256;

/// Recycle-ring depth for emptied batch buffers (row and columnar).
const RECYCLE_DEPTH: usize = 8;

/// How long an idle worker parks between scans of the work rings. A
/// router push unparks the shard's owner immediately for control
/// traffic (wire messages, ticks, reclaim reports) and whenever the
/// ring is filling; bulk telemetry below [`WAKE_DEPTH`] is left for the
/// next scan instead — an inline router drain usually gets there first,
/// and skipping the wake keeps futex churn off the ingest hot path. So
/// this bounds the pickup latency of lazily-woken telemetry and of
/// *stolen* work, both far inside the 100 ms reporting period. It is
/// deliberately coarse: a fleet of workers re-scanning every few
/// microseconds perforates the very ingest runs (and, on small hosts,
/// the router's inline drains) it is trying to help with.
const IDLE_PARK: Duration = Duration::from_millis(2);

/// Ring depth at which a telemetry push wakes the shard's owner even
/// though telemetry is normally drained lazily (see [`IDLE_PARK`]).
const WAKE_DEPTH: usize = WORK_RING_DEPTH / 4;

/// Ring depth at which the *router* helps out: after pushing telemetry
/// it try-drains the shard inline while the freshly split blocks are
/// still warm in cache. A handful of blocks per drain session keeps the
/// per-session clock reads amortised; the try-lock race keeps true
/// parallelism intact on hosts where the shard's owner got there first.
const ASSIST_DEPTH: usize = 1;

/// Entries a shard's split scratch may accumulate before the router
/// ships it as one [`ShardWork::Columns`] block. Per-node telemetry
/// blocks shrink by a factor of N when split across N shards; shipping
/// every sub-block separately would charge each one the fixed
/// pop/clear/recycle/Phase-A cost. Coalescing consecutive sub-blocks
/// (same timestamp, telemetry-only — any other message for the shard
/// flushes first, preserving per-shard FIFO order and therefore
/// decision identity) amortises that cost over a few hundred entries.
const COALESCE_ENTRIES: usize = 256;

/// One unit of work on a shard's ring. Everything here is
/// fire-and-forget: actions accumulate in the shard's pending buffer
/// until the next drain, and emptied batch buffers return to the router
/// through the recycle rings.
enum ShardWork {
    /// A routed wire message (telemetry, OOM, ack).
    Wire { now: SimTime, msg: ToController },
    /// This shard's slice of one node's row-form telemetry batch.
    Batch {
        now: SimTime,
        entries: Vec<CpuStatsEntry>,
    },
    /// This shard's slice of one node's columnar telemetry block.
    Columns {
        now: SimTime,
        columns: CpuStatsColumns,
    },
    /// Time advanced: run grant retries and the reclaim schedule.
    Tick { now: SimTime },
    /// This shard's slice of an Agent's reclamation report (possibly
    /// empty — an empty report still retries the shard's pending OOMs).
    ReclaimReport {
        now: SimTime,
        entries: Vec<ReclaimEntry>,
    },
}

/// A point-in-time copy of one application pool's books, readable
/// without borrowing into a worker thread.
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

/// The mutable half of a shard: its Controller, the actions it has
/// accumulated since the last drain, and its ingest-busy clock.
struct ShardCore<S: TraceSink> {
    controller: Controller<S>,
    pending: Vec<Action>,
    ingest_busy: Duration,
}

/// Everything a shard shares between the router and the workers.
struct ShardShared<S: TraceSink> {
    /// Router → shard work. Popped only under `core`'s lock.
    work: SpscRing<ShardWork>,
    /// Emptied row-batch buffers heading back to the router.
    recycle_entries: SpscRing<Vec<CpuStatsEntry>>,
    /// Emptied columnar blocks heading back to the router.
    recycle_columns: SpscRing<CpuStatsColumns>,
    /// Set by the owning worker right before it parks; the router only
    /// pays for an unpark when someone is (about to be) asleep.
    parked: AtomicBool,
    core: Mutex<ShardCore<S>>,
}

impl<S: TraceSink> std::fmt::Debug for ShardShared<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardShared").finish_non_exhaustive()
    }
}

/// Drains everything currently on `shared`'s work ring into its core.
/// The caller holds the core's mutex. Returns whether anything ran.
///
/// The ingest-busy clock is read once per *run* of consecutive
/// batch/columnar items rather than once per item: sub-batches shrink
/// as the shard count grows, and two `Instant::now` calls per 8-entry
/// block would charge more clock than ingest to the critical path.
/// The pop and buffer-recycle between consecutive blocks are charged
/// too — they are the real cost of crossing the shard boundary.
fn drain_ring<S: TraceSink>(shared: &ShardShared<S>, core: &mut ShardCore<S>) -> bool {
    let mut did = false;
    let mut ingest_t0: Option<Instant> = None;
    while let Some(work) = shared.work.pop() {
        did = true;
        let ShardCore {
            controller,
            pending,
            ingest_busy,
        } = core;
        match work {
            ShardWork::Batch { now, mut entries } => {
                if ingest_t0.is_none() {
                    ingest_t0 = Some(Instant::now());
                }
                controller.ingest_cpu_batch_at(now, &entries, pending);
                entries.clear();
                // Best effort: a full recycle ring drops the buffer and
                // the router allocates a fresh one.
                let _ = shared.recycle_entries.push(entries);
            }
            ShardWork::Columns { now, mut columns } => {
                if ingest_t0.is_none() {
                    ingest_t0 = Some(Instant::now());
                }
                controller.ingest_cpu_columns_at(now, &columns, pending);
                columns.clear();
                let _ = shared.recycle_columns.push(columns);
            }
            ShardWork::Wire { now, msg } => {
                if let Some(t0) = ingest_t0.take() {
                    *ingest_busy += t0.elapsed();
                }
                controller.handle_into(now, msg, pending);
            }
            ShardWork::Tick { now } => {
                if let Some(t0) = ingest_t0.take() {
                    *ingest_busy += t0.elapsed();
                }
                controller.tick_into(now, pending);
            }
            ShardWork::ReclaimReport { now, entries } => {
                if let Some(t0) = ingest_t0.take() {
                    *ingest_busy += t0.elapsed();
                }
                pending.extend(controller.on_reclaim_report(now, &entries));
            }
        }
    }
    if let Some(t0) = ingest_t0 {
        core.ingest_busy += t0.elapsed();
    }
    did
}

/// Non-blocking drain attempt — the work-stealing primitive. Skips the
/// shard when its ring looks empty or its core is held elsewhere.
fn try_drain<S: TraceSink>(shared: &ShardShared<S>) -> bool {
    if shared.work.is_empty() {
        return false;
    }
    let Ok(mut core) = shared.core.try_lock() else {
        return false;
    };
    drain_ring(shared, &mut core)
}

/// The worker loop for shard `me`: drain the own ring, steal from
/// siblings when idle, park when there is nothing anywhere. On shutdown
/// the worker exits only once its own ring is empty, so every message
/// accepted before teardown is applied.
fn worker_loop<S: TraceSink>(
    me: usize,
    shards: Arc<Vec<ShardShared<S>>>,
    shutdown: Arc<AtomicBool>,
) {
    let n = shards.len();
    loop {
        let mut did = try_drain(&shards[me]);
        if !did {
            for k in 1..n {
                if try_drain(&shards[(me + k) % n]) {
                    did = true;
                    break;
                }
            }
        }
        if did {
            continue;
        }
        if shutdown.load(Ordering::Acquire) {
            if shards[me].work.is_empty() {
                break;
            }
            std::thread::yield_now();
            continue;
        }
        // Nothing drained: either everything is empty or another thread
        // (typically the router, draining inline) holds the cores. Park
        // either way — spinning on a held lock would steal cycles from
        // the very drain we are waiting on. A push that races the flag
        // store skips the unpark, so pickup latency is bounded by the
        // park timeout, not unbounded.
        shards[me].parked.store(true, Ordering::Release);
        std::thread::park_timeout(IDLE_PARK);
        shards[me].parked.store(false, Ordering::Release);
    }
}

/// The multi-threaded Controller: an app-affine router in front of N
/// single-threaded [`Controller`] shards (see module docs).
///
/// Emitted [`Action`]s accumulate inside each shard and are collected —
/// in deterministic shard order, into a caller-owned buffer — with
/// [`ShardedController::drain_actions_into`].
///
/// Generic over a [`TraceSink`] like [`Controller`]: each shard's
/// Controller records into its own sink (created per shard by
/// [`ShardedController::with_sinks`]) and the router records ring
/// enqueue/dequeue depth into one more; a finished run extracts all of
/// them with [`ShardedController::take_sinks`]. The default
/// [`NoopSink`] compiles all of it out.
#[derive(Debug)]
pub struct ShardedController<S: TraceSink = NoopSink> {
    shards: Arc<Vec<ShardShared<S>>>,
    workers: Vec<JoinHandle<()>>,
    shutdown: Arc<AtomicBool>,
    /// Direct-mapped container → shard index (`NO_SHARD` = unknown),
    /// keyed by the raw container id exactly like the allocator's slab
    /// index (ids are sequential and never reused).
    container_shard: Vec<u32>,
    /// Per-shard scratch buffers for splitting one node's row batch.
    split_scratch: Vec<Vec<CpuStatsEntry>>,
    /// Per-shard scratch blocks for splitting one node's columnar block.
    /// Sub-blocks below [`COALESCE_ENTRIES`] are *held* here across
    /// calls and coalesced with the next block's split (see
    /// [`ShardedController::ingest_cpu_columns_at`]).
    col_scratch: Vec<CpuStatsColumns>,
    /// Total entries currently held across `col_scratch` (fast guard so
    /// non-columnar paths pay nothing for the flush check).
    col_held: usize,
    /// The timestamp of the held entries: coalescing never merges
    /// telemetry from different times (a changed `now` flushes first),
    /// so held blocks carry a single well-defined stamp.
    col_now: SimTime,
    /// Per-shard spare action buffers recycled through drain swaps.
    spares: Vec<Vec<Action>>,
    /// Nodes already broadcast to every shard.
    known_nodes: BTreeSet<NodeId>,
    /// Per-drain scratch for deduplicating cluster-wide sweep commands.
    seen_reclaims: Vec<(NodeId, u64)>,
    /// The router's own sink: shard-ring enqueue/dequeue events.
    sink: S,
    /// Work messages sent to each shard since its last drain. Only
    /// maintained when `S::ENABLED` (the depth exists for the trace).
    queue_depth: Vec<u32>,
    /// The latest time observed by the router, stamped on drain-time
    /// ring events (drains carry no `now` of their own).
    last_now: SimTime,
}

impl ShardedController {
    /// Spawns `n_shards` worker threads, each owning an independent
    /// [`Controller`] built from `cfg`, with tracing compiled out.
    ///
    /// # Panics
    ///
    /// Panics if `n_shards` is zero.
    pub fn new(cfg: EscraConfig, n_shards: usize) -> Self {
        ShardedController::with_sinks(cfg, n_shards, |_| NoopSink)
    }
}

impl<S: TraceSink + Default + Send + 'static> ShardedController<S> {
    /// Spawns `n_shards` worker threads, each owning an independent
    /// [`Controller`] built from `cfg` and recording into `mk(i)`.
    /// `mk(n_shards)` — one past the last shard — builds the router's
    /// own sink for shard-ring events.
    ///
    /// # Panics
    ///
    /// Panics if `n_shards` is zero.
    pub fn with_sinks(cfg: EscraConfig, n_shards: usize, mut mk: impl FnMut(usize) -> S) -> Self {
        assert!(n_shards > 0, "a sharded controller needs at least 1 shard");
        let shards: Arc<Vec<ShardShared<S>>> = Arc::new(
            (0..n_shards)
                .map(|i| ShardShared {
                    work: SpscRing::with_capacity(WORK_RING_DEPTH),
                    recycle_entries: SpscRing::with_capacity(RECYCLE_DEPTH),
                    recycle_columns: SpscRing::with_capacity(RECYCLE_DEPTH),
                    parked: AtomicBool::new(false),
                    core: Mutex::new(ShardCore {
                        controller: Controller::with_sink(cfg.clone(), mk(i)),
                        pending: Vec::new(),
                        ingest_busy: Duration::ZERO,
                    }),
                })
                .collect(),
        );
        let shutdown = Arc::new(AtomicBool::new(false));
        let workers = (0..n_shards)
            .map(|i| {
                let shards = Arc::clone(&shards);
                let shutdown = Arc::clone(&shutdown);
                std::thread::Builder::new()
                    .name(format!("escra-shard-{i}"))
                    .spawn(move || worker_loop(i, shards, shutdown))
                    .expect("spawn shard worker")
            })
            .collect();
        ShardedController {
            shards,
            workers,
            shutdown,
            container_shard: Vec::new(),
            split_scratch: (0..n_shards).map(|_| Vec::new()).collect(),
            col_scratch: (0..n_shards).map(|_| CpuStatsColumns::new()).collect(),
            col_held: 0,
            col_now: SimTime::ZERO,
            spares: (0..n_shards).map(|_| Vec::new()).collect(),
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
        self.flush_all_columns();
        let mut sinks = Vec::with_capacity(self.shards.len() + 1);
        for shard in 0..self.shards.len() {
            let mut core = self.lock_core(shard);
            sinks.push(core.controller.replace_sink(S::default()));
        }
        sinks.push(std::mem::take(&mut self.sink));
        sinks
    }
}

impl<S: TraceSink> ShardedController<S> {
    /// Locks a shard's core for an inline (router-thread) operation,
    /// first applying everything queued on its work ring so the books
    /// are exactly as if the shard had processed its whole message
    /// sequence — the flush that replaces the old request/reply
    /// channels.
    fn lock_core(&self, shard: usize) -> MutexGuard<'_, ShardCore<S>> {
        let shared = &self.shards[shard];
        let mut core = shared.core.lock().expect("shard core poisoned");
        drain_ring(shared, &mut core);
        core
    }

    /// Pushes one unit of work onto a shard's ring, waking its owner
    /// for control traffic or a filling ring (bulk telemetry is drained
    /// lazily — see [`IDLE_PARK`]). A full ring is flushed inline on
    /// the router thread — the router is the sole producer, so after
    /// the flush the retry cannot fail.
    fn push_work(&self, shard: usize, work: ShardWork) {
        let urgent = !matches!(work, ShardWork::Batch { .. } | ShardWork::Columns { .. });
        let shared = &self.shards[shard];
        if let Err(work) = shared.work.push(work) {
            {
                let mut core = shared.core.lock().expect("shard core poisoned");
                drain_ring(shared, &mut core);
            }
            shared
                .work
                .push(work)
                .ok()
                .expect("work ring emptied by the inline flush");
        }
        if urgent {
            if shared.parked.load(Ordering::Acquire) {
                self.workers[shard].thread().unpark();
            }
            return;
        }
        let depth = shared.work.len();
        if depth >= ASSIST_DEPTH && !try_drain(shared) && depth >= WAKE_DEPTH {
            // The owner (or a thief) holds the core and the backlog is
            // real — make sure someone is awake to chew on it.
            if shared.parked.load(Ordering::Acquire) {
                self.workers[shard].thread().unpark();
            }
        }
    }

    /// Sends a *work* message (telemetry, tick, reclaim report) to
    /// `shard`, recording ring depth into the router's sink. Control
    /// operations (registration, queries, drains) bypass this — they
    /// are not part of the §VI-I data path the trace observes.
    fn send_work(&mut self, shard: usize, work: ShardWork) {
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
        self.push_work(shard, work);
    }

    /// Number of shards (worker threads).
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

    fn clear_container(&mut self, container: ContainerId) {
        let idx = container.as_u64() as usize;
        if let Some(slot) = self.container_shard.get_mut(idx) {
            *slot = NO_SHARD;
        }
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
            for shard in 0..self.shards.len() {
                self.lock_core(shard).controller.note_node(node);
            }
        }
    }

    /// Registers an application's global limits on its home shard.
    pub fn register_app(&mut self, app: AppId, cpu_limit_cores: f64, mem_limit_bytes: u64) {
        self.flush_all_columns();
        let shard = self.route_of(app);
        self.lock_core(shard)
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
        self.flush_all_columns();
        self.broadcast_node(node);
        let shard = self.route_of(app);
        let result = {
            let mut core = self.lock_core(shard);
            let ShardCore {
                controller,
                pending,
                ..
            } = &mut *core;
            controller
                .register_container(container, app, node, initial_cpu_cores, initial_mem_bytes)
                .map(|actions| pending.extend(actions))
        };
        if result.is_ok() {
            self.record_container(container, shard);
        }
        result
    }

    /// Deregisters a container on its home shard.
    ///
    /// # Errors
    ///
    /// Propagates [`AllocatorError::UnknownContainer`].
    pub fn deregister_container(&mut self, container: ContainerId) -> Result<(), AllocatorError> {
        // Telemetry already accepted for this container must be applied
        // before the deregistration, exactly as a sequential Controller
        // would process its message sequence.
        self.flush_all_columns();
        let shard = self.shard_for(container);
        let result = self
            .lock_core(shard)
            .controller
            .deregister_container(container);
        if result.is_ok() {
            self.clear_container(container);
        }
        result
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
                self.flush_all_columns();
                self.broadcast_node(node);
                let shard = self.route_of(app);
                // Inline on the flushed core: the wire path swallows the
                // error into `register_errors`; success means "the
                // container now belongs to `app` on this shard", which
                // is what the router records as the home shard.
                let ok = {
                    let mut core = self.lock_core(shard);
                    let ShardCore {
                        controller,
                        pending,
                        ..
                    } = &mut *core;
                    controller.handle_into(
                        now,
                        ToController::Register {
                            container,
                            app,
                            node,
                        },
                        pending,
                    );
                    controller.allocator().app_of(container) == Some(app)
                };
                if ok {
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
                self.flush_shard_columns(shard);
                self.send_work(shard, ShardWork::Wire { now, msg });
            }
        }
    }

    /// Takes a recycled row-batch buffer for `shard`, or allocates one.
    fn take_entry_buf(&self, shard: usize) -> Vec<CpuStatsEntry> {
        self.shards[shard].recycle_entries.pop().unwrap_or_default()
    }

    /// Takes a recycled columnar block for `shard`, or allocates one.
    fn take_column_buf(&self, shard: usize) -> CpuStatsColumns {
        self.shards[shard].recycle_columns.pop().unwrap_or_default()
    }

    /// Splits one node's telemetry batch across home shards and feeds
    /// each shard its slice, preserving entry order within each shard.
    /// Equivalent to [`ShardedController::ingest_cpu_batch_at`] at
    /// `SimTime::ZERO` (the shard Controllers' decision logic is
    /// time-independent; the time only stamps trace events).
    ///
    /// In steady state this allocates nothing: the split buffers are
    /// recycled back from the workers once drained.
    pub fn ingest_cpu_batch(&mut self, entries: &[CpuStatsEntry]) {
        self.ingest_cpu_batch_at(SimTime::ZERO, entries);
    }

    /// Time-stamped batch ingest: like
    /// [`ShardedController::ingest_cpu_batch`], with `now` carried to
    /// the shard Controllers for their trace events.
    pub fn ingest_cpu_batch_at(&mut self, now: SimTime, entries: &[CpuStatsEntry]) {
        for e in entries {
            let shard = self.shard_for(e.container);
            self.split_scratch[shard].push(*e);
        }
        for shard in 0..self.shards.len() {
            if self.split_scratch[shard].is_empty() {
                continue;
            }
            // Held columnar telemetry for this shard arrived first; it
            // must reach the ring first.
            self.flush_shard_columns(shard);
            let replacement = self.take_entry_buf(shard);
            let batch = std::mem::replace(&mut self.split_scratch[shard], replacement);
            self.send_work(
                shard,
                ShardWork::Batch {
                    now,
                    entries: batch,
                },
            );
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
    /// the shard Controllers for their trace events. The per-shard
    /// sub-blocks are recycled column buffers — no allocation crosses
    /// the shard boundary in steady state.
    ///
    /// Sub-blocks below [`COALESCE_ENTRIES`] are *held* in the router's
    /// scratch and coalesced with subsequent columnar ingests at the
    /// same `now`, amortising the fixed per-block cost that would
    /// otherwise grow linearly with the shard count. Held telemetry is
    /// shipped automatically before anything that could observe or
    /// reorder it — a routed wire message, a row batch, a tick, a
    /// reclaim report, a drain, or a (de)registration — so each shard
    /// still sees its message sequence in exact arrival order.
    pub fn ingest_cpu_columns_at(&mut self, now: SimTime, columns: &CpuStatsColumns) {
        if self.col_held > 0 && self.col_now != now {
            self.flush_all_columns();
        }
        self.col_now = now;
        for i in 0..columns.len() {
            let container = ContainerId::new(columns.container_raw[i] as u64);
            let shard = self.shard_for(container);
            self.col_scratch[shard].push_raw(
                container,
                columns.quota_mcores[i],
                columns.unused_us[i],
                columns.usage_us[i],
                columns.throttled_bit(i),
            );
        }
        self.col_held += columns.len();
        for shard in 0..self.shards.len() {
            if self.col_scratch[shard].len() >= COALESCE_ENTRIES {
                self.flush_shard_columns(shard);
            }
        }
    }

    /// Ships `shard`'s held columnar sub-block, if any.
    fn flush_shard_columns(&mut self, shard: usize) {
        if self.col_scratch[shard].is_empty() {
            return;
        }
        let replacement = self.take_column_buf(shard);
        let block = std::mem::replace(&mut self.col_scratch[shard], replacement);
        self.col_held -= block.len();
        let now = self.col_now;
        self.send_work(
            shard,
            ShardWork::Columns {
                now,
                columns: block,
            },
        );
    }

    /// Ships every shard's held columnar sub-block. Cheap no-op when
    /// nothing is held.
    fn flush_all_columns(&mut self) {
        if self.col_held == 0 {
            return;
        }
        for shard in 0..self.shards.len() {
            self.flush_shard_columns(shard);
        }
    }

    /// Advances time on every shard: grant retries and the reclaim
    /// schedule run shard-locally; resulting commands appear in the next
    /// drain (duplicate cluster-wide sweeps are deduplicated there).
    pub fn tick(&mut self, now: SimTime) {
        if S::ENABLED {
            self.last_now = now;
        }
        self.flush_all_columns();
        for shard in 0..self.shards.len() {
            self.send_work(shard, ShardWork::Tick { now });
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
        self.flush_all_columns();
        let mut slices: Vec<Vec<ReclaimEntry>> =
            (0..self.shards.len()).map(|_| Vec::new()).collect();
        for e in entries {
            slices[self.shard_for(e.container)].push(*e);
        }
        for (shard, entries) in slices.into_iter().enumerate() {
            self.send_work(shard, ShardWork::ReclaimReport { now, entries });
        }
    }

    /// Collects every shard's accumulated actions into `out`, in shard
    /// order, *appending without clearing* — the same caller-owned-buffer
    /// contract as [`Controller::handle_into`]. In steady state the
    /// drain allocates nothing: each shard's buffer is swapped against a
    /// spare and recycled.
    ///
    /// Identical cluster-wide [`ToAgent::ReclaimMemory`] commands are
    /// deduplicated within one drain: when all N shards launch their
    /// periodic sweep at the same tick, the Agents must see (and the
    /// wire must carry) one sweep, as under a sequential Controller.
    pub fn drain_actions_into(&mut self, out: &mut Vec<Action>) {
        self.flush_all_columns();
        self.seen_reclaims.clear();
        for shard in 0..self.shards.len() {
            if S::ENABLED {
                self.sink.emit(
                    self.last_now,
                    TraceEventKind::ShardDequeue {
                        shard: shard as u32,
                        drained: self.queue_depth[shard],
                    },
                );
                self.queue_depth[shard] = 0;
            }
            let spare = std::mem::take(&mut self.spares[shard]);
            let mut actions = {
                let mut core = self.lock_core(shard);
                std::mem::replace(&mut core.pending, spare)
            };
            for a in &actions {
                if let Action::Agent {
                    node,
                    cmd: ToAgent::ReclaimMemory { delta_bytes },
                } = a
                {
                    if self.seen_reclaims.contains(&(*node, *delta_bytes)) {
                        continue;
                    }
                    self.seen_reclaims.push((*node, *delta_bytes));
                }
                out.push(*a);
            }
            actions.clear();
            self.spares[shard] = actions;
        }
    }

    /// Convenience wrapper over [`ShardedController::drain_actions_into`]
    /// that allocates a fresh vector.
    pub fn drain_actions(&mut self) -> Vec<Action> {
        let mut out = Vec::new();
        self.drain_actions_into(&mut out);
        out
    }

    /// Work messages queued to each shard since its last drain, in shard
    /// order. All zeros unless `S::ENABLED` (the counters exist for the
    /// shard-ring trace events).
    pub fn queue_depths(&self) -> &[u32] {
        &self.queue_depth
    }

    /// Aggregate lifetime counters, merged across shards with
    /// [`ControllerStats::merge`] (see its note on `reclaim_sweeps`).
    pub fn stats(&self) -> ControllerStats {
        let mut total = ControllerStats::default();
        for s in self.per_shard_stats() {
            total.merge(&s);
        }
        total
    }

    /// Lifetime counters of each shard, in shard order.
    pub fn per_shard_stats(&self) -> Vec<ControllerStats> {
        (0..self.shards.len())
            .map(|s| self.lock_core(s).controller.stats())
            .collect()
    }

    /// The container's current CPU quota, from its home shard's books.
    pub fn quota_of(&self, container: ContainerId) -> Option<f64> {
        self.lock_core(self.shard_for(container))
            .controller
            .allocator()
            .quota_of(container)
    }

    /// The container's current memory limit, from its home shard's books.
    pub fn mem_limit_of(&self, container: ContainerId) -> Option<u64> {
        self.lock_core(self.shard_for(container))
            .controller
            .allocator()
            .mem_limit_of(container)
    }

    /// Σ tracked CPU quotas of `app`'s containers on its home shard.
    pub fn tracked_cpu_sum(&self, app: AppId) -> f64 {
        self.lock_core(self.route_of(app))
            .controller
            .allocator()
            .tracked_cpu_sum(app)
    }

    /// Σ tracked memory limits of `app`'s containers on its home shard.
    pub fn tracked_mem_sum(&self, app: AppId) -> u64 {
        self.lock_core(self.route_of(app))
            .controller
            .allocator()
            .tracked_mem_sum(app)
    }

    /// A snapshot of `app`'s Distributed Container pool books.
    pub fn app_pool(&self, app: AppId) -> Option<PoolSnapshot> {
        self.lock_core(self.route_of(app))
            .controller
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
        (0..self.shards.len())
            .map(|s| self.lock_core(s).controller.pending_grant_count())
            .sum()
    }

    /// CPU time each shard's Controller spent inside batch/columnar
    /// ingest, in shard order — attributed to the shard whose books
    /// were updated even when a stealing sibling (or the router's
    /// inline flush) did the work.
    ///
    /// This is the per-shard critical path of telemetry processing: on a
    /// machine with one core per shard, aggregate ingest throughput is
    /// `total entries / max(per-shard busy)`. The capacity benchmark
    /// (`overhead_controller --threads`) reports exactly that quotient,
    /// which is also meaningful on CPU-starved CI hosts where wall-clock
    /// speedups cannot materialise.
    pub fn ingest_busy_per_shard(&self) -> Vec<Duration> {
        (0..self.shards.len())
            .map(|s| self.lock_core(s).ingest_busy)
            .collect()
    }

    /// Test/fault-injection hook: deliver a wire message directly to
    /// `shard`, bypassing the app-affine router — e.g. a registration
    /// arriving at the wrong shard must be *rejected and counted* in
    /// `register_errors`, never silently absorbed.
    pub fn inject_wire_to_shard(&self, shard: usize, now: SimTime, msg: ToController) {
        self.push_work(shard, ShardWork::Wire { now, msg });
    }
}

impl<S: TraceSink> Drop for ShardedController<S> {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        for w in &self.workers {
            w.thread().unpark();
        }
        for w in self.workers.drain(..) {
            if let Err(panic) = w.join() {
                if !std::thread::panicking() {
                    std::panic::resume_unwind(panic);
                }
            }
        }
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
        let actions = s.drain_actions();
        // Two containers, two bootstrap commands each.
        assert_eq!(actions.len(), 4);
    }

    #[test]
    fn telemetry_routes_to_the_home_shard_and_drains() {
        let mut s = sharded_with_apps(2, 2, 1);
        s.drain_actions(); // discard bootstrap
        let quota = s.quota_of(ContainerId::new(1)).unwrap();
        s.handle(
            SimTime::ZERO,
            ToController::CpuStats {
                container: ContainerId::new(1),
                stats: throttled(quota),
            },
        );
        let actions = s.drain_actions();
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
        s.drain_actions();
        s.tick(SimTime::from_secs(5));
        let actions = s.drain_actions();
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
        s.drain_actions();
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
        s.drain_actions();
        s.handle(
            SimTime::ZERO,
            ToController::CpuStats {
                container: ContainerId::new(99),
                stats: throttled(1.0),
            },
        );
        assert!(s.drain_actions().is_empty());
        assert_eq!(s.stats().cpu_stats_ingested, 1);
    }

    #[test]
    fn wrong_shard_registration_is_rejected_and_counted() {
        let mut s = sharded_with_apps(2, 2, 1);
        s.drain_actions();
        // App 1's home is shard 1; inject its registration at shard 0.
        let wrong = ToController::Register {
            container: ContainerId::new(7),
            app: AppId::new(1),
            node: NodeId::new(0),
        };
        s.inject_wire_to_shard(0, SimTime::ZERO, wrong);
        assert!(s.drain_actions().is_empty(), "no bootstrap for a reject");
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
        s.drain_actions();
        let registered = |s: &ShardedController| -> usize {
            (0..s.shard_count())
                .map(|sh| s.lock_core(sh).controller.allocator().container_count())
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
            assert!(s.drain_actions().is_empty(), "no bootstrap for a reject");
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
        let sharded_actions = sharded.drain_actions();
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
            by_rows.drain_actions();
            by_cols.drain_actions();
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
            assert_eq!(by_rows.drain_actions(), by_cols.drain_actions());
            assert_eq!(by_rows.stats(), by_cols.stats());
        }
    }

    #[test]
    fn skewed_routing_stays_correct_with_idle_shards() {
        // Every app hashes to shard 0 (app ids ≡ 0 mod 4): three shards
        // sit idle and are free to steal, and the result must still be
        // decision-for-decision identical to a sequential Controller.
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
        assert_eq!(seq_actions, sharded.drain_actions());
        assert_eq!(seq.stats(), sharded.stats());
    }

    #[test]
    fn deregister_returns_resources_and_clears_routing() {
        let mut s = sharded_with_apps(2, 2, 1);
        s.drain_actions();
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
