//! The Escra Resource Allocator (paper §IV-D).
//!
//! The "lightweight decision-making component": it keeps the global
//! resource pool per application ([`DistributedContainer`]), ingests
//! per-period CPU telemetry, and decides scale-up / scale-down of
//! container quotas using two sliding-window statistics; it also decides
//! how to satisfy OOM events from the global memory pool.

use crate::config::EscraConfig;
use crate::distributed_container::DistributedContainer;
use escra_cfs::CpuPeriodStats;
use escra_cluster::{AppId, ContainerId, NodeId};
use std::collections::BTreeMap;

/// Sentinel in the direct-mapped container index: "no slab slot".
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// Raw container ids at or above this are refused at registration.
///
/// The container index (and the sharded router's shard map) is a flat
/// `Vec` addressed by the raw id, so its length follows the largest id
/// ever registered; ids arrive off the wire, and without a bound one
/// `Register` carrying a huge id would allocate gigabytes. Ids are
/// handed out sequentially from zero, so 16 Mi of them is three orders
/// of magnitude past the largest simulated cluster and caps the index at
/// 64 MiB.
pub const MAX_CONTAINER_ID: u64 = 1 << 24;

/// The two §IV-D decision windows of one container, fused.
///
/// Every CPU decision pushes one sample into *both* windows — the
/// throttle indicator and the period's unused runtime — so the two
/// rings advance in lockstep and share one set of ring coordinates. A
/// differential property test in this module holds the ring code to the
/// two standalone `escra_simcore::window` types it replaced in the
/// slab:
///
/// * throttle side — a bit ring with an exact set-bit count; length,
///   retained indicators and mean are those of an
///   [`escra_simcore::window::BitWindow`] fed the same stream, the mean
///   bit for bit;
/// * unused side — a ring that retains exactly the samples an
///   [`escra_simcore::window::InlineWindow`] retains, in the same order,
///   but *not* its mean: that one is an incremental running sum, this
///   one a fresh oldest-first re-sum of the retained samples on every
///   read. The mean is therefore a pure function of the window
///   *contents*, not of the eviction history that produced them (an
///   earlier incremental-sum variant moved a handful of marginal
///   scale-down decisions by an ULP whenever the summation order
///   changed, drifting committed artifacts at display precision). The
///   re-sum touches at most `cap ≤ 24` f64s and the decision procedure
///   only reads it after its headroom check passes.
///
/// The windows are one `u32`: the throttle bits (ring position `i` is
/// bit `i`, at most [`DecisionWindows::MAX_CAPACITY`] of them) and,
/// above them, the fill state — the length while the ring fills, `cap +
/// head` once it is full, where `head` is the ring position of the
/// oldest sample. The capacity is not stored: every window of one
/// allocator has `window_periods` of them, so the caller passes it, as
/// the length of the unused ring. That ring is a slice the caller
/// resolves with [`DecisionWindows::ring`] / [`DecisionWindows::ring_mut`]:
/// the track's inline array for a window of up to
/// [`DecisionWindows::INLINE`] periods, else the slot's run in the
/// allocator's ring arena.
#[derive(Debug, Clone, Copy)]
struct DecisionWindows(u32);

impl DecisionWindows {
    /// Largest supported window — sized for the allocator's decision
    /// windows (paper default 5 periods; the ablation sweep probes up
    /// to 20), and bounded by the bits below [`DecisionWindows::FILL_SHIFT`].
    const MAX_CAPACITY: usize = 24;

    /// Longest window whose unused ring is stored inline: the paper's
    /// default, the most that fits beside the rest of a 64-byte track.
    const INLINE: usize = 5;

    /// The fill state sits above the throttle bits.
    const FILL_SHIFT: u32 = DecisionWindows::MAX_CAPACITY as u32;

    /// The throttle bits.
    const BITS: u32 = (1 << DecisionWindows::FILL_SHIFT) - 1;

    /// Empty windows.
    const EMPTY: DecisionWindows = DecisionWindows(0);

    /// Arena run length a window of `capacity` periods needs: 0 when
    /// its ring fits inline.
    fn spill_len(capacity: usize) -> usize {
        if capacity <= DecisionWindows::INLINE {
            0
        } else {
            capacity
        }
    }

    /// The unused ring of a `cap`-period window: the first `cap` inline
    /// slots, or the run at `run` in `arena` for a long window.
    #[inline]
    fn ring<'a>(
        inline: &'a [f64; DecisionWindows::INLINE],
        arena: &'a [f64],
        run: usize,
        cap: usize,
    ) -> &'a [f64] {
        if cap <= DecisionWindows::INLINE {
            &inline[..cap]
        } else {
            &arena[run..run + cap]
        }
    }

    /// [`DecisionWindows::ring`], writable.
    #[inline]
    fn ring_mut<'a>(
        inline: &'a mut [f64; DecisionWindows::INLINE],
        arena: &'a mut [f64],
        run: usize,
        cap: usize,
    ) -> &'a mut [f64] {
        if cap <= DecisionWindows::INLINE {
            &mut inline[..cap]
        } else {
            &mut arena[run..run + cap]
        }
    }

    /// The fill state: the length below `cap`, `cap + head` from it up.
    #[inline]
    fn fill(self) -> usize {
        (self.0 >> DecisionWindows::FILL_SHIFT) as usize
    }

    /// Pushes one decision's samples into both rings, evicting the
    /// oldest pair when full. `ring` is the unused ring; its length is
    /// the capacity.
    #[inline]
    #[allow(unsafe_code)]
    fn push(&mut self, ring: &mut [f64], throttled: bool, unused: f64) {
        let cap = ring.len();
        let fill = self.fill();
        // The next write goes to position `len` while the ring fills and
        // over the oldest sample, at `head`, once it is full; a full ring
        // advances `head`, wrapping `cap + cap` back to `cap + 0`.
        let pos = if fill < cap { fill } else { fill - cap };
        let next = if fill + 1 == 2 * cap { cap } else { fill + 1 };
        let bits = (self.0 & DecisionWindows::BITS & !(1 << pos)) | ((throttled as u32) << pos);
        self.0 = bits | ((next as u32) << DecisionWindows::FILL_SHIFT);
        // SAFETY: `pos < cap == ring.len()`: it is the fill state below
        // `cap`, or that state less `cap`, which the wrap above keeps
        // below `cap` — given `cap >= 1`, which `ResourceAllocator::new`
        // asserts for every window of the allocator (an empty ring would
        // never wrap). This is the allocator's hottest store; a checked
        // index here read +2 % per ingested entry.
        debug_assert!(pos < cap, "ring position {pos} past capacity {cap}");
        let slot = unsafe { ring.get_unchecked_mut(pos) };
        *slot = unused;
    }

    /// Retained sample count (both rings) of a `cap`-period window.
    #[inline]
    fn len(self, cap: usize) -> usize {
        self.fill().min(cap)
    }

    /// Ring position of the oldest sample of a `cap`-period window.
    #[inline]
    fn oldest(self, cap: usize) -> usize {
        self.fill().saturating_sub(cap)
    }

    /// Mean throttle indicator (0.0 when empty) — `BitWindow::mean`.
    #[inline]
    fn throttle_mean(self, cap: usize) -> f64 {
        let len = self.len(cap);
        if len == 0 {
            0.0
        } else {
            (self.0 & DecisionWindows::BITS).count_ones() as f64 / len as f64
        }
    }

    /// Mean unused runtime (0.0 when empty), computed by an exact
    /// oldest-first re-sum of `ring`. Summing the same logical sample
    /// sequence in the same order every time makes the mean — and with
    /// it every scale-down decision, snapshot, and trace record —
    /// independent of how the ring happens to be maintained.
    #[inline]
    fn unused_mean(self, ring: &[f64]) -> f64 {
        let cap = ring.len();
        let len = self.len(cap);
        if len == 0 {
            return 0.0;
        }
        let mut sum = 0.0;
        let mut idx = self.oldest(cap);
        for _ in 0..len {
            sum += ring[idx];
            idx += 1;
            if idx == cap {
                idx = 0;
            }
        }
        sum / len as f64
    }

    /// Ring position of logical sample `i` (0 = oldest).
    fn pos(self, i: usize, cap: usize) -> usize {
        (self.oldest(cap) + i) % cap
    }

    /// Throttle indicators of a `cap`-period window, oldest first.
    fn throttle_samples(self, cap: usize) -> impl Iterator<Item = bool> {
        (0..self.len(cap)).map(move |i| (self.0 >> self.pos(i, cap)) & 1 == 1)
    }

    /// Unused-runtime samples in `ring`, oldest first.
    fn unused_samples(self, ring: &[f64]) -> impl Iterator<Item = f64> + '_ {
        let cap = ring.len();
        (0..self.len(cap)).map(move |i| ring[self.pos(i, cap)])
    }
}

/// What a CPU decision reads and writes of one container, stored in the
/// allocator's hot slab (see [`ResourceAllocator`]).
///
/// One 64-byte-aligned cache line: the quota, the unused ring of a
/// window of up to [`DecisionWindows::INLINE`] periods, the node a
/// command goes to, the app slot a scaling decision draws on, and the
/// packed windows. The one prefetch the telemetry walks make per entry
/// therefore covers the whole decision. Everything no CPU decision
/// reads is in the parallel [`Cold`] slab.
#[derive(Debug, Clone)]
#[repr(C, align(64))]
struct Track {
    quota_cores: f64,
    /// Unused-runtime ring storage when `window_periods <= INLINE`.
    unused: [f64; DecisionWindows::INLINE],
    node: NodeId,
    /// Index of the owning app in `ResourceAllocator::app_entries`, so
    /// the telemetry hot path reaches the pool without a map lookup.
    app_slot: u32,
    windows: DecisionWindows,
}

/// Largest hot slab grown like any `Vec`: its 64 KiB block comes from
/// the heap, below glibc's smallest mmap threshold (128 KiB).
const HOT_SMALL: usize = 1024;

/// Capacity a hot slab past [`HOT_SMALL`] reserves in one step: 32 MiB of
/// address space, which the kernel backs page by page as tracks are
/// written, so only the registered tracks are resident.
///
/// A 64-byte-aligned `Vec` cannot `realloc`: each growth allocates,
/// copies and frees. Grown by doubling, it would free one block of every
/// size from 128 KiB up, each of which raises glibc's dynamic mmap
/// threshold to its own size; later large allocations of the whole
/// process then come from the heap, where they fragment, and the peak
/// RSS of a process holding a 100 000-container registry moved by up to
/// 14 MiB with the seed and the run length. A block of 32 MiB or more
/// (glibc's largest dynamic threshold) is mapped at any threshold and
/// leaves it alone when freed; below [`HOT_SMALL`] the slab never leaves
/// the heap. Past this capacity the slab doubles again, in blocks above
/// 32 MiB.
const HOT_RESERVE: usize = (32 << 20) / std::mem::size_of::<Track>();

/// The capacity a hot slab of `len` tracks in `cap` slots grows to for
/// `fresh` more: `cap` if they fit, else the room they need (`exact`)
/// or `Vec`'s amortised doubling, and at least [`HOT_RESERVE`] once
/// that passes [`HOT_SMALL`].
fn hot_capacity(len: usize, cap: usize, fresh: usize, exact: bool) -> usize {
    let need = len + fresh;
    if need <= cap {
        return cap;
    }
    let grown = if exact {
        need
    } else {
        need.max(2 * cap).max(4)
    };
    if grown > HOT_SMALL {
        grown.max(HOT_RESERVE)
    } else {
        grown
    }
}

/// The rest of a container's state, in the cold slab beside
/// [`Track`]'s: read by registration, deregistration, the OOM and
/// reclaim paths and the Σ-sums, never by a CPU decision.
#[derive(Debug, Clone)]
struct Cold {
    app: AppId,
    mem_limit_bytes: u64,
    /// This container's position in its app's `members` list (kept in
    /// sync across swap-removals so deregistration stays O(1)).
    member_pos: u32,
}

/// An application's pool plus the slab slots of its live containers.
#[derive(Debug, Clone)]
struct AppEntry {
    pool: DistributedContainer,
    members: Vec<u32>,
}

/// A CPU decision for the period that just ended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CpuDecision {
    /// Raise the container quota to this many cores.
    ScaleUp {
        /// The new quota.
        new_quota_cores: f64,
    },
    /// Lower the container quota to this many cores.
    ScaleDown {
        /// The new quota.
        new_quota_cores: f64,
    },
    /// Leave the quota unchanged.
    Hold,
}

/// A memory decision for an OOM event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OomDecision {
    /// Grow the container's memory limit to this value; the charge can
    /// then be retried and the container survives.
    Grant {
        /// The new memory limit.
        new_limit_bytes: u64,
    },
    /// The global pool is exhausted: the Controller must run an
    /// aggressive reclamation sweep and retry.
    NeedReclaim,
    /// Even after reclamation nothing is available: the container is
    /// killed by the OS, "as is standard" (§IV-D2).
    Kill,
}

/// Errors from allocator operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocatorError {
    /// The application was never registered.
    UnknownApp(AppId),
    /// The container was never registered.
    UnknownContainer(ContainerId),
    /// The container id was registered twice.
    DuplicateContainer(ContainerId),
    /// The raw container id is at or above [`MAX_CONTAINER_ID`].
    ContainerIdOutOfRange(ContainerId),
}

impl core::fmt::Display for AllocatorError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AllocatorError::UnknownApp(a) => write!(f, "unknown application {a}"),
            AllocatorError::UnknownContainer(c) => write!(f, "unknown container {c}"),
            AllocatorError::DuplicateContainer(c) => write!(f, "container {c} already registered"),
            AllocatorError::ContainerIdOutOfRange(c) => {
                write!(f, "container id {c} is not below {MAX_CONTAINER_ID}")
            }
        }
    }
}

impl std::error::Error for AllocatorError {}

/// The Resource Allocator: global pools + windowed per-container stats +
/// the scale-up/scale-down/OOM decision procedures.
///
/// Container state lives in two parallel dense slabs, the hot [`Track`]s
/// a CPU decision uses and the [`Cold`] rest, addressed by one slot
/// through a direct-mapped index keyed by the raw [`ContainerId`] — ids
/// are allocated sequentially and never reused (mirroring cgroup ids),
/// so the index is a flat `Vec<u32>` with a sentinel and every telemetry
/// lookup is O(1) instead of a `BTreeMap` walk. The index alone says
/// which slots are live: a freed slot keeps its stale entries until the
/// free list hands it to the next registration. Each app keeps the slot
/// list of its live members so Σ-sums and deregistration never scan the
/// whole slab. A window longer than [`DecisionWindows::INLINE`] periods
/// keeps its unused ring in `rings`, `window_periods` f64s per slot.
///
/// ```
/// use escra_core::allocator::ResourceAllocator;
/// use escra_core::config::EscraConfig;
/// use escra_cluster::{AppId, ContainerId, NodeId};
///
/// let mut alloc = ResourceAllocator::new(EscraConfig::default());
/// alloc.register_app(AppId::new(0), 8.0, 1 << 30);
/// alloc
///     .register_container(ContainerId::new(0), AppId::new(0), NodeId::new(0), 2.0, 256 << 20)
///     .expect("register");
/// assert_eq!(alloc.quota_of(ContainerId::new(0)), Some(2.0));
/// ```
#[derive(Debug, Clone)]
pub struct ResourceAllocator {
    cfg: EscraConfig,
    /// Dense app storage; hot-path access goes through `Track::app_slot`,
    /// registration-time lookups through `app_index`.
    app_entries: Vec<AppEntry>,
    app_index: BTreeMap<AppId, u32>,
    /// The hot slab: one cache line per container.
    slab: Vec<Track>,
    /// The cold slab, slot for slot beside `slab`.
    cold: Vec<Cold>,
    /// Vacated slots awaiting reuse.
    free: Vec<u32>,
    /// Direct-mapped `raw ContainerId → slab slot` ([`NO_SLOT`] = absent).
    index: Vec<u32>,
    /// The ring arena: slot `s`'s unused ring is the `spill_len` values
    /// from `s * spill_len`.
    rings: Vec<f64>,
    /// Arena run per slot: `window_periods` for a window too long to
    /// store inline, else 0 (and `rings` stays empty).
    spill_len: usize,
}

impl ResourceAllocator {
    /// Creates an allocator with the given tunables.
    ///
    /// A decision window of up to 5 periods (the default) keeps its
    /// unused-runtime ring inline in the container's slab entry, on the
    /// cache line that holds the quota; a longer one (up to 24) keeps it
    /// in an allocator-owned arena, which costs the hot path a second
    /// memory stream and is therefore only used when the window does not
    /// fit.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.window_periods` is 0 or exceeds 24, at construction
    /// rather than at the first registration. The ring code relies on
    /// this bound: every ring position it writes is below a capacity of
    /// at least 1.
    pub fn new(cfg: EscraConfig) -> Self {
        assert!(
            (1..=DecisionWindows::MAX_CAPACITY).contains(&cfg.window_periods),
            "window_periods {} is not in 1..={}",
            cfg.window_periods,
            DecisionWindows::MAX_CAPACITY
        );
        let spill_len = DecisionWindows::spill_len(cfg.window_periods);
        ResourceAllocator {
            cfg,
            app_entries: Vec::new(),
            app_index: BTreeMap::new(),
            slab: Vec::new(),
            cold: Vec::new(),
            free: Vec::new(),
            index: Vec::new(),
            rings: Vec::new(),
            spill_len,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &EscraConfig {
        &self.cfg
    }

    /// The slab slot of a container, if it is registered.
    #[inline]
    pub(crate) fn slot_of(&self, container: ContainerId) -> Option<u32> {
        match self.index.get(container.as_u64() as usize) {
            Some(&slot) if slot != NO_SLOT => Some(slot),
            _ => None,
        }
    }

    #[inline]
    fn track(&self, container: ContainerId) -> Option<&Track> {
        self.slot_of(container).map(|s| &self.slab[s as usize])
    }

    #[inline]
    fn cold(&self, container: ContainerId) -> Option<&Cold> {
        self.slot_of(container).map(|s| &self.cold[s as usize])
    }

    /// The unused ring of the container in `slot`.
    fn ring_at(&self, slot: u32) -> &[f64] {
        DecisionWindows::ring(
            &self.slab[slot as usize].unused,
            &self.rings,
            slot as usize * self.spill_len,
            self.cfg.window_periods,
        )
    }

    /// Registers an application's global limits (the Deployer sends these
    /// before deploying any containers, §IV-A). Re-registering an app
    /// replaces its pool but keeps its member list.
    pub fn register_app(&mut self, app: AppId, cpu_limit_cores: f64, mem_limit_bytes: u64) {
        let pool = DistributedContainer::new(app, cpu_limit_cores, mem_limit_bytes);
        match self.app_index.get(&app) {
            Some(&slot) => self.app_entries[slot as usize].pool = pool,
            None => {
                let slot = self.app_entries.len() as u32;
                self.app_entries.push(AppEntry {
                    pool,
                    members: Vec::new(),
                });
                self.app_index.insert(app, slot);
            }
        }
    }

    /// The global pool of an application.
    pub fn app_pool(&self, app: AppId) -> Option<&DistributedContainer> {
        self.app_index
            .get(&app)
            .map(|&slot| &self.app_entries[slot as usize].pool)
    }

    /// Registers a container with its initial limits, drawing them from
    /// the application pool. If the pool cannot cover the request the
    /// initial grant is capped (the container starts smaller and the
    /// telemetry loop grows it on demand).
    ///
    /// Returns the `(cpu_cores, mem_bytes)` actually granted.
    ///
    /// # Errors
    ///
    /// [`AllocatorError::ContainerIdOutOfRange`] for a raw id at or above
    /// [`MAX_CONTAINER_ID`] (checked first: nothing is allocated or
    /// drawn from the pool for it), [`AllocatorError::UnknownApp`] if
    /// the app was not registered, [`AllocatorError::DuplicateContainer`]
    /// on double registration.
    pub fn register_container(
        &mut self,
        container: ContainerId,
        app: AppId,
        node: NodeId,
        initial_cpu_cores: f64,
        initial_mem_bytes: u64,
    ) -> Result<(f64, u64), AllocatorError> {
        if container.as_u64() >= MAX_CONTAINER_ID {
            return Err(AllocatorError::ContainerIdOutOfRange(container));
        }
        if self.slot_of(container).is_some() {
            return Err(AllocatorError::DuplicateContainer(container));
        }
        let app_slot = *self
            .app_index
            .get(&app)
            .ok_or(AllocatorError::UnknownApp(app))?;
        if self.free.is_empty() {
            self.reserve_hot(1, false);
        }
        let entry = &mut self.app_entries[app_slot as usize];
        // Request at least the configured floors; track exactly what the
        // pool granted so Σ tracked == pool.allocated always holds.
        let cpu = entry
            .pool
            .try_allocate_cpu(initial_cpu_cores.max(self.cfg.min_quota_cores));
        let mem = entry
            .pool
            .try_allocate_mem(initial_mem_bytes.max(self.cfg.min_mem_bytes));
        let member_pos = entry.members.len() as u32;
        let track = Track {
            quota_cores: cpu,
            unused: [0.0; DecisionWindows::INLINE],
            node,
            app_slot,
            windows: DecisionWindows::EMPTY,
        };
        let cold = Cold {
            app,
            mem_limit_bytes: mem,
            member_pos,
        };
        // A recycled slot's arena run needs no reset: the empty windows
        // read none of it.
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = track;
                self.cold[slot as usize] = cold;
                slot
            }
            None => {
                self.slab.push(track);
                self.cold.push(cold);
                self.rings.resize(self.rings.len() + self.spill_len, 0.0);
                (self.slab.len() - 1) as u32
            }
        };
        entry.members.push(slot);
        let raw = container.as_u64() as usize;
        if self.index.len() <= raw {
            self.index.resize(raw + 1, NO_SLOT);
        }
        self.index[raw] = slot;
        Ok((cpu, mem))
    }

    /// Makes room in both slabs for `additional` more registrations. A
    /// deployment that at least doubles the slabs gets exactly the room
    /// it needs instead of `Vec` doubling's slack (a third of the slab
    /// at 12 000 containers); smaller ones grow them amortised, so many
    /// small deployments never copy the slabs once each. A hot slab
    /// growing past 1 024 tracks reserves room for at least 524 288 of
    /// them: 32 MiB of address space, resident only as tracks are
    /// written.
    pub fn reserve_containers(&mut self, additional: usize) {
        let fresh = additional.saturating_sub(self.free.len());
        let exact = fresh >= self.slab.len();
        self.reserve_hot(fresh, exact);
        if exact {
            self.cold.reserve_exact(fresh);
            self.rings.reserve_exact(fresh * self.spill_len);
        } else {
            self.cold.reserve(fresh);
            self.rings.reserve(fresh * self.spill_len);
        }
    }

    /// Makes room in the hot slab for `fresh` more tracks
    /// ([`hot_capacity`]).
    fn reserve_hot(&mut self, fresh: usize, exact: bool) {
        let len = self.slab.len();
        let cap = hot_capacity(len, self.slab.capacity(), fresh, exact);
        self.slab.reserve_exact(cap - len);
    }

    /// Deregisters a container (serverless pod teardown), returning its
    /// resources to the pool.
    ///
    /// # Errors
    ///
    /// [`AllocatorError::UnknownContainer`] for unknown ids.
    pub fn deregister_container(&mut self, container: ContainerId) -> Result<(), AllocatorError> {
        let slot = self
            .slot_of(container)
            .ok_or(AllocatorError::UnknownContainer(container))?;
        self.index[container.as_u64() as usize] = NO_SLOT;
        self.free.push(slot);
        let track = &self.slab[slot as usize];
        let cold = &self.cold[slot as usize];
        let entry = &mut self.app_entries[track.app_slot as usize];
        entry.pool.release_cpu(track.quota_cores);
        entry.pool.release_mem(cold.mem_limit_bytes);
        // O(1) member removal: swap the list's tail into the vacated
        // position and re-point the moved container at its new position.
        let pos = cold.member_pos as usize;
        entry.members.swap_remove(pos);
        if let Some(&moved_slot) = entry.members.get(pos) {
            self.cold[moved_slot as usize].member_pos = pos as u32;
        }
        Ok(())
    }

    /// The allocator's view of a container's quota.
    pub fn quota_of(&self, container: ContainerId) -> Option<f64> {
        self.track(container).map(|t| t.quota_cores)
    }

    /// The allocator's view of a container's memory limit.
    pub fn mem_limit_of(&self, container: ContainerId) -> Option<u64> {
        self.cold(container).map(|c| c.mem_limit_bytes)
    }

    /// The application a container belongs to.
    pub fn app_of(&self, container: ContainerId) -> Option<AppId> {
        self.cold(container).map(|c| c.app)
    }

    /// The node hosting a container.
    pub fn node_of(&self, container: ContainerId) -> Option<NodeId> {
        self.track(container).map(|t| t.node)
    }

    /// Containers currently registered.
    pub fn container_count(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// Iterates the registered container ids in ascending raw-id order.
    pub fn container_ids(&self) -> impl Iterator<Item = ContainerId> + '_ {
        self.index
            .iter()
            .enumerate()
            .filter(|(_, &slot)| slot != NO_SLOT)
            .map(|(raw, _)| ContainerId::new(raw as u64))
    }

    /// Feeds the allocator's behaviourally relevant state into a
    /// canonical state hash: per-app pools (limits + allocated sums) and
    /// per-container tracks (quota, memory limit, node, and the exact
    /// CPU decision-window contents), all in id order. Slab layout
    /// internals (slot numbers, free-list order) are deliberately
    /// excluded: states that differ only in how the slab was recycled
    /// behave identically.
    pub fn fingerprint_into(&self, h: &mut escra_metrics::fingerprint::StateHash) {
        h.write_u64(self.app_index.len() as u64);
        for (app, &slot) in &self.app_index {
            let pool = &self.app_entries[slot as usize].pool;
            h.write_u64(app.as_u64());
            h.write_f64(pool.cpu_limit_cores());
            h.write_u64(pool.mem_limit_bytes());
            h.write_f64(pool.allocated_cpu_cores());
            h.write_u64(pool.allocated_mem_bytes());
        }
        h.write_u64(self.container_count() as u64);
        for id in self.container_ids() {
            let slot = self.slot_of(id).expect("live id has a track");
            let (t, c) = (&self.slab[slot as usize], &self.cold[slot as usize]);
            let cap = self.cfg.window_periods;
            h.write_u64(id.as_u64());
            h.write_u64(c.app.as_u64());
            h.write_u64(t.node.as_u64());
            h.write_f64(t.quota_cores);
            h.write_u64(c.mem_limit_bytes);
            // Each window hashes as its length, then each sample as f64
            // oldest first (the throttle indicators widen to 0.0/1.0) —
            // the byte layout the pinned model-checker state counts and
            // golden fingerprints were recorded with.
            h.write_u64(t.windows.len(cap) as u64);
            for s in t.windows.throttle_samples(cap) {
                h.write_f64(if s { 1.0 } else { 0.0 });
            }
            h.write_u64(t.windows.len(cap) as u64);
            for s in t.windows.unused_samples(self.ring_at(slot)) {
                h.write_f64(s);
            }
        }
    }

    /// The windowed inputs behind a container's most recent CPU
    /// decision: `(throttle rate, mean unused runtime in cores)`. Read
    /// right after [`ResourceAllocator::on_cpu_stats`] these are exactly
    /// the means the decision consumed (the sample is pushed before the
    /// decision is taken) — the trace layer records them alongside each
    /// quota move.
    pub fn decision_inputs(&self, container: ContainerId) -> Option<(f64, f64)> {
        self.slot_of(container)
            .map(|slot| self.decision_inputs_at_slot(slot))
    }

    /// Ingests one per-period CPU statistic and produces the quota
    /// decision for the next period (paper §IV-D1).
    ///
    /// Scale **up** when the period was throttled:
    /// `q[t+1] = q[t] + throttle_rate · unallocated · (Υ/100)`, capped by
    /// the pool. Scale **down** when `quota − usage > γ`:
    /// `q[t+1] = q[t] − mean_unused · κ`, floored at the minimum quota.
    ///
    /// # Errors
    ///
    /// [`AllocatorError::UnknownContainer`] for unregistered reporters.
    pub fn on_cpu_stats(
        &mut self,
        container: ContainerId,
        stats: CpuPeriodStats,
    ) -> Result<CpuDecision, AllocatorError> {
        let period = self.cfg.report_period;
        let slot = self
            .slot_of(container)
            .ok_or(AllocatorError::UnknownContainer(container))?;
        let usage_cores = stats.usage_cores(period);
        let unused_cores = stats.unused_cores(period);
        Ok(self.decide_at_slot(slot, usage_cores, unused_cores, stats.throttled))
    }

    /// The decision procedure proper, addressed by slab slot with the
    /// per-period statistics already converted to cores. This is the
    /// single implementation behind [`ResourceAllocator::on_cpu_stats`]
    /// and the Controller's decision step, which both telemetry walks
    /// reach with a resolved slot (the columnar walk converts the
    /// fixed-point columns to cores in bulk before its loop). Always
    /// inlined: once the row walk reached it through that shared step
    /// too, the compiler stopped inlining it into the columnar walk's
    /// loop, and the call cost `trace_dense` about 10 % of its
    /// `decision_p50_us`.
    #[inline(always)]
    pub(crate) fn decide_at_slot(
        &mut self,
        slot: u32,
        usage_cores: f64,
        unused_cores: f64,
        throttled: bool,
    ) -> CpuDecision {
        let cap = self.cfg.window_periods;
        let track = &mut self.slab[slot as usize];
        let ring = DecisionWindows::ring_mut(
            &mut track.unused,
            &mut self.rings,
            slot as usize * self.spill_len,
            cap,
        );
        track.windows.push(ring, throttled, unused_cores);

        if throttled {
            // The pool is only touched on the two scaling branches; the
            // Hold fast path must not pay for its cache line.
            let pool = &mut self.app_entries[track.app_slot as usize].pool;
            let throttle_rate = track.windows.throttle_mean(cap);
            let unallocated = pool.unallocated_cpu_cores();
            // Υ taken literally as printed (×20, ×35): the raw term is
            // far larger than any sane step, so the effective behaviour
            // is "grow fast toward whatever the pool can give", bounded
            // by the growth cap below — which is what lets Escra absorb
            // a burst within one or two 100 ms periods (Fig. 2).
            let want = throttle_rate * unallocated * self.cfg.upsilon;
            // Growth cap (see EscraConfig::max_quota_growth_factor): the
            // paper's term is proportional to the whole unallocated pool
            // and diverges for large pools; bound the step so a quota at
            // most doubles per period (still sub-second convergence).
            let cap = (track.quota_cores * (self.cfg.max_quota_growth_factor - 1.0))
                .max(self.cfg.min_quota_cores);
            let grant = pool.try_allocate_cpu(want.min(cap));
            if grant > 0.0 {
                track.quota_cores += grant;
                return CpuDecision::ScaleUp {
                    new_quota_cores: track.quota_cores,
                };
            }
            return CpuDecision::Hold;
        }

        // Scale down only when both this period's unused runtime and the
        // windowed mean exceed γ: the windowed statistic is what the
        // paper says the Allocator bases decisions on, and debouncing on
        // it prevents a single post-spike period from triggering a cut
        // that immediately re-throttles the container.
        if track.quota_cores - usage_cores > self.cfg.gamma_cores {
            // The windowed mean (an exact oldest-first re-sum of at most
            // `cpu_window_periods` in-cache samples) is evaluated only
            // once the headroom check passes — the common Hold path
            // exits on the subtraction alone.
            let unused_mean = track.windows.unused_mean(ring);
            if unused_mean > self.cfg.gamma_cores {
                // Shrink the windowed-mean excess *above* γ by κ, so the
                // quota converges to usage + γ — "just above container
                // usage" — rather than overshooting below the safe margin
                // (see DESIGN.md §4 on this reading of the scale-down
                // rule).
                let dec = (unused_mean - self.cfg.gamma_cores) * self.cfg.kappa;
                let floor = self.cfg.min_quota_cores.max(usage_cores);
                let new_quota = (track.quota_cores - dec).max(floor);
                let released = track.quota_cores - new_quota;
                if released > 1e-9 {
                    let pool = &mut self.app_entries[track.app_slot as usize].pool;
                    pool.release_cpu(released);
                    track.quota_cores = new_quota;
                    return CpuDecision::ScaleDown {
                        new_quota_cores: new_quota,
                    };
                }
            }
        }
        CpuDecision::Hold
    }

    /// The node hosting the container in the given slab slot.
    #[inline]
    pub(crate) fn node_at_slot(&self, slot: u32) -> NodeId {
        self.slab[slot as usize].node
    }

    /// Asks the CPU to start loading the hot slab entry in `slot` into
    /// cache: the telemetry walks call it for the entry a fixed distance
    /// ahead of the one they decide, so that entry's track — the one
    /// cache line its decision reads — is on its way before it is read.
    /// [`NO_SLOT`] is past the end of every slab and is skipped. The hint
    /// reads nothing, cannot fault and changes no state; on targets other
    /// than x86-64 it does nothing.
    #[inline(always)]
    #[allow(unsafe_code)]
    pub(crate) fn prefetch_slot(&self, slot: u32) {
        #[cfg(target_arch = "x86_64")]
        if let Some(entry) = self.slab.get(slot as usize) {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            // SAFETY: `_mm_prefetch` needs SSE, which is in the x86-64
            // baseline every build of this target assumes. It uses the
            // pointer only as an address: a prefetch does not access
            // memory in the language's sense, cannot fault and has no
            // architectural effect. The pointer is a live reference's.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(entry).cast()) };
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = slot;
    }

    /// The windowed decision inputs for the container in the given slab
    /// slot — the slot-addressed form of
    /// [`ResourceAllocator::decision_inputs`].
    pub(crate) fn decision_inputs_at_slot(&self, slot: u32) -> (f64, f64) {
        let w = self.slab[slot as usize].windows;
        (
            w.throttle_mean(self.cfg.window_periods),
            w.unused_mean(self.ring_at(slot)),
        )
    }

    /// The direct-mapped `raw ContainerId → slab slot` index ([`NO_SLOT`]
    /// marks an absent id); raw ids at or beyond the length are likewise
    /// unregistered. The columnar ingest gathers slots straight off this
    /// slice instead of calling [`ResourceAllocator::slot_of`] per entry.
    pub(crate) fn raw_index(&self) -> &[u32] {
        &self.index
    }

    /// Handles an OOM event (paper §IV-D2): grant a fixed block from the
    /// pool if available, otherwise ask for a reclamation sweep.
    ///
    /// # Errors
    ///
    /// [`AllocatorError::UnknownContainer`] for unregistered containers.
    pub fn on_oom(
        &mut self,
        container: ContainerId,
        shortfall_bytes: u64,
    ) -> Result<OomDecision, AllocatorError> {
        let slot = self
            .slot_of(container)
            .ok_or(AllocatorError::UnknownContainer(container))?;
        let cold = &mut self.cold[slot as usize];
        let pool = &mut self.app_entries[self.slab[slot as usize].app_slot as usize].pool;
        let need = shortfall_bytes.max(self.cfg.oom_grant_bytes);
        if pool.unallocated_mem_bytes() >= need {
            let granted = pool.try_allocate_mem(need);
            cold.mem_limit_bytes += granted;
            Ok(OomDecision::Grant {
                new_limit_bytes: cold.mem_limit_bytes,
            })
        } else {
            Ok(OomDecision::NeedReclaim)
        }
    }

    /// Retries an OOM grant after a reclamation sweep returned ψ to the
    /// pool. Grants whatever covers the shortfall, else decides `Kill`.
    ///
    /// # Errors
    ///
    /// [`AllocatorError::UnknownContainer`] for unregistered containers.
    pub fn retry_oom_after_reclaim(
        &mut self,
        container: ContainerId,
        shortfall_bytes: u64,
    ) -> Result<OomDecision, AllocatorError> {
        let slot = self
            .slot_of(container)
            .ok_or(AllocatorError::UnknownContainer(container))?;
        let cold = &mut self.cold[slot as usize];
        let pool = &mut self.app_entries[self.slab[slot as usize].app_slot as usize].pool;
        // Best effort: take min(pool, max(shortfall, grant block)).
        let want = shortfall_bytes.max(self.cfg.oom_grant_bytes);
        let granted = pool.try_allocate_mem(want);
        if granted >= shortfall_bytes && granted > 0 {
            cold.mem_limit_bytes += granted;
            Ok(OomDecision::Grant {
                new_limit_bytes: cold.mem_limit_bytes,
            })
        } else {
            // Return the partial grant; the container dies anyway.
            pool.release_mem(granted);
            Ok(OomDecision::Kill)
        }
    }

    /// Records an Agent-side reclamation result for one container: the
    /// limit shrank to `new_limit_bytes`, releasing ψ to the pool.
    ///
    /// # Errors
    ///
    /// [`AllocatorError::UnknownContainer`] for unregistered containers.
    pub fn apply_reclaim(
        &mut self,
        container: ContainerId,
        new_limit_bytes: u64,
    ) -> Result<u64, AllocatorError> {
        let slot = self
            .slot_of(container)
            .ok_or(AllocatorError::UnknownContainer(container))?;
        let cold = &mut self.cold[slot as usize];
        let psi = cold.mem_limit_bytes.saturating_sub(new_limit_bytes);
        if psi > 0 {
            cold.mem_limit_bytes = new_limit_bytes;
            self.app_entries[self.slab[slot as usize].app_slot as usize]
                .pool
                .release_mem(psi);
        }
        Ok(psi)
    }

    /// Σ of `f(slot)` over an app's live members, in member-list order.
    fn member_sum<T: std::iter::Sum>(&self, app: AppId, f: impl Fn(usize) -> T) -> Option<T> {
        let &slot = self.app_index.get(&app)?;
        Some(
            self.app_entries[slot as usize]
                .members
                .iter()
                .map(|&s| f(s as usize))
                .sum(),
        )
    }

    /// Σ of tracked quotas for an app — must equal the pool's allocated
    /// CPU (checked by property tests).
    pub fn tracked_cpu_sum(&self, app: AppId) -> f64 {
        self.member_sum(app, |s| self.slab[s].quota_cores)
            .unwrap_or(0.0)
    }

    /// Σ of tracked memory limits for an app.
    pub fn tracked_mem_sum(&self, app: AppId) -> u64 {
        self.member_sum(app, |s| self.cold[s].mem_limit_bytes)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use escra_cfs::MIB;
    use escra_simcore::window::{BitWindow, InlineWindow};
    use proptest::prelude::*;

    const APP: AppId = AppId::new(0);
    const C0: ContainerId = ContainerId::new(0);
    const C1: ContainerId = ContainerId::new(1);
    const NODE: NodeId = NodeId::new(0);

    fn stats(quota: f64, usage_cores: f64, throttled: bool) -> CpuPeriodStats {
        CpuPeriodStats {
            quota_cores: quota,
            usage_us: usage_cores * 100_000.0,
            unused_runtime_us: (quota - usage_cores).max(0.0) * 100_000.0,
            throttled,
        }
    }

    fn setup(global_cpu: f64, per_container: f64) -> ResourceAllocator {
        let mut a = ResourceAllocator::new(EscraConfig::default());
        a.register_app(APP, global_cpu, 1024 * MIB);
        a.register_container(C0, APP, NODE, per_container, 256 * MIB)
            .unwrap();
        a.register_container(C1, APP, NODE, per_container, 256 * MIB)
            .unwrap();
        a
    }

    #[test]
    fn throttled_container_scales_up_from_pool() {
        let mut a = setup(8.0, 2.0); // 4 cores unallocated
        let d = a.on_cpu_stats(C0, stats(2.0, 2.0, true)).unwrap();
        match d {
            CpuDecision::ScaleUp { new_quota_cores } => {
                // rate=1, unalloc=4, Υ=20 -> raw want 80 cores, bounded
                // by the growth cap (1.5x): quota 2.0 -> 3.0.
                assert!((new_quota_cores - 3.0).abs() < 1e-9);
            }
            other => panic!("expected scale-up, got {other:?}"),
        }
        assert!((a.tracked_cpu_sum(APP) - 5.0).abs() < 1e-9);
        assert!((a.app_pool(APP).unwrap().unallocated_cpu_cores() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn throttled_with_empty_pool_holds() {
        let mut a = setup(4.0, 2.0); // fully allocated
        let d = a.on_cpu_stats(C0, stats(2.0, 2.0, true)).unwrap();
        assert_eq!(d, CpuDecision::Hold);
    }

    #[test]
    fn idle_container_scales_down_and_releases() {
        let mut a = setup(4.0, 2.0);
        // usage 0.5, quota 2.0 -> unused 1.5 > γ=0.25 -> shrink by
        // κ·(1.5 − γ) = 1.25, converging toward usage + γ.
        let d = a.on_cpu_stats(C0, stats(2.0, 0.5, false)).unwrap();
        match d {
            CpuDecision::ScaleDown { new_quota_cores } => {
                assert!((new_quota_cores - 0.75).abs() < 1e-9);
            }
            other => panic!("expected scale-down, got {other:?}"),
        }
        assert!((a.app_pool(APP).unwrap().unallocated_cpu_cores() - 1.25).abs() < 1e-9);
    }

    #[test]
    fn scale_down_never_cuts_below_usage() {
        let mut a = setup(4.0, 2.0);
        // Build a window with large unused, then a busy period under γ slack.
        a.on_cpu_stats(C0, stats(2.0, 0.1, false)).unwrap();
        // quota now lower; fetch and keep reporting busy usage near quota
        let q = a.quota_of(C0).unwrap();
        let d = a.on_cpu_stats(C0, stats(q, q - 0.3, false)).unwrap();
        if let CpuDecision::ScaleDown { new_quota_cores } = d {
            assert!(new_quota_cores >= q - 0.3 - 1e-9);
        }
    }

    #[test]
    fn window_smooths_throttle_rate() {
        let mut a = setup(8.0, 2.0);
        // Five periods: not throttled x4 but no slack (usage==quota), then throttled.
        for _ in 0..4 {
            let q = a.quota_of(C0).unwrap();
            a.on_cpu_stats(C0, stats(q, q, false)).unwrap();
        }
        let q = a.quota_of(C0).unwrap();
        let unalloc = a.app_pool(APP).unwrap().unallocated_cpu_cores();
        let d = a.on_cpu_stats(C0, stats(q, q, true)).unwrap();
        match d {
            CpuDecision::ScaleUp { new_quota_cores } => {
                // rate = 1/5, raw want = 0.2 * unalloc * 20 = 4*unalloc,
                // bounded by the doubling cap and the pool.
                let expect = q + (0.2 * unalloc * 20.0).min(q * 0.5).min(unalloc);
                assert!((new_quota_cores - expect).abs() < 1e-9);
            }
            other => panic!("expected scale-up, got {other:?}"),
        }
    }

    #[test]
    fn sharing_between_containers() {
        // C0 idle shrinks; C1 throttled grows into the released capacity.
        let mut a = setup(4.0, 2.0);
        a.on_cpu_stats(C0, stats(2.0, 0.2, false)).unwrap();
        let freed = a.app_pool(APP).unwrap().unallocated_cpu_cores();
        assert!(freed > 1.0);
        let d = a.on_cpu_stats(C1, stats(2.0, 2.0, true)).unwrap();
        assert!(matches!(d, CpuDecision::ScaleUp { .. }));
        // Aggregate never exceeds the Distributed Container limit.
        assert!(a.tracked_cpu_sum(APP) <= 4.0 + 1e-9);
    }

    #[test]
    fn oom_grant_from_pool() {
        let mut a = setup(4.0, 2.0); // mem pool 1024, allocated 512
        let d = a.on_oom(C0, 1).unwrap();
        assert_eq!(
            d,
            OomDecision::Grant {
                new_limit_bytes: 256 * MIB + 32 * MIB
            }
        );
        assert_eq!(a.tracked_mem_sum(APP), 544 * MIB);
    }

    #[test]
    fn oom_exhausted_pool_needs_reclaim_then_kill() {
        let mut a = ResourceAllocator::new(EscraConfig::default());
        a.register_app(APP, 4.0, 512 * MIB);
        a.register_container(C0, APP, NODE, 2.0, 512 * MIB).unwrap();
        assert_eq!(a.on_oom(C0, MIB).unwrap(), OomDecision::NeedReclaim);
        // Nothing reclaimed -> kill.
        assert_eq!(
            a.retry_oom_after_reclaim(C0, MIB).unwrap(),
            OomDecision::Kill
        );
    }

    #[test]
    fn reclaim_cycle_releases_and_regrants() {
        let mut a = ResourceAllocator::new(EscraConfig::default());
        a.register_app(APP, 4.0, 512 * MIB);
        a.register_container(C0, APP, NODE, 1.0, 256 * MIB).unwrap();
        a.register_container(C1, APP, NODE, 1.0, 256 * MIB).unwrap();
        assert_eq!(a.on_oom(C0, 8 * MIB).unwrap(), OomDecision::NeedReclaim);
        // Agent shrinks C1 to 100 MiB, ψ = 156 MiB.
        let psi = a.apply_reclaim(C1, 100 * MIB).unwrap();
        assert_eq!(psi, 156 * MIB);
        let d = a.retry_oom_after_reclaim(C0, 8 * MIB).unwrap();
        assert_eq!(
            d,
            OomDecision::Grant {
                new_limit_bytes: 256 * MIB + 32 * MIB
            }
        );
    }

    #[test]
    fn deregister_returns_resources() {
        let mut a = setup(4.0, 2.0);
        a.deregister_container(C0).unwrap();
        assert_eq!(a.container_count(), 1);
        assert!((a.app_pool(APP).unwrap().unallocated_cpu_cores() - 2.0).abs() < 1e-9);
        assert!(a.quota_of(C0).is_none());
    }

    #[test]
    fn error_paths() {
        let mut a = ResourceAllocator::new(EscraConfig::default());
        assert_eq!(
            a.register_container(C0, APP, NODE, 1.0, MIB),
            Err(AllocatorError::UnknownApp(APP))
        );
        a.register_app(APP, 1.0, MIB * 64);
        a.register_container(C0, APP, NODE, 1.0, MIB).unwrap();
        assert_eq!(
            a.register_container(C0, APP, NODE, 1.0, MIB),
            Err(AllocatorError::DuplicateContainer(C0))
        );
        assert_eq!(
            a.on_cpu_stats(C1, stats(1.0, 1.0, false)),
            Err(AllocatorError::UnknownContainer(C1))
        );
        assert_eq!(
            AllocatorError::UnknownContainer(C1).to_string(),
            "unknown container ctr-1"
        );
    }

    #[test]
    fn slab_recycles_slots_and_keeps_member_lists_consistent() {
        let mut a = ResourceAllocator::new(EscraConfig::default());
        a.register_app(APP, 16.0, 4096 * MIB);
        for i in 0..4u64 {
            a.register_container(ContainerId::new(i), APP, NODE, 1.0, 64 * MIB)
                .unwrap();
        }
        // Remove from the middle: the tail member is swapped into its
        // position and must stay addressable.
        a.deregister_container(C1).unwrap();
        assert_eq!(a.container_count(), 3);
        assert!((a.tracked_cpu_sum(APP) - 3.0).abs() < 1e-9);
        assert_eq!(a.tracked_mem_sum(APP), 3 * 64 * MIB);
        // A new registration reuses the vacated slot; the old id stays gone.
        a.register_container(ContainerId::new(9), APP, NODE, 1.0, 64 * MIB)
            .unwrap();
        assert_eq!(a.container_count(), 4);
        assert!(a.quota_of(C1).is_none());
        assert_eq!(a.quota_of(ContainerId::new(9)), Some(1.0));
        // Every surviving member still answers lookups and telemetry.
        for raw in [0u64, 2, 3, 9] {
            let cid = ContainerId::new(raw);
            assert_eq!(a.node_of(cid), Some(NODE));
            a.on_cpu_stats(cid, stats(1.0, 0.9, false)).unwrap();
        }
        // Churn the swapped-in tail again to exercise member_pos repair.
        a.deregister_container(ContainerId::new(3)).unwrap();
        a.deregister_container(ContainerId::new(9)).unwrap();
        assert!(
            (a.tracked_cpu_sum(APP) - a.app_pool(APP).unwrap().allocated_cpu_cores()).abs() < 1e-9
        );
    }

    #[test]
    fn ghost_ids_beyond_the_index_are_unknown() {
        let mut a = setup(4.0, 2.0);
        let ghost = ContainerId::new(1_000_000);
        assert_eq!(
            a.on_cpu_stats(ghost, stats(1.0, 1.0, false)),
            Err(AllocatorError::UnknownContainer(ghost))
        );
        assert_eq!(
            a.deregister_container(ghost),
            Err(AllocatorError::UnknownContainer(ghost))
        );
        assert!(a.node_of(ghost).is_none());
    }

    #[test]
    fn initial_grant_capped_by_pool() {
        let mut a = ResourceAllocator::new(EscraConfig::default());
        a.register_app(APP, 1.0, 64 * MIB);
        let (cpu, mem) = a.register_container(C0, APP, NODE, 4.0, 512 * MIB).unwrap();
        assert_eq!(cpu, 1.0);
        assert_eq!(mem, 64 * MIB);
    }

    #[test]
    fn a_track_is_one_cache_line() {
        // A CPU decision with the default window touches its track and
        // nothing else, and the telemetry walks prefetch one line of it
        // (DESIGN.md §VI-I).
        assert_eq!(std::mem::size_of::<Track>(), 64);
        assert_eq!(std::mem::align_of::<Track>(), 64);
    }

    #[test]
    #[should_panic(expected = "window_periods 0 is not in 1..=24")]
    fn an_empty_window_is_refused_at_construction() {
        // `window_periods` is a public field, so a config built as a
        // struct literal (or deserialized) bypasses `with_window`'s check.
        let _ = ResourceAllocator::new(EscraConfig {
            window_periods: 0,
            ..EscraConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "window_periods 25 is not in 1..=24")]
    fn a_window_past_the_bit_ring_is_refused_at_construction() {
        let _ = ResourceAllocator::new(EscraConfig {
            window_periods: 25,
            ..EscraConfig::default()
        });
    }

    #[test]
    fn reserve_sizes_both_slabs_and_recycling_reuses_the_cold_entry() {
        let mut a = ResourceAllocator::new(EscraConfig::default());
        a.register_app(APP, 64.0, 4096 * MIB);
        let other = AppId::new(1);
        a.register_app(other, 64.0, 4096 * MIB);
        let mut next = 0u64;
        for n in [3usize, 3, 6, 12] {
            // Each deployment at least doubles the slabs: both end at
            // exactly the registered count.
            a.reserve_containers(n);
            for _ in 0..n {
                a.register_container(ContainerId::new(next), APP, NODE, 0.5, 16 * MIB)
                    .unwrap();
                next += 1;
            }
            assert_eq!(a.slab.capacity(), next as usize);
            assert_eq!(a.cold.capacity(), next as usize);
        }
        let slot = a.slot_of(C1).unwrap();
        a.deregister_container(C1).unwrap();
        let fresh = ContainerId::new(next);
        a.reserve_containers(1);
        a.register_container(fresh, other, NodeId::new(3), 0.5, 48 * MIB)
            .unwrap();
        assert_eq!(a.slot_of(fresh), Some(slot));
        assert_eq!((a.slab.len(), a.cold.len()), (next as usize, next as usize));
        assert_eq!(a.slab.capacity(), next as usize);
        assert_eq!(a.cold.capacity(), next as usize);
        let cold = &a.cold[slot as usize];
        assert_eq!((cold.app, cold.mem_limit_bytes), (other, 48 * MIB));
        assert_eq!(a.app_of(fresh), Some(other));
        assert_eq!(a.node_of(fresh), Some(NodeId::new(3)));
        assert_eq!(a.tracked_mem_sum(other), 48 * MIB);
    }

    #[test]
    fn a_large_hot_slab_is_reserved_in_one_step() {
        const R: usize = HOT_RESERVE;
        // (len, cap, fresh, exact) → capacity.
        for (case, want) in [
            ((10, 16, 6, false), 16),
            ((0, 0, 1, false), 4),
            ((4, 4, 1, false), 8),
            ((3, 3, 3, true), 6),
            ((512, 512, 1, false), 1024),
            // Growth past `HOT_SMALL` goes straight to `HOT_RESERVE`...
            ((1024, 1024, 1, false), R),
            ((600, 600, 1, false), R),
            ((0, 0, 1025, true), R),
            ((1000, 1000, 2000, true), R),
            // ...and doubles, or reserves exactly, beyond it.
            ((R, R, 1, false), 2 * R),
            ((R, R, R + 8, true), 2 * R + 8),
        ] {
            let (len, cap, fresh, exact) = case;
            assert_eq!(hot_capacity(len, cap, fresh, exact), want, "{case:?}");
        }
        let mut a = ResourceAllocator::new(EscraConfig::default());
        a.register_app(APP, 1e6, u64::MAX / 2);
        // Registering one past `HOT_SMALL` takes the same step.
        for i in 0..=HOT_SMALL as u64 {
            let (cpu, _) = a
                .register_container(ContainerId::new(i), APP, NODE, 0.5, MIB)
                .unwrap();
            assert_eq!(a.quota_of(ContainerId::new(i)), Some(cpu));
        }
        assert_eq!((a.slab.len(), a.slab.capacity()), (HOT_SMALL + 1, R));
        assert_eq!(a.cold.len(), HOT_SMALL + 1);
    }

    #[test]
    fn long_windows_keep_their_rings_in_the_arena() {
        for (periods, spill) in [(5, 0), (6, 6), (7, 7), (20, 20)] {
            let mut a = ResourceAllocator::new(EscraConfig::default().with_window(periods));
            a.register_app(APP, 64.0, 4096 * MIB);
            for i in 0..3u64 {
                a.register_container(ContainerId::new(i), APP, NODE, 1.0, 64 * MIB)
                    .unwrap();
            }
            assert_eq!(a.rings.len(), 3 * spill, "window {periods}");
            // A recycled slot reuses its run; the arena does not grow.
            a.deregister_container(C1).unwrap();
            a.register_container(ContainerId::new(7), APP, NODE, 1.0, 64 * MIB)
                .unwrap();
            assert_eq!(a.rings.len(), 3 * spill, "window {periods}");
            // Neighbouring rings do not bleed into each other: each
            // container's mean is the oldest-first mean of its own last
            // `periods` samples.
            let ids = [
                ContainerId::new(0),
                ContainerId::new(7),
                ContainerId::new(2),
            ];
            let mut pushed: Vec<Vec<f64>> = vec![Vec::new(); ids.len()];
            for round in 0..2 * periods {
                for (k, &id) in ids.iter().enumerate() {
                    let s = stats(8.0, 0.5 * k as f64 + 0.01 * round as f64, false);
                    pushed[k].push(s.unused_cores(a.config().report_period));
                    a.on_cpu_stats(id, s).unwrap();
                }
            }
            for (k, &id) in ids.iter().enumerate() {
                let window = &pushed[k][pushed[k].len() - periods..];
                let mut sum = 0.0;
                for v in window {
                    sum += v;
                }
                let (_, unused) = a.decision_inputs(id).unwrap();
                assert_eq!(
                    unused.to_bits(),
                    (sum / periods as f64).to_bits(),
                    "{periods}/{id}"
                );
            }
        }
    }

    proptest! {
        /// The fused ring against the two standalone window types it
        /// replaced, fed the same pushes, at every capacity: inline rings
        /// up to `INLINE`, arena runs past it, through the packed fill
        /// state's filling, its first wrap and many after. After every push the
        /// lengths agree, the throttle mean is `BitWindow::mean` bit for
        /// bit, both sample sequences are the reference windows' in
        /// order, and the unused mean is the oldest-first sum of those
        /// samples over the length.
        #[test]
        fn decision_windows_match_the_standalone_windows(
            pushes in proptest::collection::vec((any::<bool>(), 0.0f64..4.0), 1..120),
        ) {
            for cap in 1..=DecisionWindows::MAX_CAPACITY {
                let mut fused = DecisionWindows::EMPTY;
                let mut inline = [0.0; DecisionWindows::INLINE];
                let mut arena = vec![0.0; DecisionWindows::spill_len(cap)];
                let (mut bits, mut vals) = (BitWindow::new(cap), InlineWindow::new(cap));
                for &(throttled, unused) in &pushes {
                    fused.push(
                        DecisionWindows::ring_mut(&mut inline, &mut arena, 0, cap),
                        throttled,
                        unused,
                    );
                    bits.push(throttled);
                    vals.push(unused);
                    let ring = DecisionWindows::ring(&inline, &arena, 0, cap);
                    prop_assert_eq!(fused.len(cap), bits.len());
                    prop_assert_eq!(fused.len(cap), vals.len());
                    prop_assert_eq!(fused.throttle_mean(cap).to_bits(), bits.mean().to_bits());
                    prop_assert_eq!(
                        fused.throttle_samples(cap).collect::<Vec<_>>(),
                        bits.samples().collect::<Vec<_>>());
                    let retained: Vec<f64> = vals.samples().collect();
                    let mut sum = 0.0;
                    for v in &retained {
                        sum += v;
                    }
                    prop_assert_eq!(
                        fused.unused_mean(ring).to_bits(),
                        (sum / retained.len() as f64).to_bits());
                    prop_assert_eq!(fused.unused_samples(ring).collect::<Vec<_>>(), retained);
                }
            }
        }
    }
}
