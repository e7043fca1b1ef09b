//! Control-plane message types and wire sizes.
//!
//! Mirrors the paper's protocol (§IV-B): containers register over a
//! per-container kernel TCP socket, stream per-period CPU statistics over
//! UDP, and send OOM events over the TCP socket; the Controller invokes
//! Agents over gRPC to update limits and run reclamation sweeps.

use escra_cfs::CpuPeriodStats;
use escra_cluster::{AppId, ContainerId, NodeId};
use escra_net::batch_wire_bytes;
use serde::Serialize;

/// Envelope overhead of one UDP CPU-statistic message: IP/UDP headers
/// plus the node tag. Shared across all entries of a per-node batch.
pub const CPU_STATS_HEADER_BYTES: u64 = 40;

/// Payload bytes of one container's per-period CPU statistic: cgroup
/// tag, quota, unused runtime, throttle flag — the fields the custom
/// kernel struct actually carries.
pub const CPU_STATS_ENTRY_BYTES: u64 = 24;

/// Wire size in bytes of one UDP CPU-statistic message: one envelope
/// carrying one entry. The paper measures ~12 Mbps peak for 32 containers
/// reporting at 10 Hz, implying a few kB per message once kernel-socket
/// framing is counted; we use the message the custom kernel struct
/// actually carries.
pub const CPU_STATS_WIRE_BYTES: u64 = CPU_STATS_HEADER_BYTES + CPU_STATS_ENTRY_BYTES;

/// Wire size of a registration message (TCP, incl. handshake amortised).
pub const REGISTER_WIRE_BYTES: u64 = 128;

/// Wire size of an OOM event (TCP).
pub const OOM_EVENT_WIRE_BYTES: u64 = 96;

/// Wire size of a Controller→Agent limit-update RPC.
const LIMIT_UPDATE_WIRE_BYTES: u64 = 160;

/// Wire size of a reclamation request/response RPC pair.
const RECLAIM_RPC_WIRE_BYTES: u64 = 192;

/// One container's per-period CPU statistic inside a per-node batch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CpuStatsEntry {
    /// Reporting container.
    pub container: ContainerId,
    /// The per-period statistics exported by its CFS hook.
    pub stats: CpuPeriodStats,
}

/// Struct-of-arrays wire form of one node's telemetry batch (§VI-I
/// columnar ingest): four parallel fixed-point integer columns plus a
/// packed throttle bitset, replacing the per-entry `f64`+`bool` struct
/// of [`CpuStatsEntry`].
///
/// Fixed-point encoding (every field exactly representable in f64, so
/// the row form [`CpuStatsColumns::entry`] reconstructs is canonical):
///
/// * `container_raw` — the raw container id (`ContainerId::as_u64`,
///   which the deployer allocates densely from 0, far below 2³²).
/// * `quota_mcores` — quota in millicores ([`escra_cfs::cpu::MCORES_PER_CORE`]).
/// * `unused_us` / `usage_us` — whole core-microseconds per period.
/// * `throttled` — one bit per entry, packed LSB-first into u64 words.
///
/// Entry order (the Agent's collection order) is significant, exactly
/// as in [`ToController::CpuStatsBatch`].
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct CpuStatsColumns {
    /// Raw container ids, one per entry.
    pub container_raw: Vec<u32>,
    /// CPU quota at period end, in millicores.
    pub quota_mcores: Vec<u32>,
    /// Unused runtime at the period boundary, in core-microseconds.
    pub unused_us: Vec<u32>,
    /// CPU consumed this period, in core-microseconds.
    pub usage_us: Vec<u32>,
    /// Throttle flags, packed LSB-first: entry `i` is bit `i % 64` of
    /// word `i / 64`. Trailing bits of the last word are zero.
    pub throttled: Vec<u64>,
}

impl CpuStatsColumns {
    /// An empty column block.
    pub fn new() -> Self {
        CpuStatsColumns::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.container_raw.len()
    }

    /// True when the block holds no entries.
    pub fn is_empty(&self) -> bool {
        self.container_raw.is_empty()
    }

    /// True when the four `u32` columns have one length and `throttled`
    /// holds exactly `len.div_ceil(64)` words. Every block built by
    /// [`CpuStatsColumns::push_raw`] is; one decoded off the wire need
    /// not be, and the Controller refuses such a block whole.
    pub fn is_well_formed(&self) -> bool {
        let n = self.container_raw.len();
        self.quota_mcores.len() == n
            && self.unused_us.len() == n
            && self.usage_us.len() == n
            && self.throttled.len() == n.div_ceil(64)
    }

    /// Clears all columns, retaining capacity (the recycled-block
    /// contract of the sharded ingest path).
    pub fn clear(&mut self) {
        self.container_raw.clear();
        self.quota_mcores.clear();
        self.unused_us.clear();
        self.usage_us.clear();
        self.throttled.clear();
    }

    /// Appends one entry in raw fixed-point form.
    ///
    /// # Panics
    ///
    /// Panics if `container.as_u64()` exceeds `u32::MAX` (the deployer
    /// allocates ids densely from zero; the columnar form trades the
    /// unused upper half of the id for wire width).
    pub fn push_raw(
        &mut self,
        container: ContainerId,
        quota_mcores: u32,
        unused_us: u32,
        usage_us: u32,
        throttled: bool,
    ) {
        let raw = container.as_u64();
        assert!(
            raw <= u32::MAX as u64,
            "container id {raw} exceeds the columnar u32 id space"
        );
        let i = self.container_raw.len();
        self.container_raw.push(raw as u32);
        self.quota_mcores.push(quota_mcores);
        self.unused_us.push(unused_us);
        self.usage_us.push(usage_us);
        if i.is_multiple_of(64) {
            self.throttled.push(0);
        }
        if throttled {
            self.throttled[i / 64] |= 1u64 << (i % 64);
        }
    }

    /// Appends one entry, quantizing the row form's f64 fields
    /// ([`CpuPeriodStats::to_fixed_point`]).
    pub fn push(&mut self, container: ContainerId, stats: &CpuPeriodStats) {
        let (quota_mcores, unused_us, usage_us, throttled) = stats.to_fixed_point();
        self.push_raw(container, quota_mcores, unused_us, usage_us, throttled);
    }

    /// The throttle bit of entry `i`.
    #[inline]
    pub fn throttled_bit(&self, i: usize) -> bool {
        (self.throttled[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Entry `i` in row form — the canonical meaning of the columns:
    /// columnar ingest of a block is defined (and property-tested) to be
    /// decision-for-decision identical to batch ingest of
    /// `(0..len).map(|i| entry(i))`.
    pub fn entry(&self, i: usize) -> CpuStatsEntry {
        CpuStatsEntry {
            container: ContainerId::new(self.container_raw[i] as u64),
            stats: CpuPeriodStats::from_fixed_point(
                self.quota_mcores[i],
                self.unused_us[i],
                self.usage_us[i],
                self.throttled_bit(i),
            ),
        }
    }

    /// All entries in row form, in entry order.
    pub fn to_entries(&self) -> Vec<CpuStatsEntry> {
        (0..self.len()).map(|i| self.entry(i)).collect()
    }

    /// Builds a block by quantizing row-form entries.
    pub fn from_entries(entries: &[CpuStatsEntry]) -> Self {
        let mut cols = CpuStatsColumns::new();
        cols.reserve(entries.len());
        for e in entries {
            cols.push(e.container, &e.stats);
        }
        cols
    }

    /// Reserves capacity for `n` additional entries in every column.
    pub fn reserve(&mut self, n: usize) {
        self.container_raw.reserve(n);
        self.quota_mcores.reserve(n);
        self.unused_us.reserve(n);
        self.usage_us.reserve(n);
        self.throttled.reserve(n.div_ceil(64));
    }
}

/// Messages flowing from worker nodes to the Controller.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum ToController {
    /// A new container announces itself (kernel syscall at deploy, §IV-B).
    Register {
        /// The new container.
        container: ContainerId,
        /// Its application (Distributed Container scope).
        app: AppId,
        /// Host node, so the Controller knows which Agent to call.
        node: NodeId,
    },
    /// End-of-period CPU statistics from the CFS hook (UDP).
    CpuStats {
        /// Reporting container.
        container: ContainerId,
        /// The per-period statistics.
        stats: CpuPeriodStats,
    },
    /// All of one node's end-of-period CPU statistics in a single UDP
    /// datagram: the node's Agent coalesces its containers' CFS-hook
    /// exports at the period boundary, so the envelope header is paid
    /// once per node instead of once per container (§VI-I).
    ///
    /// Semantically identical to sending one [`ToController::CpuStats`]
    /// per entry, in entry order — a property test holds the Controller
    /// to that.
    CpuStatsBatch {
        /// The reporting node.
        node: NodeId,
        /// Per-container statistics, in the Agent's collection order.
        entries: Vec<CpuStatsEntry>,
    },
    /// One node's end-of-period statistics as a columnar
    /// (struct-of-arrays) datagram — the §VI-I fast path. Semantically
    /// identical to [`ToController::CpuStatsBatch`] carrying
    /// `columns.to_entries()`, and charged the same wire bytes: the
    /// layout changes, the payload does not.
    CpuStatsColumns {
        /// The reporting node.
        node: NodeId,
        /// Per-container statistic columns, in collection order.
        columns: CpuStatsColumns,
    },
    /// The `try_charge()` hook trapped an imminent OOM (TCP).
    OomEvent {
        /// The container about to be killed.
        container: ContainerId,
        /// Bytes by which the charge exceeds the current limit.
        shortfall_bytes: u64,
        /// The limit the container is actually running with. Lets the
        /// Controller detect a lost grant: if its tracked limit exceeds
        /// this, the last `SetMemLimit` never arrived and must be
        /// resent.
        current_limit_bytes: u64,
    },
    /// Agent acknowledgement that a `SetMemLimit` was applied.
    ///
    /// On the real control plane this is the gRPC response of the
    /// limit-update call, not a separate message — so its wire size is
    /// zero (the response is priced into the limit update's bytes).
    LimitAck {
        /// The container whose limit was set.
        container: ContainerId,
        /// Sequence number of the applied `SetMemLimit`.
        seq: u64,
    },
}

/// Wire size of one node's telemetry datagram carrying `entries`
/// container rows (either batch form): what
/// [`ToController::wire_bytes`] charges, for a sender that never builds
/// the message.
pub fn cpu_batch_wire_bytes(entries: usize) -> u64 {
    batch_wire_bytes(
        CPU_STATS_HEADER_BYTES,
        CPU_STATS_ENTRY_BYTES,
        entries as u64,
    )
}

impl ToController {
    /// Wire size used for bandwidth accounting.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            ToController::Register { .. } => REGISTER_WIRE_BYTES,
            ToController::CpuStats { .. } => CPU_STATS_WIRE_BYTES,
            ToController::CpuStatsBatch { entries, .. } => cpu_batch_wire_bytes(entries.len()),
            ToController::CpuStatsColumns { columns, .. } => cpu_batch_wire_bytes(columns.len()),
            ToController::OomEvent { .. } => OOM_EVENT_WIRE_BYTES,
            // Already charged as part of the update RPC pair.
            ToController::LimitAck { .. } => 0,
        }
    }
}

/// Commands from the Controller to a node Agent (gRPC).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum ToAgent {
    /// Set a container's CPU quota (applied without restart).
    SetCpuQuota {
        /// Target container.
        container: ContainerId,
        /// New quota in cores.
        quota_cores: f64,
        /// Controller-issued sequence number; Agents discard commands
        /// whose `seq` does not advance past the last applied one, so
        /// duplicated or reordered deliveries cannot roll a limit back.
        seq: u64,
    },
    /// Set a container's memory limit (scale-up grant).
    SetMemLimit {
        /// Target container.
        container: ContainerId,
        /// New limit in bytes.
        limit_bytes: u64,
        /// Controller-issued sequence number (see
        /// [`ToAgent::SetCpuQuota`]).
        seq: u64,
    },
    /// Run a reclamation sweep over every container on the Agent's node
    /// with safe margin δ; the Agent reports back total ψ.
    ReclaimMemory {
        /// Safe margin δ in bytes.
        delta_bytes: u64,
    },
}

impl ToAgent {
    /// Wire size used for bandwidth accounting.
    pub fn wire_bytes(&self) -> u64 {
        match self {
            ToAgent::SetCpuQuota { .. } | ToAgent::SetMemLimit { .. } => LIMIT_UPDATE_WIRE_BYTES,
            ToAgent::ReclaimMemory { .. } => RECLAIM_RPC_WIRE_BYTES,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_sizes_are_positive_and_distinct_by_kind() {
        let reg = ToController::Register {
            container: ContainerId::new(0),
            app: AppId::new(0),
            node: NodeId::new(0),
        };
        let stats = ToController::CpuStats {
            container: ContainerId::new(0),
            stats: CpuPeriodStats {
                quota_cores: 1.0,
                unused_runtime_us: 0.0,
                usage_us: 0.0,
                throttled: false,
            },
        };
        assert_eq!(reg.wire_bytes(), REGISTER_WIRE_BYTES);
        assert_eq!(stats.wire_bytes(), CPU_STATS_WIRE_BYTES);
        assert!(stats.wire_bytes() < reg.wire_bytes());
        let quota = ToAgent::SetCpuQuota {
            container: ContainerId::new(0),
            quota_cores: 1.0,
            seq: 1,
        };
        assert_eq!(quota.wire_bytes(), LIMIT_UPDATE_WIRE_BYTES);
        assert_eq!(
            ToAgent::ReclaimMemory { delta_bytes: 1 }.wire_bytes(),
            RECLAIM_RPC_WIRE_BYTES
        );
    }

    #[test]
    fn batched_stats_share_one_envelope_header() {
        let entry = |i: u64| CpuStatsEntry {
            container: ContainerId::new(i),
            stats: CpuPeriodStats {
                quota_cores: 1.0,
                unused_runtime_us: 0.0,
                usage_us: 50_000.0,
                throttled: false,
            },
        };
        let batch = |n: u64| ToController::CpuStatsBatch {
            node: NodeId::new(0),
            entries: (0..n).map(entry).collect(),
        };
        // A batch of one costs less than a standalone message only by the
        // node tag sharing; what matters is the asymptote: k entries cost
        // one header + k payloads, not k full envelopes.
        assert_eq!(
            batch(1).wire_bytes(),
            CPU_STATS_HEADER_BYTES + CPU_STATS_ENTRY_BYTES
        );
        assert_eq!(
            batch(32).wire_bytes(),
            CPU_STATS_HEADER_BYTES + 32 * CPU_STATS_ENTRY_BYTES
        );
        assert!(batch(32).wire_bytes() < 32 * CPU_STATS_WIRE_BYTES);
    }

    #[test]
    fn limit_ack_rides_the_update_rpc_for_free() {
        // The ack is the gRPC response of the limit update; charging it
        // separately would double-count the §VI-I overhead numbers.
        let ack = ToController::LimitAck {
            container: ContainerId::new(3),
            seq: 7,
        };
        assert_eq!(ack.wire_bytes(), 0);
    }

    #[test]
    fn columnar_batch_is_charged_like_the_row_batch() {
        // The columnar form is a layout change, not a payload change:
        // its wire accounting must be indistinguishable from the row
        // batch so §VI-I overhead numbers cannot drift with the ingest
        // path chosen.
        let mut cols = CpuStatsColumns::new();
        for i in 0..32u64 {
            cols.push_raw(ContainerId::new(i), 1000, 0, 50_000, i % 3 == 0);
        }
        let msg = ToController::CpuStatsColumns {
            node: NodeId::new(0),
            columns: cols.clone(),
        };
        assert_eq!(
            msg.wire_bytes(),
            CPU_STATS_HEADER_BYTES + 32 * CPU_STATS_ENTRY_BYTES
        );
        let rows = ToController::CpuStatsBatch {
            node: NodeId::new(0),
            entries: cols.to_entries(),
        };
        assert_eq!(msg.wire_bytes(), rows.wire_bytes());
    }

    #[test]
    fn columns_round_trip_fixed_point_rows() {
        let entries: Vec<CpuStatsEntry> = (0..130u64)
            .map(|i| CpuStatsEntry {
                container: ContainerId::new(i),
                stats: CpuPeriodStats::from_fixed_point(
                    (i * 37 % 5000) as u32,
                    (i * 911 % 100_000) as u32,
                    (i * 733 % 100_000) as u32,
                    i % 5 == 0,
                ),
            })
            .collect();
        let cols = CpuStatsColumns::from_entries(&entries);
        assert_eq!(cols.len(), entries.len());
        // Bitset packing crosses two word boundaries at 130 entries.
        assert_eq!(cols.throttled.len(), 3);
        assert_eq!(cols.to_entries(), entries);
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(cols.entry(i), *e);
            assert_eq!(cols.throttled_bit(i), e.stats.throttled);
        }
        let mut recycled = cols.clone();
        recycled.clear();
        assert!(recycled.is_empty());
        assert_eq!(recycled.throttled.len(), 0);
    }

    #[test]
    fn quantization_rounds_to_nearest_unit() {
        let stats = CpuPeriodStats {
            quota_cores: 1.2345678,
            unused_runtime_us: 41_999.500_1,
            usage_us: 58_000.499_9,
            throttled: false,
        };
        let (q, un, us, t) = stats.to_fixed_point();
        assert_eq!((q, un, us, t), (1235, 42_000, 58_000, false));
        // Out-of-range and non-finite inputs saturate instead of
        // wrapping: a hostile or corrupted report cannot alias to a
        // small value.
        let wild = CpuPeriodStats {
            quota_cores: -3.0,
            unused_runtime_us: 1e18,
            usage_us: f64::NAN,
            throttled: true,
        };
        let (q, un, us, t) = wild.to_fixed_point();
        assert_eq!((q, un, us, t), (0, u32::MAX, 0, true));
    }

    #[test]
    fn oom_event_reports_the_live_limit() {
        let ev = ToController::OomEvent {
            container: ContainerId::new(1),
            shortfall_bytes: 4096,
            current_limit_bytes: 1 << 20,
        };
        assert_eq!(ev.wire_bytes(), OOM_EVENT_WIRE_BYTES);
    }
}
