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
//! thread: every routed entry is applied inline, on the caller's thread,
//! to its home shard. There are no workers, channels or locks.
//!
//! The surface is telemetry ingest only. A container is routed to shard
//! `app.as_u64() % n_shards`: every Distributed Container pool is scoped
//! to one application, so each shard sees exactly the subsequence of
//! entries its apps would have seen, in order, against the same pool
//! state. That a plain [`Controller`]'s decisions — OOM grants, acks,
//! ticks and reclamation included — are invariant under this app
//! partition is held by `tests/app_partition_prop.rs`. Each shard stamps
//! its own command seqs; all of a container's commands still come from
//! its one home shard in emission order, which is what Agents filter on.
//! The drain concatenates shard buffers in shard order, so the drained
//! stream is reproducible run to run.

use crate::allocator::AllocatorError;
use crate::config::EscraConfig;
use crate::controller::{Action, Controller, ControllerStats};
use crate::telemetry::{CpuStatsColumns, CpuStatsEntry};
use escra_cluster::{AppId, ContainerId, NodeId};
use std::time::{Duration, Instant};

/// Sentinel for "container not seen by the router yet".
const NO_SHARD: u32 = u32::MAX;

/// One shard: its Controller, the actions it has emitted since the last
/// drain, and the CPU time it has spent inside batch/columnar ingest.
#[derive(Debug)]
struct Shard {
    controller: Controller,
    pending: Vec<Action>,
    ingest_busy: Duration,
}

/// The app-affine router in front of N [`Controller`] shards (see
/// module docs). Emitted [`Action`]s accumulate inside each shard until
/// [`ShardedController::drain_actions_into`].
#[derive(Debug)]
pub struct ShardedController {
    shards: Vec<Shard>,
    /// Direct-mapped container → shard index (`NO_SHARD` = unknown),
    /// keyed by the raw container id exactly like the allocator's slab
    /// index (ids are sequential and never reused).
    container_shard: Vec<u32>,
    /// Per-shard scratch for splitting one node's row batch.
    split_rows: Vec<Vec<CpuStatsEntry>>,
    /// Per-shard scratch for splitting one node's columnar block.
    split_columns: Vec<CpuStatsColumns>,
}

impl ShardedController {
    /// Builds `n_shards` independent [`Controller`]s from `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `n_shards` is zero.
    pub fn new(cfg: EscraConfig, n_shards: usize) -> Self {
        assert!(n_shards > 0, "a sharded controller needs at least 1 shard");
        ShardedController {
            shards: (0..n_shards)
                .map(|_| Shard {
                    controller: Controller::new(cfg.clone()),
                    pending: Vec::new(),
                    ingest_busy: Duration::ZERO,
                })
                .collect(),
            container_shard: Vec::new(),
            split_rows: vec![Vec::new(); n_shards],
            split_columns: vec![CpuStatsColumns::new(); n_shards],
        }
    }

    /// The routing rule: the shard owning `app` and all its containers.
    fn route_of(&self, app: AppId) -> usize {
        (app.as_u64() % self.shards.len() as u64) as usize
    }

    /// Shard routing `container`; unknown containers go to shard 0, which
    /// ingests-and-ignores them like a sequential Controller does.
    fn shard_of_container(&self, container: ContainerId) -> usize {
        match self.container_shard.get(container.as_u64() as usize) {
            Some(&s) if s != NO_SHARD => s as usize,
            _ => 0,
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
    /// shard. Its cgroup-bootstrap commands appear in the next drain.
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
        // Only reached once the allocator accepted the id, so it is below
        // `MAX_CONTAINER_ID` and the resize is bounded by it.
        let idx = container.as_u64() as usize;
        if idx >= self.container_shard.len() {
            self.container_shard.resize(idx + 1, NO_SHARD);
        }
        self.container_shard[idx] = shard as u32;
        Ok(())
    }

    /// Splits one node's telemetry batch across home shards and feeds
    /// each shard its slice, preserving entry order within each shard.
    /// Each shard's ingest call is clocked into its ingest-busy time;
    /// the split is router work and is not.
    pub fn ingest_cpu_batch(&mut self, entries: &[CpuStatsEntry]) {
        for e in entries {
            let shard = self.shard_of_container(e.container);
            self.split_rows[shard].push(*e);
        }
        for (shard, split) in self.shards.iter_mut().zip(&mut self.split_rows) {
            if split.is_empty() {
                continue;
            }
            let t0 = Instant::now();
            shard.controller.ingest_cpu_batch(split, &mut shard.pending);
            shard.ingest_busy += t0.elapsed();
            split.clear();
        }
    }

    /// Splits one node's columnar telemetry block across home shards,
    /// preserving entry order within each shard, and feeds each shard
    /// its sub-block — the columnar counterpart of
    /// [`ShardedController::ingest_cpu_batch`], clocked the same way. A
    /// block that is not [`CpuStatsColumns::is_well_formed`] is refused
    /// whole, as [`Controller::ingest_cpu_columns`] refuses it.
    pub fn ingest_cpu_columns(&mut self, columns: &CpuStatsColumns) {
        if !columns.is_well_formed() {
            return;
        }
        for i in 0..columns.len() {
            let container = ContainerId::new(columns.container_raw[i] as u64);
            let shard = self.shard_of_container(container);
            self.split_columns[shard].push_raw(
                container,
                columns.quota_mcores[i],
                columns.unused_us[i],
                columns.usage_us[i],
                columns.throttled_bit(i),
            );
        }
        for (shard, split) in self.shards.iter_mut().zip(&mut self.split_columns) {
            if split.is_empty() {
                continue;
            }
            let t0 = Instant::now();
            shard
                .controller
                .ingest_cpu_columns(split, &mut shard.pending);
            shard.ingest_busy += t0.elapsed();
            split.clear();
        }
    }

    /// Collects every shard's accumulated actions into `out`, in shard
    /// order, *appending without clearing* — the same caller-owned-buffer
    /// contract as [`Controller::handle_into`]. The shards' buffers keep
    /// their capacity, so a steady-state drain allocates nothing.
    pub fn drain_actions_into(&mut self, out: &mut Vec<Action>) {
        for shard in &mut self.shards {
            out.append(&mut shard.pending);
        }
    }

    /// Aggregate lifetime counters, merged across shards with
    /// [`ControllerStats::merge`].
    pub fn stats(&self) -> ControllerStats {
        let mut total = ControllerStats::default();
        for s in &self.shards {
            total.merge(&s.controller.stats());
        }
        total
    }

    /// CPU time each shard's Controller spent inside batch/columnar
    /// ingest, in shard order.
    ///
    /// This is the per-shard critical path of telemetry processing: on a
    /// machine with one core per shard, aggregate ingest throughput is
    /// `total entries / max(per-shard busy)`. The capacity benchmark
    /// (`overhead_controller`) reports exactly that quotient.
    pub fn ingest_busy_per_shard(&self) -> Vec<Duration> {
        self.shards.iter().map(|s| s.ingest_busy).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocator::MAX_CONTAINER_ID;
    use crate::telemetry::ToAgent;
    use escra_cfs::{CpuPeriodStats, MIB};

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

    fn entry(c: u64) -> CpuStatsEntry {
        CpuStatsEntry {
            container: ContainerId::new(c),
            stats: throttled(1.0),
        }
    }

    #[test]
    fn routing_is_app_affine() {
        let s = sharded_with_apps(3, 6, 2);
        for a in 0..6u64 {
            assert_eq!(s.route_of(AppId::new(a)), (a % 3) as usize);
            for i in 0..2u64 {
                let container = ContainerId::new(a * 2 + i);
                assert_eq!(s.shard_of_container(container), (a % 3) as usize);
                assert_eq!(
                    s.shards[(a % 3) as usize]
                        .controller
                        .allocator()
                        .app_of(container),
                    Some(AppId::new(a))
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
        s.ingest_cpu_batch(&[entry(1)]);
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
        assert_eq!(s.shards[1].controller.stats().quota_updates, 1);
        assert_eq!(s.stats().quota_updates, 1);
        assert_eq!(s.stats().cpu_stats_ingested, 1);
    }

    #[test]
    fn unknown_telemetry_is_counted_and_ignored_like_sequential() {
        let mut s = sharded_with_apps(2, 2, 1);
        s.drain_actions_into(&mut Vec::new());
        s.ingest_cpu_batch(&[entry(99)]);
        let mut actions = Vec::new();
        s.drain_actions_into(&mut actions);
        assert!(actions.is_empty());
        assert_eq!(s.stats().cpu_stats_ingested, 1);
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
        for raw in [u64::MAX, u32::MAX as u64, MAX_CONTAINER_ID] {
            let id = ContainerId::new(raw);
            assert_eq!(
                s.register_container(id, AppId::new(1), NodeId::new(0), 1.0, 64 * MIB),
                Err(AllocatorError::ContainerIdOutOfRange(id))
            );
            let mut actions = Vec::new();
            s.drain_actions_into(&mut actions);
            assert!(actions.is_empty(), "no bootstrap for a reject");
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
        assert_eq!(s.shard_of_container(ContainerId::new(2)), 1);
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
        let c0 = ContainerId::new(0);
        let mut seq_actions = seq
            .register_container(c0, AppId::new(0), NodeId::new(0), 1.0, 64 * MIB)
            .unwrap();
        sharded
            .register_container(c0, AppId::new(0), NodeId::new(0), 1.0, 64 * MIB)
            .unwrap();
        for _ in 0..30 {
            let quota = seq.allocator().quota_of(c0).unwrap();
            let entries = [CpuStatsEntry {
                container: c0,
                stats: throttled(quota),
            }];
            seq.ingest_cpu_batch(&entries, &mut seq_actions);
            sharded.ingest_cpu_batch(&entries);
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
                by_rows.ingest_cpu_batch(&entries);
                by_cols.ingest_cpu_columns(&columns);
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
        for _ in 0..40 {
            let entries: Vec<CpuStatsEntry> = (0..6u64)
                .map(|c| CpuStatsEntry {
                    container: ContainerId::new(c),
                    stats: throttled(seq.allocator().quota_of(ContainerId::new(c)).unwrap()),
                })
                .collect();
            seq.ingest_cpu_batch(&entries, &mut seq_actions);
            sharded.ingest_cpu_batch(&entries);
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
        assert_eq!(s.ingest_busy_per_shard(), vec![Duration::ZERO; 3]);

        // A row batch for containers on shards {0, 2} leaves shard 1 idle.
        s.ingest_cpu_batch(&[0, 1, 4, 5].map(entry));
        let busy = s.ingest_busy_per_shard();
        assert!(busy[0] > Duration::ZERO);
        assert_eq!(busy[1], Duration::ZERO);
        assert!(busy[2] > Duration::ZERO);

        // A columnar block for shard 1's containers clocks shard 1 only.
        s.ingest_cpu_columns(&CpuStatsColumns::from_entries(&[2, 3].map(entry)));
        let after = s.ingest_busy_per_shard();
        assert_eq!((after[0], after[2]), (busy[0], busy[2]));
        assert!(after[1] > Duration::ZERO);
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
