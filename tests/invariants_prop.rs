//! Property-based tests on the core data structures and allocation
//! invariants.

use escra::cfs::node::{arbitrate, arbitrate_weighted};
use escra::cfs::{ChargeOutcome, CpuBandwidth, MemCgroup};
use escra::cluster::{AppId, ContainerId, NodeId};
use escra::core::allocator::ResourceAllocator;
use escra::core::telemetry::ToController;
use escra::core::{Action, Controller, CpuStatsEntry, EscraConfig, ToAgent};
use escra::net::{Addr, FaultDecision, FaultInjector, FaultPlan};
use escra::simcore::histogram::LogHistogram;
use escra::simcore::stats::percentile;
use escra::simcore::time::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::BTreeMap;

proptest! {
    /// Max–min arbitration: conserving, bounded by demand, and
    /// work-conserving when oversubscribed.
    #[test]
    fn arbitrate_is_fair_and_conserving(
        capacity in 0.0f64..1_000.0,
        demands in proptest::collection::vec(0.0f64..500.0, 0..20),
    ) {
        let grants = arbitrate(capacity, &demands);
        prop_assert_eq!(grants.len(), demands.len());
        let total: f64 = grants.iter().sum();
        prop_assert!(total <= capacity + 1e-6);
        for (g, d) in grants.iter().zip(demands.iter()) {
            prop_assert!(*g >= -1e-12 && *g <= d + 1e-9);
        }
        let want: f64 = demands.iter().sum();
        if want > capacity {
            prop_assert!((total - capacity).abs() < 1e-6, "work conserving");
        } else {
            prop_assert!((total - want).abs() < 1e-6, "fully satisfied");
        }
    }

    /// Weighted arbitration degenerates to the unweighted one for equal
    /// weights.
    #[test]
    fn weighted_equals_unweighted_for_equal_weights(
        capacity in 0.0f64..100.0,
        demands in proptest::collection::vec(0.0f64..50.0, 1..10),
    ) {
        let w = vec![1.0; demands.len()];
        let a = arbitrate(capacity, &demands);
        let b = arbitrate_weighted(capacity, &demands, &w);
        for (x, y) in a.iter().zip(b.iter()) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    /// CFS bandwidth accounting: usage never exceeds quota per period and
    /// the throttle flag is exactly "asked for more than remained".
    #[test]
    fn cfs_usage_bounded_by_quota(
        quota in 0.05f64..16.0,
        requests in proptest::collection::vec(0.0f64..100_000.0, 1..20),
    ) {
        let mut bw = CpuBandwidth::new(quota);
        let mut wanted = 0.0;
        for r in &requests {
            wanted += r;
            bw.consume(*r);
        }
        let stats = bw.end_period();
        let quota_us = quota * 100_000.0;
        prop_assert!(stats.usage_us <= quota_us + 1e-6);
        prop_assert!((stats.usage_us + stats.unused_runtime_us - quota_us).abs() < 1e-6);
        prop_assert_eq!(stats.throttled, wanted > quota_us + 1e-9);
    }

    /// Memory cgroup: charges and uncharges never corrupt accounting and
    /// a would-OOM leaves usage untouched.
    #[test]
    fn mem_cgroup_accounting(
        limit_mib in 1u64..1024,
        ops in proptest::collection::vec((any::<bool>(), 0u64..512), 1..50),
    ) {
        let limit = limit_mib * 1024 * 1024;
        let mut m = MemCgroup::new(limit);
        let mut shadow: u64 = 0;
        for (charge, mib) in ops {
            let bytes = mib * 1024 * 1024;
            if charge {
                match m.try_charge(bytes) {
                    ChargeOutcome::Charged => shadow += bytes,
                    ChargeOutcome::WouldOom { shortfall_bytes } => {
                        prop_assert_eq!(shadow + bytes - limit, shortfall_bytes);
                    }
                }
            } else {
                m.uncharge(bytes);
                shadow = shadow.saturating_sub(bytes);
            }
            prop_assert_eq!(m.usage_bytes(), shadow);
            prop_assert!(m.usage_bytes() <= m.limit_bytes());
        }
    }

    /// The allocator's pool accounting is conserved under arbitrary
    /// telemetry: Σ tracked quotas == pool allocated, never above Ω.
    #[test]
    fn allocator_conserves_the_pool(
        omega in 2.0f64..64.0,
        events in proptest::collection::vec(
            (0u64..8, 0.0f64..4.0, any::<bool>()),
            1..200,
        ),
    ) {
        let app = AppId::new(0);
        let mut alloc = ResourceAllocator::new(EscraConfig::default());
        alloc.register_app(app, omega, 8 << 30);
        for i in 0..8u64 {
            alloc
                .register_container(
                    ContainerId::new(i),
                    app,
                    NodeId::new(i % 3),
                    omega / 8.0,
                    128 << 20,
                )
                .expect("register");
        }
        for (cid, usage, throttled) in events {
            let container = ContainerId::new(cid);
            let quota = alloc.quota_of(container).expect("tracked");
            let usage = usage.min(quota);
            let stats = escra::cfs::CpuPeriodStats {
                quota_cores: quota,
                usage_us: usage * 100_000.0,
                unused_runtime_us: (quota - usage) * 100_000.0,
                throttled,
            };
            alloc.on_cpu_stats(container, stats).expect("tracked");
            let pool = alloc.app_pool(app).expect("app");
            let tracked = alloc.tracked_cpu_sum(app);
            prop_assert!((tracked - pool.allocated_cpu_cores()).abs() < 1e-6);
            prop_assert!(tracked <= omega + 1e-6);
            prop_assert!(alloc.quota_of(container).expect("tracked") >= 0.05 - 1e-9);
        }
    }

    /// Memory pool conservation under OOM grants and reclamation.
    #[test]
    fn allocator_mem_pool_conserved(
        ops in proptest::collection::vec((0u64..4, 0u64..256, any::<bool>()), 1..100),
    ) {
        let app = AppId::new(0);
        let global: u64 = 4 << 30;
        let mut alloc = ResourceAllocator::new(EscraConfig::default());
        alloc.register_app(app, 8.0, global);
        for i in 0..4u64 {
            alloc
                .register_container(ContainerId::new(i), app, NodeId::new(0), 1.0, 512 << 20)
                .expect("register");
        }
        for (cid, mib, grow) in ops {
            let container = ContainerId::new(cid);
            if grow {
                let _ = alloc.on_oom(container, mib * 1024 * 1024);
            } else {
                let current = alloc.mem_limit_of(container).expect("tracked");
                let target = current.saturating_sub(mib * 1024 * 1024).max(1);
                alloc.apply_reclaim(container, target).expect("tracked");
            }
            let pool = alloc.app_pool(app).expect("app");
            prop_assert_eq!(alloc.tracked_mem_sum(app), pool.allocated_mem_bytes());
            prop_assert!(pool.allocated_mem_bytes() <= global);
        }
    }

    /// The Controller's pool books are conserved under an arbitrarily
    /// faulty control plane: whatever the fabric drops, duplicates or
    /// delays, after every event Σ tracked CPU quotas equals the pool's
    /// allocated total and never exceeds Ω, and likewise for memory.
    ///
    /// The "world" here is a shadow of the Agents: per-container applied
    /// limits behind a [`FaultInjector`], with the same per-resource
    /// sequence filtering a real Agent does. OOM events report the
    /// *shadow* limit, so lost grants genuinely surface as stale
    /// `current_limit_bytes` and exercise reconciliation and retry.
    #[test]
    fn controller_books_survive_a_faulty_control_plane(
        seed in any::<u64>(),
        loss in 0.0f64..0.6,
        dup in 0.0f64..0.4,
        spike in 0.0f64..0.4,
        events in proptest::collection::vec(
            (0u64..6, 0.0f64..1.5, any::<bool>(), any::<bool>()),
            1..120,
        ),
    ) {
        const N: u64 = 6;
        let omega = 12.0f64;
        let global_mem: u64 = 4 << 30;
        let app = AppId::new(0);
        let mut ctl = Controller::new(EscraConfig::default());
        ctl.register_app(app, omega, global_mem);

        // Shadow Agent state: applied (quota, limit) + last seq per resource.
        let mut shadow_mem: BTreeMap<ContainerId, (u64, u64)> = BTreeMap::new();
        let mut shadow_cpu_seq: BTreeMap<ContainerId, u64> = BTreeMap::new();
        for i in 0..N {
            let cid = ContainerId::new(i);
            let actions = ctl
                .register_container(cid, app, NodeId::new(i % 2), omega / N as f64, 256 << 20)
                .expect("register");
            for a in actions {
                if let Action::Agent { cmd: ToAgent::SetMemLimit { limit_bytes, seq, .. }, .. } = a {
                    shadow_mem.insert(cid, (limit_bytes, seq));
                }
            }
        }

        let plan = FaultPlan::none()
            .with_loss(loss)
            .with_duplicates(dup)
            .with_delay_spikes(spike, SimDuration::from_millis(700));
        let mut fabric = FaultInjector::new(plan, seed);
        let ctl_addr = Addr::from_raw(0);
        let node_addr = |n: NodeId| Addr::from_raw(1 + n.as_u64());

        let mut now = SimTime::ZERO;
        let mut acks: Vec<ToController> = Vec::new();
        for (cid, usage_frac, throttled, oom) in events {
            now += SimDuration::from_millis(100);
            let container = ContainerId::new(cid % N);
            let msg = if oom {
                let (limit, _) = shadow_mem[&container];
                ToController::OomEvent {
                    container,
                    shortfall_bytes: 8 << 20,
                    current_limit_bytes: limit,
                }
            } else {
                let quota = ctl.allocator().quota_of(container).expect("tracked");
                let usage = quota * usage_frac.min(1.0);
                ToController::CpuStats {
                    container,
                    stats: escra::cfs::CpuPeriodStats {
                        quota_cores: quota,
                        usage_us: usage * 100_000.0,
                        unused_runtime_us: (quota - usage) * 100_000.0,
                        throttled,
                    },
                }
            };
            let mut actions = Vec::new();
            ctl.handle_into(now, msg, &mut actions);
            for ack in acks.drain(..) {
                ctl.handle_into(now, ack, &mut actions);
            }
            ctl.tick_into(now, &mut actions);
            // Deliver Agent commands through the faulty fabric into the
            // shadow world; empty reclaim reports may kill pending OOMs.
            let mut saw_reclaim = false;
            for a in actions {
                match a {
                    Action::Agent { node, cmd } => {
                        let decision = fabric.decide(now, ctl_addr, node_addr(node));
                        let copies = match decision {
                            FaultDecision::Drop => 0,
                            FaultDecision::Deliver { copies, .. } => copies,
                        };
                        for _ in 0..copies {
                            match cmd {
                                ToAgent::SetMemLimit { container, limit_bytes, seq } => {
                                    let entry = shadow_mem.entry(container).or_insert((0, 0));
                                    if seq > entry.1 {
                                        *entry = (limit_bytes, seq);
                                        acks.push(ToController::LimitAck { container, seq });
                                    }
                                }
                                ToAgent::SetCpuQuota { container, seq, .. } => {
                                    let last = shadow_cpu_seq.entry(container).or_insert(0);
                                    if seq > *last {
                                        *last = seq;
                                    }
                                }
                                ToAgent::ReclaimMemory { .. } => saw_reclaim = true,
                            }
                        }
                    }
                    Action::KillContainer(_) => {}
                }
            }
            if saw_reclaim {
                for a in ctl.on_reclaim_report(now, &[]) {
                    if let Action::KillContainer(_) = a {}
                }
            }
            // The books must balance no matter what the fabric did.
            let pool = ctl.allocator().app_pool(app).expect("app");
            let tracked_cpu = ctl.allocator().tracked_cpu_sum(app);
            prop_assert!((tracked_cpu - pool.allocated_cpu_cores()).abs() < 1e-6);
            prop_assert!(tracked_cpu <= omega + 1e-6);
            let tracked_mem = ctl.allocator().tracked_mem_sum(app);
            prop_assert_eq!(tracked_mem, pool.allocated_mem_bytes());
            prop_assert!(tracked_mem <= global_mem);
        }
    }

    /// Per-node telemetry batching is a pure wire optimisation: a
    /// Controller fed `CpuStatsBatch` messages makes decision-for-decision
    /// the same choices as one fed the same entries as individual
    /// `CpuStats` messages in batch order — same Actions (with the same
    /// seqs), same ControllerStats, same pool accounting — for arbitrary
    /// telemetry sequences, OOM interleavings, and fault plans applied to
    /// the outgoing command stream.
    #[test]
    fn batched_ingest_is_decision_identical_to_singles(
        seed in any::<u64>(),
        loss in 0.0f64..0.6,
        dup in 0.0f64..0.4,
        spike in 0.0f64..0.4,
        rounds in proptest::collection::vec(
            (any::<u8>(), any::<u64>(), any::<u8>(), any::<bool>(), 0u64..6),
            1..80,
        ),
    ) {
        const N: u64 = 6;
        let app = AppId::new(0);
        let mk = || {
            let mut c = Controller::new(EscraConfig::default());
            c.register_app(app, 12.0, 4 << 30);
            for i in 0..N {
                c.register_container(ContainerId::new(i), app, NodeId::new(i % 2), 2.0, 256 << 20)
                    .expect("register");
            }
            c
        };
        let mut single = mk();
        let mut batched = mk();

        let plan = FaultPlan::none()
            .with_loss(loss)
            .with_duplicates(dup)
            .with_delay_spikes(spike, SimDuration::from_millis(700));
        let mut fabric = FaultInjector::new(plan, seed);
        let ctl_addr = Addr::from_raw(0);
        let node_addr = |n: NodeId| Addr::from_raw(1 + n.as_u64());

        // Shadow Agent limits: (applied limit, last seq) per container.
        let mut shadow_mem: BTreeMap<ContainerId, (u64, u64)> = BTreeMap::new();
        let mut feedback: Vec<ToController> = Vec::new();
        let mut now = SimTime::ZERO;

        for (mask, usage_seed, throttle_mask, oom, oom_cid) in rounds {
            now += SimDuration::from_millis(100);
            // Per-node batches in container order, exactly as the
            // harness's Agents coalesce them.
            let mut batches: Vec<Vec<CpuStatsEntry>> = vec![Vec::new(); 2];
            for i in 0..N {
                if mask & (1 << i) == 0 {
                    continue;
                }
                let container = ContainerId::new(i);
                let qa = single.allocator().quota_of(container).expect("tracked");
                let qb = batched.allocator().quota_of(container).expect("tracked");
                prop_assert_eq!(qa.to_bits(), qb.to_bits(), "quota divergence at {}", container);
                let frac = ((usage_seed >> (8 * i)) & 0xFF) as f64 / 255.0;
                let usage = qa * frac;
                let stats = escra::cfs::CpuPeriodStats {
                    quota_cores: qa,
                    usage_us: usage * 100_000.0,
                    unused_runtime_us: (qa - usage) * 100_000.0,
                    throttled: throttle_mask & (1 << i) != 0,
                };
                batches[(i % 2) as usize].push(CpuStatsEntry { container, stats });
            }
            let mut acts_single: Vec<Action> = Vec::new();
            let mut acts_batched: Vec<Action> = Vec::new();
            for (n, entries) in batches.iter().enumerate() {
                if entries.is_empty() {
                    continue;
                }
                for e in entries {
                    single.handle_into(
                        now,
                        ToController::CpuStats { container: e.container, stats: e.stats },
                        &mut acts_single,
                    );
                }
                batched.handle_into(
                    now,
                    ToController::CpuStatsBatch {
                        node: NodeId::new(n as u64),
                        entries: entries.clone(),
                    },
                    &mut acts_batched,
                );
            }
            // OOM events report the shadow limit (so lost grants surface
            // as stale limits); acks from the last round's deliveries go
            // to both controllers as identical messages.
            if oom {
                let container = ContainerId::new(oom_cid % N);
                let limit = shadow_mem
                    .get(&container)
                    .map(|(l, _)| *l)
                    .unwrap_or_else(|| {
                        single.allocator().mem_limit_of(container).expect("tracked")
                    });
                let msg = ToController::OomEvent {
                    container,
                    shortfall_bytes: 8 << 20,
                    current_limit_bytes: limit,
                };
                single.handle_into(now, msg.clone(), &mut acts_single);
                batched.handle_into(now, msg, &mut acts_batched);
            }
            for msg in feedback.drain(..) {
                single.handle_into(now, msg.clone(), &mut acts_single);
                batched.handle_into(now, msg, &mut acts_batched);
            }
            single.tick_into(now, &mut acts_single);
            batched.tick_into(now, &mut acts_batched);
            prop_assert_eq!(&acts_single, &acts_batched, "action divergence");
            prop_assert_eq!(single.stats(), batched.stats());

            // The action streams are equal, so one shadow world serves
            // both; the fault fabric decides each command's fate once.
            let mut saw_reclaim = false;
            for a in acts_single {
                if let Action::Agent { node, cmd } = a {
                    let copies = match fabric.decide(now, ctl_addr, node_addr(node)) {
                        FaultDecision::Drop => 0,
                        FaultDecision::Deliver { copies, .. } => copies,
                    };
                    for _ in 0..copies {
                        match cmd {
                            ToAgent::SetMemLimit { container, limit_bytes, seq } => {
                                let entry = shadow_mem.entry(container).or_insert((0, 0));
                                if seq > entry.1 {
                                    *entry = (limit_bytes, seq);
                                    feedback.push(ToController::LimitAck { container, seq });
                                }
                            }
                            ToAgent::SetCpuQuota { .. } => {}
                            ToAgent::ReclaimMemory { .. } => saw_reclaim = true,
                        }
                    }
                }
            }
            if saw_reclaim {
                let ra = single.on_reclaim_report(now, &[]);
                let rb = batched.on_reclaim_report(now, &[]);
                prop_assert_eq!(ra, rb);
            }

            // Pool accounting and pending-grant books match bit for bit.
            let pa = single.allocator().app_pool(app).expect("app");
            let pb = batched.allocator().app_pool(app).expect("app");
            prop_assert_eq!(
                pa.allocated_cpu_cores().to_bits(),
                pb.allocated_cpu_cores().to_bits()
            );
            prop_assert_eq!(pa.allocated_mem_bytes(), pb.allocated_mem_bytes());
            prop_assert_eq!(
                single.allocator().tracked_cpu_sum(app).to_bits(),
                batched.allocator().tracked_cpu_sum(app).to_bits()
            );
            prop_assert_eq!(
                single.allocator().tracked_mem_sum(app),
                batched.allocator().tracked_mem_sum(app)
            );
            prop_assert_eq!(single.pending_grant_count(), batched.pending_grant_count());
        }
    }

    /// The log histogram's percentiles track exact percentiles within its
    /// documented relative error.
    #[test]
    fn histogram_matches_exact_percentiles(
        values in proptest::collection::vec(0.001f64..1e6, 10..500),
        p in 1.0f64..99.0,
    ) {
        let mut h = LogHistogram::new();
        for v in &values {
            h.record(*v);
        }
        let exact = percentile(&values, p);
        let approx = h.percentile(p);
        let rel = (approx - exact).abs() / exact.max(1e-9);
        // Bucket resolution is ~1.5%; ties at bucket edges can double it.
        prop_assert!(rel < 0.05, "p{p}: exact {exact} vs approx {approx}");
    }
}
