//! Multi-tenant isolation (paper §VII): one Controller managing two
//! applications must keep their Distributed Containers isolated — a
//! throttling tenant can only grow into *its own* pool, and one tenant's
//! OOM pressure cannot drain another tenant's memory.

use escra::cfs::{CpuPeriodStats, MIB};
use escra::cluster::{AppId, ContainerId, NodeId};
use escra::core::telemetry::ToController;
use escra::core::{Action, Controller, EscraConfig, ToAgent};
use escra::simcore::time::SimTime;

const TENANT_A: AppId = AppId::new(0);
const TENANT_B: AppId = AppId::new(1);
const NODE: NodeId = NodeId::new(0);

fn two_tenant_controller() -> Controller {
    let mut c = Controller::new(EscraConfig::default());
    c.register_app(TENANT_A, 4.0, 1024 * MIB);
    c.register_app(TENANT_B, 4.0, 1024 * MIB);
    // Two containers each, fully allocating tenant A, half of tenant B.
    c.register_container(ContainerId::new(0), TENANT_A, NODE, 2.0, 256 * MIB)
        .expect("register");
    c.register_container(ContainerId::new(1), TENANT_A, NODE, 2.0, 256 * MIB)
        .expect("register");
    c.register_container(ContainerId::new(10), TENANT_B, NODE, 1.0, 256 * MIB)
        .expect("register");
    c.register_container(ContainerId::new(11), TENANT_B, NODE, 1.0, 256 * MIB)
        .expect("register");
    c
}

fn throttled(quota: f64) -> CpuPeriodStats {
    CpuPeriodStats {
        quota_cores: quota,
        usage_us: quota * 100_000.0,
        unused_runtime_us: 0.0,
        throttled: true,
    }
}

#[test]
fn throttled_tenant_cannot_take_from_the_other_pool() {
    let mut c = two_tenant_controller();
    // Tenant A is fully allocated: throttles must not yield grants even
    // though tenant B has 2 unallocated cores sitting right there.
    let mut actions = Vec::new();
    for _ in 0..10 {
        c.handle_into(
            SimTime::ZERO,
            ToController::CpuStats {
                container: ContainerId::new(0),
                stats: throttled(2.0),
            },
            &mut actions,
        );
        assert!(
            actions.is_empty(),
            "tenant A must not receive CPU while its own pool is empty"
        );
    }
    let pool_b = c.allocator().app_pool(TENANT_B).expect("tenant B");
    assert!((pool_b.unallocated_cpu_cores() - 2.0).abs() < 1e-9);
    assert!(c.allocator().tracked_cpu_sum(TENANT_A) <= 4.0 + 1e-9);
}

#[test]
fn tenant_with_headroom_still_scales() {
    let mut c = two_tenant_controller();
    // Tenant B has 2 unallocated cores; its throttled container grows.
    let mut actions = Vec::new();
    c.handle_into(
        SimTime::ZERO,
        ToController::CpuStats {
            container: ContainerId::new(10),
            stats: throttled(1.0),
        },
        &mut actions,
    );
    assert_eq!(actions.len(), 1);
    match actions[0] {
        Action::Agent {
            cmd: ToAgent::SetCpuQuota { quota_cores, .. },
            ..
        } => assert!(quota_cores > 1.0),
        other => panic!("unexpected action {other:?}"),
    }
    // Tenant A's accounting is untouched.
    assert!((c.allocator().tracked_cpu_sum(TENANT_A) - 4.0).abs() < 1e-9);
}

#[test]
fn oom_grants_come_from_the_owners_pool_only() {
    let mut c = two_tenant_controller();
    let before_b = c
        .allocator()
        .app_pool(TENANT_B)
        .expect("tenant B")
        .unallocated_mem_bytes();
    // Tenant A container OOMs; its pool has 512 MiB headroom.
    let mut actions = Vec::new();
    c.handle_into(
        SimTime::ZERO,
        ToController::OomEvent {
            container: ContainerId::new(0),
            shortfall_bytes: MIB,
            current_limit_bytes: 256 * MIB,
        },
        &mut actions,
    );
    assert!(matches!(
        actions[0],
        Action::Agent {
            cmd: ToAgent::SetMemLimit { .. },
            ..
        }
    ));
    let after_b = c
        .allocator()
        .app_pool(TENANT_B)
        .expect("tenant B")
        .unallocated_mem_bytes();
    assert_eq!(
        before_b, after_b,
        "tenant B's memory pool must be untouched"
    );
    let pool_a = c.allocator().app_pool(TENANT_A).expect("tenant A");
    assert!(pool_a.unallocated_mem_bytes() < 512 * MIB);
}

#[test]
fn released_capacity_stays_within_the_tenant() {
    let mut c = two_tenant_controller();
    // Tenant A container 1 goes idle and shrinks...
    let idle = CpuPeriodStats {
        quota_cores: 2.0,
        usage_us: 10_000.0,
        unused_runtime_us: 190_000.0,
        throttled: false,
    };
    let mut actions = Vec::new();
    c.handle_into(
        SimTime::ZERO,
        ToController::CpuStats {
            container: ContainerId::new(1),
            stats: idle,
        },
        &mut actions,
    );
    let freed = c
        .allocator()
        .app_pool(TENANT_A)
        .expect("tenant A")
        .unallocated_cpu_cores();
    assert!(freed > 0.5, "scale-down must free tenant A capacity");
    // ...and tenant A's other container can now grow into it.
    actions.clear();
    c.handle_into(
        SimTime::ZERO,
        ToController::CpuStats {
            container: ContainerId::new(0),
            stats: throttled(2.0),
        },
        &mut actions,
    );
    assert!(
        !actions.is_empty(),
        "freed capacity is usable within the tenant"
    );
}
