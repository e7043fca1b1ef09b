//! The Distributed Container abstraction up close: two containers of one
//! tenant on *different nodes* share a global CPU limit at runtime — the
//! idle one is scaled down and the busy one takes over its allocation,
//! which admission-time Resource Quotas cannot do (paper §III).
//!
//! ```text
//! cargo run --release --example distributed_container
//! ```

use escra::cfs::MIB;
use escra::cluster::{AppId, Cluster, ContainerSpec, NodeSpec};
use escra::core::telemetry::ToController;
use escra::core::{deploy_app, Action, Agent, AppConfig, Controller, EscraConfig};
use escra::simcore::time::{SimDuration, SimTime};

fn main() {
    let cfg = EscraConfig::default();
    // Two single-core-ish workers; the app may use 2 cores in aggregate.
    let mut cluster = Cluster::new(vec![
        NodeSpec {
            cores: 4,
            mem_bytes: 8 << 30,
        },
        NodeSpec {
            cores: 4,
            mem_bytes: 8 << 30,
        },
    ]);
    let mut controller = Controller::new(cfg.clone());
    let app = AppConfig {
        app: AppId::new(0),
        name: "two-node-tenant".into(),
        global_cpu_cores: 2.0,
        global_mem_bytes: 1024 * MIB,
        containers: vec![
            ContainerSpec::new("busy", AppId::new(0)).with_restart_delay(SimDuration::ZERO),
            ContainerSpec::new("idle", AppId::new(0)).with_restart_delay(SimDuration::ZERO),
        ],
    };
    let (ids, mut actions) =
        deploy_app(&cfg, &app, &mut cluster, &mut controller, SimTime::ZERO).expect("deploy");
    let (busy, idle) = (ids[0], ids[1]);
    let mut agents: Vec<Agent> = cluster.nodes().iter().map(|n| Agent::new(n.id())).collect();
    let mut apply = |cluster: &mut Cluster, actions: &mut Vec<Action>| {
        for a in actions.drain(..) {
            if let Action::Agent { node, cmd } = a {
                agents[node.as_u64() as usize].apply(cluster, cmd);
            }
        }
    };
    apply(&mut cluster, &mut actions);
    cluster.tick(SimTime::ZERO);

    println!(
        "deployed: busy on {}, idle on {} — each starts with {} cores (Ω/n)",
        cluster.container(busy).unwrap().node(),
        cluster.container(idle).unwrap().node(),
        cluster.container(busy).unwrap().cpu.quota_cores()
    );

    // Drive 30 CFS periods: `busy` wants 1.8 cores, `idle` wants 0.05.
    let period = cfg.report_period;
    let period_us = period.as_micros() as f64;
    let mut now = SimTime::ZERO;
    for step in 0..30 {
        now += period;
        for (cid, demand_cores) in [(busy, 1.8), (idle, 0.05)] {
            let c = cluster.container_mut(cid).expect("container");
            let want = demand_cores * period_us;
            let got = c.cpu.consume(want);
            if got + 1e-9 < want {
                c.cpu.mark_throttled();
            }
            let stats = c.cpu.end_period();
            controller.handle_into(
                now,
                ToController::CpuStats {
                    container: cid,
                    stats,
                },
                &mut actions,
            );
            apply(&mut cluster, &mut actions);
        }
        if step % 5 == 4 {
            let q_busy = cluster.container(busy).unwrap().cpu.quota_cores();
            let q_idle = cluster.container(idle).unwrap().cpu.quota_cores();
            println!(
                "t={:>4}ms  busy quota {:.2} cores | idle quota {:.2} cores | Σ = {:.2} ≤ Ω = 2.0",
                now.as_millis(),
                q_busy,
                q_idle,
                q_busy + q_idle
            );
        }
    }
    let pool = controller.allocator().app_pool(AppId::new(0)).expect("app");
    println!(
        "\nfinal pool state: {:.2} cores allocated, {:.2} unallocated — the busy",
        pool.allocated_cpu_cores(),
        pool.unallocated_cpu_cores()
    );
    println!("container crossed hosts' worth of quota without any redeploy, while the");
    println!("aggregate never exceeded the Distributed Container limit.");
}
