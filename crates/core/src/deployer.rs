//! The Application Deployer (paper §IV-A).
//!
//! Ingests a Distributed Container configuration — a set of container
//! specs plus global CPU/memory limits — sends the global limits to the
//! Controller, and deploys the containers with initial limits
//!
//! ```text
//! cpu_init = global_cpu_limit / n_containers            (eq. 1)
//! mem_init = global_mem_limit · σ / n_containers        (eq. 2)
//! ```
//!
//! where σ withholds a fraction of the global memory for OOM grants.

use crate::config::EscraConfig;
use crate::controller::{Action, Controller};
use escra_cluster::{AppId, Cluster, ClusterError, ContainerId, ContainerSpec};
use escra_metrics::trace::TraceSink;
use escra_simcore::time::SimTime;

/// A Distributed Container configuration: the "set of YAML files" of
/// paper Fig. 1 ①.
#[derive(Debug, Clone)]
pub struct AppConfig {
    /// The application id.
    pub app: AppId,
    /// Human-readable name.
    pub name: String,
    /// Global (aggregate) CPU limit Ωl, in cores.
    pub global_cpu_cores: f64,
    /// Global (aggregate) memory limit, in bytes.
    pub global_mem_bytes: u64,
    /// Container specs to deploy. Their per-container limits are
    /// *overwritten* by the deployer's initial-limit formulas.
    pub containers: Vec<ContainerSpec>,
}

/// Initial CPU limit per container (eq. 1).
pub fn initial_cpu_limit(global_cpu_cores: f64, n_containers: usize) -> f64 {
    assert!(n_containers > 0, "application must have containers");
    global_cpu_cores / n_containers as f64
}

/// Initial memory limit per container (eq. 2).
pub fn initial_mem_limit(global_mem_bytes: u64, sigma: f64, n_containers: usize) -> u64 {
    assert!(n_containers > 0, "application must have containers");
    assert!((0.0..=1.0).contains(&sigma), "σ must be in [0,1]");
    ((global_mem_bytes as f64 * sigma) / n_containers as f64) as u64
}

/// Deploys an application under Escra management: registers the app's
/// global limits with the Controller, deploys every container with the
/// initial-limit formulas, and registers each container (the Container
/// Watcher + registration syscall path, compressed into one step — the
/// paper notes registration does not block container start-up).
///
/// Returns the deployed container ids and the bootstrap [`Action`]s the
/// Controller issued (to be applied through the Agents).
///
/// # Errors
///
/// Propagates [`ClusterError`] when placement fails.
///
/// # Panics
///
/// Panics if the config has no containers.
pub fn deploy_app<S: TraceSink>(
    cfg: &EscraConfig,
    config: &AppConfig,
    cluster: &mut Cluster,
    controller: &mut Controller<S>,
    now: SimTime,
) -> Result<(Vec<ContainerId>, Vec<Action>), ClusterError> {
    let n = config.containers.len();
    assert!(n > 0, "application {} has no containers", config.name);
    controller.register_app(config.app, config.global_cpu_cores, config.global_mem_bytes);
    controller.reserve_containers(n);

    let cpu_init = initial_cpu_limit(config.global_cpu_cores, n);
    let mem_init = initial_mem_limit(config.global_mem_bytes, cfg.sigma, n);

    let mut ids = Vec::with_capacity(n);
    let mut actions = Vec::new();
    for spec in &config.containers {
        // The deployer overwrites per-container limits with the formula
        // values, but a container's limit can never sit below its
        // resident set (the kernel would refuse the cgroup write).
        let mem = mem_init.max(spec.base_mem_bytes + cfg.min_mem_bytes);
        let mut spec = spec.clone();
        spec.app = config.app;
        spec.cpu_limit_cores = cpu_init.max(cfg.min_quota_cores);
        spec.mem_limit_bytes = mem;
        let id = cluster.deploy(spec, now)?;
        let node = cluster.container(id).expect("just deployed").node();
        if let Ok(mut acts) = controller.register_container(id, config.app, node, cpu_init, mem) {
            actions.append(&mut acts);
        }
        ids.push(id);
    }
    Ok((ids, actions))
}

#[cfg(test)]
mod tests {
    use super::*;
    use escra_cfs::MIB;
    use escra_cluster::NodeSpec;

    fn config(n: usize) -> AppConfig {
        AppConfig {
            app: AppId::new(0),
            name: "test-app".into(),
            global_cpu_cores: 8.0,
            global_mem_bytes: 2048 * MIB,
            containers: (0..n)
                .map(|i| ContainerSpec::new(format!("c{i}"), AppId::new(0)).with_base_mem(32 * MIB))
                .collect(),
        }
    }

    #[test]
    fn formulas_match_paper() {
        assert_eq!(initial_cpu_limit(8.0, 4), 2.0);
        assert_eq!(initial_mem_limit(1000, 0.8, 4), 200);
    }

    #[test]
    fn deploy_registers_everything() {
        let cfg = EscraConfig::default();
        let mut cluster = Cluster::new(vec![NodeSpec {
            cores: 16,
            mem_bytes: 32 << 30,
        }]);
        let mut controller = Controller::new(cfg.clone());
        let (ids, actions) = deploy_app(
            &cfg,
            &config(4),
            &mut cluster,
            &mut controller,
            SimTime::ZERO,
        )
        .unwrap();
        assert_eq!(ids.len(), 4);
        assert_eq!(actions.len(), 8); // quota + mem per container
        assert_eq!(controller.allocator().container_count(), 4);
        // Initial CPU: 8/4 = 2 cores each, fully allocating the pool.
        for id in &ids {
            assert_eq!(controller.allocator().quota_of(*id), Some(2.0));
            assert_eq!(cluster.container(*id).unwrap().cpu.quota_cores(), 2.0);
        }
        let pool = controller.allocator().app_pool(AppId::new(0)).unwrap();
        assert!(pool.unallocated_cpu_cores() < 1e-9);
        // Memory: σ=0.8 -> 0.8*2048/4 = 409 MiB each; 20% withheld.
        assert!(pool.unallocated_mem_bytes() >= (2048.0 * 0.2) as u64 * MIB);
    }

    #[test]
    fn mem_floor_respects_resident_set() {
        let cfg = EscraConfig::default();
        let mut c = config(4);
        c.global_mem_bytes = 64 * MIB; // formula would give 12.8 MiB each
        let mut cluster = Cluster::new(vec![NodeSpec {
            cores: 16,
            mem_bytes: 32 << 30,
        }]);
        let mut controller = Controller::new(cfg.clone());
        let (ids, _) = deploy_app(&cfg, &c, &mut cluster, &mut controller, SimTime::ZERO).unwrap();
        for id in ids {
            let limit = cluster.container(id).unwrap().mem.limit_bytes();
            assert!(limit >= 32 * MIB + cfg.min_mem_bytes);
        }
    }

    #[test]
    #[should_panic(expected = "has no containers")]
    fn empty_app_panics() {
        let cfg = EscraConfig::default();
        let mut cluster = Cluster::new(vec![NodeSpec {
            cores: 4,
            mem_bytes: 8 << 30,
        }]);
        let mut controller = Controller::new(cfg.clone());
        let empty = AppConfig {
            app: AppId::new(0),
            name: "empty".into(),
            global_cpu_cores: 1.0,
            global_mem_bytes: MIB,
            containers: vec![],
        };
        let _ = deploy_app(&cfg, &empty, &mut cluster, &mut controller, SimTime::ZERO);
    }
}
