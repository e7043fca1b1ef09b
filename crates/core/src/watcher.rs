//! The Container Watcher (paper Fig. 1 ①, §IV-A).
//!
//! "The Container Watcher integrates with Kubernetes to detect container
//! creation. Upon detection, the Watcher notifies the Agent located on
//! the same host as the newly created container" — which then runs the
//! registration syscall. Here the Watcher consumes the cluster's
//! lifecycle event feed and turns creations into Controller
//! registrations (and terminations into deregistrations), so containers
//! created *at runtime* — serverless pods, horizontal scale-ups — join
//! their application's Distributed Container automatically.

use crate::controller::{Action, Controller};
use escra_cluster::{Cluster, ContainerEvent, ContainerId};
use escra_metrics::trace::TraceSink;
use std::collections::BTreeSet;

/// Watches cluster lifecycle events and keeps the Controller's container
/// registry in sync.
#[derive(Debug, Default)]
pub struct ContainerWatcher {
    /// Containers the watcher has registered (so replays are idempotent).
    registered: BTreeSet<ContainerId>,
}

impl ContainerWatcher {
    /// Creates a watcher with no registered containers.
    pub fn new() -> Self {
        ContainerWatcher::default()
    }

    /// Number of containers currently registered through this watcher.
    pub fn registered_count(&self) -> usize {
        self.registered.len()
    }

    /// Drains the cluster's pending lifecycle events and applies them to
    /// the Controller: `Created` registers the container under its
    /// spec's application with its spec limits; `Terminated`
    /// deregisters. OOM-kill/restart events need no registry change
    /// (the paper keeps the per-container socket for the container's
    /// lifetime).
    ///
    /// Returns the Controller actions to carry out (initial limit
    /// writes for new containers).
    pub fn sync<S: TraceSink>(
        &mut self,
        cluster: &mut Cluster,
        controller: &mut Controller<S>,
    ) -> Vec<Action> {
        let events = cluster.drain_events();
        let mut actions = Vec::new();
        for (_at, event) in events {
            match event {
                ContainerEvent::Created(id, node) => {
                    if !self.registered.insert(id) {
                        continue;
                    }
                    let Some(spec) = cluster.spec(id) else {
                        continue;
                    };
                    if let Ok(mut acts) = controller.register_container(
                        id,
                        spec.app,
                        node,
                        spec.cpu_limit_cores,
                        spec.mem_limit_bytes,
                    ) {
                        actions.append(&mut acts);
                    }
                }
                ContainerEvent::Terminated(id) => {
                    if self.registered.remove(&id) {
                        let _ = controller.deregister_container(id);
                    }
                }
                ContainerEvent::OomKilled(_) | ContainerEvent::Restarted(_) => {}
            }
        }
        actions
    }

    /// Marks a container as already registered (used when the Deployer
    /// registered it directly at deploy time, so a later event replay
    /// does not double-register).
    pub fn mark_registered(&mut self, id: ContainerId) {
        self.registered.insert(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EscraConfig;
    use escra_cfs::MIB;
    use escra_cluster::{AppId, ContainerSpec, NodeSpec};
    use escra_simcore::time::SimTime;

    const APP: AppId = AppId::new(0);

    fn setup() -> (Cluster, Controller, ContainerWatcher) {
        let cluster = Cluster::new(vec![NodeSpec {
            cores: 8,
            mem_bytes: 16 << 30,
        }]);
        let mut controller = Controller::new(EscraConfig::default());
        controller.register_app(APP, 8.0, 2048 * MIB);
        (cluster, controller, ContainerWatcher::new())
    }

    #[test]
    fn created_containers_are_registered() {
        let (mut cluster, mut controller, mut watcher) = setup();
        let id = cluster
            .deploy(ContainerSpec::new("web", APP), SimTime::ZERO)
            .expect("deploy");
        let actions = watcher.sync(&mut cluster, &mut controller);
        assert_eq!(actions.len(), 2, "cpu + mem bootstrap actions");
        assert_eq!(watcher.registered_count(), 1);
        assert_eq!(controller.allocator().quota_of(id), Some(1.0));
    }

    #[test]
    fn sync_is_idempotent_on_replay() {
        let (mut cluster, mut controller, mut watcher) = setup();
        let id = cluster
            .deploy(ContainerSpec::new("web", APP), SimTime::ZERO)
            .expect("deploy");
        watcher.sync(&mut cluster, &mut controller);
        watcher.mark_registered(id); // explicit no-op on top
        let actions = watcher.sync(&mut cluster, &mut controller);
        assert!(actions.is_empty());
        assert_eq!(controller.allocator().container_count(), 1);
    }

    #[test]
    fn termination_deregisters_and_frees_the_pool() {
        let (mut cluster, mut controller, mut watcher) = setup();
        let id = cluster
            .deploy(ContainerSpec::new("web", APP), SimTime::ZERO)
            .expect("deploy");
        watcher.sync(&mut cluster, &mut controller);
        let before = controller
            .allocator()
            .app_pool(APP)
            .expect("app")
            .unallocated_cpu_cores();
        cluster
            .terminate(id, SimTime::from_secs(1))
            .expect("terminate");
        watcher.sync(&mut cluster, &mut controller);
        assert_eq!(watcher.registered_count(), 0);
        assert_eq!(controller.allocator().container_count(), 0);
        let after = controller
            .allocator()
            .app_pool(APP)
            .expect("app")
            .unallocated_cpu_cores();
        assert!(after > before, "terminated container's quota returns");
    }

    #[test]
    fn oom_kill_keeps_registration() {
        let (mut cluster, mut controller, mut watcher) = setup();
        let id = cluster
            .deploy(ContainerSpec::new("web", APP), SimTime::ZERO)
            .expect("deploy");
        watcher.sync(&mut cluster, &mut controller);
        cluster.oom_kill(id, SimTime::from_secs(1)).expect("kill");
        cluster.tick(SimTime::from_secs(5));
        watcher.sync(&mut cluster, &mut controller);
        // The per-container socket persists across restarts (§IV-B).
        assert_eq!(controller.allocator().container_count(), 1);
        assert_eq!(watcher.registered_count(), 1);
    }
}
