//! Container instances: cgroups plus lifecycle.

use crate::ids::{AppId, NodeId};
use escra_cfs::cpu::CpuBandwidth;
use escra_cfs::memory::MemCgroup;
use escra_simcore::time::{SimDuration, SimTime};
use serde::Serialize;

/// Static description of a container to deploy (the YAML the paper's
/// Application Deployer ingests, reduced to what the simulation needs).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ContainerSpec {
    /// Human-readable name, e.g. `"frontend"` or `"user-service-3"`.
    pub name: String,
    /// The application (Distributed Container) this container belongs to.
    pub app: AppId,
    /// Initial CPU limit in cores.
    pub cpu_limit_cores: f64,
    /// Initial memory limit in bytes.
    pub mem_limit_bytes: u64,
    /// Base (resident) memory footprint in bytes, charged at start.
    pub base_mem_bytes: u64,
    /// Time to restart after a kill (image pull + init), i.e. the cost an
    /// OOM kill inflicts that Escra's OOM trap avoids.
    pub restart_delay: SimDuration,
}

impl ContainerSpec {
    /// Creates a spec with sensible defaults: 1-core / 256 MiB limits,
    /// 64 MiB resident, 2 s restart delay.
    pub fn new(name: impl Into<String>, app: AppId) -> Self {
        ContainerSpec {
            name: name.into(),
            app,
            cpu_limit_cores: 1.0,
            mem_limit_bytes: 256 * escra_cfs::MIB,
            base_mem_bytes: 64 * escra_cfs::MIB,
            restart_delay: SimDuration::from_secs(2),
        }
    }

    /// Sets the initial CPU limit (builder style).
    pub fn with_cpu_limit(mut self, cores: f64) -> Self {
        self.cpu_limit_cores = cores;
        self
    }

    /// Sets the initial memory limit (builder style).
    pub fn with_mem_limit(mut self, bytes: u64) -> Self {
        self.mem_limit_bytes = bytes;
        self
    }

    /// Sets the resident memory footprint (builder style).
    pub fn with_base_mem(mut self, bytes: u64) -> Self {
        self.base_mem_bytes = bytes;
        self
    }

    /// Sets the restart delay (builder style).
    pub fn with_restart_delay(mut self, delay: SimDuration) -> Self {
        self.restart_delay = delay;
        self
    }
}

/// Lifecycle state of a container.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum ContainerState {
    /// Starting (cold start / restart); becomes `Running` at the instant.
    Starting {
        /// When the container becomes ready.
        ready_at: SimTime,
    },
    /// Running and schedulable.
    Running,
    /// Terminated and not coming back (scaled to zero or evicted).
    Terminated,
}

/// A live container instance: lifecycle, placement, cgroups.
///
/// Only what the per-period passes and the restart path touch lives
/// here, hot fields first: every simulated period walks every
/// container, so the struct's size is the footprint of those walks. The
/// deploy-time [`ContainerSpec`] stays with the [`Cluster`](crate::Cluster)
/// ([`Cluster::spec`](crate::Cluster::spec)), and a container's id is its
/// index there.
#[derive(Debug, Clone)]
#[repr(C)]
pub struct Container {
    state: ContainerState,
    node: NodeId,
    /// The CFS bandwidth cgroup (public within the workspace: the harness
    /// drives `consume`/`end_period` directly each simulated period).
    pub cpu: CpuBandwidth,
    /// The memory cgroup.
    pub mem: MemCgroup,
    /// The spec's resident footprint, recharged on every restart.
    base_mem_bytes: u64,
    /// The spec's restart delay.
    restart_delay: SimDuration,
    oom_kills: u64,
    restarts: u64,
}

impl Container {
    /// Creates a container in `Starting` state on `node`, ready after the
    /// spec's restart delay from `now` (initial cold start).
    pub fn new(spec: &ContainerSpec, node: NodeId, now: SimTime) -> Self {
        let cpu = CpuBandwidth::new(spec.cpu_limit_cores);
        let mut mem = MemCgroup::new(spec.mem_limit_bytes);
        // Resident set charged up front; specs must be self-consistent.
        assert!(
            spec.base_mem_bytes <= spec.mem_limit_bytes,
            "base memory {} exceeds limit {} for {}",
            spec.base_mem_bytes,
            spec.mem_limit_bytes,
            spec.name
        );
        let charged = mem.try_charge(spec.base_mem_bytes);
        debug_assert!(charged.is_charged());
        Container {
            state: ContainerState::Starting {
                ready_at: now + spec.restart_delay,
            },
            node,
            cpu,
            mem,
            base_mem_bytes: spec.base_mem_bytes,
            restart_delay: spec.restart_delay,
            oom_kills: 0,
            restarts: 0,
        }
    }

    /// The node hosting this container.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Current lifecycle state.
    pub fn state(&self) -> ContainerState {
        self.state
    }

    /// True if the container can execute work at `now` (running, or a
    /// start that has become ready — callers should [`Container::tick`]
    /// first to promote it).
    pub fn is_running(&self) -> bool {
        matches!(self.state, ContainerState::Running)
    }

    /// Number of OOM kills suffered.
    pub fn oom_kills(&self) -> u64 {
        self.oom_kills
    }

    /// Number of restarts (including after OOM kills).
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Advances lifecycle: promotes `Starting` to `Running` once ready.
    pub fn tick(&mut self, now: SimTime) {
        if let ContainerState::Starting { ready_at } = self.state {
            if now >= ready_at {
                self.state = ContainerState::Running;
            }
        }
    }

    /// OOM-kills the container: usage resets to the base footprint and the
    /// container restarts after its restart delay. This is the fate Escra's
    /// OOM trap avoids (vanilla autoscalers let it happen).
    pub fn oom_kill(&mut self, now: SimTime) {
        self.oom_kills += 1;
        self.restarts += 1;
        self.mem.reset_usage();
        let charged = self
            .mem
            .try_charge(self.base_mem_bytes.min(self.mem.limit_bytes()));
        debug_assert!(charged.is_charged());
        self.state = ContainerState::Starting {
            ready_at: now + self.restart_delay,
        };
    }

    /// Restarts the container without an OOM (a VPA-style resize, which
    /// cannot resize in place): usage resets to the base footprint and
    /// the container is unavailable for its restart delay.
    pub fn restart(&mut self, now: SimTime) {
        self.restarts += 1;
        self.mem.reset_usage();
        let charged = self
            .mem
            .try_charge(self.base_mem_bytes.min(self.mem.limit_bytes()));
        debug_assert!(charged.is_charged());
        self.state = ContainerState::Starting {
            ready_at: now + self.restart_delay,
        };
    }

    /// Terminates the container permanently (scale-to-zero / teardown).
    pub fn terminate(&mut self) {
        self.state = ContainerState::Terminated;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use escra_cfs::MIB;

    fn spec() -> ContainerSpec {
        ContainerSpec::new("c", AppId::new(0))
            .with_cpu_limit(2.0)
            .with_mem_limit(128 * MIB)
            .with_base_mem(32 * MIB)
            .with_restart_delay(SimDuration::from_secs(1))
    }

    #[test]
    fn starts_cold_then_runs() {
        let mut c = Container::new(&spec(), NodeId::new(0), SimTime::ZERO);
        assert!(!c.is_running());
        c.tick(SimTime::from_millis(999));
        assert!(!c.is_running());
        c.tick(SimTime::from_secs(1));
        assert!(c.is_running());
        assert_eq!(c.mem.usage_bytes(), 32 * MIB);
    }

    #[test]
    fn oom_kill_resets_and_restarts() {
        let mut c = Container::new(&spec(), NodeId::new(0), SimTime::ZERO);
        c.tick(SimTime::from_secs(1));
        c.mem.try_charge(64 * MIB);
        c.oom_kill(SimTime::from_secs(5));
        assert_eq!(c.oom_kills(), 1);
        assert_eq!(c.restarts(), 1);
        assert!(!c.is_running());
        assert_eq!(c.mem.usage_bytes(), 32 * MIB); // back to base
        c.tick(SimTime::from_secs(6));
        assert!(c.is_running());
    }

    #[test]
    fn terminate_is_permanent() {
        let mut c = Container::new(&spec(), NodeId::new(0), SimTime::ZERO);
        c.terminate();
        c.tick(SimTime::from_secs(100));
        assert!(!c.is_running());
        assert_eq!(c.state(), ContainerState::Terminated);
    }

    #[test]
    #[should_panic(expected = "base memory")]
    fn inconsistent_spec_panics() {
        let bad = ContainerSpec::new("bad", AppId::new(0))
            .with_mem_limit(MIB)
            .with_base_mem(2 * MIB);
        Container::new(&bad, NodeId::new(0), SimTime::ZERO);
    }

    #[test]
    fn the_per_period_state_stays_within_three_cache_lines() {
        // Every simulated period walks every container: growing this
        // struct grows the footprint of those walks (DESIGN.md §11).
        assert!(std::mem::size_of::<Container>() <= 192);
    }

    #[test]
    fn builder_chains() {
        let s = spec();
        assert_eq!(s.cpu_limit_cores, 2.0);
        assert_eq!(s.mem_limit_bytes, 128 * MIB);
        assert_eq!(s.restart_delay, SimDuration::from_secs(1));
    }
}
