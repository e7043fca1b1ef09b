//! Serverless substrate: OpenWhisk-style configuration, action profiles,
//! and the two paper applications (ImageProcess, GridSearch) — §VI-F/G.

use escra_simcore::rng::{lognormal_params, SimRng};
use escra_simcore::time::{SimDuration, SimTime};
use serde::Serialize;

/// OpenWhisk invoker configuration (paper §VI-F: each user-action pod
/// gets 1 vCPU and 256 MiB; the invoker `containerPool` memory bounds the
/// number of concurrent pods).
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct OpenWhiskConfig {
    /// Static per-pod CPU request/limit, in cores.
    pub pod_cpu_cores: f64,
    /// Static per-pod memory limit, in MiB.
    pub pod_mem_mib: u64,
    /// Cold-start delay for a new user-action pod.
    pub cold_start: SimDuration,
    /// Idle time after which a warm pod is torn down.
    pub idle_timeout: SimDuration,
    /// The invoker containerPool memory, in MiB — doubles as the Escra
    /// global application memory limit (§IV-E).
    pub container_pool_mem_mib: u64,
}

impl Default for OpenWhiskConfig {
    fn default() -> Self {
        OpenWhiskConfig {
            pod_cpu_cores: 1.0,
            pod_mem_mib: 256,
            cold_start: SimDuration::from_millis(500),
            idle_timeout: SimDuration::from_secs(60),
            container_pool_mem_mib: 32 * 1024,
        }
    }
}

impl OpenWhiskConfig {
    /// The implied global CPU limit when "memory and CPU scale linearly"
    /// (§IV-E): pool memory / pod memory × pod CPU.
    pub fn implied_global_cpu_cores(&self) -> f64 {
        (self.container_pool_mem_mib as f64 / self.pod_mem_mib as f64) * self.pod_cpu_cores
    }

    /// Maximum concurrent pods the containerPool admits.
    pub fn max_pods(&self) -> usize {
        (self.container_pool_mem_mib / self.pod_mem_mib.max(1)) as usize
    }
}

/// Execution profile of one serverless action.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ActionProfile {
    /// Action name.
    pub name: String,
    /// Mean CPU work per activation, in core-milliseconds.
    pub exec_cpu_ms_mean: f64,
    /// Coefficient of variation of the CPU work (lognormal).
    pub exec_cv: f64,
    /// Non-CPU time per activation (datastore reads/writes).
    pub io_wait: SimDuration,
    /// Peak working memory during an activation, in MiB.
    pub mem_mib: u64,
    /// Idle resident memory of a warm pod, in MiB.
    pub idle_mem_mib: u64,
}

impl ActionProfile {
    /// Samples the CPU work of one activation, in core-microseconds.
    pub fn sample_exec_us(&self, rng: &mut SimRng) -> f64 {
        let mean_us = self.exec_cpu_ms_mean * 1_000.0;
        if self.exec_cv <= 0.0 {
            return mean_us;
        }
        let (mu, sigma) = lognormal_params(mean_us, self.exec_cv);
        rng.lognormal(mu, sigma)
    }
}

/// The ImageProcess action (§VI-F): read image → process metadata →
/// thumbnail → write back. One request every 0.8 s for 10 minutes, four
/// iterations (3 000 invocations total).
pub fn image_process() -> ActionProfile {
    ActionProfile {
        name: "image-process".into(),
        exec_cpu_ms_mean: 1_250.0,
        exec_cv: 0.35,
        io_wait: SimDuration::from_millis(350),
        mem_mib: 150,
        idle_mem_mib: 48,
    }
}

/// Interval between ImageProcess requests (0.8 s).
pub const IMAGE_PROCESS_INTERVAL: SimDuration = SimDuration::from_millis(800);

/// Length of one ImageProcess iteration (10 minutes).
pub const IMAGE_PROCESS_ITERATION: SimDuration = SimDuration::from_secs(600);

/// One GridSearch hyper-parameter task (§VI-F): scikit-learn
/// classification over an Amazon review dataset shard.
pub fn grid_search_task() -> ActionProfile {
    ActionProfile {
        name: "grid-search".into(),
        exec_cpu_ms_mean: 18_000.0,
        exec_cv: 0.25,
        io_wait: SimDuration::from_millis(1_200),
        mem_mib: 190,
        idle_mem_mib: 64,
    }
}

/// Number of GridSearch worker pods (paper: ~115).
pub const GRID_SEARCH_WORKERS: usize = 115;
/// Number of GridSearch tasks (paper: 960).
pub const GRID_SEARCH_TASKS: usize = 960;

/// The GridSearch batch job: a shared task queue 115 workers drain.
///
/// ```
/// use escra_workloads::serverless::GridSearchJob;
/// let mut job = GridSearchJob::new(3);
/// assert_eq!(job.try_claim(), Some(0));
/// assert_eq!(job.try_claim(), Some(1));
/// job.complete();
/// assert!(!job.is_done());
/// assert_eq!(job.try_claim(), Some(2));
/// job.complete();
/// job.complete();
/// assert!(job.is_done());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct GridSearchJob {
    total: usize,
    claimed: usize,
    completed: usize,
}

impl GridSearchJob {
    /// Creates a job with `total` tasks.
    pub fn new(total: usize) -> Self {
        GridSearchJob {
            total,
            claimed: 0,
            completed: 0,
        }
    }

    /// The paper's job: 960 tasks.
    pub fn paper() -> Self {
        GridSearchJob::new(GRID_SEARCH_TASKS)
    }

    /// Claims the next task index, if any remain.
    pub fn try_claim(&mut self) -> Option<usize> {
        if self.claimed < self.total {
            let i = self.claimed;
            self.claimed += 1;
            Some(i)
        } else {
            None
        }
    }

    /// Marks one claimed task finished.
    ///
    /// # Panics
    ///
    /// Panics if more completions than claims are recorded.
    pub fn complete(&mut self) {
        assert!(self.completed < self.claimed, "completion without claim");
        self.completed += 1;
    }

    /// Returns a claimed-but-unfinished task to the queue (the worker
    /// holding it died); another worker can claim it again.
    pub fn abandon(&mut self) {
        if self.claimed > self.completed {
            self.claimed -= 1;
        }
    }

    /// Tasks completed so far.
    pub fn completed(&self) -> usize {
        self.completed
    }

    /// Total tasks.
    pub fn total(&self) -> usize {
        self.total
    }

    /// True when every task has completed.
    pub fn is_done(&self) -> bool {
        self.completed == self.total
    }
}

/// Deterministic ImageProcess arrival times over one iteration starting
/// at `start`.
pub fn image_process_arrivals(start: SimTime) -> Vec<SimTime> {
    let n = IMAGE_PROCESS_ITERATION.as_micros() / IMAGE_PROCESS_INTERVAL.as_micros();
    (0..n).map(|i| start + IMAGE_PROCESS_INTERVAL * i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn openwhisk_linear_cpu_scaling() {
        let c = OpenWhiskConfig::default();
        assert_eq!(c.implied_global_cpu_cores(), 128.0);
        assert_eq!(c.max_pods(), 128);
    }

    #[test]
    fn image_process_iteration_has_750_requests() {
        let arrivals = image_process_arrivals(SimTime::ZERO);
        assert_eq!(arrivals.len(), 750); // 600s / 0.8s
        assert_eq!(arrivals[1] - arrivals[0], IMAGE_PROCESS_INTERVAL);
        // Four iterations = 3000 invocations, as in the paper.
        assert_eq!(arrivals.len() * 4, 3_000);
    }

    #[test]
    fn exec_sampling_mean() {
        let p = image_process();
        let mut rng = SimRng::new(1);
        let n = 5_000;
        let mean: f64 = (0..n).map(|_| p.sample_exec_us(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 1_250_000.0).abs() < 40_000.0, "mean {mean}");
    }

    #[test]
    fn shipped_actions_draw_the_bits_of_the_inline_parameterisation() {
        for (i, p) in [image_process(), grid_search_task()].iter().enumerate() {
            let sigma2 = (1.0 + p.exec_cv * p.exec_cv).ln();
            let mu = (p.exec_cpu_ms_mean * 1_000.0).ln() - sigma2 / 2.0;
            let (mut a, mut b) = (SimRng::new(i as u64), SimRng::new(i as u64));
            for _ in 0..200 {
                let want = a.lognormal(mu, sigma2.sqrt()).to_bits();
                assert_eq!(p.sample_exec_us(&mut b).to_bits(), want, "{}", p.name);
            }
        }
    }

    #[test]
    fn grid_search_job_lifecycle() {
        let mut job = GridSearchJob::paper();
        assert_eq!(job.total(), 960);
        let mut claimed = 0;
        while job.try_claim().is_some() {
            claimed += 1;
        }
        assert_eq!(claimed, 960);
        for _ in 0..960 {
            job.complete();
        }
        assert!(job.is_done());
        assert_eq!(job.completed(), 960);
    }

    #[test]
    #[should_panic(expected = "completion without claim")]
    fn complete_without_claim_panics() {
        GridSearchJob::new(1).complete();
    }

    #[test]
    fn profiles_are_plausible() {
        let ip = image_process();
        let gs = grid_search_task();
        // GridSearch tasks are an order of magnitude heavier.
        assert!(gs.exec_cpu_ms_mean > 10.0 * ip.exec_cpu_ms_mean);
        assert!(ip.mem_mib < 256 && gs.mem_mib < 256);
    }
}
