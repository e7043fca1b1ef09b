//! Microservice application models (paper §VI-A).
//!
//! Each benchmark application is modelled as a DAG of **service tiers**;
//! a request belongs to a **request class** that traverses an increasing
//! sequence of tiers, costing CPU time (lognormal service times) and
//! memory (per-inflight working set plus a load-driven cache) at each
//! tier. Tier replicas match the paper's container counts:
//! MediaMicroservice 32, HipsterShop 11, TrainTicket 68, Teastore 7.
//!
//! The numbers are calibrated so the relative effects the paper reports
//! emerge: short-timescale demand spikes that coarse (1 s+) profiling
//! underestimates, hot tiers that benefit from stealing slack from cold
//! ones, and memory footprints that grow under load.

use escra_simcore::rng::{lognormal_params, SimRng};
use serde::Serialize;

/// One service tier (a Kubernetes deployment; `replicas` containers).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServiceTier {
    /// Tier name, e.g. `"frontend"`.
    pub name: String,
    /// Number of container replicas load-balanced round-robin.
    pub replicas: usize,
    /// Mean CPU cost per request at this tier, in core-milliseconds.
    pub cpu_per_req_ms: f64,
    /// Coefficient of variation of the lognormal service time.
    pub cpu_cv: f64,
    /// Resident memory per replica, in MiB.
    pub mem_base_mib: u64,
    /// Working-set memory per in-flight request, in KiB.
    pub mem_per_inflight_kib: u64,
    /// Cache memory per replica that fills under sustained load, in MiB.
    pub mem_cache_mib: u64,
    /// Maximum cores one replica can use concurrently (thread pool).
    pub parallelism: f64,
    /// Extra CPU demand (cores) during the warm-up window after a
    /// (re)start: JIT/JVM warm-up, cache priming, connection setup.
    /// Profiling tools record these as the container's peak — one of the
    /// reasons profiled static limits sit far above steady usage (§VI-C).
    pub startup_cpu_cores: f64,
    /// Mean CPU cost of a background event (GC pause, compaction, log
    /// rotation) in core-milliseconds. Background work preempts request
    /// processing and contributes to the tail latency of *every* policy.
    pub bg_work_ms: f64,
    /// Mean interval between background events, in seconds.
    pub bg_interval_s: f64,
}

impl ServiceTier {
    fn new(name: &str, replicas: usize, cpu_per_req_ms: f64) -> Self {
        ServiceTier {
            name: name.into(),
            replicas,
            cpu_per_req_ms,
            cpu_cv: 0.3,
            mem_base_mib: 64,
            mem_per_inflight_kib: 256,
            mem_cache_mib: 96,
            parallelism: 8.0,
            startup_cpu_cores: 0.8,
            bg_work_ms: 60.0,
            bg_interval_s: 3.0,
        }
    }

    fn mem(mut self, base_mib: u64, cache_mib: u64) -> Self {
        self.mem_base_mib = base_mib;
        self.mem_cache_mib = cache_mib;
        self
    }

    /// The tier's service-time distribution, in core-microseconds
    /// (lognormal with the tier's mean and CV; the mean itself when the
    /// CV is not positive).
    pub fn service_time(&self) -> ServiceTime {
        let mean_us = self.cpu_per_req_ms * 1_000.0;
        if self.cpu_cv <= 0.0 {
            return ServiceTime::Constant(mean_us);
        }
        let (mu, sigma) = lognormal_params(mean_us, self.cpu_cv);
        ServiceTime::Lognormal { mu, sigma }
    }

    /// Samples one service time in core-microseconds.
    pub fn sample_service_us(&self, rng: &mut SimRng) -> f64 {
        self.service_time().sample(rng)
    }
}

/// A tier's service-time distribution with its parameters worked out:
/// a driver that draws one value per request stage builds it once per
/// tier ([`ServiceTier::service_time`]) and draws the bits
/// [`ServiceTier::sample_service_us`] would.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServiceTime {
    /// Every request costs exactly this much.
    Constant(f64),
    /// Lognormal, by the mean and standard deviation of its logarithm.
    Lognormal {
        /// Mean of the underlying normal.
        mu: f64,
        /// Standard deviation of the underlying normal.
        sigma: f64,
    },
}

impl ServiceTime {
    /// Draws one service time. The constant case draws nothing from `rng`.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        match *self {
            ServiceTime::Constant(us) => us,
            ServiceTime::Lognormal { mu, sigma } => rng.lognormal(mu, sigma),
        }
    }
}

/// A request class: a weighted path through increasing tier indices.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RequestClass {
    /// Class name, e.g. `"checkout"`.
    pub name: String,
    /// Sampling weight relative to the other classes.
    pub weight: f64,
    /// Tier indices visited in order (strictly increasing).
    pub path: Vec<usize>,
}

/// A modelled microservice application.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MicroserviceApp {
    /// Application name.
    pub name: String,
    /// The service tiers, in topological order.
    pub tiers: Vec<ServiceTier>,
    /// The request classes.
    pub classes: Vec<RequestClass>,
    /// Global (Distributed Container) CPU limit Ωl, in cores.
    pub global_cpu_cores: f64,
    /// Global memory limit, in MiB.
    pub global_mem_mib: u64,
}

impl MicroserviceApp {
    /// Total container count (Σ replicas) — matches the paper's counts.
    pub fn container_count(&self) -> usize {
        self.tiers.iter().map(|t| t.replicas).sum()
    }

    /// Samples a request class index by weight, reading the weights
    /// where the classes hold them (no allocation per draw).
    pub fn sample_class(&self, rng: &mut SimRng) -> usize {
        rng.weighted_index(self.classes.iter().map(|c| c.weight))
    }

    /// Mean CPU cost of one request averaged over classes, core-ms.
    pub fn mean_request_cost_ms(&self) -> f64 {
        let total_w: f64 = self.classes.iter().map(|c| c.weight).sum();
        self.classes
            .iter()
            .map(|c| {
                let cost: f64 = c.path.iter().map(|&i| self.tiers[i].cpu_per_req_ms).sum();
                cost * c.weight / total_w
            })
            .sum()
    }

    /// Validates structural invariants.
    ///
    /// # Panics
    ///
    /// Panics if any class path is empty, non-increasing, or references a
    /// missing tier, or if weights are non-positive.
    pub fn validate(&self) {
        assert!(!self.tiers.is_empty(), "{}: no tiers", self.name);
        assert!(!self.classes.is_empty(), "{}: no classes", self.name);
        for t in &self.tiers {
            assert!(
                t.replicas > 0,
                "{}: tier {} has no replicas",
                self.name,
                t.name
            );
            assert!(t.cpu_per_req_ms > 0.0);
        }
        for c in &self.classes {
            assert!(c.weight > 0.0, "{}: class {} weight", self.name, c.name);
            assert!(
                !c.path.is_empty(),
                "{}: class {} empty path",
                self.name,
                c.name
            );
            let mut last = None;
            for &i in &c.path {
                assert!(i < self.tiers.len(), "{}: bad tier index {i}", self.name);
                if let Some(l) = last {
                    assert!(i > l, "{}: class {} path not increasing", self.name, c.name);
                }
                last = Some(i);
            }
        }
    }
}

/// MediaMicroservice (DeathStarBench): 32 containers; users search,
/// review, rate and add films.
pub fn media_microservice() -> MicroserviceApp {
    let tiers = vec![
        ServiceTier::new("nginx-web", 4, 4.2).mem(96, 64),
        ServiceTier::new("unique-id", 1, 0.6).mem(32, 16),
        ServiceTier::new("movie-id", 2, 1.5).mem(48, 64),
        ServiceTier::new("text", 2, 2.4).mem(48, 48),
        ServiceTier::new("user", 2, 1.5).mem(64, 64),
        ServiceTier::new("rating", 2, 1.8).mem(48, 48),
        ServiceTier::new("compose-review", 2, 3.3).mem(64, 64),
        ServiceTier::new("review-storage", 3, 2.7).mem(96, 128),
        ServiceTier::new("user-review", 2, 1.8).mem(64, 64),
        ServiceTier::new("movie-review", 2, 1.8).mem(64, 64),
        ServiceTier::new("cast-info", 2, 1.5).mem(64, 64),
        ServiceTier::new("plot", 1, 1.2).mem(48, 48),
        ServiceTier::new("media", 2, 2.1).mem(64, 96),
        ServiceTier::new("page", 3, 3.9).mem(96, 96),
        ServiceTier::new("mongodb", 2, 2.4).mem(128, 192),
    ];
    let app = MicroserviceApp {
        name: "media-microsvc".into(),
        tiers,
        classes: vec![
            RequestClass {
                name: "read-page".into(),
                weight: 0.55,
                path: vec![0, 2, 10, 11, 12, 13, 14],
            },
            RequestClass {
                name: "compose-review".into(),
                weight: 0.25,
                path: vec![0, 1, 2, 3, 4, 5, 6, 7, 14],
            },
            RequestClass {
                name: "read-reviews".into(),
                weight: 0.20,
                path: vec![0, 7, 8, 9, 13, 14],
            },
        ],
        global_cpu_cores: 24.0,
        global_mem_mib: 10 * 1024,
    };
    app.validate();
    assert_eq!(app.container_count(), 32);
    app
}

/// HipsterShop: 11 containers; browsing and purchasing.
pub fn hipster_shop() -> MicroserviceApp {
    let tiers = vec![
        ServiceTier::new("frontend", 1, 6.0).mem(96, 96),
        ServiceTier::new("currency", 1, 1.2).mem(32, 16),
        ServiceTier::new("product-catalog", 1, 2.4).mem(64, 96),
        ServiceTier::new("recommendation", 1, 3.0).mem(96, 96),
        ServiceTier::new("ad", 1, 1.5).mem(48, 32),
        ServiceTier::new("cart", 1, 1.8).mem(64, 64),
        ServiceTier::new("redis-cart", 1, 0.9).mem(64, 128),
        ServiceTier::new("checkout", 1, 3.6).mem(64, 48),
        ServiceTier::new("payment", 1, 1.2).mem(48, 16),
        ServiceTier::new("shipping", 1, 1.5).mem(48, 16),
        ServiceTier::new("email", 1, 0.9).mem(48, 16),
    ];
    let app = MicroserviceApp {
        name: "hipster-shop".into(),
        tiers,
        classes: vec![
            RequestClass {
                name: "browse".into(),
                weight: 0.55,
                path: vec![0, 1, 2, 3, 4],
            },
            RequestClass {
                name: "cart".into(),
                weight: 0.30,
                path: vec![0, 2, 5, 6],
            },
            RequestClass {
                name: "checkout".into(),
                weight: 0.15,
                path: vec![0, 5, 7, 8, 9, 10],
            },
        ],
        global_cpu_cores: 14.0,
        global_mem_mib: 3 * 1024,
    };
    app.validate();
    assert_eq!(app.container_count(), 11);
    app
}

/// TrainTicket: 68 containers; search, book and modify train tickets.
pub fn train_ticket() -> MicroserviceApp {
    // 17 services × 4 replicas = 68 containers, with the deep call chains
    // TrainTicket is known for.
    let svc = |name: &str, cpu: f64| ServiceTier::new(name, 4, cpu).mem(64, 64);
    let tiers = vec![
        svc("ui-dashboard", 8.0),
        svc("auth", 2.5),
        svc("verification", 2.0),
        svc("station", 2.5),
        svc("train", 2.5),
        svc("route", 3.5),
        svc("travel", 5.0),
        svc("basic-info", 3.0),
        svc("ticket-info", 3.5),
        svc("seat", 4.0),
        svc("order", 5.0),
        svc("preserve", 6.0),
        svc("price", 2.0),
        svc("payment", 3.0),
        svc("notification", 2.0),
        svc("food", 2.5),
        svc("mysql", 4.5),
    ];
    let app = MicroserviceApp {
        name: "train-ticket".into(),
        tiers,
        classes: vec![
            RequestClass {
                name: "search".into(),
                weight: 0.50,
                path: vec![0, 3, 4, 5, 6, 7, 8, 16],
            },
            RequestClass {
                name: "book".into(),
                weight: 0.30,
                path: vec![0, 1, 6, 8, 9, 10, 11, 12, 13, 16],
            },
            RequestClass {
                name: "modify".into(),
                weight: 0.20,
                path: vec![0, 1, 2, 10, 13, 14, 15, 16],
            },
        ],
        global_cpu_cores: 40.0,
        global_mem_mib: 16 * 1024,
    };
    app.validate();
    assert_eq!(app.container_count(), 68);
    app
}

/// Teastore: 7 containers; browsing and purchasing teas.
pub fn teastore() -> MicroserviceApp {
    let tiers = vec![
        ServiceTier::new("webui", 2, 6.0).mem(128, 96),
        ServiceTier::new("auth", 1, 1.8).mem(64, 32),
        ServiceTier::new("persistence", 1, 2.7).mem(96, 128),
        ServiceTier::new("recommender", 1, 3.9).mem(128, 96),
        ServiceTier::new("image", 1, 4.5).mem(128, 128),
        ServiceTier::new("registry-db", 1, 1.2).mem(96, 96),
    ];
    let app = MicroserviceApp {
        name: "teastore".into(),
        tiers,
        classes: vec![
            RequestClass {
                name: "browse".into(),
                weight: 0.6,
                path: vec![0, 2, 3, 4],
            },
            RequestClass {
                name: "login-buy".into(),
                weight: 0.4,
                path: vec![0, 1, 2, 5],
            },
        ],
        global_cpu_cores: 14.0,
        global_mem_mib: 2 * 1024 + 512,
    };
    app.validate();
    assert_eq!(app.container_count(), 7);
    app
}

/// All four paper applications.
pub fn paper_apps() -> Vec<MicroserviceApp> {
    vec![
        media_microservice(),
        hipster_shop(),
        train_ticket(),
        teastore(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn container_counts_match_paper() {
        assert_eq!(media_microservice().container_count(), 32);
        assert_eq!(hipster_shop().container_count(), 11);
        assert_eq!(train_ticket().container_count(), 68);
        assert_eq!(teastore().container_count(), 7);
    }

    #[test]
    fn all_apps_validate() {
        for app in paper_apps() {
            app.validate();
            assert!(app.mean_request_cost_ms() > 0.0);
            assert!(app.global_cpu_cores > 0.0);
        }
    }

    #[test]
    fn service_times_have_requested_mean() {
        let tier = ServiceTier::new("t", 1, 2.0); // 2 core-ms
        let mut rng = SimRng::new(5);
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| tier.sample_service_us(&mut rng))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 2_000.0).abs() < 100.0, "mean {mean}");
    }

    #[test]
    fn shipped_tiers_draw_the_bits_of_the_inline_parameterisation() {
        // What `sample_service_us` computed on every draw before
        // `lognormal_params` existed, against the per-tier `ServiceTime`
        // a driver caches.
        let inline = |tier: &ServiceTier, rng: &mut SimRng| {
            let mean_us = tier.cpu_per_req_ms * 1_000.0;
            if tier.cpu_cv <= 0.0 {
                return mean_us;
            }
            let sigma2 = (1.0 + tier.cpu_cv * tier.cpu_cv).ln();
            let mu = mean_us.ln() - sigma2 / 2.0;
            rng.lognormal(mu, sigma2.sqrt())
        };
        let mut constant = ServiceTier::new("const", 1, 3.0);
        constant.cpu_cv = 0.0;
        let tiers = paper_apps()
            .into_iter()
            .flat_map(|app| app.tiers)
            .chain([constant]);
        for (i, tier) in tiers.enumerate() {
            let cached = tier.service_time();
            let (mut a, mut b) = (SimRng::new(i as u64), SimRng::new(i as u64));
            for _ in 0..200 {
                let want = inline(&tier, &mut a).to_bits();
                assert_eq!(cached.sample(&mut b).to_bits(), want, "{}", tier.name);
            }
            assert_eq!(a, b, "{}: the streams advanced alike", tier.name);
        }
    }

    #[test]
    fn service_times_are_bursty() {
        // Lognormal service times: the p99 request costs well above the
        // mean — the per-period demand spikes that 1 s-aggregated
        // profiling smooths away (§VI-C).
        let tier = ServiceTier::new("t", 1, 1.0);
        let mut rng = SimRng::new(6);
        let mut xs: Vec<f64> = (0..10_000)
            .map(|_| tier.sample_service_us(&mut rng))
            .collect();
        xs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let p99 = xs[9_900];
        assert!(p99 > 1_700.0, "p99 {p99} should be >1.7x the 1ms mean");
    }

    #[test]
    fn class_sampling_follows_weights() {
        let app = hipster_shop();
        let mut rng = SimRng::new(7);
        let mut counts = vec![0usize; app.classes.len()];
        for _ in 0..30_000 {
            counts[app.sample_class(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1]);
        assert!(counts[1] > counts[2]);
    }

    #[test]
    fn mean_request_cost_is_weighted() {
        let app = hipster_shop();
        let m = app.mean_request_cost_ms();
        assert!(m > 9.0 && m < 18.0, "mean cost {m}");
    }

    #[test]
    #[should_panic(expected = "path not increasing")]
    fn non_increasing_path_panics() {
        let mut app = teastore();
        app.classes[0].path = vec![2, 1];
        app.validate();
    }
}
