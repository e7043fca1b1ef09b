//! The policies an experiment can run under.

use escra_baselines::{
    ArcVConfig, ArcVScaler, AutopilotConfig, AutopilotScaler, PeriodicScaler, TinyAutoscaler,
    TinyAutoscalerConfig, VpaConfig, VpaScaler,
};
use escra_core::EscraConfig;

/// Which allocation policy manages the containers during a run.
#[derive(Debug, Clone, PartialEq)]
pub enum Policy {
    /// Escra: event-driven, per-period allocation (the paper's system).
    Escra(EscraConfig),
    /// Static limits at `factor ×` the profiled peak (common practice).
    Static {
        /// The provisioning factor (paper uses 0.75 / 1.0 / 1.5).
        factor: f64,
    },
    /// The Autopilot recreation (state of the art baseline).
    Autopilot(AutopilotConfig),
    /// A VPA-style threshold autoscaler with restart semantics.
    Vpa(VpaConfig),
    /// A tiny-autoscaler-style window-percentile predictor (per-function
    /// VPA imitation, Zhao & Uta).
    Tiny(TinyAutoscalerConfig),
    /// ARC-V-style phase-aware in-place vertical scaling.
    ArcV(ArcVConfig),
}

impl Policy {
    /// The paper's default Escra configuration.
    pub fn escra_default() -> Self {
        Policy::Escra(EscraConfig::default())
    }

    /// The paper's comparison point: static 1.5× peak.
    pub fn static_1_5x() -> Self {
        Policy::Static { factor: 1.5 }
    }

    /// Autopilot at its best-case 1-second update period.
    pub fn autopilot_default() -> Self {
        Policy::Autopilot(AutopilotConfig::default())
    }

    /// The tiny autoscaler at its default window/percentile/headroom.
    pub fn tiny_default() -> Self {
        Policy::Tiny(TinyAutoscalerConfig::default())
    }

    /// ARC-V at its default phase thresholds and cooldown.
    pub fn arc_v_default() -> Self {
        Policy::ArcV(ArcVConfig::default())
    }

    /// Short name used in reports ("escra", "static-1.5x", ...).
    pub fn name(&self) -> String {
        match self {
            Policy::Escra(_) => "escra".into(),
            Policy::Static { factor } => format!("static-{factor}x"),
            Policy::Autopilot(c) => {
                format!("autopilot-{}s", c.update_period.as_millis() as f64 / 1000.0)
            }
            Policy::Vpa(_) => "vpa".into(),
            Policy::Tiny(_) => "tiny".into(),
            Policy::ArcV(_) => "arc-v".into(),
        }
    }

    /// Whether this policy needs a profiling pre-run to seed limits.
    pub fn needs_profile(&self) -> bool {
        !matches!(self, Policy::Escra(_))
    }

    /// The policy's [`PeriodicScaler`], if it is one (Escra and static
    /// limits are not).
    pub(crate) fn build_scaler(&self) -> Option<Box<dyn PeriodicScaler>> {
        Some(match self {
            Policy::Escra(_) | Policy::Static { .. } => return None,
            Policy::Autopilot(cfg) => Box::new(AutopilotScaler::new(cfg.clone())),
            Policy::Vpa(cfg) => Box::new(VpaScaler::new(*cfg)),
            Policy::Tiny(cfg) => BaselineScalerKind::Tiny(*cfg).build(),
            Policy::ArcV(cfg) => BaselineScalerKind::ArcV(*cfg).build(),
        })
    }
}

/// A baseline scaler the serverless/trace drivers can run *instead of*
/// the Escra controller: the subset of [`Policy`] whose impls manage a
/// dynamic pod population purely through the
/// [`PeriodicScaler`] trait (track/observe/recommend/forget).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BaselineScalerKind {
    /// The tiny-autoscaler window-percentile predictor.
    Tiny(TinyAutoscalerConfig),
    /// ARC-V phase-aware in-place scaling.
    ArcV(ArcVConfig),
}

impl BaselineScalerKind {
    /// Short name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            BaselineScalerKind::Tiny(_) => "tiny",
            BaselineScalerKind::ArcV(_) => "arc-v",
        }
    }

    /// Instantiates the scaler.
    pub fn build(&self) -> Box<dyn PeriodicScaler> {
        match self {
            BaselineScalerKind::Tiny(cfg) => Box::new(TinyAutoscaler::new(*cfg)),
            BaselineScalerKind::ArcV(cfg) => Box::new(ArcVScaler::new(*cfg)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names() {
        assert_eq!(Policy::escra_default().name(), "escra");
        assert_eq!(Policy::static_1_5x().name(), "static-1.5x");
        assert_eq!(Policy::autopilot_default().name(), "autopilot-1s");
        assert_eq!(Policy::Vpa(VpaConfig::default()).name(), "vpa");
        assert_eq!(Policy::tiny_default().name(), "tiny");
        assert_eq!(Policy::arc_v_default().name(), "arc-v");
    }

    #[test]
    fn profile_requirements() {
        assert!(!Policy::escra_default().needs_profile());
        assert!(Policy::static_1_5x().needs_profile());
        assert!(Policy::autopilot_default().needs_profile());
        assert!(Policy::tiny_default().needs_profile());
        assert!(Policy::arc_v_default().needs_profile());
    }

    #[test]
    fn baseline_scaler_kinds_build() {
        let tiny = BaselineScalerKind::Tiny(TinyAutoscalerConfig::default());
        let arc = BaselineScalerKind::ArcV(ArcVConfig::default());
        assert_eq!(tiny.name(), "tiny");
        assert_eq!(arc.name(), "arc-v");
        let mut s = tiny.build();
        assert!(!s.update_period().is_zero());
        assert!(s.recommend().is_empty(), "no observations yet");
        let mut s = arc.build();
        assert!(!s.update_period().is_zero());
        assert!(s.recommend().is_empty());
    }
}
