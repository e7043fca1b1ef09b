//! Regenerates **Fig. 5**: CPU slack CDFs for the four highlighted
//! panels — TrainTicket-Fixed, Teastore-Alibaba, HipsterShop-Exp,
//! MediaMicroservice-Burst — comparing Escra, Autopilot and Static.

use escra_bench::{Args, SlackCdfFigure};

pub fn run(args: &Args) {
    SlackCdfFigure {
        fig: "Fig. 5",
        caption: "CPU slack, cores",
        percentile: |s, p| format!("{:.2}", s.cpu_p(p)),
        cdf: |s| s.cpu_cdf(),
        paper: &[
            "(paper: Escra's CDF rises far left of Autopilot and Static in every panel,",
            " e.g. TrainTicket-Fixed static p50 > 2.5 cores vs Escra 0.14 — a 17.9x gap)",
        ],
        artifact: "fig5_cpu_slack_cdf",
    }
    .run(args);
}
