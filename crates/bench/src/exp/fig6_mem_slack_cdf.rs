//! Regenerates **Fig. 6**: memory slack CDFs (MiB, log-scale x in the
//! paper) for the same four panels as Fig. 5.

use escra_bench::{Args, SlackCdfFigure};

pub fn run(args: &Args) {
    SlackCdfFigure {
        fig: "Fig. 6",
        caption: "memory slack, MiB",
        percentile: |s, p| format!("{:.0}", s.mem_p(p)),
        cdf: |s| s.mem_cdf(),
        paper: &[
            "(paper: Escra's memory slack hugs the δ = 50 MiB reclamation margin —",
            " e.g. TrainTicket-Fixed 49 MiB vs 256 MiB static; MediaMicroservice-",
            " Burst 99%ile memory slack 46 MiB)",
        ],
        artifact: "fig6_mem_slack_cdf",
    }
    .run(args);
}
