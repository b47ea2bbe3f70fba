//! The paper's Fig. 4 anchors as benchmark data, and `paper_dev`.

/// One published number the reproduction is measured against.
pub struct Anchor {
    pub name: &'static str,
    pub paper: f64,
    pub figure: &'static str,
    pub what: &'static str,
}

/// Every Fig. 4 anchor of the source paper (arXiv:2011.08070 §V).
pub const ANCHORS: &[Anchor] = &[
    Anchor {
        name: "fig4a.issr16_util",
        paper: 0.80,
        figure: "Fig. 4a",
        what: "peak single-CC SpVV FPU utilization, ISSR with 16-bit indices",
    },
    Anchor {
        name: "fig4a.issr32_util",
        paper: 0.67,
        figure: "Fig. 4a",
        what: "peak single-CC SpVV FPU utilization, ISSR with 32-bit indices",
    },
    Anchor {
        name: "fig4b.issr16_speedup",
        paper: 7.2,
        figure: "Fig. 4b",
        what: "peak single-CC CsrMV speedup over BASE, ISSR with 16-bit indices",
    },
    Anchor {
        name: "fig4b.issr32_speedup",
        paper: 6.0,
        figure: "Fig. 4b",
        what: "peak single-CC CsrMV speedup over BASE, ISSR with 32-bit indices",
    },
    Anchor {
        name: "fig4c.speedup_row1",
        paper: 1.9,
        figure: "Fig. 4c",
        what: "8-worker cluster CsrMV speedup over BASE at 1 nonzero per row",
    },
    Anchor {
        name: "fig4c.speedup_peak",
        paper: 5.8,
        figure: "Fig. 4c",
        what: "peak 8-worker cluster CsrMV speedup over BASE",
    },
    Anchor {
        name: "fig4c.peak_worker_util",
        paper: 0.71,
        figure: "Fig. 4c",
        what: "peak per-worker FPU utilization of cluster CsrMV",
    },
    Anchor {
        name: "fig4d.energy_gain",
        paper: 2.7,
        figure: "Fig. 4d",
        what: "peak cluster CsrMV energy-efficiency gain over BASE on the matrix suite",
    },
];

/// Mean of |measured − paper| ÷ paper over the measured anchors.
///
/// # Panics
/// Panics on an anchor name missing from [`ANCHORS`] (a benchmark bug).
pub fn paper_dev(measured: &[(&str, f64)]) -> f64 {
    let devs: Vec<f64> = measured
        .iter()
        .map(|&(name, value)| {
            let a = ANCHORS.iter().find(|a| a.name == name).expect("anchor is in the table");
            (value - a.paper).abs() / a.paper
        })
        .collect();
    devs.iter().sum::<f64>() / devs.len().max(1) as f64
}
