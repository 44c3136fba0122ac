//! The benchmark's metrics: the end-to-end set every timed run reports
//! and the per-layer set every traced run reports, each per-layer
//! metric with the end-to-end metric and workload it should move.
//! `BENCHMARK.json` must agree with these tables (see
//! [`crate::manifest::check_manifest`]).

/// An end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// A per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    /// Name, `<crate>.<metric>`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// The (end-to-end metric, workload) pairs a change in this layer
    /// should move.
    pub moves: &'static [(&'static str, &'static str)],
    /// Why `moves` is empty, where it is.
    pub note: &'static str,
}

/// Every end-to-end metric is better lower.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "wall_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
];

/// The per-layer metrics, grouped by crate.
pub const LAYERS: &[LayerMetric] = &[
    LayerMetric {
        name: "sweepkit.self_s",
        unit: "s",
        better: "lower",
        moves: &[("wall_s", "vco_sweep")],
        note: "",
    },
    LayerMetric {
        name: "sweepkit.warm_positions",
        unit: "count",
        better: "higher",
        moves: &[("wall_s", "vco_sweep")],
        note: "",
    },
    LayerMetric {
        name: "sweepkit.artifact_s",
        unit: "s",
        better: "lower",
        moves: &[("wall_s", "ladder_1000")],
        note: "",
    },
    LayerMetric {
        name: "circuitdae.parse_s",
        unit: "s",
        better: "lower",
        moves: &[
            ("setup_s", "vco_sweep"),
            ("setup_s", "ring_ladder"),
            ("setup_s", "ladder_1000"),
        ],
        note: "",
    },
    LayerMetric {
        name: "circuitdae.stamp_s",
        unit: "s",
        better: "lower",
        moves: &[("wall_s", "ladder_1000"), ("wall_s", "ring_ladder")],
        note: "",
    },
    LayerMetric {
        name: "circuitdae.stamp_calls",
        unit: "count",
        better: "lower",
        moves: &[("wall_s", "ladder_1000"), ("wall_s", "ring_ladder")],
        note: "",
    },
    LayerMetric {
        name: "shooting.init_s",
        unit: "s",
        better: "lower",
        moves: &[("wall_s", "vco_sweep"), ("setup_s", "fm_vco")],
        note: "",
    },
    LayerMetric {
        name: "shooting.newton_iters",
        unit: "count",
        better: "lower",
        moves: &[("wall_s", "vco_sweep"), ("setup_s", "fm_vco")],
        note: "",
    },
    LayerMetric {
        name: "wampde.envelope_s",
        unit: "s",
        better: "lower",
        moves: &[("wall_s", "fm_vco"), ("wall_s", "vco_sweep")],
        note: "",
    },
    LayerMetric {
        name: "wampde.t2_steps",
        unit: "count",
        better: "lower",
        moves: &[("wall_s", "fm_vco"), ("wall_s", "vco_sweep")],
        note: "",
    },
    LayerMetric {
        name: "wampde.t2_rejected",
        unit: "count",
        better: "lower",
        moves: &[("wall_s", "fm_vco"), ("wall_s", "vco_sweep")],
        note: "",
    },
    LayerMetric {
        name: "wampde.steps_per_period",
        unit: "steps/period",
        better: "lower",
        moves: &[("wall_s", "fm_vco"), ("wall_s", "vco_sweep")],
        note: "",
    },
    LayerMetric {
        name: "wampde.omega_ripple_rel",
        unit: "ratio",
        better: "lower",
        moves: &[],
        note: "accuracy: max (omega_max - omega_min)/f_shooting under a DC control (vco_sweep)",
    },
    LayerMetric {
        name: "wampde.phase_err_cycles",
        unit: "cycles",
        better: "lower",
        moves: &[],
        note:
            "accuracy: |phase error| at 3 ms against the 1000-points-per-cycle transient (fm_vco)",
    },
    LayerMetric {
        name: "timekit.accepted",
        unit: "count",
        better: "lower",
        moves: &[
            ("wall_s", "ladder_1000"),
            ("wall_s", "vco_sweep"),
            ("wall_s", "ring_ladder"),
        ],
        note: "",
    },
    LayerMetric {
        name: "timekit.rejected",
        unit: "count",
        better: "lower",
        moves: &[
            ("wall_s", "ladder_1000"),
            ("wall_s", "vco_sweep"),
            ("wall_s", "ring_ladder"),
        ],
        note: "",
    },
    LayerMetric {
        name: "newtonkit.iters",
        unit: "count",
        better: "lower",
        moves: ALL_WORKLOADS,
        note: "",
    },
    LayerMetric {
        name: "newtonkit.solves",
        unit: "count",
        better: "lower",
        moves: ALL_WORKLOADS,
        note: "",
    },
    LayerMetric {
        name: "newtonkit.failures",
        unit: "count",
        better: "lower",
        moves: ALL_WORKLOADS,
        note: "",
    },
    LayerMetric {
        name: "newtonkit.iter_self_s",
        unit: "s",
        better: "lower",
        moves: ALL_WORKLOADS,
        note: "",
    },
    LayerMetric {
        name: "linsolve.factor_s",
        unit: "s",
        better: "lower",
        moves: &[("wall_s", "ladder_1000")],
        note: "",
    },
    LayerMetric {
        name: "linsolve.solve_s",
        unit: "s",
        better: "lower",
        moves: &[("wall_s", "ladder_1000")],
        note: "",
    },
    LayerMetric {
        name: "linsolve.factor_fresh",
        unit: "count",
        better: "lower",
        moves: &[("wall_s", "ladder_1000")],
        note: "",
    },
    LayerMetric {
        name: "linsolve.factor_reused",
        unit: "count",
        better: "higher",
        moves: &[("wall_s", "ladder_1000")],
        note: "",
    },
    LayerMetric {
        name: "linsolve.parallel_sections",
        unit: "count",
        better: "lower",
        moves: &[
            ("wall_s", "ring_ladder"),
            ("cpu_s", "ring_ladder"),
            ("wall_s", "ladder_1000"),
            ("cpu_s", "ladder_1000"),
        ],
        note: "",
    },
    LayerMetric {
        name: "obskit.trace_overhead",
        unit: "ratio",
        better: "lower",
        moves: &[],
        note: "the cost of measuring: traced wall / untraced wall - 1 of one operation",
    },
];

const ALL_WORKLOADS: &[(&str, &str)] = &[
    ("wall_s", "vco_sweep"),
    ("wall_s", "fm_vco"),
    ("wall_s", "ring_ladder"),
    ("wall_s", "ladder_1000"),
];
