//! Fig 8 and Fig 10 as sweep grids: scenario construction plus table
//! assembly from engine cells.
//!
//! The tables are numerically identical to the seed's direct computation:
//! each cell evaluates the same `evaluate_model` / `simulate` calls, and
//! assembly performs the same ratio/geomean arithmetic on the same `f64`s
//! (payloads hold totals bit-exactly, in memory and through the cache's
//! shortest-round-trip JSON).

use crate::api::{Metrics, SweepError};
use crate::engine::{Engine, SweepReport};
use crate::eval::GemmMetrics;
use crate::scenario::{AcceleratorKind, DesignPoint, Scenario, WorkloadSpec};
use serde::{Deserialize, Serialize};
use yoco::pipeline::AttentionDims;
use yoco_arch::accelerator::geometric_mean;
use yoco_nn::LayerSpec;

/// One model's normalized ratios (YOCO ÷ baseline).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig8Row {
    /// Model name.
    pub model: String,
    /// Energy-efficiency ratios vs `[isaac, raella, timely]`.
    pub ee_ratio: [f64; 3],
    /// Throughput ratios vs `[isaac, raella, timely]`.
    pub tp_ratio: [f64; 3],
    /// YOCO's absolute numbers, for the record.
    pub yoco_tops_per_watt: f64,
    /// YOCO throughput, TOPS.
    pub yoco_tops: f64,
}

/// The full Fig 8 table plus geometric means.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig8Table {
    /// Per-model rows, in the paper's model order.
    pub rows: Vec<Fig8Row>,
    /// Geomean EE ratios vs `[isaac, raella, timely]` (paper: 19.9 / 4.7 / 3.9).
    pub ee_geomean: [f64; 3],
    /// Geomean throughput ratios (paper: 33.6 / 20.4 / 6.8).
    pub tp_geomean: [f64; 3],
}

/// The Fig 8 grid: (YOCO + 3 baselines) × the 10-model zoo, YOCO cells
/// first per model so a warm cache replays in reading order.
pub fn fig8_scenarios() -> Vec<Scenario> {
    let mut out = Vec::new();
    for model in yoco_nn::models::fig8_benchmarks() {
        for acc in AcceleratorKind::ALL {
            out.push(Scenario::gemm(
                acc,
                DesignPoint::paper(),
                WorkloadSpec::Zoo {
                    model: model.name.clone(),
                },
            ));
        }
    }
    out
}

/// Assembles the Fig 8 table from an engine run of [`fig8_scenarios`].
pub fn fig8_table_from(report: &SweepReport) -> Result<Fig8Table, SweepError> {
    let mut metrics: Vec<&GemmMetrics> = Vec::with_capacity(report.cells.len());
    for cell in &report.cells {
        if let Some(e) = &cell.error {
            return Err(e.clone());
        }
        metrics.push(
            cell.metrics
                .as_ref()
                .and_then(Metrics::as_gemm)
                .ok_or_else(|| {
                    SweepError::schema(
                        format!("cell {}", cell.scenario.id),
                        "a Fig 8 report holds GEMM cells only",
                    )
                })?,
        );
    }
    let lookup = |workload: &str, accelerator: &str| -> Result<&GemmMetrics, SweepError> {
        metrics
            .iter()
            .find(|m| m.workload == workload && m.accelerator == accelerator)
            .copied()
            .ok_or_else(|| {
                SweepError::schema(
                    "fig8 assembly",
                    format!("missing cell {accelerator}/{workload}"),
                )
            })
    };
    let baselines = [
        AcceleratorKind::Isaac,
        AcceleratorKind::Raella,
        AcceleratorKind::Timely,
    ];
    let mut rows = Vec::new();
    for model in yoco_nn::models::fig8_benchmarks() {
        let y = lookup(&model.name, "yoco")?;
        let mut ee_ratio = [0.0; 3];
        let mut tp_ratio = [0.0; 3];
        for (i, b) in baselines.iter().enumerate() {
            let r = lookup(&model.name, b.name())?;
            ee_ratio[i] = y.tops_per_watt() / r.tops_per_watt();
            tp_ratio[i] = y.tops() / r.tops();
        }
        rows.push(Fig8Row {
            model: model.name.clone(),
            ee_ratio,
            tp_ratio,
            yoco_tops_per_watt: y.tops_per_watt(),
            yoco_tops: y.tops(),
        });
    }
    let mut ee_geomean = [0.0; 3];
    let mut tp_geomean = [0.0; 3];
    for i in 0..3 {
        let ee: Vec<f64> = rows.iter().map(|r| r.ee_ratio[i]).collect();
        let tp: Vec<f64> = rows.iter().map(|r| r.tp_ratio[i]).collect();
        ee_geomean[i] = geometric_mean(&ee);
        tp_geomean[i] = geometric_mean(&tp);
    }
    Ok(Fig8Table {
        rows,
        ee_geomean,
        tp_geomean,
    })
}

/// Runs the Fig 8 grid through an engine and assembles the table.
pub fn fig8_table_with(engine: &Engine) -> Result<(Fig8Table, SweepReport), SweepError> {
    let report = engine.run(&fig8_scenarios());
    let table = fig8_table_from(&report)?;
    Ok((table, report))
}

/// Evaluates all four accelerators on the 10 benchmarks and normalizes —
/// the seed-compatible library entry point (pure, uncached, serial).
pub fn fig8_table() -> Fig8Table {
    fig8_table_with(&Engine::ephemeral())
        .expect("builtin fig8 grid evaluates")
        .0
}

/// One transformer's pipeline result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig10Row {
    /// Model name (paper's Fig 10 label).
    pub model: String,
    /// Attention dimensions used.
    pub dims: AttentionDims,
    /// Layer-wise attention latency, ns.
    pub layerwise_ns: f64,
    /// Pipelined attention latency, ns.
    pub pipelined_ns: f64,
    /// Speedup (the Fig 10 bar).
    pub speedup: f64,
}

/// The Fig 10 table plus its geometric mean.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig10Table {
    /// Per-model rows in the paper's order.
    pub rows: Vec<Fig10Row>,
    /// Geometric-mean speedup (paper: 2.33×).
    pub geomean: f64,
}

/// The five Fig 10 transformers, in the paper's order.
const FIG10_MODELS: [&str; 5] = [
    "gpt_large",
    "mobilebert",
    "qdqbert",
    "vision_transformer",
    "llama3_7b",
];

/// Attention dimensions of the five Fig 10 transformers, in paper order,
/// read off each zoo model's attention layers.
pub fn fig10_dims() -> Vec<(&'static str, AttentionDims)> {
    let zoo = yoco_nn::models::fig8_benchmarks();
    FIG10_MODELS
        .into_iter()
        .map(|name| {
            let dims = zoo
                .iter()
                .filter(|m| m.name == name)
                .flat_map(|m| &m.layers)
                .find_map(|layer| match *layer {
                    LayerSpec::Attention {
                        seq,
                        d_model,
                        heads,
                        ..
                    } => Some(AttentionDims {
                        seq: seq as usize,
                        d_model: d_model as usize,
                        heads: heads as usize,
                    }),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("{name} is a zoo transformer"));
            (name, dims)
        })
        .collect()
}

/// The Fig 10 grid: one attention-pipeline cell per transformer.
pub fn fig10_scenarios() -> Vec<Scenario> {
    fig10_dims()
        .into_iter()
        .map(|(name, dims)| Scenario::attention(name, dims, DesignPoint::paper()))
        .collect()
}

/// Assembles the Fig 10 table from an engine run of [`fig10_scenarios`].
pub fn fig10_table_from(report: &SweepReport) -> Result<Fig10Table, SweepError> {
    let mut rows = Vec::with_capacity(report.cells.len());
    for cell in &report.cells {
        if let Some(e) = &cell.error {
            return Err(e.clone());
        }
        let m = cell
            .metrics
            .as_ref()
            .and_then(Metrics::as_attention)
            .ok_or_else(|| {
                SweepError::schema(
                    format!("cell {}", cell.scenario.id),
                    "a Fig 10 report holds attention cells only",
                )
            })?;
        rows.push(Fig10Row {
            model: m.model.clone(),
            dims: m.dims,
            layerwise_ns: m.layerwise_ns,
            pipelined_ns: m.pipelined_ns,
            speedup: m.speedup,
        });
    }
    let speedups: Vec<f64> = rows.iter().map(|r| r.speedup).collect();
    let geomean = geometric_mean(&speedups);
    Ok(Fig10Table { rows, geomean })
}

/// Runs the Fig 10 grid through an engine and assembles the table.
pub fn fig10_table_with(engine: &Engine) -> Result<(Fig10Table, SweepReport), SweepError> {
    let report = engine.run(&fig10_scenarios());
    let table = fig10_table_from(&report)?;
    Ok((table, report))
}

/// Runs both schedules for every Fig 10 transformer — the seed-compatible
/// library entry point (pure, uncached, serial).
pub fn fig10_table() -> Fig10Table {
    fig10_table_with(&Engine::ephemeral())
        .expect("builtin fig10 grid evaluates")
        .0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_table_matches_direct_computation() {
        // The engine path must reproduce the seed's direct loop bit-exactly.
        use yoco::YocoChip;
        use yoco_arch::accelerator::{Accelerator, RunReport};
        use yoco_baselines::{isaac::isaac, raella::raella, timely::timely};

        let t = fig8_table();
        assert_eq!(t.rows.len(), 10);

        let yoco = YocoChip::paper_default();
        let baselines: [&dyn Accelerator; 3] = [&isaac(), &raella(), &timely()];
        for (row, model) in t.rows.iter().zip(yoco_nn::models::fig8_benchmarks()) {
            assert_eq!(row.model, model.name);
            let workloads = model.workloads();
            let y: RunReport = yoco.evaluate_model(&model.name, &workloads);
            assert_eq!(row.yoco_tops_per_watt, y.tops_per_watt(), "{}", model.name);
            assert_eq!(row.yoco_tops, y.tops(), "{}", model.name);
            for (i, b) in baselines.iter().enumerate() {
                let r = b.evaluate_model(&model.name, &workloads);
                assert_eq!(row.ee_ratio[i], y.tops_per_watt() / r.tops_per_watt());
                assert_eq!(row.tp_ratio[i], y.tops() / r.tops());
            }
        }
    }

    #[test]
    fn fig10_speedups_are_real_and_summarized() {
        let t = fig10_table();
        assert_eq!(t.rows.len(), 5);
        for r in &t.rows {
            assert!(r.speedup > 1.0, "{}: {}", r.model, r.speedup);
            assert!((r.speedup - r.layerwise_ns / r.pipelined_ns).abs() < 1e-9);
        }
        assert!(t.geomean > 1.5 && t.geomean < 4.0, "geomean {}", t.geomean);
    }
}
