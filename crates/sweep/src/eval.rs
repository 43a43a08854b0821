//! Scenario evaluation: the one place a descriptor becomes numbers.
//!
//! Evaluation is a pure function of the scenario (all simulations are
//! seeded), which is what makes content-addressed caching sound. Since
//! the API redesign it returns a typed [`Metrics`] payload and a
//! structured [`SweepError`] instead of raw JSON and strings.

use crate::api::{Metrics, SweepError};
use crate::scenario::{AcceleratorKind, ScenarioKind};
use serde::{Deserialize, Serialize};
use yoco::pipeline::{AttentionDims, AttentionPipeline};
use yoco::YocoChip;
use yoco_arch::accelerator::{Accelerator, LayerCost};
use yoco_baselines::{isaac::isaac, raella::raella, timely::timely};

/// Payload of a GEMM cell: whole-model totals (the Fig 8 inputs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GemmMetrics {
    /// Accelerator report name.
    pub accelerator: String,
    /// Workload label (zoo model or ad-hoc GEMM name).
    pub workload: String,
    /// Accumulated cost over all layers.
    pub total: LayerCost,
}

impl GemmMetrics {
    /// Energy efficiency, TOPS/W.
    pub fn tops_per_watt(&self) -> f64 {
        self.total.tops_per_watt()
    }

    /// Throughput, TOPS.
    pub fn tops(&self) -> f64 {
        self.total.tops()
    }
}

/// Payload of an attention-pipeline cell (the Fig 10 inputs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttentionMetrics {
    /// Transformer name.
    pub model: String,
    /// Attention dimensions simulated.
    pub dims: AttentionDims,
    /// Layer-wise attention latency, ns.
    pub layerwise_ns: f64,
    /// Pipelined attention latency, ns.
    pub pipelined_ns: f64,
    /// Pipelining speedup.
    pub speedup: f64,
}

/// Evaluates one scenario to its typed payload, on at most `jobs`
/// threads (the calling one included; only fig6d's Monte-Carlo uses more
/// than one).
///
/// Resolution *is* validation here — workload and design resolve exactly
/// once, and the cheap guards ([`crate::scenario`]'s baseline/dims
/// checks, shared with [`ScenarioKind::validate`]) run inline, so a cell
/// that went through [`crate::api::ScenarioBuilder`] pays nothing twice.
pub fn evaluate(kind: &ScenarioKind, jobs: usize) -> Result<Metrics, SweepError> {
    match kind {
        ScenarioKind::Gemm {
            accelerator,
            design,
            workload,
        } => {
            crate::scenario::baseline_design_guard(*accelerator, design, workload.label())?;
            let workloads = workload.resolve()?;
            let label = workload.label().to_owned();
            let report = match accelerator {
                AcceleratorKind::Yoco => {
                    let chip = YocoChip::new(design.resolve()?);
                    chip.evaluate_model(&label, &workloads)
                }
                baseline => {
                    // The guard above rejected non-paper designs here.
                    let b: Box<dyn Accelerator> = match baseline {
                        AcceleratorKind::Isaac => Box::new(isaac()),
                        AcceleratorKind::Raella => Box::new(raella()),
                        AcceleratorKind::Timely => Box::new(timely()),
                        AcceleratorKind::Yoco => unreachable!("handled above"),
                    };
                    b.evaluate_model(&label, &workloads)
                }
            };
            Ok(Metrics::Gemm(GemmMetrics {
                accelerator: accelerator.name().to_owned(),
                workload: label,
                total: report.total,
            }))
        }
        ScenarioKind::Attention {
            model,
            dims,
            design,
        } => {
            crate::scenario::attention_dims_guard(model, dims)?;
            let pipeline = AttentionPipeline::new(design.resolve()?);
            let r = pipeline.simulate(dims);
            Ok(Metrics::Attention(AttentionMetrics {
                model: model.clone(),
                dims: *dims,
                layerwise_ns: r.layerwise_ns,
                pipelined_ns: r.pipelined_ns,
                speedup: r.speedup(),
            }))
        }
        ScenarioKind::Study { study } => crate::studies::run_with(*study, jobs).map(Metrics::Study),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{DesignPoint, Scenario, WorkloadSpec};
    use yoco_arch::workload::LayerKind;

    #[test]
    fn gemm_cell_matches_direct_evaluation() {
        let s = Scenario::gemm(
            AcceleratorKind::Isaac,
            DesignPoint::paper(),
            WorkloadSpec::Gemm {
                name: "fc".into(),
                m: 16,
                k: 512,
                n: 512,
                kind: LayerKind::Linear,
            },
        );
        let metrics = evaluate(&s.kind, 1).unwrap();
        let gemm = metrics.as_gemm().expect("a GEMM cell");
        let direct = isaac().evaluate_model(
            "fc",
            &[yoco_arch::workload::MatmulWorkload::new("fc", 16, 512, 512)],
        );
        assert_eq!(gemm.total, direct.total);
        assert_eq!(gemm.accelerator, "isaac");
    }

    #[test]
    fn design_overrides_on_baselines_are_rejected() {
        let kind = ScenarioKind::Gemm {
            accelerator: AcceleratorKind::Timely,
            design: DesignPoint {
                tiles: Some(2),
                ..Default::default()
            },
            workload: WorkloadSpec::Gemm {
                name: "fc".into(),
                m: 1,
                k: 128,
                n: 32,
                kind: LayerKind::Linear,
            },
        };
        let err = evaluate(&kind, 1).unwrap_err();
        assert!(err.to_string().contains("only apply to yoco"), "{err}");
        assert_eq!(err.category(), "invalid-scenario");
    }

    #[test]
    fn attention_cell_matches_direct_simulation() {
        let dims = AttentionDims {
            seq: 128,
            d_model: 512,
            heads: 4,
        };
        let s = Scenario::attention("mobilebert", dims, DesignPoint::paper());
        let metrics = evaluate(&s.kind, 1).unwrap();
        let m = metrics.as_attention().expect("an attention cell");
        let direct = AttentionPipeline::new(yoco::YocoConfig::paper_default()).simulate(&dims);
        assert_eq!(m.layerwise_ns, direct.layerwise_ns);
        assert_eq!(m.pipelined_ns, direct.pipelined_ns);
        assert!(m.speedup > 1.0);
    }
}
