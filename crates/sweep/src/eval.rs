//! Scenario evaluation: the one place a descriptor becomes numbers.
//!
//! Evaluation is a pure function of the scenario (all simulations are
//! seeded), which is what makes content-addressed caching sound. Since
//! the API redesign it returns a typed [`Metrics`] payload and a
//! structured [`SweepError`] instead of raw JSON and strings.

use crate::api::{Metrics, SweepError};
use crate::scenario::{AcceleratorKind, DesignPoint, ScenarioKind};
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
/// This is the one place a scenario is checked: workload and design
/// resolve exactly once, the baseline-design and attention-dimension
/// guards run inline, and a cell that fails any of them returns its
/// typed [`SweepError`] instead of a payload.
pub fn evaluate(kind: &ScenarioKind, jobs: usize) -> Result<Metrics, SweepError> {
    match kind {
        ScenarioKind::Gemm {
            accelerator,
            design,
            workload,
        } => {
            baseline_design_guard(*accelerator, design, workload.label())?;
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
            attention_dims_guard(model, dims)?;
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

/// Baselines must run at the paper design point: silently ignoring an
/// override would poison the cache key space.
fn baseline_design_guard(
    accelerator: AcceleratorKind,
    design: &DesignPoint,
    workload_label: &str,
) -> Result<(), SweepError> {
    if accelerator != AcceleratorKind::Yoco && !design.is_paper() {
        return Err(SweepError::invalid(
            format!("{}/{workload_label}", accelerator.name()),
            format!(
                "design-point overrides only apply to yoco, not {}",
                accelerator.name()
            ),
        ));
    }
    Ok(())
}

/// Attention dimensions must be positive with an integral head width.
fn attention_dims_guard(model: &str, dims: &AttentionDims) -> Result<(), SweepError> {
    if dims.seq == 0 || dims.d_model == 0 || dims.heads == 0 {
        return Err(SweepError::invalid(
            format!("attention/{model}"),
            format!(
                "attention dimensions must be positive, got seq {} d_model {} heads {}",
                dims.seq, dims.d_model, dims.heads
            ),
        ));
    }
    if !dims.d_model.is_multiple_of(dims.heads) {
        return Err(SweepError::invalid(
            format!("attention/{model}"),
            format!(
                "heads ({}) must divide d_model ({})",
                dims.heads, dims.d_model
            ),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scenario, WorkloadSpec};
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
        let timely = |tiles| ScenarioKind::Gemm {
            accelerator: AcceleratorKind::Timely,
            design: DesignPoint {
                tiles: Some(tiles),
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
        let err = evaluate(&timely(2), 1).unwrap_err();
        assert!(err.to_string().contains("only apply to yoco"), "{err}");
        assert_eq!(err.category(), "invalid-scenario");
        // A restated paper default is still the paper design point.
        assert!(evaluate(&timely(4), 1).is_ok());
    }

    #[test]
    fn invalid_cells_fail_with_typed_errors() {
        let attention = |seq, heads| {
            let dims = AttentionDims {
                seq,
                d_model: 768,
                heads,
            };
            Scenario::attention("m", dims, DesignPoint::paper()).kind
        };
        let zero_k = WorkloadSpec::Gemm {
            name: "g".into(),
            m: 4,
            k: 0,
            n: 32,
            kind: LayerKind::Linear,
        };
        let zero_tiles = DesignPoint {
            tiles: Some(0),
            ..Default::default()
        };
        let resnet18 = WorkloadSpec::Zoo {
            model: "resnet18".into(),
        };
        let cases = [
            (
                Scenario::gemm(AcceleratorKind::Yoco, DesignPoint::paper(), zero_k).kind,
                "workload-resolution",
                "must be positive",
            ),
            (
                Scenario::gemm(AcceleratorKind::Yoco, zero_tiles, resnet18).kind,
                "invalid-scenario",
                "design-point",
            ),
            (attention(0, 12), "invalid-scenario", "must be positive"),
            (attention(128, 5), "invalid-scenario", "divide"),
        ];
        for (kind, category, reason) in cases {
            let err = evaluate(&kind, 1).unwrap_err();
            assert_eq!(err.category(), category, "{kind:?}: {err}");
            assert!(err.to_string().contains(reason), "{kind:?}: {err}");
        }
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
