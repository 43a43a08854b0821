//! Ablation studies for the design choices DESIGN.md §5 calls out.
//!
//! Each function returns structured data; the `ablations` bin prints it.

use serde::{Deserialize, Serialize};
use yoco::{AttentionDims, AttentionPipeline, YocoConfig};
use yoco_arch::accelerator::Accelerator;
use yoco_arch::workload::MatmulWorkload;
use yoco_baselines::adc_dac::AdcSpec;
use yoco_baselines::model::{BitSliceImc, DynamicWeightPolicy};
use yoco_circuit::calib::DigitalCalibration;
use yoco_circuit::fast::MacErrorModel;
use yoco_circuit::{noise_at, ProcessCorner};
use yoco_mem::{MemoryModel, ReramArray, SramArray};

/// One point of the input-slicing ablation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlicingPoint {
    /// Bits applied per input cycle.
    pub input_slice_bits: u8,
    /// Input cycles per 8-bit operand.
    pub cycles: u32,
    /// ADC conversions per MAC (×1000 for readability).
    pub converts_per_mac_milli: f64,
    /// Energy per 8-bit MAC, pJ.
    pub energy_per_mac_pj: f64,
    /// Latency per full VMM invocation, ns.
    pub invocation_latency_ns: f64,
}

/// Charge-once vs bit-sliced input: sweep the input slice width of an
/// otherwise ISAAC-like design and watch converts/MAC and energy fall as
/// slicing coarsens — the argument for YOCO's sliceless conversion.
pub fn slicing_sweep() -> Vec<SlicingPoint> {
    let w = MatmulWorkload::new("fc", 256, 1024, 1024);
    [1u8, 2, 4, 8]
        .iter()
        .map(|&bits| {
            let design = BitSliceImc {
                name: format!("slice{bits}"),
                rows: 128,
                cols: 128,
                cell_bits: 2,
                input_slice_bits: bits,
                operand_bits: 8,
                adc: AdcSpec::isaac_8b(),
                analog_accum_columns: 1,
                cycle_ns: 100.0,
                cell_read_fj: 5.5,
                dac: yoco_baselines::adc_dac::DacSpec::serial_1b(),
                psum_pj: 0.05,
                buffer_pj_per_bit: 0.08,
                parallel_macros: 1300,
                dynamic_policy: DynamicWeightPolicy::ReramWrite {
                    pj_per_bit: 2.0,
                    ns_per_row: 50.0,
                },
            };
            let cost = design.evaluate(&w);
            SlicingPoint {
                input_slice_bits: bits,
                cycles: design.input_cycles(),
                converts_per_mac_milli: design.converts_per_mac() * 1000.0,
                energy_per_mac_pj: cost.energy_pj / (w.macs() as f64),
                invocation_latency_ns: design.input_cycles() as f64 * 100.0,
            }
        })
        .collect()
}

/// One point of the time-domain accumulation ablation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TdaPoint {
    /// Vertically stacked arrays.
    pub stack: usize,
    /// Converter firings per output column, with TDA.
    pub conversions_with_tda: usize,
    /// Converter firings per output column, without TDA (per-array ADC).
    pub conversions_without_tda: usize,
    /// Readout energy per output with TDA, pJ.
    pub readout_pj_with_tda: f64,
    /// Readout energy per output without TDA, pJ.
    pub readout_pj_without_tda: f64,
    /// Signal swing available per stage in the voltage domain, V (shrinks
    /// as 1/stack if partial sums were averaged on a shared rail).
    pub voltage_domain_swing_v: f64,
    /// Signal window in the time domain, ns (grows with the stack).
    pub time_domain_window_ns: f64,
}

/// Time-domain vs voltage-domain accumulation: stacking arrays in the time
/// domain grows the signal window and needs one conversion per column;
/// voltage-domain stacking would divide the swing and digitize per array.
pub fn tda_ablation() -> Vec<TdaPoint> {
    let tdc_pj = 7.7;
    [1usize, 2, 4, 8, 16]
        .iter()
        .map(|&stack| {
            let tda = yoco_circuit::TimeDomainAccumulator::new(
                yoco_circuit::Vtc::yoco_default(),
                stack,
                yoco_circuit::NoiseModel::ideal(),
            );
            TdaPoint {
                stack,
                conversions_with_tda: 1,
                conversions_without_tda: stack,
                readout_pj_with_tda: tdc_pj + stack as f64 * 58.5e-3,
                readout_pj_without_tda: stack as f64 * tdc_pj,
                voltage_domain_swing_v: yoco_circuit::VDD / stack as f64,
                time_domain_window_ns: tda.full_scale().as_nano(),
            }
        })
        .collect()
}

/// One tile variant of the hybrid-memory ablation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HybridPoint {
    /// Variant name.
    pub variant: String,
    /// Resident 8-bit weights per tile.
    pub weight_capacity: u64,
    /// Energy to host one dynamic 1024×1024 attention matrix, nJ.
    pub dynamic_write_nj: f64,
    /// Hours until the hottest cell wears out at 1 000 rewrites/s
    /// (`inf` for SRAM). Consumers reading this back from an engine
    /// payload must test `!is_finite()`, not `is_infinite()`: non-finite
    /// floats serialize to JSON `null` (serde_json convention) and
    /// deserialize as NaN.
    pub endurance_hours_at_1k: f64,
}

/// All-SRAM vs all-ReRAM vs hybrid tiles on a transformer layer.
pub fn hybrid_ablation() -> Vec<HybridPoint> {
    let config = YocoConfig::paper_default();
    let cells_per_ima = (config.ima_stack * config.ima_width * 128 * 256) as u64;
    let dynamic_bits = 1024 * 1024 * 8u64;
    let sram_write = SramArray::new(dynamic_bits / 8)
        .write_cost(dynamic_bits)
        .energy_pj;
    let reram_write = ReramArray::new(dynamic_bits / 8)
        .write_cost(dynamic_bits)
        .energy_pj;
    let reram_life = ReramArray::lifetime_seconds(1000.0) / 3600.0;
    vec![
        HybridPoint {
            variant: "all-SRAM".into(),
            weight_capacity: 8 * cells_per_ima,
            dynamic_write_nj: sram_write / 1e3,
            endurance_hours_at_1k: f64::INFINITY,
        },
        HybridPoint {
            variant: "all-ReRAM".into(),
            weight_capacity: 8 * cells_per_ima * 4,
            dynamic_write_nj: reram_write / 1e3,
            endurance_hours_at_1k: reram_life,
        },
        HybridPoint {
            variant: "hybrid (4+4, YOCO)".into(),
            weight_capacity: 4 * cells_per_ima + 4 * cells_per_ima * 4,
            dynamic_write_nj: sram_write / 1e3, // dynamic matrices go to DIMAs
            endurance_hours_at_1k: f64::INFINITY, // ReRAM side never rewritten
        },
    ]
}

/// One point of the pipeline-depth ablation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineDepthPoint {
    /// Sequence length.
    pub seq: usize,
    /// Speedup of the full 6-stage pipeline over layer-wise execution.
    pub speedup: f64,
}

/// Pipeline benefit vs sequence length at BERT-base dimensions.
pub fn pipeline_depth_sweep() -> Vec<PipelineDepthPoint> {
    let pipeline = AttentionPipeline::new(YocoConfig::paper_default());
    [16usize, 64, 128, 512, 1024, 2048]
        .iter()
        .map(|&seq| PipelineDepthPoint {
            seq,
            speedup: pipeline
                .simulate(&AttentionDims {
                    seq,
                    d_model: 768,
                    heads: 12,
                })
                .speedup(),
        })
        .collect()
}

/// One point of the PVT corner sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CornerPoint {
    /// Corner label.
    pub corner: String,
    /// Junction temperature, °C.
    pub temp_c: f64,
    /// Peak deterministic MAC error, fraction of full scale.
    pub peak_error: f64,
    /// Residual after digital calibration.
    pub calibrated_error: f64,
}

/// PVT robustness sweep: deterministic MAC error across all five corners
/// and three temperatures, before and after digital calibration.
pub fn corner_sweep() -> Vec<CornerPoint> {
    let mut out = Vec::new();
    for corner in ProcessCorner::ALL {
        for temp in [-40.0, 25.0, 125.0] {
            let model = MacErrorModel::from_noise(&noise_at(corner, temp), 128);
            let cal = DigitalCalibration::characterize(&model, 64);
            out.push(CornerPoint {
                corner: corner.to_string(),
                temp_c: temp,
                peak_error: model.peak_deterministic_error(),
                calibrated_error: cal.residual_error(&model),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coarser_slicing_cuts_converts_and_energy() {
        let sweep = slicing_sweep();
        assert_eq!(sweep.len(), 4);
        for pair in sweep.windows(2) {
            assert!(pair[1].converts_per_mac_milli < pair[0].converts_per_mac_milli);
            assert!(pair[1].energy_per_mac_pj < pair[0].energy_per_mac_pj);
            assert!(pair[1].invocation_latency_ns < pair[0].invocation_latency_ns);
        }
    }

    #[test]
    fn tda_wins_grow_with_stack() {
        let points = tda_ablation();
        let deep = &points[points.len() - 1];
        assert!(deep.readout_pj_without_tda > 10.0 * deep.readout_pj_with_tda / 2.0);
        assert!(deep.time_domain_window_ns > points[0].time_domain_window_ns * 10.0);
        assert!(deep.voltage_domain_swing_v < points[0].voltage_domain_swing_v / 10.0);
    }

    #[test]
    fn hybrid_gets_both_density_and_cheap_writes() {
        let points = hybrid_ablation();
        let sram = &points[0];
        let reram = &points[1];
        let hybrid = &points[2];
        assert!(hybrid.weight_capacity > sram.weight_capacity);
        assert!(hybrid.dynamic_write_nj < reram.dynamic_write_nj / 10.0);
        assert!(hybrid.endurance_hours_at_1k.is_infinite());
    }

    #[test]
    fn calibration_wins_at_every_corner() {
        for p in corner_sweep() {
            assert!(
                p.calibrated_error < p.peak_error || p.peak_error < 1e-6,
                "{} @ {}: {} vs {}",
                p.corner,
                p.temp_c,
                p.calibrated_error,
                p.peak_error
            );
        }
    }

    #[test]
    fn pipeline_speedup_holds_across_lengths() {
        for p in pipeline_depth_sweep() {
            assert!(p.speedup > 1.0, "seq {}: {}", p.seq, p.speedup);
        }
    }
}
