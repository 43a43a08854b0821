//! Named single-shot studies: every figure/table computation that is not a
//! plain (accelerator × workload) grid, packaged as cacheable engine
//! cells with typed payloads.
//!
//! Each study is declared once, as one row of the `studies!` table in
//! this file: its [`StudyId`] variant, CLI name, payload type and compute
//! call. The table generates [`StudyId`] (with `ALL` and `name`),
//! [`StudyMetrics`] (with `study_id`) and the dispatch behind [`run`], so
//! a new study is one row and no list of studies can miss it.

pub mod ablations;
pub mod fig6;
pub mod overview;

use crate::api::SweepError;
use serde::{Deserialize, Serialize};
use yoco::YocoChip;
use yoco_baselines::{adc_dac, prior, taxonomy};
use yoco_circuit::energy::{array_area, array_vmm_energy, ima_area, ima_vmm_cost, table2};
use yoco_circuit::variation::MonteCarloReport;

/// Fig 9(a): DAC overhead reductions, conventional ÷ YOCO.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig9aRecord {
    /// Area reduction factor.
    pub area_ratio: f64,
    /// Energy reduction factor.
    pub energy_ratio: f64,
    /// Latency reduction factor.
    pub latency_ratio: f64,
}

/// Computes Fig 9(a).
pub fn fig9a() -> Fig9aRecord {
    let (area_ratio, energy_ratio, latency_ratio) = adc_dac::fig9a_dac_ratios();
    Fig9aRecord {
        area_ratio,
        energy_ratio,
        latency_ratio,
    }
}

/// Table II's derived headline numbers, computed from the component
/// models (not hard-coded prose).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Table2Record {
    /// One 128×256 array VMM energy at 50 % activity, pJ.
    pub array_energy_pj: f64,
    /// One IMA VMM energy, nJ.
    pub ima_energy_nj: f64,
    /// One IMA VMM latency, ns.
    pub ima_latency_ns: f64,
    /// Headline energy efficiency, TOPS/W.
    pub tops_per_watt: f64,
    /// Headline throughput, TOPS.
    pub tops: f64,
    /// Array area, µm².
    pub array_area_um2: f64,
    /// IMA area, µm².
    pub ima_area_um2: f64,
    /// Chip area from the component roll-up, mm².
    pub chip_area_mm2: f64,
}

/// Computes the Table II record.
pub fn table2_record() -> Table2Record {
    let array_e = array_vmm_energy(table2::DEFAULT_ACTIVITY);
    let cost = ima_vmm_cost(table2::DEFAULT_ACTIVITY);
    let chip = YocoChip::paper_default();
    Table2Record {
        array_energy_pj: array_e.as_pico(),
        ima_energy_nj: cost.energy.as_nano(),
        ima_latency_ns: cost.latency.as_nano(),
        tops_per_watt: cost.tops_per_watt(),
        tops: cost.tops(),
        array_area_um2: array_area().value(),
        ima_area_um2: ima_area().value(),
        chip_area_mm2: chip.area_mm2(),
    }
}

/// Generates the study types from the table below. Each row is
/// `Variant "cli-name": Payload = compute,` under a single doc line, in
/// figure order; a compute call may use `?` and the thread budget named
/// before the rows.
macro_rules! studies {
    ($jobs:ident => $(#[doc = $doc:literal] $id:ident $name:literal: $ty:ty = $run:expr,)*) => {
        /// Named single-shot studies: every figure/table computation that is not a
        /// (accelerator × workload) grid. Each is pure and therefore cacheable.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
        pub enum StudyId {
            $(#[doc = $doc] $id,)*
        }

        impl StudyId {
            /// Every study, in figure order.
            pub const ALL: [StudyId; [$(StudyId::$id),*].len()] = [$(StudyId::$id),*];

            /// CLI/report name.
            pub fn name(self) -> &'static str {
                match self {
                    $(StudyId::$id => $name,)*
                }
            }
        }

        /// Typed payload of one study cell: one variant per [`StudyId`], named
        /// like it, each wrapping the record the study computes. Serialization
        /// is externally tagged (`{"Fig7": [...]}`); cache entries store the
        /// untagged inner value (see [`crate::Metrics::cache_value`]).
        #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
        pub enum StudyMetrics {
            $(#[doc = $doc] $id($ty),)*
        }

        impl StudyMetrics {
            /// The study this payload belongs to.
            pub fn study_id(&self) -> StudyId {
                match self {
                    $(StudyMetrics::$id(_) => StudyId::$id,)*
                }
            }
        }

        /// [`run`] with at most `jobs` threads per study (the engine's setting).
        pub(crate) fn run_with(study: StudyId, $jobs: usize) -> Result<StudyMetrics, SweepError> {
            Ok(match study {
                $(StudyId::$id => StudyMetrics::$id($run),)*
            })
        }
    };
}

studies! { jobs =>
    /// Fig 1(c): throughput-vs-efficiency scatter of recent IMC macros.
    Fig1c "fig1c": Vec<overview::Fig1cPoint> = overview::fig1c(),
    /// Fig 6(a): input-conversion transfer curve with INL/DNL.
    Fig6a "fig6a": fig6::Fig6aRecord = fig6::fig6a()?,
    /// Fig 6(b)/(c): 8-bit MAC transfer curves and errors, 128 channels.
    Fig6bc "fig6bc": fig6::Fig6bcRecord = fig6::fig6bc()?,
    /// Fig 6(d): 2000-run Monte-Carlo voltage-offset distribution.
    Fig6d "fig6d": MonteCarloReport = fig6::fig6d(jobs)?,
    /// Fig 6(e): end-to-end MAC error vs prior designs, as `(design, error %)` pairs.
    Fig6e "fig6e": Vec<(&'static str, f64)> = prior::fig6e_error_ladder(),
    /// Fig 6(f): DNN inference accuracy, FP32 vs YOCO-based.
    Fig6f "fig6f": Vec<fig6::Fig6fRow> = fig6::fig6f()?,
    /// Fig 7: YOCO IMA vs eight prior IMC macros.
    Fig7 "fig7": Vec<prior::Fig7Row> = prior::fig7_rows(),
    /// Fig 9(a): DAC overhead ratios.
    Fig9a "fig9a": Fig9aRecord = fig9a(),
    /// Fig 9(b): ADC conversions per 8-bit MAC output.
    Fig9b "fig9b": Vec<adc_dac::AdcScheme> = adc_dac::fig9b_schemes(),
    /// Table I: the ADCs/DACs cost taxonomy.
    Table1 "table1": Vec<taxonomy::TaxonomyRow> = taxonomy::table1_rows(),
    /// Table II: the derived YOCO parameter summary.
    Table2 "table2": Table2Record = table2_record(),
    /// The Fig 8 model zoo at a glance: GEMM counts, MACs, placement.
    Models "models": Vec<overview::ModelRecord> = overview::models(),
    /// Per-component energy breakdown, YOCO vs ISAAC's converter share.
    Breakdown "breakdown": overview::BreakdownRecord = overview::breakdown(),
    /// Ablation: input bit-slicing (charge-once vs bit-serial).
    AblationSlicing "ablation-slicing": Vec<ablations::SlicingPoint> = ablations::slicing_sweep(),
    /// Ablation: time-domain vs voltage-domain accumulation.
    AblationTda "ablation-tda": Vec<ablations::TdaPoint> = ablations::tda_ablation(),
    /// Ablation: all-SRAM vs all-ReRAM vs hybrid tiles.
    AblationHybrid "ablation-hybrid": Vec<ablations::HybridPoint> = ablations::hybrid_ablation(),
    /// Ablation: pipeline speedup vs sequence length.
    AblationPipelineDepth "ablation-pipeline-depth": Vec<ablations::PipelineDepthPoint> =
        ablations::pipeline_depth_sweep(),
    /// Ablation: PVT corner sweep with digital calibration.
    AblationCorners "ablation-corners": Vec<ablations::CornerPoint> = ablations::corner_sweep(),
}

/// Evaluates one study to its typed payload, with one thread per core
/// for the studies that fan out (fig6d).
pub fn run(study: StudyId) -> Result<StudyMetrics, SweepError> {
    run_with(study, crate::executor::default_jobs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Metrics;
    use crate::scenario::ScenarioKind;

    #[test]
    fn every_study_evaluates_to_its_own_typed_payload() {
        for study in StudyId::ALL {
            let payload = run(study).unwrap_or_else(|e| panic!("{}: {e}", study.name()));
            assert_eq!(payload.study_id(), study);
            // Cache values, not typed payloads, are compared: a non-finite
            // float (ablation-hybrid's endurance) is stored as `null` and
            // reads back as NaN.
            let stored = Metrics::Study(payload).cache_value();
            assert!(!stored.is_null(), "{} produced null", study.name());
            let kind = ScenarioKind::Study { study };
            let back = Metrics::from_cache_value(&kind, stored.clone())
                .unwrap_or_else(|e| panic!("{}: {e}", study.name()));
            assert_eq!(back.cache_value(), stored, "{}", study.name());
        }
    }

    #[test]
    fn study_payloads_round_trip_through_cache_values() {
        for study in [StudyId::Fig7, StudyId::Table2, StudyId::Models] {
            let m = Metrics::Study(run(study).unwrap());
            let kind = ScenarioKind::Study { study };
            let back = Metrics::from_cache_value(&kind, m.cache_value()).unwrap();
            assert_eq!(m, back, "{}", study.name());
        }
        // A payload read back under another study's id is a schema mismatch.
        let table2 = Metrics::Study(run(StudyId::Table2).unwrap()).cache_value();
        let fig7 = ScenarioKind::Study {
            study: StudyId::Fig7,
        };
        assert!(Metrics::from_cache_value(&fig7, table2).is_err());
    }

    #[test]
    fn table2_matches_the_headline_operating_point() {
        let r = table2_record();
        assert!((r.tops_per_watt - 123.8).abs() / 123.8 < 0.03);
        assert!((r.tops - 34.9).abs() / 34.9 < 0.03);
    }
}
