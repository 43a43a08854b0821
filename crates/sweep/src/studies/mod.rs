//! Named single-shot studies: every figure/table computation that is not a
//! plain (accelerator × workload) grid, packaged as cacheable engine
//! cells with typed payloads.

pub mod ablations;
pub mod fig6;
pub mod overview;

use crate::api::SweepError;
use crate::scenario::StudyId;
use serde::{Deserialize, Serialize};
use yoco::YocoChip;
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
    let (area_ratio, energy_ratio, latency_ratio) = yoco_baselines::adc_dac::fig9a_dac_ratios();
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

/// Typed payload of one study cell: one variant per [`StudyId`], named
/// like it, each wrapping the record the study computes. Serialization
/// is externally tagged (`{"Fig7": [...]}`); cache entries store the
/// untagged inner value (see [`crate::Metrics::cache_value`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StudyMetrics {
    /// Fig 1(c) scatter points.
    Fig1c(Vec<overview::Fig1cPoint>),
    /// Fig 6(a) transfer-curve record.
    Fig6a(fig6::Fig6aRecord),
    /// Fig 6(b)/(c) MAC sweep record.
    Fig6bc(fig6::Fig6bcRecord),
    /// Fig 6(d) Monte-Carlo offsets.
    Fig6d(MonteCarloReport),
    /// Fig 6(e) error ladder: `(design, error %)` pairs.
    Fig6e(Vec<(&'static str, f64)>),
    /// Fig 6(f) accuracy rows.
    Fig6f(Vec<fig6::Fig6fRow>),
    /// Fig 7 comparison rows.
    Fig7(Vec<yoco_baselines::prior::Fig7Row>),
    /// Fig 9(a) DAC overhead ratios.
    Fig9a(Fig9aRecord),
    /// Fig 9(b) conversion schemes.
    Fig9b(Vec<yoco_baselines::adc_dac::AdcScheme>),
    /// Table I taxonomy rows.
    Table1(Vec<yoco_baselines::taxonomy::TaxonomyRow>),
    /// Table II derived parameters.
    Table2(Table2Record),
    /// Model-zoo summary records.
    Models(Vec<overview::ModelRecord>),
    /// Energy-breakdown record.
    Breakdown(overview::BreakdownRecord),
    /// Bit-slicing ablation points.
    AblationSlicing(Vec<ablations::SlicingPoint>),
    /// Time-domain-accumulation ablation points.
    AblationTda(Vec<ablations::TdaPoint>),
    /// Tile-mix ablation points.
    AblationHybrid(Vec<ablations::HybridPoint>),
    /// Pipeline-depth ablation points.
    AblationPipelineDepth(Vec<ablations::PipelineDepthPoint>),
    /// PVT-corner ablation points.
    AblationCorners(Vec<ablations::CornerPoint>),
}

impl StudyMetrics {
    /// The study this payload belongs to.
    pub fn study_id(&self) -> StudyId {
        match self {
            StudyMetrics::Fig1c(_) => StudyId::Fig1c,
            StudyMetrics::Fig6a(_) => StudyId::Fig6a,
            StudyMetrics::Fig6bc(_) => StudyId::Fig6bc,
            StudyMetrics::Fig6d(_) => StudyId::Fig6d,
            StudyMetrics::Fig6e(_) => StudyId::Fig6e,
            StudyMetrics::Fig6f(_) => StudyId::Fig6f,
            StudyMetrics::Fig7(_) => StudyId::Fig7,
            StudyMetrics::Fig9a(_) => StudyId::Fig9a,
            StudyMetrics::Fig9b(_) => StudyId::Fig9b,
            StudyMetrics::Table1(_) => StudyId::Table1,
            StudyMetrics::Table2(_) => StudyId::Table2,
            StudyMetrics::Models(_) => StudyId::Models,
            StudyMetrics::Breakdown(_) => StudyId::Breakdown,
            StudyMetrics::AblationSlicing(_) => StudyId::AblationSlicing,
            StudyMetrics::AblationTda(_) => StudyId::AblationTda,
            StudyMetrics::AblationHybrid(_) => StudyId::AblationHybrid,
            StudyMetrics::AblationPipelineDepth(_) => StudyId::AblationPipelineDepth,
            StudyMetrics::AblationCorners(_) => StudyId::AblationCorners,
        }
    }
}

/// Evaluates one study to its typed payload, with one thread per core
/// for the studies that fan out (fig6d).
pub fn run(study: StudyId) -> Result<StudyMetrics, SweepError> {
    run_with(study, crate::executor::default_jobs())
}

/// [`run`] with at most `jobs` threads per study (the engine's setting).
pub(crate) fn run_with(study: StudyId, jobs: usize) -> Result<StudyMetrics, SweepError> {
    Ok(match study {
        StudyId::Fig1c => StudyMetrics::Fig1c(overview::fig1c()),
        StudyId::Fig6a => StudyMetrics::Fig6a(fig6::fig6a()?),
        StudyId::Fig6bc => StudyMetrics::Fig6bc(fig6::fig6bc()?),
        StudyId::Fig6d => StudyMetrics::Fig6d(fig6::fig6d(jobs)?),
        StudyId::Fig6e => StudyMetrics::Fig6e(yoco_baselines::prior::fig6e_error_ladder()),
        StudyId::Fig6f => StudyMetrics::Fig6f(fig6::fig6f()?),
        StudyId::Fig7 => StudyMetrics::Fig7(yoco_baselines::prior::fig7_rows()),
        StudyId::Fig9a => StudyMetrics::Fig9a(fig9a()),
        StudyId::Fig9b => StudyMetrics::Fig9b(yoco_baselines::adc_dac::fig9b_schemes()),
        StudyId::Table1 => StudyMetrics::Table1(yoco_baselines::taxonomy::table1_rows()),
        StudyId::Table2 => StudyMetrics::Table2(table2_record()),
        StudyId::Models => StudyMetrics::Models(overview::models()),
        StudyId::Breakdown => StudyMetrics::Breakdown(overview::breakdown()),
        StudyId::AblationSlicing => StudyMetrics::AblationSlicing(ablations::slicing_sweep()),
        StudyId::AblationTda => StudyMetrics::AblationTda(ablations::tda_ablation()),
        StudyId::AblationHybrid => StudyMetrics::AblationHybrid(ablations::hybrid_ablation()),
        StudyId::AblationPipelineDepth => {
            StudyMetrics::AblationPipelineDepth(ablations::pipeline_depth_sweep())
        }
        StudyId::AblationCorners => StudyMetrics::AblationCorners(ablations::corner_sweep()),
    })
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
