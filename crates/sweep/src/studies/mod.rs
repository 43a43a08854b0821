//! Named single-shot studies: every figure/table computation that is not a
//! plain (accelerator × workload) grid, packaged as cacheable engine
//! cells with typed payloads.

pub mod ablations;
pub mod fig6;
pub mod overview;

use crate::api::SweepError;
use crate::scenario::StudyId;
use serde::{Deserialize, Serialize, Value};
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

/// Typed payload of one study cell: one variant per [`StudyId`], each
/// wrapping the record the study computes. Serialization is externally
/// tagged (`{"Fig7": [...]}`); cache entries store the *untagged* inner
/// value (see [`StudyMetrics::cache_value`]) so they stay byte-compatible
/// with pre-API cache entries.
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

    /// The untagged inner value — the exact shape cache entries store
    /// (and stored before payloads were typed).
    pub fn cache_value(&self) -> Value {
        match self {
            StudyMetrics::Fig1c(v) => v.to_value(),
            StudyMetrics::Fig6a(v) => v.to_value(),
            StudyMetrics::Fig6bc(v) => v.to_value(),
            StudyMetrics::Fig6d(v) => v.to_value(),
            StudyMetrics::Fig6e(v) => v.to_value(),
            StudyMetrics::Fig6f(v) => v.to_value(),
            StudyMetrics::Fig7(v) => v.to_value(),
            StudyMetrics::Fig9a(v) => v.to_value(),
            StudyMetrics::Fig9b(v) => v.to_value(),
            StudyMetrics::Table1(v) => v.to_value(),
            StudyMetrics::Table2(v) => v.to_value(),
            StudyMetrics::Models(v) => v.to_value(),
            StudyMetrics::Breakdown(v) => v.to_value(),
            StudyMetrics::AblationSlicing(v) => v.to_value(),
            StudyMetrics::AblationTda(v) => v.to_value(),
            StudyMetrics::AblationHybrid(v) => v.to_value(),
            StudyMetrics::AblationPipelineDepth(v) => v.to_value(),
            StudyMetrics::AblationCorners(v) => v.to_value(),
        }
    }

    /// Rebuilds the typed payload from an untagged cache value, using the
    /// study id (recorded next to every cache entry) to pick the variant.
    pub fn from_cache_value(study: StudyId, v: &Value) -> Result<Self, SweepError> {
        let mismatch = |e: serde_json::Error| {
            SweepError::schema(format!("cached payload of study/{}", study.name()), e)
        };
        Ok(match study {
            StudyId::Fig1c => StudyMetrics::Fig1c(serde_json::from_value(v).map_err(mismatch)?),
            StudyId::Fig6a => StudyMetrics::Fig6a(serde_json::from_value(v).map_err(mismatch)?),
            StudyId::Fig6bc => StudyMetrics::Fig6bc(serde_json::from_value(v).map_err(mismatch)?),
            StudyId::Fig6d => StudyMetrics::Fig6d(serde_json::from_value(v).map_err(mismatch)?),
            StudyId::Fig6e => StudyMetrics::Fig6e(serde_json::from_value(v).map_err(mismatch)?),
            StudyId::Fig6f => StudyMetrics::Fig6f(serde_json::from_value(v).map_err(mismatch)?),
            StudyId::Fig7 => StudyMetrics::Fig7(serde_json::from_value(v).map_err(mismatch)?),
            StudyId::Fig9a => StudyMetrics::Fig9a(serde_json::from_value(v).map_err(mismatch)?),
            StudyId::Fig9b => StudyMetrics::Fig9b(serde_json::from_value(v).map_err(mismatch)?),
            StudyId::Table1 => StudyMetrics::Table1(serde_json::from_value(v).map_err(mismatch)?),
            StudyId::Table2 => StudyMetrics::Table2(serde_json::from_value(v).map_err(mismatch)?),
            StudyId::Models => StudyMetrics::Models(serde_json::from_value(v).map_err(mismatch)?),
            StudyId::Breakdown => {
                StudyMetrics::Breakdown(serde_json::from_value(v).map_err(mismatch)?)
            }
            StudyId::AblationSlicing => {
                StudyMetrics::AblationSlicing(serde_json::from_value(v).map_err(mismatch)?)
            }
            StudyId::AblationTda => {
                StudyMetrics::AblationTda(serde_json::from_value(v).map_err(mismatch)?)
            }
            StudyId::AblationHybrid => {
                StudyMetrics::AblationHybrid(serde_json::from_value(v).map_err(mismatch)?)
            }
            StudyId::AblationPipelineDepth => {
                StudyMetrics::AblationPipelineDepth(serde_json::from_value(v).map_err(mismatch)?)
            }
            StudyId::AblationCorners => {
                StudyMetrics::AblationCorners(serde_json::from_value(v).map_err(mismatch)?)
            }
        })
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

    #[test]
    fn every_study_evaluates_to_its_own_typed_payload() {
        // fig6f (stand-in training) is covered by the bins and the
        // integration tests; keep the unit sweep quick with the rest.
        for study in StudyId::ALL {
            if study == StudyId::Fig6f {
                continue;
            }
            let m = run(study).unwrap_or_else(|e| panic!("{}: {e}", study.name()));
            assert_eq!(m.study_id(), study);
            assert!(!m.cache_value().is_null(), "{} produced null", study.name());
        }
    }

    #[test]
    fn study_payloads_round_trip_through_cache_values() {
        for study in [StudyId::Fig7, StudyId::Table2, StudyId::Models] {
            let m = run(study).unwrap();
            let back = StudyMetrics::from_cache_value(study, &m.cache_value()).unwrap();
            assert_eq!(m, back, "{}", study.name());
        }
        // Wrong study id for a payload shape is a schema mismatch.
        let m = run(StudyId::Table2).unwrap();
        assert!(StudyMetrics::from_cache_value(StudyId::Fig7, &m.cache_value()).is_err());
    }

    #[test]
    fn table2_matches_the_headline_operating_point() {
        let r = table2_record();
        assert!((r.tops_per_watt - 123.8).abs() / 123.8 < 0.03);
        assert!((r.tops - 34.9).abs() / 34.9 < 0.03);
    }
}
