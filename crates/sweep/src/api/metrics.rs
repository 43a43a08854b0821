//! [`Metrics`]: the typed payload of one evaluated cell.
//!
//! Every cell the engine produces is one of three shapes — a GEMM
//! evaluation, an attention-pipeline simulation, or a named study — and
//! [`Metrics`] wraps the corresponding record so reports and responses
//! carry real types end-to-end instead of raw JSON trees.
//!
//! Two serialized forms exist on purpose:
//!
//! * **wire form** — the derived externally-tagged encoding
//!   (`{"Gemm": {...}}`), self-describing, used inside
//!   [`crate::engine::SweepReport`] and [`crate::api::EvalResponse`];
//! * **cache form** — the *untagged* inner value
//!   ([`Metrics::cache_value`]), the exact shape `results/cache/` entries
//!   have always stored. The scenario recorded next to each entry names
//!   the variant, so [`Metrics::from_cache_value`] rebuilds the typed
//!   payload losslessly.

use crate::api::SweepError;
use crate::eval::{AttentionMetrics, GemmMetrics};
use crate::scenario::ScenarioKind;
use crate::studies::StudyMetrics;
use serde::{Deserialize, Serialize, Value};

/// The typed payload of one evaluated cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Metrics {
    /// A GEMM cell: whole-model totals on one accelerator.
    Gemm(GemmMetrics),
    /// An attention-pipeline cell: both schedules plus the speedup.
    Attention(AttentionMetrics),
    /// A study cell: the study's own record type.
    Study(StudyMetrics),
}

impl Metrics {
    /// The inner value in cache form (untagged).
    pub fn cache_value(&self) -> Value {
        match self {
            Metrics::Gemm(m) => m.to_value(),
            Metrics::Attention(m) => m.to_value(),
            Metrics::Study(s) => s.cache_value(),
        }
    }

    /// Rebuilds the typed payload from a cache value, using the scenario
    /// kind to pick the variant. Fails with
    /// [`SweepError::SchemaMismatch`] if the stored shape no longer
    /// matches — the engine treats that as a cache miss.
    pub fn from_cache_value(kind: &ScenarioKind, v: &Value) -> Result<Self, SweepError> {
        match kind {
            ScenarioKind::Gemm { .. } => {
                Ok(Metrics::Gemm(serde_json::from_value(v).map_err(|e| {
                    SweepError::schema("cached GEMM payload", e)
                })?))
            }
            ScenarioKind::Attention { .. } => Ok(Metrics::Attention(
                serde_json::from_value(v)
                    .map_err(|e| SweepError::schema("cached attention payload", e))?,
            )),
            ScenarioKind::Study { study } => {
                StudyMetrics::from_cache_value(*study, v).map(Metrics::Study)
            }
        }
    }

    /// The GEMM record, if this is a GEMM cell.
    pub fn as_gemm(&self) -> Option<&GemmMetrics> {
        match self {
            Metrics::Gemm(m) => Some(m),
            _ => None,
        }
    }

    /// The attention record, if this is an attention cell.
    pub fn as_attention(&self) -> Option<&AttentionMetrics> {
        match self {
            Metrics::Attention(m) => Some(m),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{AcceleratorKind, DesignPoint, Scenario, StudyId, WorkloadSpec};
    use yoco_arch::workload::LayerKind;

    fn gemm_kind() -> ScenarioKind {
        Scenario::gemm(
            AcceleratorKind::Isaac,
            DesignPoint::paper(),
            WorkloadSpec::Gemm {
                name: "fc".into(),
                m: 4,
                k: 128,
                n: 32,
                kind: LayerKind::Linear,
            },
        )
        .kind
    }

    #[test]
    fn cache_form_round_trips_through_the_kind() {
        let kind = gemm_kind();
        let metrics = crate::eval::evaluate(&kind, 1).unwrap();
        let back = Metrics::from_cache_value(&kind, &metrics.cache_value()).unwrap();
        assert_eq!(metrics, back);
        assert!(back.as_gemm().is_some());
        assert!(back.as_attention().is_none());
    }

    #[test]
    fn wire_form_is_self_describing() {
        let kind = ScenarioKind::Study {
            study: StudyId::Fig9a,
        };
        let metrics = crate::eval::evaluate(&kind, 1).unwrap();
        let text = serde_json::to_string(&metrics).unwrap();
        assert!(text.starts_with("{\"Study\":{\"Fig9a\":"), "{text}");
        let back: Metrics = serde_json::from_str(&text).unwrap();
        assert_eq!(metrics, back);
    }

    #[test]
    fn mismatched_cache_shape_is_rejected() {
        let kind = gemm_kind();
        let attention_kind = ScenarioKind::Study {
            study: StudyId::Fig9a,
        };
        let metrics = crate::eval::evaluate(&kind, 1).unwrap();
        let err = Metrics::from_cache_value(&attention_kind, &metrics.cache_value()).unwrap_err();
        assert_eq!(err.category(), "schema-mismatch");
    }
}
