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
//!   (`{"Gemm": {...}}`, `{"Study": {"Fig7": [...]}}`), self-describing,
//!   used inside [`crate::engine::SweepReport`] and
//!   [`crate::api::EvalResponse`];
//! * **cache form** — the wire form with its variant names stripped
//!   ([`Metrics::cache_value`]), the exact shape `results/cache/` entries
//!   have always stored. The scenario recorded next to each entry names
//!   the variants, so [`Metrics::from_cache_value`] puts them back and
//!   decodes through the same derived `Deserialize`.

use crate::api::SweepError;
use crate::eval::{AttentionMetrics, GemmMetrics};
use crate::scenario::ScenarioKind;
use crate::studies::StudyMetrics;
use serde::{Deserialize, Map, Serialize, Value};

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
    /// The cache form: the wire form without its variant names, one
    /// layer for a GEMM or attention cell and two for a study.
    pub fn cache_value(&self) -> Value {
        let wire = self.to_value();
        let inner = untag(&wire);
        match self {
            Metrics::Study(_) => untag(inner),
            _ => inner,
        }
        .clone()
    }

    /// Rebuilds the typed payload from a cache value: puts back the
    /// variant names the scenario kind gives (for a study, the
    /// [`StudyId`](crate::StudyId)'s own serialized name) and decodes the
    /// wire form. Fails with [`SweepError::SchemaMismatch`] if the stored
    /// shape no longer matches — the engine treats that as a cache miss.
    pub fn from_cache_value(kind: &ScenarioKind, v: Value) -> Result<Self, SweepError> {
        let wire = match kind {
            ScenarioKind::Gemm { .. } => tag("Gemm", v),
            ScenarioKind::Attention { .. } => tag("Attention", v),
            ScenarioKind::Study { study } => {
                let Value::String(name) = study.to_value() else {
                    unreachable!("a unit variant serializes as its name")
                };
                tag("Study", tag(name, v))
            }
        };
        serde_json::from_value(&wire).map_err(|e| SweepError::schema("cached payload", e))
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

/// The payload of an externally tagged data variant, `{"Name": payload}`.
fn untag(wire: &Value) -> &Value {
    wire.as_object()
        .and_then(|m| m.iter().next())
        .map(|(_, payload)| payload)
        .expect("data variants serialize as one-key objects")
}

/// Wraps `payload` as the data variant `name`.
fn tag(name: impl Into<String>, payload: Value) -> Value {
    let mut m = Map::new();
    m.insert(name, payload);
    Value::Object(m)
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
        let back = Metrics::from_cache_value(&kind, metrics.cache_value()).unwrap();
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
        let err = Metrics::from_cache_value(&attention_kind, metrics.cache_value()).unwrap_err();
        assert_eq!(err.category(), "schema-mismatch");
    }
}
