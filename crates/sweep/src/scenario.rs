//! Declarative scenario descriptors: what to evaluate, on which
//! accelerator, at which design point.
//!
//! A [`Scenario`] is a serde-backed value — grids can be built in code via
//! [`crate::grids`], or loaded from JSON files by the `sweep` CLI. The
//! engine treats a scenario as a pure function input: its content hash is
//! the cache key, so two textually different invocations that resolve to
//! the same scenario share one cache entry.
//!
//! A study cell names its study by [`StudyId`], which [`crate::studies`]
//! declares in its table of studies and this module re-exports.

use crate::api::SweepError;
use crate::hash;
pub use crate::studies::StudyId;
use serde::{Deserialize, Serialize};
use yoco::pipeline::AttentionDims;
use yoco::YocoConfig;
use yoco_arch::workload::{LayerKind, MatmulWorkload};

/// Which accelerator model evaluates the cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AcceleratorKind {
    /// The paper's chip (the only one that honors [`DesignPoint`]).
    Yoco,
    /// ISAAC baseline.
    Isaac,
    /// RAELLA baseline.
    Raella,
    /// TIMELY baseline.
    Timely,
}

impl AcceleratorKind {
    /// All four, in the paper's comparison order (YOCO first).
    pub const ALL: [AcceleratorKind; 4] = [
        AcceleratorKind::Yoco,
        AcceleratorKind::Isaac,
        AcceleratorKind::Raella,
        AcceleratorKind::Timely,
    ];

    /// Short lowercase name as used in reports.
    pub fn name(self) -> &'static str {
        match self {
            AcceleratorKind::Yoco => "yoco",
            AcceleratorKind::Isaac => "isaac",
            AcceleratorKind::Raella => "raella",
            AcceleratorKind::Timely => "timely",
        }
    }

    /// Parses a report name back.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Overrides over the Table II design point. `None` keeps the paper value.
///
/// Only YOCO cells honor these; handing a non-default design point to a
/// baseline accelerator is an evaluation error (silently ignoring it would
/// poison the cache key space).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct DesignPoint {
    /// Arrays stacked vertically per IMA.
    pub ima_stack: Option<usize>,
    /// Arrays placed horizontally per IMA.
    pub ima_width: Option<usize>,
    /// Dynamic (SRAM) IMAs per tile.
    pub dimas_per_tile: Option<usize>,
    /// Static (ReRAM) IMAs per tile.
    pub simas_per_tile: Option<usize>,
    /// Tiles per chip.
    pub tiles: Option<usize>,
    /// MCC activation probability.
    pub activity: Option<f64>,
}

impl DesignPoint {
    /// The unmodified Table II design point.
    pub fn paper() -> Self {
        Self::default()
    }

    /// Whether every knob is at the paper default (explicit restatements
    /// of a default count as default).
    pub fn is_paper(&self) -> bool {
        self.normalized() == Self::default()
    }

    /// Drops overrides that restate the paper default, so semantically
    /// identical scenarios hash to one cache key and baseline cells
    /// accept explicit-but-default design blocks.
    pub fn normalized(&self) -> Self {
        let base = YocoConfig::paper_default();
        Self {
            ima_stack: self.ima_stack.filter(|&v| v != base.ima_stack),
            ima_width: self.ima_width.filter(|&v| v != base.ima_width),
            dimas_per_tile: self.dimas_per_tile.filter(|&v| v != base.dimas_per_tile),
            simas_per_tile: self.simas_per_tile.filter(|&v| v != base.simas_per_tile),
            tiles: self.tiles.filter(|&v| v != base.tiles),
            activity: self.activity.filter(|&v| v != base.activity),
        }
    }

    /// Compact human-readable knob summary built from the *resolved*
    /// values, e.g. the paper point is `t4-s8x8-m4+4-a50` (tiles,
    /// stack×width, dimas+simas, activity %). Normalized-equal points
    /// share a label; activity rounds to whole percent, which DSE axes
    /// keep distinct.
    pub fn label(&self) -> String {
        let base = YocoConfig::paper_default();
        format!(
            "t{}-s{}x{}-m{}+{}-a{}",
            self.tiles.unwrap_or(base.tiles),
            self.ima_stack.unwrap_or(base.ima_stack),
            self.ima_width.unwrap_or(base.ima_width),
            self.dimas_per_tile.unwrap_or(base.dimas_per_tile),
            self.simas_per_tile.unwrap_or(base.simas_per_tile),
            (self.activity.unwrap_or(base.activity) * 100.0).round() as u32
        )
    }

    /// Resolves the overrides into a validated [`YocoConfig`].
    pub fn resolve(&self) -> Result<YocoConfig, SweepError> {
        let mut b = YocoConfig::builder();
        if let Some(v) = self.ima_stack {
            b = b.ima_stack(v);
        }
        if let Some(v) = self.ima_width {
            b = b.ima_width(v);
        }
        let base = YocoConfig::paper_default();
        let dimas = self.dimas_per_tile.unwrap_or(base.dimas_per_tile);
        let simas = self.simas_per_tile.unwrap_or(base.simas_per_tile);
        b = b.ima_split(dimas, simas);
        if let Some(v) = self.tiles {
            b = b.tiles(v);
        }
        if let Some(v) = self.activity {
            b = b.activity(v);
        }
        b.build()
            .map_err(|e| SweepError::invalid("design-point", e))
    }
}

/// Which workload a GEMM cell evaluates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// A model from the Fig 8 zoo, by name (all its GEMM layers).
    Zoo {
        /// Zoo model name (`"resnet18"`, `"qdqbert"`, …).
        model: String,
    },
    /// A single ad-hoc GEMM.
    Gemm {
        /// Workload name for reports.
        name: String,
        /// Activation rows.
        m: u64,
        /// Contraction dimension.
        k: u64,
        /// Output columns.
        n: u64,
        /// Layer kind (drives the dynamic-weight penalty).
        kind: LayerKind,
    },
}

impl WorkloadSpec {
    /// Display label for the cell.
    pub fn label(&self) -> &str {
        match self {
            WorkloadSpec::Zoo { model } => model,
            WorkloadSpec::Gemm { name, .. } => name,
        }
    }

    /// Lowers to the concrete GEMM sequence.
    pub fn resolve(&self) -> Result<Vec<MatmulWorkload>, SweepError> {
        match self {
            WorkloadSpec::Zoo { model } => {
                let zoo = yoco_nn::models::fig8_benchmarks();
                let found = zoo.into_iter().find(|m| m.name == *model).ok_or_else(|| {
                    SweepError::workload(model.clone(), "not in the zoo (run `sweep list`)")
                })?;
                Ok(found.workloads())
            }
            WorkloadSpec::Gemm {
                name,
                m,
                k,
                n,
                kind,
            } => {
                if *m == 0 || *k == 0 || *n == 0 {
                    return Err(SweepError::workload(
                        name.clone(),
                        format!("GEMM dimensions must be positive, got {m}x{k}x{n}"),
                    ));
                }
                Ok(vec![MatmulWorkload::new(name, *m, *k, *n).with_kind(*kind)])
            }
        }
    }
}

impl StudyId {
    /// Parses a CLI/report name back.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|s| s.name() == name)
    }
}

/// What one cell computes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ScenarioKind {
    /// Evaluate a GEMM workload on an accelerator: the Fig 8 cell shape.
    Gemm {
        /// Accelerator under test.
        accelerator: AcceleratorKind,
        /// Design-point overrides (YOCO only).
        design: DesignPoint,
        /// Workload to run.
        workload: WorkloadSpec,
    },
    /// Simulate the token-level attention pipeline: the Fig 10 cell shape.
    Attention {
        /// Transformer name for reports.
        model: String,
        /// Attention dimensions.
        dims: AttentionDims,
        /// Design-point overrides.
        design: DesignPoint,
    },
    /// A named single-shot study.
    Study {
        /// Which study.
        study: StudyId,
    },
}

/// One unit of work for the engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Display identifier (not part of the cache key).
    pub id: String,
    /// The computation.
    pub kind: ScenarioKind,
}

impl Scenario {
    /// A GEMM comparison cell.
    pub fn gemm(accelerator: AcceleratorKind, design: DesignPoint, workload: WorkloadSpec) -> Self {
        let id = format!("{}/{}", accelerator.name(), workload.label());
        Self {
            id,
            kind: ScenarioKind::Gemm {
                accelerator,
                design,
                workload,
            },
        }
    }

    /// An attention-pipeline cell.
    pub fn attention(model: impl Into<String>, dims: AttentionDims, design: DesignPoint) -> Self {
        let model = model.into();
        Self {
            id: format!("attention/{model}"),
            kind: ScenarioKind::Attention {
                model,
                dims,
                design,
            },
        }
    }

    /// A study cell.
    pub fn study(study: StudyId) -> Self {
        Self {
            id: format!("study/{}", study.name()),
            kind: ScenarioKind::Study { study },
        }
    }

    /// The content-addressed cache key: a stable hash of the canonical
    /// compact JSON of the *normalized* [`Scenario::kind`] (the `id` is
    /// display-only, and design overrides restating paper defaults do not
    /// change the key).
    pub fn cache_key(&self) -> String {
        self.kind.normalized().cache_key()
    }
}

impl ScenarioKind {
    /// The content key of this kind. Callers holding a raw kind should go
    /// through [`Scenario::cache_key`]; this entry point expects `self`
    /// to already be normalized (it does not re-normalize).
    pub fn cache_key(&self) -> String {
        let canonical = serde_json::to_string(self).expect("scenario serialization is infallible");
        hash::content_key(&canonical)
    }

    /// Canonical form: embedded design points are normalized.
    pub fn normalized(&self) -> Self {
        match self {
            ScenarioKind::Gemm {
                accelerator,
                design,
                workload,
            } => ScenarioKind::Gemm {
                accelerator: *accelerator,
                design: design.normalized(),
                workload: workload.clone(),
            },
            ScenarioKind::Attention {
                model,
                dims,
                design,
            } => ScenarioKind::Attention {
                model: model.clone(),
                dims: *dims,
                design: design.normalized(),
            },
            ScenarioKind::Study { study } => ScenarioKind::Study { study: *study },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_key_ignores_display_id_but_not_content() {
        let mut a = Scenario::gemm(
            AcceleratorKind::Yoco,
            DesignPoint::paper(),
            WorkloadSpec::Zoo {
                model: "resnet18".into(),
            },
        );
        let key = a.cache_key();
        a.id = "renamed".into();
        assert_eq!(key, a.cache_key(), "id must not affect the key");

        let b = Scenario::gemm(
            AcceleratorKind::Isaac,
            DesignPoint::paper(),
            WorkloadSpec::Zoo {
                model: "resnet18".into(),
            },
        );
        assert_ne!(key, b.cache_key(), "accelerator must affect the key");

        let c = Scenario::gemm(
            AcceleratorKind::Yoco,
            DesignPoint {
                tiles: Some(8),
                ..DesignPoint::paper()
            },
            WorkloadSpec::Zoo {
                model: "resnet18".into(),
            },
        );
        assert_ne!(key, c.cache_key(), "design point must affect the key");
    }

    #[test]
    fn design_point_resolves_against_paper_defaults() {
        let paper = DesignPoint::paper().resolve().unwrap();
        assert_eq!(paper, YocoConfig::paper_default());

        let scaled = DesignPoint {
            tiles: Some(8),
            activity: Some(0.25),
            ..Default::default()
        }
        .resolve()
        .unwrap();
        assert_eq!(scaled.tiles, 8);
        assert!((scaled.activity - 0.25).abs() < 1e-12);
        assert_eq!(scaled.ima_stack, paper.ima_stack);

        assert!(DesignPoint {
            tiles: Some(0),
            ..Default::default()
        }
        .resolve()
        .is_err());
    }

    #[test]
    fn workload_specs_resolve() {
        let zoo = WorkloadSpec::Zoo {
            model: "resnet18".into(),
        }
        .resolve()
        .unwrap();
        assert!(!zoo.is_empty());
        let single = WorkloadSpec::Gemm {
            name: "fc".into(),
            m: 4,
            k: 128,
            n: 32,
            kind: LayerKind::Linear,
        }
        .resolve()
        .unwrap();
        assert_eq!(single.len(), 1);
        assert_eq!(single[0].k, 128);
        assert!(WorkloadSpec::Zoo {
            model: "no-such-model".into()
        }
        .resolve()
        .is_err());
    }

    #[test]
    fn restated_paper_defaults_share_the_cache_key() {
        let empty = Scenario::gemm(
            AcceleratorKind::Yoco,
            DesignPoint::paper(),
            WorkloadSpec::Zoo {
                model: "resnet18".into(),
            },
        );
        // tiles: 4 IS the paper default — spelling it out must not fork
        // the cache key space, and must still count as the paper design.
        let explicit = Scenario::gemm(
            AcceleratorKind::Yoco,
            DesignPoint {
                tiles: Some(4),
                ..Default::default()
            },
            WorkloadSpec::Zoo {
                model: "resnet18".into(),
            },
        );
        assert_eq!(empty.cache_key(), explicit.cache_key());
        assert!(DesignPoint {
            tiles: Some(4),
            ..Default::default()
        }
        .is_paper());
        assert!(!DesignPoint {
            tiles: Some(8),
            ..Default::default()
        }
        .is_paper());
    }

    #[test]
    fn missing_non_option_fields_are_hard_errors() {
        // `m` is u64, not Option: omitting it must error, not default.
        let text = r#"{"id": "x", "kind": {"Gemm": {
            "accelerator": "Yoco",
            "design": {},
            "workload": {"Gemm": {"name": "g", "k": 2, "n": 3, "kind": "Linear"}}}}}"#;
        let err = serde_json::from_str::<Scenario>(text).unwrap_err();
        assert!(err.to_string().contains("missing field `m`"), "{err}");
    }

    #[test]
    fn omitted_design_knobs_default_to_paper_values() {
        // Hand-written grid files may spell only the knobs they override.
        let text = r#"{"id": "x", "kind": {"Gemm": {
            "accelerator": "Yoco",
            "design": {"tiles": 2},
            "workload": {"Zoo": {"model": "resnet18"}}}}}"#;
        let s: Scenario = serde_json::from_str(text).unwrap();
        match &s.kind {
            ScenarioKind::Gemm { design, .. } => {
                assert_eq!(design.tiles, Some(2));
                assert_eq!(design.ima_stack, None);
                assert_eq!(design.activity, None);
            }
            other => panic!("unexpected kind {other:?}"),
        }
    }

    #[test]
    fn scenarios_round_trip_through_json() {
        let scenarios = vec![
            Scenario::gemm(
                AcceleratorKind::Timely,
                DesignPoint {
                    ima_stack: Some(4),
                    ..Default::default()
                },
                WorkloadSpec::Gemm {
                    name: "g".into(),
                    m: 1,
                    k: 2,
                    n: 3,
                    kind: LayerKind::Linear,
                },
            ),
            Scenario::attention(
                "bert",
                AttentionDims {
                    seq: 128,
                    d_model: 768,
                    heads: 12,
                },
                DesignPoint::paper(),
            ),
            Scenario::study(StudyId::Fig7),
        ];
        let text = serde_json::to_string_pretty(&scenarios).unwrap();
        let back: Vec<Scenario> = serde_json::from_str(&text).unwrap();
        assert_eq!(scenarios, back);
    }

    #[test]
    fn studies_keep_their_names_and_order() {
        // `sweep list`, the grid order behind `all.digest` and perfbench's
        // `studies.<name>` spans all read these names in this order.
        let names = [
            ("fig1c", "Fig1c"),
            ("fig6a", "Fig6a"),
            ("fig6bc", "Fig6bc"),
            ("fig6d", "Fig6d"),
            ("fig6e", "Fig6e"),
            ("fig6f", "Fig6f"),
            ("fig7", "Fig7"),
            ("fig9a", "Fig9a"),
            ("fig9b", "Fig9b"),
            ("table1", "Table1"),
            ("table2", "Table2"),
            ("models", "Models"),
            ("breakdown", "Breakdown"),
            ("ablation-slicing", "AblationSlicing"),
            ("ablation-tda", "AblationTda"),
            ("ablation-hybrid", "AblationHybrid"),
            ("ablation-pipeline-depth", "AblationPipelineDepth"),
            ("ablation-corners", "AblationCorners"),
        ];
        let got: Vec<&str> = StudyId::ALL.iter().map(|s| s.name()).collect();
        let want: Vec<&str> = names.iter().map(|(cli, _)| *cli).collect();
        assert_eq!(got, want);
        for (study, (cli, variant)) in StudyId::ALL.into_iter().zip(names) {
            assert_eq!(
                serde_json::to_string(&study).unwrap(),
                format!("\"{variant}\"")
            );
            assert_eq!(StudyId::from_name(cli), Some(study), "{cli}");
        }
        let cell = ScenarioKind::Study {
            study: StudyId::Fig6bc,
        };
        assert_eq!(
            serde_json::to_string(&cell).unwrap(),
            r#"{"Study":{"study":"Fig6bc"}}"#
        );
    }
}
