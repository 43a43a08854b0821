//! Checks on cells as a frontend builds them: with the
//! [`Scenario`](crate::Scenario) constructors, or with a display id of its
//! own. There is no separate validation step; each cell below runs
//! through the engine, and one the evaluator refuses comes back as a
//! `Failed` [`CellOutcome`](super::CellOutcome) carrying its typed
//! [`SweepError`](super::SweepError).

#[cfg(test)]
mod tests {
    use crate::api::{CellOutcome, CellStatus, SweepError};
    use crate::scenario::{AcceleratorKind, DesignPoint, Scenario, StudyId, WorkloadSpec};
    use crate::Engine;
    use yoco::pipeline::AttentionDims;
    use yoco_arch::workload::LayerKind;

    fn zoo(model: &str) -> WorkloadSpec {
        WorkloadSpec::Zoo {
            model: model.into(),
        }
    }

    /// Runs `cells` as one batch and returns each cell's wire outcome.
    fn outcomes(cells: &[Scenario]) -> Vec<CellOutcome> {
        let report = Engine::ephemeral().run(cells);
        report.cells.iter().map(CellOutcome::from_cell).collect()
    }

    /// The typed error of a cell that must fail.
    fn failure(cell: Scenario) -> SweepError {
        let outcome = outcomes(&[cell]).remove(0);
        assert_eq!(outcome.status, CellStatus::Failed, "{}", outcome.id);
        assert!(outcome.metrics.is_none(), "{}", outcome.id);
        outcome.error.expect("a failed cell carries its error")
    }

    #[test]
    fn valid_cells_build_with_derived_or_custom_ids() {
        let bert = AttentionDims {
            seq: 128,
            d_model: 768,
            heads: 12,
        };
        let cells = [
            Scenario::gemm(AcceleratorKind::Yoco, DesignPoint::paper(), zoo("resnet18")),
            Scenario {
                id: "custom".into(),
                ..Scenario::attention("bert", bert, DesignPoint::paper())
            },
            Scenario::study(StudyId::Fig7),
        ];
        let outcomes = outcomes(&cells);
        let ids: Vec<&str> = outcomes.iter().map(|o| o.id.as_str()).collect();
        assert_eq!(ids, ["yoco/resnet18", "custom", "study/fig7"]);
        for outcome in &outcomes {
            assert_eq!(outcome.status, CellStatus::Computed, "{}", outcome.id);
        }
    }

    #[test]
    fn unknown_zoo_model_is_rejected() {
        let err = failure(Scenario::gemm(
            AcceleratorKind::Yoco,
            DesignPoint::paper(),
            zoo("no-such-model"),
        ));
        assert_eq!(err.category(), "workload-resolution");
    }

    #[test]
    fn zero_gemm_dimensions_are_rejected() {
        let workload = WorkloadSpec::Gemm {
            name: "g".into(),
            m: 4,
            k: 0,
            n: 32,
            kind: LayerKind::Linear,
        };
        let err = failure(Scenario::gemm(
            AcceleratorKind::Yoco,
            DesignPoint::paper(),
            workload,
        ));
        assert!(err.to_string().contains("must be positive"), "{err}");
    }

    #[test]
    fn baseline_design_overrides_are_rejected() {
        let timely = |tiles| {
            let design = DesignPoint {
                tiles: Some(tiles),
                ..Default::default()
            };
            Scenario::gemm(AcceleratorKind::Timely, design, zoo("resnet18"))
        };
        let err = failure(timely(2));
        assert!(err.to_string().contains("only apply to yoco"), "{err}");
        // A restated paper default is still the paper design point.
        assert_eq!(outcomes(&[timely(4)])[0].status, CellStatus::Computed);
    }

    #[test]
    fn impossible_design_points_are_rejected() {
        let design = DesignPoint {
            tiles: Some(0),
            ..Default::default()
        };
        let err = failure(Scenario::gemm(
            AcceleratorKind::Yoco,
            design,
            zoo("resnet18"),
        ));
        assert_eq!(err.category(), "invalid-scenario");
    }

    #[test]
    fn bad_attention_dims_are_rejected() {
        let attention = |seq, heads| {
            let dims = AttentionDims {
                seq,
                d_model: 768,
                heads,
            };
            Scenario::attention("m", dims, DesignPoint::paper())
        };
        let zero = failure(attention(0, 12));
        assert!(zero.to_string().contains("must be positive"), "{zero}");
        let ragged = failure(attention(128, 5));
        assert!(ragged.to_string().contains("divide"), "{ragged}");
    }
}
