//! Bin-side plumbing for the sweep engine: run a study cell through the
//! shared cache and hand back its typed [`StudyMetrics`] payload.
//!
//! Bins match directly on the [`StudyMetrics`] variant they wired
//! themselves to — there is no serde indirection between the engine and
//! the printing code anymore (the old `run_study<T: Deserialize>` went
//! through the untagged cache value; a bin wired to the wrong study now
//! fails with a labeled panic instead of a shape mismatch).

use yoco_sweep::{Engine, Metrics, Scenario, StudyId, StudyMetrics, SweepReport};

/// The engine policy the `fig*`/`table*` bins share: workspace cache, one
/// worker per core. After a model change, `sweep run <grid> --force`
/// refreshes the entries they read.
pub fn bin_engine() -> Engine {
    Engine::cached()
}

/// Runs one study and returns its typed payload, reporting cache status
/// on stdout like every sweep-driven bin.
///
/// # Panics
///
/// Panics if the study fails to evaluate — a programming error in a bin
/// wired to the wrong study.
pub fn run_study(engine: &Engine, study: StudyId) -> StudyMetrics {
    let report = engine.run(&[Scenario::study(study)]);
    print_cache_line(&report);
    take_study(&report, study)
}

/// Extracts one study's typed payload out of a larger report.
///
/// # Panics
///
/// Panics on evaluation failure or a missing/mismatched cell, like
/// [`run_study`].
pub fn take_study(report: &SweepReport, study: StudyId) -> StudyMetrics {
    let id = format!("study/{}", study.name());
    let cell = report
        .cells
        .iter()
        .find(|c| c.scenario.id == id)
        .unwrap_or_else(|| panic!("study {id} missing from report"));
    if let Some(e) = &cell.error {
        panic!("study {id} failed: {e}");
    }
    match &cell.metrics {
        Some(Metrics::Study(s)) if s.study_id() == study => s.clone(),
        other => panic!("study {id} carries an unexpected payload: {other:?}"),
    }
}

/// Prints the standard one-line cache summary.
pub fn print_cache_line(report: &SweepReport) {
    println!("[sweep] {}", report.cache_summary());
}

/// Runs a study and destructures its payload in one step — the bins'
/// shorthand for [`run_study`]/[`take_study`] plus the variant match:
///
/// * `expect_study!(&engine => Fig7)` runs `study/fig7` through the
///   engine (printing the cache line) and yields its `Vec<Fig7Row>`;
/// * `expect_study!(&report, Fig7)` extracts the same payload from an
///   already-run report.
///
/// The variant arm is statically tied to the study id, so a bin wired to
/// the wrong study fails the labeled panic inside [`take_study`] — the
/// `unreachable!` arm here only documents that invariant.
#[macro_export]
macro_rules! expect_study {
    ($engine:expr => $study:ident) => {{
        match $crate::sweep_io::run_study($engine, ::yoco_sweep::StudyId::$study) {
            ::yoco_sweep::StudyMetrics::$study(payload) => payload,
            other => unreachable!("run_study({}) returned {other:?}", stringify!($study)),
        }
    }};
    ($report:expr, $study:ident) => {{
        match $crate::sweep_io::take_study($report, ::yoco_sweep::StudyId::$study) {
            ::yoco_sweep::StudyMetrics::$study(payload) => payload,
            other => unreachable!("take_study({}) returned {other:?}", stringify!($study)),
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expect_study_runs_and_extracts_both_forms() {
        let engine = Engine::ephemeral();
        let record = expect_study!(&engine => Fig9a);
        assert!(record.area_ratio > 1.0);

        let report = engine.run(&[Scenario::study(StudyId::Table2)]);
        let table2 = expect_study!(&report, Table2);
        assert!(table2.tops > 0.0);
    }

    #[test]
    #[should_panic(expected = "study study/fig7 missing from report")]
    fn take_study_panics_on_a_missing_cell() {
        let report = Engine::ephemeral().run(&[Scenario::study(StudyId::Fig9a)]);
        let _ = take_study(&report, StudyId::Fig7);
    }
}
