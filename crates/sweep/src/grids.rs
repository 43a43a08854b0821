//! Named scenario grids for the CLI and library callers, including the
//! design-space-exploration (DSE) grids consumed by the `yoco-dse` crate.
//!
//! Every named grid lives in one [`REGISTRY`] table, so the listing
//! (`sweep list`, [`named`]) and the resolver ([`resolve`]) cannot drift:
//! both walk the same entries.

use crate::api::SweepError;
use crate::figures;
use crate::scenario::{AcceleratorKind, DesignPoint, Scenario, StudyId, WorkloadSpec};

/// One named grid: its CLI name, a one-line description, and the builder
/// producing its scenarios.
#[derive(Clone, Copy)]
pub struct GridSpec {
    /// CLI/report name (`sweep run <name>`).
    pub name: &'static str,
    /// One-line description for listings.
    pub desc: &'static str,
    build: fn() -> Vec<Scenario>,
}

impl GridSpec {
    /// Builds the grid's scenarios.
    pub fn scenarios(&self) -> Vec<Scenario> {
        (self.build)()
    }
}

/// The single source of truth for named grids: `sweep list`, `resolve`,
/// `yoco-serve` clients, and `yoco-dse` all read this table.
pub const REGISTRY: &[GridSpec] = &[
    GridSpec {
        name: "fig8",
        desc: "chip comparison: 4 accelerators × 10-model zoo",
        build: figures::fig8_scenarios,
    },
    GridSpec {
        name: "fig10",
        desc: "attention-pipeline speedup on 5 transformers",
        build: figures::fig10_scenarios,
    },
    GridSpec {
        name: "ablations",
        desc: "the 5 ablation studies",
        build: ablation_scenarios,
    },
    GridSpec {
        name: "figures",
        desc: "every single-shot figure/table study",
        build: study_scenarios,
    },
    GridSpec {
        name: "studies",
        desc: "alias of `figures`",
        build: study_scenarios,
    },
    GridSpec {
        name: "all",
        desc: "fig8 + fig10 + every study",
        build: all_scenarios,
    },
    GridSpec {
        name: "dse-tiles",
        desc: "DSE: tile count 1..16 × the DSE workload pair",
        build: || dse_scenarios("dse-tiles"),
    },
    GridSpec {
        name: "dse-stack",
        desc: "DSE: IMA array grid (stack × width) 2..16 each",
        build: || dse_scenarios("dse-stack"),
    },
    GridSpec {
        name: "dse-ima-mix",
        desc: "DSE: dynamic/static IMA split per tile",
        build: || dse_scenarios("dse-ima-mix"),
    },
    GridSpec {
        name: "dse-activity",
        desc: "DSE: MCC activation probability 0.1..1.0",
        build: || dse_scenarios("dse-activity"),
    },
    GridSpec {
        name: "dse-full",
        desc: "DSE: coarse product over all five knob axes",
        build: || dse_scenarios("dse-full"),
    },
];

/// `(name, description)` of every named grid, in registry order.
pub fn named() -> impl Iterator<Item = (&'static str, &'static str)> {
    REGISTRY.iter().map(|g| (g.name, g.desc))
}

fn ablation_scenarios() -> Vec<Scenario> {
    StudyId::ALL
        .into_iter()
        .filter(|s| s.name().starts_with("ablation-"))
        .map(Scenario::study)
        .collect()
}

fn study_scenarios() -> Vec<Scenario> {
    StudyId::ALL.into_iter().map(Scenario::study).collect()
}

fn all_scenarios() -> Vec<Scenario> {
    let mut out = figures::fig8_scenarios();
    out.extend(figures::fig10_scenarios());
    out.extend(study_scenarios());
    out
}

fn dse_scenarios(name: &str) -> Vec<Scenario> {
    DseGrid::find(name)
        .expect("registry names match DSE_GRIDS")
        .scenarios()
}

/// Resolves a grid name to scenarios. Accepts every [`REGISTRY`] grid, any
/// single study name (e.g. `fig6d`), or `yoco/<model>`-style single GEMM
/// cells.
pub fn resolve(name: &str) -> Result<Vec<Scenario>, SweepError> {
    if let Some(grid) = REGISTRY.iter().find(|g| g.name == name) {
        return Ok(grid.scenarios());
    }
    if let Some(study) = StudyId::from_name(name) {
        return Ok(vec![Scenario::study(study)]);
    }
    if let Some((acc, model)) = name.split_once('/') {
        if let Some(acc) = AcceleratorKind::from_name(acc) {
            return Ok(vec![Scenario::gemm(
                acc,
                DesignPoint::paper(),
                WorkloadSpec::Zoo {
                    model: model.to_owned(),
                },
            )]);
        }
    }
    let known: Vec<&str> = REGISTRY.iter().map(|g| g.name).collect();
    Err(SweepError::UnknownGrid {
        name: name.to_owned(),
        known: format!("{}, a study name, or accelerator/model", known.join(", ")),
    })
}

// ---------------------------------------------------------------------------
// DSE grids: Cartesian products of DesignPoint knobs × a fixed workload set
// ---------------------------------------------------------------------------

/// The workload pair every DSE grid evaluates: one CNN and one
/// attention-heavy transformer from the Fig 8 zoo, so a design point is
/// scored on both static-weight and dynamic-weight behavior without
/// paying for the whole zoo per point.
pub const DSE_WORKLOADS: [&str; 2] = ["resnet18", "qdqbert"];

/// Axis values a DSE grid explores, one slice per [`DesignPoint`] knob.
/// An empty slice locks the knob at the paper default. The dynamic/static
/// IMA split varies as one axis (`ima_mix`) because its two knobs only
/// make sense together.
#[derive(Debug, Clone, Copy)]
pub struct DseGrid {
    /// Grid name (`dse-…`), also registered in [`REGISTRY`].
    pub name: &'static str,
    /// Tile counts to explore.
    pub tiles: &'static [usize],
    /// Vertical array stacks per IMA to explore.
    pub ima_stack: &'static [usize],
    /// Horizontal array counts per IMA to explore.
    pub ima_width: &'static [usize],
    /// `(dimas, simas)` splits per tile to explore.
    pub ima_mix: &'static [(usize, usize)],
    /// MCC activation probabilities to explore.
    pub activity: &'static [f64],
}

/// The five DSE grids, in registry order.
pub const DSE_GRIDS: [DseGrid; 5] = [
    DseGrid {
        name: "dse-tiles",
        tiles: &[1, 2, 4, 8, 16],
        ima_stack: &[],
        ima_width: &[],
        ima_mix: &[],
        activity: &[],
    },
    DseGrid {
        name: "dse-stack",
        tiles: &[],
        ima_stack: &[2, 4, 8, 16],
        ima_width: &[2, 4, 8, 16],
        ima_mix: &[],
        activity: &[],
    },
    DseGrid {
        name: "dse-ima-mix",
        tiles: &[],
        ima_stack: &[],
        ima_width: &[],
        ima_mix: &[(0, 8), (2, 6), (4, 4), (6, 2), (8, 0)],
        activity: &[],
    },
    DseGrid {
        name: "dse-activity",
        tiles: &[],
        ima_stack: &[],
        ima_width: &[],
        ima_mix: &[],
        activity: &[0.1, 0.25, 0.5, 0.75, 1.0],
    },
    DseGrid {
        name: "dse-full",
        tiles: &[2, 4, 8],
        ima_stack: &[4, 8],
        ima_width: &[4, 8],
        ima_mix: &[(2, 6), (4, 4), (6, 2)],
        activity: &[0.25, 0.5],
    },
];

/// Number of knob axes a [`DseGrid`] spans (coordinates are `[usize; 5]`).
pub const DSE_AXES: usize = 5;

impl DseGrid {
    /// Looks a DSE grid up by name.
    pub fn find(name: &str) -> Option<&'static DseGrid> {
        DSE_GRIDS.iter().find(|g| g.name == name)
    }

    /// Length of each axis, counting a locked (empty) axis as 1 so the
    /// coordinate space is always 5-dimensional.
    pub fn axis_lens(&self) -> [usize; DSE_AXES] {
        [
            self.tiles.len().max(1),
            self.ima_stack.len().max(1),
            self.ima_width.len().max(1),
            self.ima_mix.len().max(1),
            self.activity.len().max(1),
        ]
    }

    /// Total number of design points in the grid.
    pub fn total_designs(&self) -> usize {
        self.axis_lens().iter().product()
    }

    /// The design point at the given coordinates (one index per axis;
    /// locked axes only accept index 0). Explored values restating the
    /// paper default normalize away, so the paper cell shares its cache
    /// key with non-DSE scenarios.
    pub fn design_at(&self, coords: [usize; DSE_AXES]) -> DesignPoint {
        let pick = |axis: &'static [usize], i: usize| axis.get(i).copied();
        DesignPoint {
            tiles: pick(self.tiles, coords[0]),
            ima_stack: pick(self.ima_stack, coords[1]),
            ima_width: pick(self.ima_width, coords[2]),
            dimas_per_tile: self.ima_mix.get(coords[3]).map(|m| m.0),
            simas_per_tile: self.ima_mix.get(coords[3]).map(|m| m.1),
            activity: self.activity.get(coords[4]).copied(),
        }
        .normalized()
    }

    /// Unflattens a design index (row-major over [`DseGrid::axis_lens`])
    /// into coordinates. The inverse of the canonical enumeration order.
    pub fn coords_of(&self, mut index: usize) -> [usize; DSE_AXES] {
        let lens = self.axis_lens();
        let mut coords = [0; DSE_AXES];
        for axis in (0..DSE_AXES).rev() {
            coords[axis] = index % lens[axis];
            index /= lens[axis];
        }
        coords
    }

    /// Every design point, in canonical (row-major) order.
    pub fn designs(&self) -> Vec<DesignPoint> {
        (0..self.total_designs())
            .map(|i| self.design_at(self.coords_of(i)))
            .collect()
    }

    /// The GEMM scenarios of one design point: one cell per DSE workload,
    /// ids shaped `dse/<design-label>/<model>`.
    pub fn scenarios_for(&self, design: DesignPoint) -> Vec<Scenario> {
        let label = design.label();
        DSE_WORKLOADS
            .iter()
            .map(|model| {
                let mut s = Scenario::gemm(
                    AcceleratorKind::Yoco,
                    design,
                    WorkloadSpec::Zoo {
                        model: (*model).to_owned(),
                    },
                );
                s.id = format!("dse/{label}/{model}");
                s
            })
            .collect()
    }

    /// The whole grid as scenarios, designs in canonical order.
    pub fn scenarios(&self) -> Vec<Scenario> {
        self.designs()
            .into_iter()
            .flat_map(|d| self.scenarios_for(d))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioKind;

    #[test]
    fn named_grids_resolve() {
        assert_eq!(resolve("fig8").unwrap().len(), 40);
        assert_eq!(resolve("fig10").unwrap().len(), 5);
        assert_eq!(resolve("ablations").unwrap().len(), 5);
        assert_eq!(resolve("figures").unwrap().len(), 18);
        assert_eq!(resolve("all").unwrap().len(), 63);
        assert_eq!(resolve("fig6d").unwrap().len(), 1);
        assert_eq!(resolve("fig1c").unwrap().len(), 1);
        assert_eq!(resolve("breakdown").unwrap().len(), 1);
        assert_eq!(resolve("yoco/resnet18").unwrap().len(), 1);
        let err = resolve("nonsense").unwrap_err();
        assert_eq!(err.category(), "unknown-grid");
    }

    #[test]
    fn registry_is_the_single_source_of_truth() {
        // Every listed grid resolves, to exactly what its spec builds…
        for grid in REGISTRY {
            let resolved = resolve(grid.name).unwrap_or_else(|e| panic!("{}: {e}", grid.name));
            assert!(!resolved.is_empty(), "{} is empty", grid.name);
            assert_eq!(resolved, grid.scenarios(), "{} drifted", grid.name);
        }
        // …every listing row comes from the registry…
        let listed: Vec<&str> = named().map(|(n, _)| n).collect();
        let registered: Vec<&str> = REGISTRY.iter().map(|g| g.name).collect();
        assert_eq!(listed, registered);
        // …and names are unique, so the resolver cannot shadow an entry.
        let mut unique = listed.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), listed.len(), "duplicate grid names");
    }

    #[test]
    fn every_dse_grid_is_registered_and_valid() {
        for grid in &DSE_GRIDS {
            assert!(
                REGISTRY.iter().any(|g| g.name == grid.name),
                "{} missing from REGISTRY",
                grid.name
            );
            let scenarios = grid.scenarios();
            assert_eq!(scenarios.len(), grid.total_designs() * DSE_WORKLOADS.len());
            for s in &scenarios {
                let ScenarioKind::Gemm {
                    design, workload, ..
                } = &s.kind
                else {
                    panic!("{}: {} is not a GEMM cell", grid.name, s.id);
                };
                let resolved = design.resolve().and_then(|_| workload.resolve());
                resolved.unwrap_or_else(|e| panic!("{}: {}: {e}", grid.name, s.id));
            }
        }
    }

    #[test]
    fn dse_grid_sizes_match_their_axes() {
        assert_eq!(DseGrid::find("dse-tiles").unwrap().total_designs(), 5);
        assert_eq!(DseGrid::find("dse-stack").unwrap().total_designs(), 16);
        assert_eq!(DseGrid::find("dse-ima-mix").unwrap().total_designs(), 5);
        assert_eq!(DseGrid::find("dse-activity").unwrap().total_designs(), 5);
        assert_eq!(DseGrid::find("dse-full").unwrap().total_designs(), 72);
        assert!(DseGrid::find("dse-nonsense").is_none());
    }

    #[test]
    fn coords_round_trip_and_cover_the_grid() {
        let grid = DseGrid::find("dse-full").unwrap();
        let designs = grid.designs();
        assert_eq!(designs.len(), 72);
        // Distinct coordinates produce distinct designs (no axis collapses).
        let mut keys: Vec<String> = designs.iter().map(|d| format!("{d:?}")).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 72);
        // The paper point is in the grid and normalizes to all-None.
        let paper_idx = designs.iter().position(|d| d.is_paper());
        assert!(paper_idx.is_some(), "dse-full must contain the paper point");
    }
}
