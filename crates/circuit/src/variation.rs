//! PVT variation modelling and the Monte-Carlo harness behind Fig 6(d).
//!
//! The paper runs 2 000 Monte-Carlo simulations at the TT corner and room
//! temperature and reports a 3σ MAC-voltage offset of 2.25 mV — under one
//! LSB (3.52 mV). We reproduce that with a parameterized [`NoiseModel`]:
//! capacitor mismatch perturbs every charge-sharing ratio, switch charge
//! injection adds a deterministic code-dependent bow (the INL of Fig 6a),
//! finite settling leaves a residue per sharing event, and the readout chain
//! (VTC + TDC input stage) contributes a random input-referred offset.

use crate::units::Volt;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};

/// Non-ideality knobs of the behavioural circuit model.
///
/// The default values are calibrated (see `tests/calibration.rs` in this
/// crate) so the simulator lands inside every error bound the paper reports:
/// INL/DNL within 2 LSB, array MAC error < 0.68 %, TDA error < 0.11 %,
/// end-to-end error < 0.98 %, and Monte-Carlo 3σ offset ≈ 2.25 mV.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseModel {
    /// Relative 1σ mismatch of each unit capacitor (process variation).
    pub cap_mismatch_sigma: f64,
    /// Fractional charge-injection coefficient of the sharing switches.
    /// Injects `k·V·(1−V/VDD)` per sharing event — a parabolic bow that
    /// peaks at mid-scale, the classic INL signature.
    pub charge_injection: f64,
    /// Fraction of the initial deviation left unsettled after each sharing
    /// window (`e^{−t/τ}`).
    pub settling_residue: f64,
    /// 1σ input-referred random offset of the CB readout path, in volts.
    pub readout_offset_sigma: f64,
    /// Relative gain error of each voltage-to-time converter.
    pub vtc_gain_error: f64,
    /// 1σ random VTC jitter as a fraction of the full-scale conversion time.
    pub vtc_jitter_sigma: f64,
}

impl NoiseModel {
    /// An exactly ideal circuit: every knob zero.
    pub fn ideal() -> Self {
        Self {
            cap_mismatch_sigma: 0.0,
            charge_injection: 0.0,
            settling_residue: 0.0,
            readout_offset_sigma: 0.0,
            vtc_gain_error: 0.0,
            vtc_jitter_sigma: 0.0,
        }
    }

    /// The calibrated TT-corner, 25 °C model used throughout the evaluation.
    pub fn tt_corner() -> Self {
        Self {
            cap_mismatch_sigma: 0.010,
            charge_injection: 0.004,
            settling_residue: 0.0015,
            readout_offset_sigma: 0.68e-3,
            vtc_gain_error: 0.0006,
            vtc_jitter_sigma: 0.0004,
        }
    }

    /// Applies the deterministic charge-injection bow to a node voltage.
    pub fn inject(&self, v: f64) -> f64 {
        v + self.charge_injection * v * (1.0 - v / crate::VDD)
    }

    /// Applies the settling residue: the observed voltage retains a fraction
    /// of its pre-share deviation (the output line starts discharged, so the
    /// residue pulls toward zero).
    pub fn settle(&self, v: f64) -> f64 {
        v * (1.0 - self.settling_residue)
    }
}

impl Default for NoiseModel {
    /// Same as [`NoiseModel::tt_corner`].
    fn default() -> Self {
        Self::tt_corner()
    }
}

/// Per-capacitor mismatch multipliers for one array instance.
///
/// Sampling is deterministic given a seed, so a `DetailedArray` and a
/// `FastArray` built from the same field produce identical voltages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MismatchField {
    rows: usize,
    cols: usize,
    mult: Vec<f64>,
}

impl MismatchField {
    /// An ideal field: every multiplier exactly 1.
    pub fn ideal(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            mult: vec![1.0; rows * cols],
        }
    }

    /// Samples a field with the given relative sigma, deterministically from
    /// `seed`. Multipliers are clamped to `[0.5, 1.5]` (a physical capacitor
    /// cannot vanish or double).
    pub fn sample(rows: usize, cols: usize, sigma: f64, seed: u64) -> Self {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let mult = (0..rows * cols)
            .map(|_| (1.0 + sigma * standard_normal(&mut rng)).clamp(0.5, 1.5))
            .collect();
        Self { rows, cols, mult }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Multiplier of the capacitor at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "mismatch index oob");
        self.mult[row * self.cols + col]
    }

    /// Every multiplier, row by row: `(row, col)` is at
    /// `row * cols + col`.
    pub(crate) fn row_major(&self) -> &[f64] {
        &self.mult
    }

    /// Overrides the multiplier at `(row, col)` — used by fault injection
    /// (a dead capacitor is a near-zero multiplier).
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    pub fn set(&mut self, row: usize, col: usize, mult: f64) {
        assert!(row < self.rows && col < self.cols, "mismatch index oob");
        self.mult[row * self.cols + col] = mult;
    }
}

/// Draws one sample from the standard normal distribution (Box–Muller).
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen::<f64>();
        return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    }
}

/// Summary statistics of a Monte-Carlo voltage-offset population (Fig 6d).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MonteCarloReport {
    /// Number of simulated instances.
    pub runs: usize,
    /// Mean offset in volts.
    pub mean: f64,
    /// Standard deviation in volts.
    pub sigma: f64,
    /// Minimum observed offset in volts.
    pub min: f64,
    /// Maximum observed offset in volts.
    pub max: f64,
    /// Histogram bin edges in volts (41 of them).
    pub bin_edges: Vec<f64>,
    /// Histogram counts (40 bins).
    pub counts: Vec<usize>,
}

impl MonteCarloReport {
    /// Three-sigma spread in millivolts — the number Fig 6(d) quotes
    /// (2.25 mV).
    pub fn three_sigma_mv(&self) -> f64 {
        3.0 * self.sigma * 1e3
    }

    /// Whether the 3σ spread stays under one LSB, the paper's acceptance
    /// criterion.
    pub fn within_one_lsb(&self) -> bool {
        3.0 * self.sigma < crate::LSB
    }
}

/// Histogram bins of every [`MonteCarloReport`].
const BINS: usize = 40;

/// Monte-Carlo harness: evaluates a voltage-producing closure over many
/// mismatched instances and reports the offset distribution (its moments,
/// extremes and a 40-bin histogram).
#[derive(Debug, Clone, Copy)]
pub struct MonteCarlo {
    runs: usize,
    seed: u64,
}

impl MonteCarlo {
    /// Creates a harness; the paper uses 2 000 runs.
    pub fn new(runs: usize, seed: u64) -> Self {
        Self { runs, seed }
    }

    /// Number of runs.
    pub fn runs(&self) -> usize {
        self.runs
    }

    /// The seed instance `i` receives, derived deterministically from the
    /// harness seed.
    pub fn instance_seed(&self, i: usize) -> u64 {
        self.seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(i as u64)
    }

    /// Summarizes the offsets (volts) of instances `0..`, in index order.
    /// A caller that evaluates the instances itself (in parallel, say)
    /// gets the same report as [`MonteCarlo::run`] from the same offsets.
    pub fn summarize(&self, offsets: &[f64]) -> MonteCarloReport {
        let runs = offsets.len();
        let mean = offsets.iter().sum::<f64>() / runs.max(1) as f64;
        let var = if runs > 1 {
            offsets.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (runs - 1) as f64
        } else {
            0.0
        };
        let sigma = var.sqrt();
        let min = offsets.iter().copied().fold(f64::INFINITY, f64::min);
        let max = offsets.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let (lo, hi) = if min.is_finite() && max > min {
            (min, max)
        } else {
            (min - 1e-6, min + 1e-6)
        };
        let width = (hi - lo) / BINS as f64;
        let bin_edges: Vec<f64> = (0..=BINS).map(|i| lo + width * i as f64).collect();
        let mut counts = vec![0usize; BINS];
        for &x in offsets {
            let idx = (((x - lo) / width) as usize).min(BINS - 1);
            counts[idx] += 1;
        }
        MonteCarloReport {
            runs,
            mean,
            sigma,
            min,
            max,
            bin_edges,
            counts,
        }
    }

    /// Runs `f(instance_seed) -> offset` for each instance and summarizes.
    ///
    /// `f` receives [`MonteCarlo::instance_seed`] of each instance in
    /// turn, and returns the observed voltage offset (measured − ideal).
    pub fn run<F: FnMut(u64) -> Volt>(&self, mut f: F) -> MonteCarloReport {
        let offsets: Vec<f64> = (0..self.runs)
            .map(|i| f(self.instance_seed(i)).value())
            .collect();
        self.summarize(&offsets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_field_is_all_ones() {
        let f = MismatchField::ideal(4, 4);
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(f.get(r, c), 1.0);
            }
        }
    }

    #[test]
    fn sampled_field_is_deterministic_and_near_unity() {
        let a = MismatchField::sample(8, 8, 0.01, 42);
        let b = MismatchField::sample(8, 8, 0.01, 42);
        assert_eq!(a, b);
        let c = MismatchField::sample(8, 8, 0.01, 43);
        assert_ne!(a, c);
        let mean: f64 = (0..8)
            .flat_map(|r| (0..8).map(move |c| (r, c)))
            .map(|(r, c)| a.get(r, c))
            .sum::<f64>()
            / 64.0;
        assert!((mean - 1.0).abs() < 0.01);
    }

    #[test]
    fn standard_normal_statistics() {
        let mut rng = ChaCha12Rng::seed_from_u64(7);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn monte_carlo_reports_gaussian_population() {
        let mc = MonteCarlo::new(2000, 1);
        let report = mc.run(|seed| {
            let mut rng = ChaCha12Rng::seed_from_u64(seed);
            Volt::new(0.75e-3 * standard_normal(&mut rng))
        });
        assert_eq!(report.runs, 2000);
        assert!(report.mean.abs() < 0.1e-3);
        assert!(
            (report.three_sigma_mv() - 2.25).abs() < 0.25,
            "{}",
            report.three_sigma_mv()
        );
        assert!(report.within_one_lsb());
        assert_eq!(report.counts.iter().sum::<usize>(), 2000);
    }

    #[test]
    fn injection_bow_peaks_at_midscale_and_vanishes_at_rails() {
        let n = NoiseModel::tt_corner();
        assert!((n.inject(0.0) - 0.0).abs() < 1e-15);
        assert!((n.inject(crate::VDD) - crate::VDD).abs() < 1e-15);
        let mid = crate::VDD / 2.0;
        assert!(n.inject(mid) > mid);
    }

    #[test]
    fn ideal_model_is_transparent() {
        let n = NoiseModel::ideal();
        for v in [0.0, 0.3, 0.9] {
            assert_eq!(n.inject(v), v);
            assert_eq!(n.settle(v), v);
        }
    }
}
