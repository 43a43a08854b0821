//! The in-situ multiply accumulate unit (IMA).
//!
//! An IMA is an 8×8 grid of in-charge computing arrays interconnected by
//! row drivers (inputs multicast horizontally) and per-column time-domain
//! accumulators (partial sums aggregated vertically), read out by 8-bit
//! TDCs and fronted by 2 KB input/output buffers (Fig 4). One IMA executes
//! a full 8-bit 1024×256 VMM in 15 ns at ≈4.235 nJ — the paper's headline
//! 123.8 TOPS/W / 34.9 TOPS operating point.
//!
//! This module provides both the *functional* path (actual charge-domain
//! VMM with noise, composed from `yoco-circuit` arrays, TDAs, and TDCs) and
//! the *cost* path (energy/latency with array-level power gating).

use crate::config::YocoConfig;
use serde::{Deserialize, Serialize};
use yoco_circuit::energy::table2;
use yoco_circuit::units::Volt;
use yoco_circuit::{ArrayGeometry, CircuitError, FastArray, Tdc, TimeDomainAccumulator, Vtc};

/// Whether an IMA's memory clusters are SRAM (dynamic) or ReRAM (static).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ImaRole {
    /// Dynamic IMA (DIMA): SRAM clusters, fast weight updates.
    Dynamic,
    /// Static IMA (SIMA): ReRAM clusters, resident model weights.
    Static,
}

/// A functional IMA holding an explicit weight matrix.
#[derive(Debug, Clone)]
pub struct Ima {
    role: ImaRole,
    stack: usize,
    width: usize,
    /// One fast array per (stack, width) grid position.
    arrays: Vec<FastArray>,
    tda: TimeDomainAccumulator,
    tdc: Tdc,
    rows: usize,
    outputs: usize,
}

impl Ima {
    /// Builds an IMA from a `rows × outputs` weight matrix of 8-bit codes
    /// (`rows = stack × 128`, `outputs = width × 32`).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::ShapeMismatch`] if the weight matrix does not
    /// match the configuration, or propagates geometry errors.
    pub fn new(
        config: &YocoConfig,
        role: ImaRole,
        weights: &[Vec<u32>],
    ) -> Result<Self, CircuitError> {
        let stack = config.ima_stack;
        let width = config.ima_width;
        let rows = stack * 128;
        let outputs = width * 32;
        if weights.len() != rows || weights.iter().any(|r| r.len() != outputs) {
            return Err(CircuitError::ShapeMismatch {
                what: "ima weight matrix",
                expected: rows * outputs,
                actual: weights.len() * weights.first().map_or(0, Vec::len),
            });
        }
        let geom = ArrayGeometry::yoco_default();
        let mut arrays = Vec::with_capacity(stack * width);
        for s in 0..stack {
            for w in 0..width {
                let block: Vec<Vec<u32>> = (0..128)
                    .map(|r| (0..32).map(|c| weights[s * 128 + r][w * 32 + c]).collect())
                    .collect();
                arrays.push(FastArray::with_noise(geom, &block, config.noise)?);
            }
        }
        let tda = TimeDomainAccumulator::new(Vtc::yoco_default(), stack, config.noise);
        let tdc = Tdc::new(8, tda.full_scale())?;
        Ok(Self {
            role,
            stack,
            width,
            arrays,
            tda,
            tdc,
            rows,
            outputs,
        })
    }

    /// The IMA's role (dynamic or static).
    pub fn role(&self) -> ImaRole {
        self.role
    }

    /// Input rows per VMM.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Outputs per VMM.
    pub fn outputs(&self) -> usize {
        self.outputs
    }

    /// Executes one full VMM through the charge-domain arrays, TDA chains,
    /// and TDC readout, returning the 8-bit output codes.
    ///
    /// # Errors
    ///
    /// Returns shape/range errors for invalid inputs.
    pub fn compute_vmm(&self, inputs: &[u32], seed: u64) -> Result<Vec<u32>, CircuitError> {
        if inputs.len() != self.rows {
            return Err(CircuitError::ShapeMismatch {
                what: "ima input vector",
                expected: self.rows,
                actual: inputs.len(),
            });
        }
        // Per (stack, width) array: compute its 32 CB voltages.
        let mut cb_voltages: Vec<Vec<Volt>> = Vec::with_capacity(self.stack * self.width);
        for s in 0..self.stack {
            let block_in = &inputs[s * 128..(s + 1) * 128];
            for w in 0..self.width {
                let arr = &self.arrays[s * self.width + w];
                cb_voltages.push(
                    arr.compute_vmm_seeded(block_in, seed ^ ((s as u64) << 32) ^ (w as u64))?,
                );
            }
        }
        // Per output column: TDA accumulates the stack, TDC digitizes.
        let mut out = Vec::with_capacity(self.outputs);
        for j in 0..self.outputs {
            let (w, cb) = (j / 32, j % 32);
            let stack_volts: Vec<Volt> = (0..self.stack)
                .map(|s| cb_voltages[s * self.width + w][cb])
                .collect();
            let t = self
                .tda
                .accumulate_seeded(&stack_volts, seed ^ (j as u64) << 16);
            out.push(self.tdc.convert(t)?);
        }
        Ok(out)
    }

    /// The expected output code for an exact dot product.
    pub fn dot_to_code(&self, dot: f64) -> u32 {
        (dot / (self.rows as f64 * 255.0)).round() as u32
    }
}

/// Cost of one IMA invocation with array-level power gating.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ImaInvocationCost {
    /// Vertical arrays kept powered (`ceil(rows_used / 128)`).
    pub active_stack: usize,
    /// Horizontal arrays kept powered (`ceil(outputs_used / 32)`).
    pub active_width: usize,
    /// Energy, pJ.
    pub energy_pj: f64,
    /// Latency, ns.
    pub latency_ns: f64,
}

/// Computes the cost of one IMA VMM touching `rows_used` input rows and
/// `outputs_used` output columns, at the given MCC activity.
///
/// Idle arrays are power-gated (§III-C); the active grid pays the Table II
/// per-array energy (26.5 pJ array + row drivers + TDAs ≈ 29.6 pJ, the
/// Table II "IMA array" figure), one TDC conversion per active output, the
/// buffer traffic for the touched rows/outputs, and a control overhead
/// proportional to the active fraction.
pub fn ima_invocation_cost(
    config: &YocoConfig,
    rows_used: usize,
    outputs_used: usize,
    activity: f64,
) -> ImaInvocationCost {
    let active_stack = rows_used.div_ceil(128).clamp(1, config.ima_stack);
    let active_width = outputs_used.div_ceil(32).clamp(1, config.ima_width);
    let active_arrays = (active_stack * active_width) as f64;

    let array_pj = yoco_circuit::energy::array_vmm_energy(activity).as_pico()
        + table2::ROW_DRIVERS_PER_ARRAY as f64 * table2::ROW_DRIVER_ENERGY_FJ * 1e-3
        + table2::TDAS_PER_ARRAY as f64 * table2::TDA_ENERGY_FJ * 1e-3;
    let tdc_pj = (active_width * 32) as f64 * table2::TDC_ENERGY_PJ;
    let in_words = (rows_used as f64 / 32.0).ceil();
    let out_words = (outputs_used as f64 / 32.0).ceil();
    let buffer_pj = table2::BUFFER_ENERGY_PER_256B_PJ * (in_words + out_words);
    let total_arrays = (config.ima_stack * config.ima_width) as f64;
    let control_pj = table2::IMA_CONTROL_ENERGY_PJ * active_arrays / total_arrays;

    let energy_pj = array_pj * active_arrays + tdc_pj + buffer_pj + control_pj;
    let latency_ns = table2::ARRAY_LATENCY_NS
        + active_stack as f64 * table2::TDA_LATENCY_PS * 1e-3
        + table2::TDC_LATENCY_NS
        + table2::ROW_DRIVER_LATENCY_PS * 1e-3
        + table2::BUFFER_LATENCY_PER_256B_NS;
    ImaInvocationCost {
        active_stack,
        active_width,
        energy_pj,
        latency_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use yoco_circuit::NoiseModel;

    fn small_config() -> YocoConfig {
        YocoConfig::builder()
            .ima_stack(2)
            .ima_width(1)
            .noise(NoiseModel::ideal())
            .build()
            .unwrap()
    }

    #[test]
    fn functional_vmm_recovers_dot_products() {
        let config = small_config();
        let rows = config.ima_rows(); // 256
        let outputs = config.ima_outputs(); // 32
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(3);
        let weights: Vec<Vec<u32>> = (0..rows)
            .map(|_| (0..outputs).map(|_| rng.gen_range(0..256)).collect())
            .collect();
        let ima = Ima::new(&config, ImaRole::Static, &weights).unwrap();
        let inputs: Vec<u32> = (0..rows).map(|_| rng.gen_range(0..256)).collect();
        let codes = ima.compute_vmm(&inputs, 1).unwrap();
        assert_eq!(codes.len(), outputs);
        for (j, &code) in codes.iter().enumerate() {
            let exact: f64 = (0..rows)
                .map(|r| inputs[r] as f64 * weights[r][j] as f64)
                .sum();
            let expected = ima.dot_to_code(exact);
            assert!(
                (code as i64 - expected as i64).abs() <= 1,
                "output {j}: code {code}, expected {expected}"
            );
        }
    }

    #[test]
    fn noisy_vmm_stays_within_error_budget() {
        let config = YocoConfig::builder()
            .ima_stack(2)
            .ima_width(1)
            .noise(NoiseModel::tt_corner())
            .build()
            .unwrap();
        let rows = config.ima_rows();
        let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(9);
        let weights: Vec<Vec<u32>> = (0..rows)
            .map(|_| (0..32).map(|_| rng.gen_range(0..256)).collect())
            .collect();
        let ima = Ima::new(&config, ImaRole::Dynamic, &weights).unwrap();
        let inputs: Vec<u32> = (0..rows).map(|_| rng.gen_range(0..256)).collect();
        let codes = ima.compute_vmm(&inputs, 5).unwrap();
        let max_code = 255.0;
        for (j, &code) in codes.iter().enumerate() {
            let exact: f64 = (0..rows)
                .map(|r| inputs[r] as f64 * weights[r][j] as f64)
                .sum();
            let expected = exact / (rows as f64 * 255.0);
            // End-to-end error bound: < 0.98 % of full scale, plus the
            // readout's half-LSB.
            let err = (code as f64 - expected).abs() / max_code;
            assert!(err < 0.0098 + 0.5 / 255.0, "output {j}: rel err {err}");
        }
    }

    #[test]
    fn invocation_cost_full_ima_matches_headline() {
        let config = YocoConfig::paper_default();
        let c = ima_invocation_cost(&config, 1024, 256, 0.5);
        assert_eq!(c.active_stack, 8);
        assert_eq!(c.active_width, 8);
        // ~4.235 nJ and <15.1 ns.
        assert!(
            (c.energy_pj - 4235.0).abs() / 4235.0 < 0.02,
            "{} pJ",
            c.energy_pj
        );
        assert!(c.latency_ns < 15.1, "{} ns", c.latency_ns);
    }

    #[test]
    fn power_gating_scales_energy_down() {
        let config = YocoConfig::paper_default();
        let full = ima_invocation_cost(&config, 1024, 256, 0.5);
        let quarter = ima_invocation_cost(&config, 256, 128, 0.5);
        assert_eq!(quarter.active_stack, 2);
        assert_eq!(quarter.active_width, 4);
        assert!(quarter.energy_pj < full.energy_pj / 2.5);
    }

    #[test]
    fn shape_validation() {
        let config = small_config();
        let bad = vec![vec![0u32; 3]; 4];
        assert!(Ima::new(&config, ImaRole::Dynamic, &bad).is_err());
    }
}
