//! The Fig 5 attention dataflow, executed *functionally* through
//! charge-domain arrays.
//!
//! Everything the paper's hardware dataflow describes happens here on real
//! simulated capacitors: the SIMA arrays project each token to Q/K/V, the
//! K-DIMA holds the growing key matrix as weights and multiplies fresh
//! queries against it, the SFU role (exp, running max, normalizer) is the
//! online-softmax state, and the V-DIMA folds the attention probabilities
//! into the context — all with offset-encoded unsigned codes, exactly as
//! the silicon would.
//!
//! The demonstration operating point is small (16-wide head, ≤16 tokens,
//! 6-bit activations / 4-bit weights) so a test can sweep it quickly; the
//! full-size 8-bit path is exercised by [`crate::ima::Ima`].

// Index loops here deliberately walk several same-length arrays in lockstep.
#![allow(clippy::needless_range_loop)]

use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;
use yoco_circuit::{ArrayGeometry, CircuitError, FastArray, NoiseModel};
use yoco_nn::attention::StreamingAttention;
use yoco_nn::Matrix;

/// Head width of the demonstration flow.
pub const FLOW_DIM: usize = 16;
/// Maximum resident tokens (K-DIMA/V-DIMA capacity at this geometry).
pub const FLOW_MAX_TOKENS: usize = 16;
const IN_LEVELS: u32 = 64; // 6-bit activations
const W_OFFSET: i32 = 8; // 4-bit weights, offset encoding w_u = w + 8

/// A functional single-head attention tile.
#[derive(Debug, Clone)]
pub struct FunctionalAttentionFlow {
    geom: ArrayGeometry,
    noise: NoiseModel,
    wq: Matrix,
    wk: Matrix,
    wv: Matrix,
    /// 4-bit signed projection weights (offset codes derive on demand).
    wq_codes: Vec<Vec<i32>>,
    wk_codes: Vec<Vec<i32>>,
    wv_codes: Vec<Vec<i32>>,
    w_scale: f32,
}

impl FunctionalAttentionFlow {
    /// Creates a flow with random (seeded) projection weights.
    ///
    /// # Errors
    ///
    /// Propagates geometry validation errors (none for the fixed
    /// demonstration geometry).
    pub fn new(seed: u64, noise: NoiseModel) -> Result<Self, CircuitError> {
        // 16 rows, 6-bit inputs (64 columns), 4-bit weights, 16 CBs.
        let geom = ArrayGeometry::new(FLOW_DIM, 6, 4, 16)?;
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let mut random_proj = || {
            let data: Vec<f32> = (0..FLOW_DIM * FLOW_DIM)
                .map(|_| 0.45 * yoco_circuit::variation::standard_normal(&mut rng) as f32)
                .collect();
            Matrix::from_vec(FLOW_DIM, FLOW_DIM, data).expect("sized")
        };
        let wq = random_proj();
        let wk = random_proj();
        let wv = random_proj();
        let w_scale = [&wq, &wk, &wv]
            .iter()
            .map(|m| m.max_abs())
            .fold(0.0f32, f32::max)
            / 7.0;
        let quant = |m: &Matrix| -> Vec<Vec<i32>> {
            (0..m.rows())
                .map(|r| {
                    m.row(r)
                        .iter()
                        .map(|&v| (v / w_scale).round().clamp(-7.0, 7.0) as i32)
                        .collect()
                })
                .collect()
        };
        let wq_codes = quant(&wq);
        let wk_codes = quant(&wk);
        let wv_codes = quant(&wv);
        Ok(Self {
            geom,
            noise,
            wq,
            wk,
            wv,
            wq_codes,
            wk_codes,
            wv_codes,
            w_scale,
        })
    }

    /// One array VMM: signed weights (stored offset-encoded), signed inputs
    /// (split into positive/negative passes), analog readout.
    ///
    /// `weights[r][c]` are signed codes in `[-7, 7]` laid out `rows ×
    /// outputs`; `x` is a signed float vector of length `rows`; `x_scale`
    /// returns the de-quantization scale used.
    fn signed_vmm(
        &self,
        weights: &[Vec<i32>],
        x: &[f32],
        seed: u64,
    ) -> Result<Vec<f64>, CircuitError> {
        let rows = self.geom.rows();
        let outputs = self.geom.num_cbs();
        // Offset-encode into the unsigned array domain.
        let w_u: Vec<Vec<u32>> = (0..rows)
            .map(|r| {
                (0..outputs)
                    .map(|c| {
                        let code = weights
                            .get(r)
                            .and_then(|row| row.get(c))
                            .copied()
                            .unwrap_or(0);
                        (code + W_OFFSET) as u32
                    })
                    .collect()
            })
            .collect();
        let array = FastArray::with_noise(self.geom, &w_u, self.noise)?;

        let max_abs = x.iter().fold(0.0f32, |m, &v| m.max(v.abs())).max(1e-6);
        let x_scale = max_abs / (IN_LEVELS - 1) as f32;
        let quantize = |sign: f32| -> (Vec<u32>, u64) {
            let mut sum = 0u64;
            let v: Vec<u32> = x
                .iter()
                .map(|&xv| {
                    let c = ((xv * sign).max(0.0) / x_scale).round() as u32;
                    let c = c.min(IN_LEVELS - 1);
                    sum += c as u64;
                    c
                })
                .collect();
            (v, sum)
        };
        let (pos, pos_sum) = quantize(1.0);
        let (neg, neg_sum) = quantize(-1.0);

        let mut dots = vec![0.0f64; outputs];
        for (codes, sum, sgn, s) in [
            (pos, pos_sum, 1.0f64, seed),
            (neg, neg_sum, -1.0, seed ^ 0x5A5A),
        ] {
            if sum == 0 {
                continue;
            }
            let volts = array.compute_vmm_seeded(&codes, s)?;
            for (o, v) in dots.iter_mut().zip(&volts) {
                // Analog readout: voltage -> unsigned dot -> signed dot.
                let dot_u = self.geom.voltage_to_dot(*v);
                let signed = dot_u - W_OFFSET as f64 * sum as f64;
                *o += sgn * signed;
            }
        }
        // De-quantize: dot is in (weight code x input code) units.
        let scale = self.w_scale as f64 * x_scale as f64;
        Ok(dots.into_iter().map(|d| d * scale).collect())
    }

    /// Projects a token through one of the SIMA weight arrays.
    fn project(&self, which: &[Vec<i32>], x: &[f32], seed: u64) -> Result<Vec<f32>, CircuitError> {
        Ok(self
            .signed_vmm(which, x, seed)?
            .into_iter()
            .map(|d| d as f32)
            .collect())
    }

    /// Runs causal attention over a token sequence (`seq × FLOW_DIM`),
    /// entirely through the analog arrays, returning the attention outputs.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::ShapeMismatch`] if the sequence is too long
    /// or the wrong width.
    ///
    /// # Panics
    ///
    /// Does not panic for validated inputs.
    pub fn run(&self, tokens: &Matrix, seed: u64) -> Result<Matrix, CircuitError> {
        if tokens.cols() != FLOW_DIM || tokens.rows() > FLOW_MAX_TOKENS {
            return Err(CircuitError::ShapeMismatch {
                what: "token sequence",
                expected: FLOW_DIM * FLOW_MAX_TOKENS,
                actual: tokens.rows() * tokens.cols(),
            });
        }
        let seq = tokens.rows();
        // Stage 1: SIMA projections for every token.
        let mut q = Matrix::zeros(seq, FLOW_DIM);
        let mut k = Matrix::zeros(seq, FLOW_DIM);
        let mut v = Matrix::zeros(seq, FLOW_DIM);
        for t in 0..seq {
            let x = tokens.row(t);
            q.row_mut(t)
                .copy_from_slice(&self.project(&self.wq_codes, x, seed ^ (t as u64))?);
            k.row_mut(t).copy_from_slice(&self.project(
                &self.wk_codes,
                x,
                seed ^ (t as u64) ^ 0x11,
            )?);
            v.row_mut(t).copy_from_slice(&self.project(
                &self.wv_codes,
                x,
                seed ^ (t as u64) ^ 0x22,
            )?);
        }

        // Stages 2-6 per token: K-DIMA scores, SFU exp/normalize, V fold.
        let mut out = Matrix::zeros(seq, FLOW_DIM);
        for t in 0..seq {
            // K-DIMA holds kᵀ as weights: weight[dim][token] = k_token[dim].
            // (Requantize the resident K to the 4-bit weight grid — the
            // DIMA's SRAM clusters store the same code width.)
            let k_scale = (0..=t)
                .map(|j| k.row(j).iter().fold(0.0f32, |m, &x| m.max(x.abs())))
                .fold(0.0f32, f32::max)
                .max(1e-6)
                / 7.0;
            let k_codes: Vec<Vec<i32>> = (0..FLOW_DIM)
                .map(|dim| {
                    (0..=t)
                        .map(|j| (k.get(j, dim) / k_scale).round().clamp(-7.0, 7.0) as i32)
                        .collect()
                })
                .collect();
            // Scores through the analog array (in k-code units; rescale).
            let raw = self.signed_vmm(&k_codes, q.row(t), seed ^ ((t as u64) << 8))?;
            let rescale = k_scale as f64 / self.w_scale as f64;

            let mut state = StreamingAttention::new(FLOW_DIM);
            for j in 0..=t {
                state.push_score((raw[j] * rescale) as f32, v.row(j));
            }
            out.row_mut(t).copy_from_slice(&state.finish());
        }
        Ok(out)
    }

    /// The f32 reference: identical math with exact projections and exact
    /// attention.
    ///
    /// # Errors
    ///
    /// Propagates shape errors.
    pub fn run_reference(&self, tokens: &Matrix) -> Result<Matrix, yoco_nn::NnError> {
        let q = tokens.matmul(&self.wq)?;
        let k = tokens.matmul(&self.wk)?;
        let v = tokens.matmul(&self.wv)?;
        yoco_nn::attention::exact_attention(&q, &k, &v, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tokens(seq: usize, seed: u64) -> Matrix {
        use rand::Rng;
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let data: Vec<f32> = (0..seq * FLOW_DIM)
            .map(|_| rng.gen_range(-1.0..1.0))
            .collect();
        Matrix::from_vec(seq, FLOW_DIM, data).expect("sized")
    }

    #[test]
    fn analog_flow_tracks_reference_attention() {
        let flow = FunctionalAttentionFlow::new(3, NoiseModel::ideal()).expect("valid");
        let toks = tokens(8, 5);
        let analog = flow.run(&toks, 1).expect("runs");
        let reference = flow.run_reference(&toks).expect("runs");
        // 6-bit activations / 4-bit weights: expect coarse but faithful
        // agreement.
        let mut num = 0.0f32;
        let mut den = 0.0f32;
        for t in 0..8 {
            for c in 0..FLOW_DIM {
                num += (analog.get(t, c) - reference.get(t, c)).powi(2);
                den += reference.get(t, c).powi(2);
            }
        }
        let rel = (num / den.max(1e-9)).sqrt();
        assert!(rel < 0.35, "relative L2 error {rel}");
    }

    #[test]
    fn noise_degrades_gracefully() {
        let ideal = FunctionalAttentionFlow::new(3, NoiseModel::ideal()).expect("valid");
        let noisy = FunctionalAttentionFlow::new(3, NoiseModel::tt_corner()).expect("valid");
        let toks = tokens(6, 9);
        let a = ideal.run(&toks, 1).expect("runs");
        let b = noisy.run(&toks, 1).expect("runs");
        let mut worst = 0.0f32;
        for t in 0..6 {
            for c in 0..FLOW_DIM {
                worst = worst.max((a.get(t, c) - b.get(t, c)).abs());
            }
        }
        assert!(worst < 0.25, "noise-induced deviation {worst}");
    }

    #[test]
    fn first_token_attends_to_itself() {
        let flow = FunctionalAttentionFlow::new(7, NoiseModel::ideal()).expect("valid");
        let toks = tokens(1, 2);
        let analog = flow.run(&toks, 4).expect("runs");
        let reference = flow.run_reference(&toks).expect("runs");
        // Tolerance bounds the demo path's quantization error (4-bit
        // weights, 6-bit activations), not circuit noise: per-element
        // deviations up to ~0.4 are expected for unlucky draws.
        for c in 0..FLOW_DIM {
            assert!(
                (analog.get(0, c) - reference.get(0, c)).abs() < 0.45,
                "col {c}: {} vs {}",
                analog.get(0, c),
                reference.get(0, c)
            );
        }
    }

    #[test]
    fn rejects_oversized_sequences() {
        let flow = FunctionalAttentionFlow::new(1, NoiseModel::ideal()).expect("valid");
        let toks = tokens(FLOW_MAX_TOKENS + 1, 1);
        assert!(flow.run(&toks, 0).is_err());
    }
}
