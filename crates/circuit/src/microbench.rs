//! Per-instance timings of fig6d's Monte-Carlo, piece by piece. Ignored
//! by default; run
//!
//! ```text
//! cargo test -p yoco-circuit --release -- --ignored microbench --nocapture
//! ```
//!
//! Every piece runs on fig6d's geometry (128 × 256), weights, inputs,
//! TT-corner noise and first instance seed. One instance samples a
//! mismatch field of 32,768 Box-Muller normals, which read 65,536
//! `next_u64` of keystream; `MismatchField::sample` adds the clamp and
//! the allocation, `DetailedArray::with_seeded_noise` the weight write,
//! and `compute_vmm_seeded` is the instance's four-phase VMM. So the
//! normals' row less the keystream's is the cost of `ln` and `cos`.

use crate::variation::{standard_normal, MismatchField};
use crate::{ArrayGeometry, DetailedArray, MemoryKind, MonteCarlo, NoiseModel};
use rand_chacha::rand_core::{RngCore, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::hint::black_box;
use std::time::{Duration, Instant};

const ROUNDS: u32 = 10;
const ITERS: u32 = 20;

/// Returns and prints the fastest of `ROUNDS` round means, which a noisy
/// neighbour on a shared host moves least.
fn time(what: &str, mut f: impl FnMut()) -> Duration {
    let best = (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..ITERS {
                f();
            }
            t.elapsed() / ITERS
        })
        .min()
        .expect("at least one round");
    eprintln!("{what}: {best:?}/iter");
    best
}

#[test]
#[ignore]
fn fig6d_instance_piece_timings() {
    let geom = ArrayGeometry::yoco_default();
    let weights: Vec<Vec<u32>> = (0..128)
        .map(|r| {
            (0..32)
                .map(|c| ((r * 11 + c * 3 + 7) % 256) as u32)
                .collect()
        })
        .collect();
    let inputs: Vec<u32> = (0..128).map(|r| ((r * 97 + 31) % 256) as u32).collect();
    let noise = NoiseModel::tt_corner();
    let seed = MonteCarlo::new(2000, 99).instance_seed(0);
    let cells = geom.num_mccs();

    let keystream = time(&format!("{} next_u64", 2 * cells), || {
        let mut rng = ChaCha12Rng::seed_from_u64(black_box(seed));
        for _ in 0..2 * cells {
            black_box(rng.next_u64());
        }
    });
    let normals = time(&format!("{cells} standard_normal"), || {
        let mut rng = ChaCha12Rng::seed_from_u64(black_box(seed));
        for _ in 0..cells {
            black_box(standard_normal(&mut rng));
        }
    });
    eprintln!(
        "  of which ln and cos: {:?}/iter",
        normals.saturating_sub(keystream)
    );
    time("MismatchField::sample", || {
        black_box(MismatchField::sample(
            geom.rows(),
            geom.cols(),
            noise.cap_mismatch_sigma,
            black_box(seed),
        ));
    });
    time("DetailedArray::with_seeded_noise", || {
        black_box(
            DetailedArray::with_seeded_noise(
                geom,
                &weights,
                MemoryKind::Sram,
                noise,
                black_box(seed),
            )
            .expect("valid weights"),
        );
    });
    let array = DetailedArray::with_seeded_noise(geom, &weights, MemoryKind::Sram, noise, seed)
        .expect("valid weights");
    time("compute_vmm_seeded", || {
        black_box(
            array
                .compute_vmm_seeded(black_box(&inputs), seed ^ 0xABCD)
                .expect("valid inputs"),
        );
    });
}
