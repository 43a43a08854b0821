//! # yoco-circuit — behavioural charge-domain substrate for YOCO
//!
//! This crate reproduces, at behavioural level, the analog circuits of the
//! YOCO paper (DAC 2025): the *in-charge computing* array built from memory
//! and compute cells (MCCs), the DAC-less input conversion, the four-phase
//! multiple-charge-sharing (MCS) multiply-accumulate, the time-domain
//! accumulator (TDA) made of serial voltage-to-time converters (VTCs), and
//! the 8-bit time-to-digital converter (TDC) readout.
//!
//! The paper simulates these circuits in Cadence Virtuoso; here every unit
//! capacitor is tracked explicitly and charge sharing is computed from charge
//! conservation (`V_shared = ΣQ/ΣC`), with parameterized non-idealities
//! (capacitor mismatch, switch charge injection, incomplete settling, VTC
//! jitter) calibrated against the error bounds the paper reports in Fig 6.
//!
//! ## Layout
//!
//! * [`units`] — physical quantity newtypes ([`Volt`], [`Farad`], [`Joule`], …)
//! * [`charge`] — charge-sharing primitives
//! * [`geometry`] — array geometry and eDAC/eACC/eSA grouping ratios
//! * [`mcc`] — the memory-and-compute cell and its SRAM/ReRAM clusters
//! * [`phases`] — the four charge-sharing phases and their switch settings
//! * [`detailed`] — per-capacitor array simulator (ground truth)
//! * [`fast`] — closed-form array model with the same noise knobs
//! * [`dac`] — DAC-less input conversion, transfer curve, INL/DNL
//! * [`variation`] — PVT variation model and Monte-Carlo harness
//! * [`vtc`] — voltage-to-time conversion and time-domain accumulation
//! * [`tdc`] — 8-bit time-to-digital readout
//! * [`energy`] — Table II per-action energy/latency/area constants
//!
//! ## Quick example
//!
//! ```
//! use yoco_circuit::{ArrayGeometry, FastArray, NoiseModel};
//!
//! # fn main() -> Result<(), yoco_circuit::CircuitError> {
//! // A full-size YOCO array: 128 rows x 256 columns, 8-bit inputs/weights,
//! // 32 compute bars of 8 columns each.
//! let geom = ArrayGeometry::yoco_default();
//! let weights = vec![vec![3u32; geom.num_cbs()]; geom.rows()]; // W = 3 everywhere
//! let array = FastArray::new(geom, &weights)?;
//! let inputs = vec![2u32; geom.rows()]; // X = 2 everywhere
//! let v = array.compute_vmm_ideal(&inputs)?;
//! // Every compute bar sees the dot product 128 * (2*3) = 768.
//! let dot = array.geometry().voltage_to_dot(v[0]);
//! assert!((dot - 768.0).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod calib;
pub mod charge;
pub mod corners;
pub mod dac;
pub mod detailed;
pub mod energy;
mod error;
pub mod fast;
pub mod faults;
pub mod geometry;
pub mod mcc;
#[cfg(test)]
mod microbench;
pub mod phases;
pub mod rc;
pub mod tdc;
pub mod units;
pub mod variation;
pub mod vtc;

pub use calib::DigitalCalibration;
pub use corners::{noise_at, ProcessCorner};
pub use dac::{DacTransfer, LinearityReport};
pub use detailed::DetailedArray;
pub use error::CircuitError;
pub use fast::FastArray;
pub use faults::Fault;
pub use geometry::ArrayGeometry;
pub use mcc::{Mcc, MemoryCluster, MemoryKind};
pub use phases::{Phase, SwitchConfig};
pub use rc::RcShareNetwork;
pub use tdc::Tdc;
pub use units::{Farad, Joule, Second, SquareMicron, Volt};
pub use variation::{MonteCarlo, MonteCarloReport, NoiseModel};
pub use vtc::{TimeDomainAccumulator, Vtc};

/// Nominal supply voltage of the YOCO macro (28 nm process), in volts.
///
/// The paper's Fig 6 shows full-scale MAC voltages approaching 0.9 V and
/// quotes an LSB of 3.52 mV, consistent with `0.9 V / 256 = 3.516 mV`.
pub const VDD: f64 = 0.9;

/// Unit MOM capacitor of one MCC, in farads (2 fF, Table II).
pub const UNIT_CAP: f64 = 2.0e-15;

/// One least-significant bit of the 8-bit analog resolution, in volts.
///
/// `VDD / 256 = 3.516 mV`, which the paper rounds to 3.52 mV.
pub const LSB: f64 = VDD / 256.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lsb_matches_paper() {
        // Paper quotes 3.52 mV.
        assert!((LSB - 3.52e-3).abs() < 0.01e-3);
    }

    #[test]
    fn unit_cap_activation_energy_matches_table2() {
        // Table II: capacitor activation energy 1.62 fJ = C * VDD^2.
        let e = UNIT_CAP * VDD * VDD;
        assert!((e - 1.62e-15).abs() < 1e-18);
    }
}
