//! The memory and compute cell (MCC).
//!
//! Each MCC combines (Fig 2b):
//!
//! * a 2 fF unit MOM capacitor `Cu` (stacked over the memory, so it adds no
//!   layout area),
//! * switches `S0`/`S1` and the analog 1-bit multiplier transistors `M0`/`M1`,
//! * a *memory cluster*: several 1-bit RAM cells behind a MUX. In a
//!   dynamic IMA (DIMA) the cluster is 8 SRAM bits; in a static IMA (SIMA)
//!   it is 32 one-transistor-one-resistor (1T1R) ReRAM bits. The MUX selects
//!   which stored bit drives the multiplier, so several weight sets can stay
//!   resident and be switched without rewriting the array.

use crate::CircuitError;
use serde::{Deserialize, Serialize};

/// Which memory technology backs an MCC's cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemoryKind {
    /// 6T SRAM — fast, unlimited endurance, low density. Used by DIMAs for
    /// dynamic matrices (attention K/Q/V).
    Sram,
    /// 1T1R ReRAM (1 kΩ / 20 kΩ on/off, 1-bit) — dense, limited endurance,
    /// expensive writes. Used by SIMAs for static weights.
    ReRam,
}

impl MemoryKind {
    /// Cluster capacity in bits: 8 for SRAM, 32 for ReRAM (Table II — both
    /// match the MOM capacitor footprint).
    pub fn cluster_bits(self) -> usize {
        match self {
            MemoryKind::Sram => 8,
            MemoryKind::ReRam => 32,
        }
    }
}

/// A cluster of 1-bit RAM cells behind a MUX (one per MCC).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryCluster {
    kind: MemoryKind,
    cells: Vec<bool>,
    selected: usize,
    writes: u64,
}

impl MemoryCluster {
    /// Creates an all-zero cluster of the given technology.
    pub fn new(kind: MemoryKind) -> Self {
        Self {
            kind,
            cells: vec![false; kind.cluster_bits()],
            selected: 0,
            writes: 0,
        }
    }

    /// The memory technology of this cluster.
    pub fn kind(&self) -> MemoryKind {
        self.kind
    }

    /// Number of 1-bit cells in the cluster.
    pub fn capacity(&self) -> usize {
        self.cells.len()
    }

    /// Writes one bit into slot `index`.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::CodeOutOfRange`] if `index` exceeds the
    /// cluster capacity.
    pub fn write(&mut self, index: usize, bit: bool) -> Result<(), CircuitError> {
        if index >= self.cells.len() {
            return Err(CircuitError::CodeOutOfRange {
                code: index as u32,
                bits: self.kind.cluster_bits() as u8,
            });
        }
        self.cells[index] = bit;
        self.writes += 1;
        Ok(())
    }

    /// Points the MUX at slot `index`.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::CodeOutOfRange`] if `index` exceeds the
    /// cluster capacity.
    pub fn select(&mut self, index: usize) -> Result<(), CircuitError> {
        if index >= self.cells.len() {
            return Err(CircuitError::CodeOutOfRange {
                code: index as u32,
                bits: self.kind.cluster_bits() as u8,
            });
        }
        self.selected = index;
        Ok(())
    }

    /// The bit currently driving the analog multiplier.
    pub fn active_bit(&self) -> bool {
        self.cells[self.selected]
    }

    /// Index of the currently selected slot.
    pub fn selected(&self) -> usize {
        self.selected
    }

    /// Total writes performed on this cluster (endurance pressure for ReRAM).
    pub fn write_count(&self) -> u64 {
        self.writes
    }
}

/// One memory-and-compute cell: a unit capacitor plus its memory cluster.
///
/// The capacitor's actual value deviates from nominal by the manufacturing
/// mismatch factor `cap_multiplier` (dimensionless, 1.0 = nominal).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mcc {
    cluster: MemoryCluster,
    cap_multiplier: f64,
}

impl Mcc {
    /// Creates a nominal MCC (no mismatch) of the given memory technology.
    pub fn new(kind: MemoryKind) -> Self {
        Self {
            cluster: MemoryCluster::new(kind),
            cap_multiplier: 1.0,
        }
    }

    /// Creates an MCC whose capacitor deviates by the given multiplier.
    pub fn with_mismatch(kind: MemoryKind, cap_multiplier: f64) -> Self {
        Self {
            cluster: MemoryCluster::new(kind),
            cap_multiplier,
        }
    }

    /// Actual capacitance of the unit capacitor, in farads.
    pub fn capacitance(&self) -> crate::units::Farad {
        crate::units::Farad::new(crate::UNIT_CAP * self.cap_multiplier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_capacities_match_table2() {
        assert_eq!(MemoryCluster::new(MemoryKind::Sram).capacity(), 8);
        assert_eq!(MemoryCluster::new(MemoryKind::ReRam).capacity(), 32);
    }

    #[test]
    fn mux_selects_between_resident_weight_sets() {
        let mut c = MemoryCluster::new(MemoryKind::Sram);
        c.write(0, true).unwrap();
        c.write(1, false).unwrap();
        c.select(0).unwrap();
        assert!(c.active_bit());
        c.select(1).unwrap();
        assert!(!c.active_bit());
        assert_eq!(c.write_count(), 2);
    }

    #[test]
    fn out_of_range_slot_is_rejected() {
        let mut c = MemoryCluster::new(MemoryKind::Sram);
        assert!(c.write(8, true).is_err());
        assert!(c.select(8).is_err());
    }

    #[test]
    fn mcc_capacitance_reflects_mismatch() {
        let nominal = Mcc::new(MemoryKind::Sram);
        assert!((nominal.capacitance().as_femto() - 2.0).abs() < 1e-12);
        let skewed = Mcc::with_mismatch(MemoryKind::ReRam, 1.02);
        assert!((skewed.capacitance().as_femto() - 2.04).abs() < 1e-12);
    }
}
