//! # yoco-mem — memory substrates for the YOCO reproduction
//!
//! YOCO is a *hybrid-memory* architecture: dynamic IMAs (DIMAs) back their
//! MCC clusters with SRAM for fast, endurance-free weight updates, while
//! static IMAs (SIMAs) use dense 1T1R ReRAM for resident model weights.
//! Tiles add a 128 KB eDRAM I/O cache. The paper models these with CACTI
//! \[11\] and TIMELY's ReRAM parameters \[7\]; this crate provides
//! equivalent analytical models (the 2 KB IMA buffers are priced once, by
//! the Table II constants in `yoco_circuit::energy::table2`):
//!
//! * [`model`] — the [`MemoryModel`] trait and access-cost bookkeeping
//! * [`sram`] — 6T SRAM arrays (DIMA clusters, quantization memory)
//! * [`reram`] — 1T1R ReRAM arrays with endurance tracking (SIMA clusters)
//! * [`edram`] — embedded DRAM with refresh (tile I/O cache)
//!
//! ```
//! use yoco_mem::{MemoryModel, SramArray};
//!
//! let sram = SramArray::new(2 * 1024); // 2 KB
//! let cost = sram.read_cost(256);
//! assert!(cost.energy_pj > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod edram;
mod error;
pub mod model;
pub mod reram;
pub mod sram;
pub mod wear;

pub use edram::EdramArray;
pub use error::MemError;
pub use model::{AccessCost, MemoryModel, MemoryStats};
pub use reram::ReramArray;
pub use sram::SramArray;
pub use wear::{WearLeveledCluster, WearPolicy};
