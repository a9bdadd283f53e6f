//! Array-level TCAM modelling: calibration, scaling, peripherals and
//! variation Monte Carlo.
//!
//! The circuit simulator in `ftcam-cells` measures one row exactly; a real
//! TCAM has thousands of rows, peripheral circuits, and device variation.
//! Following standard practice for circuit papers (simulate a row in SPICE,
//! project the array analytically), this crate provides:
//!
//! * [`calibrate_row`] / [`CalibrationCache`] — run the transistor-level
//!   row testbench over a small set of mismatch counts and distill a
//!   [`RowCalibration`];
//! * [`ArrayModel`] — scale a calibration to an `R × W` array under a
//!   workload's mismatch histogram and search-line toggle statistics,
//!   including hierarchical early termination for the segmented design and
//!   a [`PeripheralModel`] for drivers, sense amplifiers and the priority
//!   encoder;
//! * [`VariationPoint`] / [`McResult`] — rebuild the row testbench per
//!   Monte-Carlo sample with Gaussian FeFET threshold-voltage shifts and
//!   assemble sense margins and search-failure rates in sample order.
//!
//! # Example
//!
//! ```no_run
//! use ftcam_array::{ArrayModel, ArrayParams, CalibrationCache};
//! use ftcam_cells::{DesignKind, SearchTiming};
//! use ftcam_devices::TechCard;
//!
//! # fn main() -> Result<(), ftcam_cells::CellError> {
//! let cache = CalibrationCache::new(TechCard::hp45(), Default::default(), SearchTiming::default());
//! let calib = cache.get(DesignKind::FeFet2T, 64)?;
//! let array = ArrayModel::new(ArrayParams::new(DesignKind::FeFet2T, 1024, 64), calib);
//! println!("typical search: {:.2} fJ/bit", array.typical_energy_per_bit() * 1e15);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod array;
mod calibrate;
mod montecarlo;
mod periph;
mod standby;

pub use array::{ArrayModel, ArrayParams};
pub use calibrate::{
    calibrate_row, CacheStats, CalibrationCache, RowCalibration, StageCalibration,
};
pub use montecarlo::{McResult, McSample, McSolverFailure, VariationParams, VariationPoint};
pub use periph::PeripheralModel;
pub use standby::{Retention, StandbyProfile};
