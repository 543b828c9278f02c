//! Analytical GPGPU/CPU inference-latency model.
//!
//! The paper's Figure 6 measures frames-per-second of original vs.
//! HeadStart-pruned models on four platforms (GTX 1080Ti, Jetson TX2's
//! integrated GPU, a Xeon E5-2620 and the TX2's ARM Cortex-A57 cluster).
//! None of that hardware is available here, so this crate substitutes a
//! *roofline* latency model: each layer costs
//!
//! ```text
//! t = max(compute, memory) + kernel launch overhead
//! compute = 2·MACs / (peak FLOP/s · utilization(MACs))
//! memory  = moved bytes / bandwidth
//! ```
//!
//! with a saturating utilization curve `u(w) = u_max · w / (w + w_half)`
//! capturing that small kernels cannot fill a wide device. The *shape*
//! of Figure 6 — pruned/original fps ratios, GPU vs. CPU behaviour, the
//! TX2 profiting more from pruning than the 1080Ti on small inputs — is
//! a function of arithmetic intensity vs. device balance, which this
//! model captures; absolute fps values are not claimed.
//!
//! # Example
//!
//! ```
//! use hs_gpusim::{devices, estimate};
//! use hs_nn::models;
//! use hs_tensor::Rng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = Rng::seed_from(0);
//! let net = models::vgg11(3, 10, 32, 1.0, &mut rng)?;
//! let report = estimate(&devices::gtx_1080ti(), &net, 3, 32)?;
//! assert!(report.fps() > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod devices;
mod error;
mod model;
mod workload;

pub use error::GpuSimError;
pub use model::{
    estimate, estimate_energy_per_frame, estimate_workload, DeviceSpec, LatencyReport, LayerLatency,
};
pub use workload::{lower_network, LayerWork, Workload};
