//! The roofline latency model.

use hs_nn::Network;

use crate::error::GpuSimError;
use crate::workload::{lower_network, LayerWork, Workload};

/// A compute device described by its roofline parameters.
///
/// Construct the paper's four platforms with the [`crate::devices`]
/// functions, or build custom ones for what-if studies.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Display name.
    pub name: String,
    /// Peak single-precision throughput in GFLOP/s (1 MAC = 2 FLOPs).
    pub peak_gflops: f64,
    /// Sustained memory bandwidth in GB/s.
    pub bandwidth_gbs: f64,
    /// Fixed overhead per kernel launch, in microseconds. Dominant for
    /// small layers on discrete GPUs; ~0 for CPUs.
    pub launch_overhead_us: f64,
    /// MACs at which the device reaches half its peak utilization — the
    /// knee of the saturation curve. Wide devices need big kernels.
    pub half_utilization_macs: f64,
    /// Ceiling on achievable fraction of peak (GEMM efficiency).
    pub max_utilization: f64,
    /// Board power at full load, in watts (for energy estimates).
    pub tdp_watts: f64,
    /// Fraction of TDP drawn while idle.
    pub idle_fraction: f64,
}

impl DeviceSpec {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`GpuSimError::BadDevice`] naming the first bad field.
    // Negated comparisons are deliberate: they also reject NaN fields.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn validate(&self) -> Result<(), GpuSimError> {
        let bad = |field: &'static str, v: f64| {
            Err(GpuSimError::BadDevice {
                field,
                detail: format!("{v}"),
            })
        };
        if !(self.peak_gflops > 0.0) {
            return bad("peak_gflops", self.peak_gflops);
        }
        if !(self.bandwidth_gbs > 0.0) {
            return bad("bandwidth_gbs", self.bandwidth_gbs);
        }
        if !(self.launch_overhead_us >= 0.0) {
            return bad("launch_overhead_us", self.launch_overhead_us);
        }
        if !(self.half_utilization_macs >= 0.0) {
            return bad("half_utilization_macs", self.half_utilization_macs);
        }
        if !(self.max_utilization > 0.0 && self.max_utilization <= 1.0) {
            return bad("max_utilization", self.max_utilization);
        }
        if !(self.tdp_watts > 0.0) {
            return bad("tdp_watts", self.tdp_watts);
        }
        if !(0.0..=1.0).contains(&self.idle_fraction) {
            return bad("idle_fraction", self.idle_fraction);
        }
        Ok(())
    }

    /// Achieved fraction of peak for a kernel of `macs` work:
    /// `u(w) = u_max · w / (w + w_half)`.
    pub fn utilization(&self, macs: u64) -> f64 {
        let w = macs as f64;
        self.max_utilization * w / (w + self.half_utilization_macs.max(1e-9))
    }

    /// Latency of one kernel in seconds.
    pub fn kernel_seconds(&self, work: &LayerWork) -> f64 {
        let compute = if work.macs == 0 {
            0.0
        } else {
            2.0 * work.macs as f64 / (self.peak_gflops * 1e9 * self.utilization(work.macs))
        };
        let memory = work.bytes_total() as f64 / (self.bandwidth_gbs * 1e9);
        compute.max(memory) + self.launch_overhead_us * 1e-6
    }
}

/// Latency of one kernel, with its roofline breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerLatency {
    /// Kernel kind.
    pub kind: String,
    /// Total seconds (max of compute/memory plus launch).
    pub seconds: f64,
    /// Whether the memory side of the roofline dominated.
    pub memory_bound: bool,
}

/// A full-model latency estimate on one device.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyReport {
    /// Device name.
    pub device: String,
    /// Workload name.
    pub workload: String,
    /// Per-kernel latencies.
    pub layers: Vec<LayerLatency>,
    /// End-to-end seconds per frame (batch 1).
    pub total_seconds: f64,
}

impl LatencyReport {
    /// Frames per second at batch size 1 — the metric of Figure 6.
    pub fn fps(&self) -> f64 {
        if self.total_seconds <= 0.0 {
            f64::INFINITY
        } else {
            1.0 / self.total_seconds
        }
    }
}

/// Estimated energy per frame in joules: active power over the busy
/// time plus idle draw, i.e. `E = TDP · (u_avg + idle·(1−u_avg)) · t`
/// with `u_avg` the workload's average achieved utilization.
///
/// # Errors
///
/// Returns [`GpuSimError::BadDevice`] for invalid device parameters.
pub fn estimate_energy_per_frame(
    device: &DeviceSpec,
    workload: &Workload,
) -> Result<f64, GpuSimError> {
    device.validate()?;
    let mut energy = 0.0f64;
    for work in &workload.layers {
        let t = device.kernel_seconds(work);
        let u = if work.macs == 0 {
            0.1
        } else {
            device.utilization(work.macs)
        };
        let power = device.tdp_watts * (u + device.idle_fraction * (1.0 - u));
        energy += power * t;
    }
    Ok(energy)
}

/// Estimates inference latency of a pre-lowered workload.
///
/// # Errors
///
/// Returns [`GpuSimError::BadDevice`] for invalid device parameters.
pub fn estimate_workload(
    device: &DeviceSpec,
    workload: &Workload,
) -> Result<LatencyReport, GpuSimError> {
    device.validate()?;
    let mut layers = Vec::with_capacity(workload.layers.len());
    let mut total = 0.0f64;
    for work in &workload.layers {
        let seconds = device.kernel_seconds(work);
        let compute = if work.macs == 0 {
            0.0
        } else {
            2.0 * work.macs as f64 / (device.peak_gflops * 1e9 * device.utilization(work.macs))
        };
        let memory = work.bytes_total() as f64 / (device.bandwidth_gbs * 1e9);
        layers.push(LayerLatency {
            kind: work.kind.clone(),
            seconds,
            memory_bound: memory >= compute,
        });
        total += seconds;
    }
    Ok(LatencyReport {
        device: device.name.clone(),
        workload: workload.name.clone(),
        layers,
        total_seconds: total,
    })
}

/// Lowers `net` and estimates its inference latency on `device`.
///
/// # Errors
///
/// Propagates lowering and device-validation errors.
pub fn estimate(
    device: &DeviceSpec,
    net: &Network,
    in_channels: usize,
    input_size: usize,
) -> Result<LatencyReport, GpuSimError> {
    let workload = lower_network(&device.name, net, in_channels, input_size)?;
    estimate_workload(device, &workload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::devices;
    use hs_nn::models;
    use hs_tensor::Rng;

    fn toy_work(macs: u64, bytes: u64) -> Workload {
        Workload {
            name: "toy".into(),
            layers: vec![LayerWork {
                kind: "conv".into(),
                macs,
                bytes_read: bytes / 2,
                bytes_written: bytes - bytes / 2,
            }],
        }
    }

    #[test]
    fn utilization_saturates() {
        let d = devices::gtx_1080ti();
        assert!(d.utilization(1_000) < d.utilization(1_000_000_000));
        assert!(d.utilization(u64::MAX / 2) <= d.max_utilization);
    }

    #[test]
    fn more_work_is_never_faster() {
        let d = devices::gtx_1080ti();
        let mut last = 0.0;
        for macs in [1_000u64, 1_000_000, 1_000_000_000, 10_000_000_000] {
            let t = estimate_workload(&d, &toy_work(macs, 1_000_000))
                .unwrap()
                .total_seconds;
            assert!(t >= last, "latency decreased with more work: {t} < {last}");
            last = t;
        }
    }

    #[test]
    fn memory_bound_detection() {
        let d = devices::gtx_1080ti();
        // Tiny compute, huge traffic → memory bound.
        let r = estimate_workload(&d, &toy_work(10, 1_000_000_000)).unwrap();
        assert!(r.layers[0].memory_bound);
        // Huge compute, tiny traffic → compute bound.
        let r = estimate_workload(&d, &toy_work(10_000_000_000, 100)).unwrap();
        assert!(!r.layers[0].memory_bound);
    }

    #[test]
    fn pruned_model_is_faster_on_every_device() {
        let mut rng = Rng::seed_from(0);
        let full = models::vgg16(3, 100, 32, 1.0, &mut rng).unwrap();
        let half = models::vgg16(3, 100, 32, 0.5, &mut rng).unwrap();
        for d in devices::all() {
            let tf = estimate(&d, &full, 3, 32).unwrap();
            let th = estimate(&d, &half, 3, 32).unwrap();
            assert!(
                th.total_seconds < tf.total_seconds,
                "{}: pruned {} !< full {}",
                d.name,
                th.total_seconds,
                tf.total_seconds
            );
            assert!(th.fps() > tf.fps());
        }
    }

    #[test]
    fn big_gpu_beats_small_gpu_on_big_models() {
        let mut rng = Rng::seed_from(1);
        let net = models::vgg16(3, 100, 224, 1.0, &mut rng).unwrap();
        let big = estimate(&devices::gtx_1080ti(), &net, 3, 224).unwrap();
        let small = estimate(&devices::jetson_tx2_gpu(), &net, 3, 224).unwrap();
        assert!(big.fps() > small.fps());
    }

    #[test]
    fn gpu_beats_its_companion_cpu() {
        let mut rng = Rng::seed_from(2);
        let net = models::vgg16(3, 100, 64, 1.0, &mut rng).unwrap();
        let gpu = estimate(&devices::jetson_tx2_gpu(), &net, 3, 64).unwrap();
        let cpu = estimate(&devices::cortex_a57(), &net, 3, 64).unwrap();
        assert!(gpu.fps() > cpu.fps());
        let gpu = estimate(&devices::gtx_1080ti(), &net, 3, 64).unwrap();
        let cpu = estimate(&devices::xeon_e2620(), &net, 3, 64).unwrap();
        assert!(gpu.fps() > cpu.fps());
    }

    #[test]
    fn pruning_reduces_energy_per_frame() {
        let mut rng = Rng::seed_from(5);
        let full = models::vgg16(3, 100, 32, 1.0, &mut rng).unwrap();
        let half = models::vgg16(3, 100, 32, 0.5, &mut rng).unwrap();
        for d in devices::all() {
            let wf = crate::lower_network("full", &full, 3, 32).unwrap();
            let wh = crate::lower_network("half", &half, 3, 32).unwrap();
            let ef = estimate_energy_per_frame(&d, &wf).unwrap();
            let eh = estimate_energy_per_frame(&d, &wh).unwrap();
            assert!(eh < ef, "{}: pruned energy {eh} !< {ef}", d.name);
            assert!(ef > 0.0);
        }
    }

    #[test]
    fn edge_device_uses_less_energy_per_frame_than_desktop_gpu_idle_floor() {
        // For a small model the TX2's 15 W envelope beats the 1080Ti's
        // 250 W envelope on energy even though the 1080Ti is faster.
        let mut rng = Rng::seed_from(6);
        let net = models::vgg11(3, 10, 32, 0.25, &mut rng).unwrap();
        let w = crate::lower_network("small", &net, 3, 32).unwrap();
        let e_tx2 = estimate_energy_per_frame(&devices::jetson_tx2_gpu(), &w).unwrap();
        let e_big = estimate_energy_per_frame(&devices::gtx_1080ti(), &w).unwrap();
        assert!(e_tx2 < e_big, "tx2 {e_tx2} J vs 1080Ti {e_big} J");
    }

    #[test]
    fn invalid_device_is_rejected() {
        let mut d = devices::gtx_1080ti();
        d.peak_gflops = 0.0;
        assert!(estimate_workload(&d, &toy_work(1, 1)).is_err());
        let mut d = devices::gtx_1080ti();
        d.max_utilization = 1.5;
        assert!(d.validate().is_err());
    }
}
