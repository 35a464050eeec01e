//! The end-to-end TR system (Fig. 9): array + memory + control registers,
//! with network-level latency and energy reporting.

use crate::energy::{EnergyModel, WorkReport};
use crate::fault::{FaultConfig, FaultInjector, FaultReport};
use crate::memory::MemorySubsystem;
use crate::registers::ControlRegisters;
use crate::resources::{ResourceModel, Resources};
use crate::systolic::SystolicArray;
use tr_core::{PackedTermMatrix, TrError};

/// One matmul-shaped layer of a network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerShape {
    /// Output rows (neurons / output channels).
    pub m: usize,
    /// Reduction length (input features / C·kh·kw).
    pub k: usize,
    /// Data vectors per sample (1 for FC; out_h × out_w for conv).
    pub n: usize,
}

impl LayerShape {
    /// A convolution lowered to matmul.
    pub fn conv(out_channels: usize, patch_len: usize, out_spatial: usize) -> LayerShape {
        LayerShape { m: out_channels, k: patch_len, n: out_spatial }
    }

    /// A fully connected layer.
    pub fn fc(out_features: usize, in_features: usize) -> LayerShape {
        LayerShape { m: out_features, k: in_features, n: 1 }
    }

    /// Multiply-accumulates per sample.
    pub fn macs(&self) -> u64 {
        (self.m * self.k * self.n) as u64
    }

    /// Reject degenerate shapes: a zero dimension collapses the matmul.
    pub fn validate(&self) -> Result<(), TrError> {
        if self.m == 0 || self.k == 0 || self.n == 0 {
            return Err(TrError::InvalidGeometry(format!(
                "layer dims must be positive (got m={}, k={}, n={})",
                self.m, self.k, self.n
            )));
        }
        Ok(())
    }
}

/// Per-layer simulation output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerReport {
    /// The layer simulated.
    pub shape: LayerShape,
    /// Total cycles (compute + stalls).
    pub cycles: u64,
    /// Work/energy accounting.
    pub work: WorkReport,
}

/// Whole-network simulation output.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkReport {
    /// Per-layer reports.
    pub layers: Vec<LayerReport>,
    /// Total cycles per inference sample.
    pub total_cycles: u64,
    /// Latency per sample in milliseconds at the system clock.
    pub latency_ms: f64,
    /// Total energy in FA equivalents per sample.
    pub energy_fa: f64,
    /// Total DRAM traffic per sample in bytes.
    pub dram_bytes: u64,
}

impl NetworkReport {
    /// Samples per second.
    pub fn throughput(&self) -> f64 {
        if self.latency_ms == 0.0 {
            0.0
        } else {
            1000.0 / self.latency_ms
        }
    }
}

/// The full system model.
#[derive(Debug, Clone)]
pub struct TrSystem {
    /// Array geometry.
    pub array: SystolicArray,
    /// Memory subsystem.
    pub memory: MemorySubsystem,
    /// Energy model.
    pub energy: EnergyModel,
    /// Resource model.
    pub resources: ResourceModel,
    /// Core clock in MHz (the paper's build: 170).
    pub clock_mhz: f64,
}

impl Default for TrSystem {
    fn default() -> Self {
        TrSystem {
            array: SystolicArray::paper_build(),
            memory: MemorySubsystem::default(),
            energy: EnergyModel::default(),
            resources: ResourceModel::default(),
            clock_mhz: 170.0,
        }
    }
}

impl TrSystem {
    /// Simulate one layer under `regs`. `actual_pairs` is the measured
    /// term-pair count for this layer per sample (from `tr-nn` pair
    /// counting); pass `None` to assume cells are busy for the full bound
    /// (the conservative default).
    pub fn simulate_layer(
        &self,
        shape: LayerShape,
        regs: &ControlRegisters,
        actual_pairs: Option<u64>,
    ) -> LayerReport {
        match self.try_simulate_layer(shape, regs, actual_pairs) {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`TrSystem::simulate_layer`]: rejects degenerate layer
    /// shapes and invalid registers instead of panicking.
    pub fn try_simulate_layer(
        &self,
        shape: LayerShape,
        regs: &ControlRegisters,
        actual_pairs: Option<u64>,
    ) -> Result<LayerReport, TrError> {
        shape.validate()?;
        let sched = self.array.try_schedule(shape.m, shape.k, shape.n, regs, &self.memory)?;
        let bound_pairs = shape.macs().div_ceil(regs.group_size.max(1) as u64)
            * SystolicArray::beat_cycles(regs);
        let pairs = actual_pairs.unwrap_or(bound_pairs).min(bound_pairs);
        let work = self.array.work(&sched, pairs, regs, &self.energy);
        Ok(LayerReport { shape, cycles: sched.total_cycles(), work })
    }

    /// Simulate a whole network per inference sample.
    pub fn simulate_network(
        &self,
        shapes: &[LayerShape],
        regs: &ControlRegisters,
        actual_pairs: Option<&[u64]>,
    ) -> NetworkReport {
        if let Some(p) = actual_pairs {
            assert_eq!(p.len(), shapes.len(), "per-layer pair counts must align");
        }
        let mut layers = Vec::with_capacity(shapes.len());
        let mut total = WorkReport::default();
        for (i, &shape) in shapes.iter().enumerate() {
            let pairs = actual_pairs.map(|p| p[i]);
            let report = self.simulate_layer(shape, regs, pairs);
            total.merge(&report.work);
            layers.push(report);
        }
        let total_cycles = total.cycles;
        let latency_ms = total_cycles as f64 / (self.clock_mhz * 1e3);
        let energy_fa = total.energy(&self.energy);
        NetworkReport { layers, total_cycles, latency_ms, energy_fa, dram_bytes: total.dram_bytes }
    }

    /// The system's FPGA resource consumption for group size `g`.
    pub fn resource_usage(&self, g: u64, buffer_bram: u64) -> Resources {
        self.resources.tr_system(self.array.rows as u64, self.array.cols as u64, g, buffer_bram)
    }

    /// Run the functional array under a fault campaign and collect the
    /// outputs together with the injector's [`FaultReport`]. See
    /// [`SystolicArray::execute_with_faults`] for semantics; this is the
    /// system-level entry the `faults` bench experiment drives.
    pub fn execute_with_faults(
        &self,
        weights: &PackedTermMatrix,
        data: &PackedTermMatrix,
        g: usize,
        cfg: &FaultConfig,
    ) -> Result<FaultyExecution, TrError> {
        let mut inj = FaultInjector::new(*cfg)?;
        let (outputs, cycles) = self.array.execute_with_faults(weights, data, g, &mut inj)?;
        Ok(FaultyExecution { outputs, cycles, report: inj.report() })
    }
}

/// Outcome of a fault-injected functional run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultyExecution {
    /// Row-major `(M, N)` accumulators after mitigation.
    pub outputs: Vec<i64>,
    /// Synchronized cycle count.
    pub cycles: u64,
    /// What was injected and what the guards caught.
    pub report: FaultReport,
}

/// The layer shapes of the zoo's ResNet-style CNN on 3×32×32 inputs (used
/// by the Table IV and Fig. 19 experiments; spatial sizes follow the
/// stride schedule of `tr_nn::models::resnet`).
pub fn resnet_shapes() -> Vec<LayerShape> {
    vec![
        LayerShape::conv(16, 3 * 9, 32 * 32),  // stem
        LayerShape::conv(16, 16 * 9, 32 * 32), // stage 1 block
        LayerShape::conv(16, 16 * 9, 32 * 32),
        LayerShape::conv(32, 16 * 9, 16 * 16), // stage 2 down
        LayerShape::conv(32, 32 * 9, 16 * 16),
        LayerShape::conv(32, 16, 16 * 16), // 1x1 shortcut
        LayerShape::conv(32, 32 * 9, 16 * 16),
        LayerShape::conv(32, 32 * 9, 16 * 16),
        LayerShape::conv(64, 32 * 9, 8 * 8), // stage 3 down
        LayerShape::conv(64, 64 * 9, 8 * 8),
        LayerShape::conv(64, 32, 8 * 8), // 1x1 shortcut
        LayerShape::conv(64, 64 * 9, 8 * 8),
        LayerShape::conv(64, 64 * 9, 8 * 8),
        LayerShape::fc(10, 64),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use tr_core::TrConfig;

    #[test]
    fn layer_shapes_macs() {
        assert_eq!(LayerShape::fc(10, 64).macs(), 640);
        assert_eq!(LayerShape::conv(16, 27, 1024).macs(), 16 * 27 * 1024);
    }

    #[test]
    fn tr_network_beats_qt_on_latency_and_energy() {
        let sys = TrSystem::default();
        let shapes = resnet_shapes();
        let qt = ControlRegisters::for_qt(8);
        let tr = ControlRegisters::for_tr(&TrConfig::new(8, 12).with_data_terms(3));
        let r_qt = sys.simulate_network(&shapes, &qt, None);
        let r_tr = sys.simulate_network(&shapes, &tr, None);
        let latency_gain = r_qt.latency_ms / r_tr.latency_ms;
        let energy_gain = r_qt.energy_fa / r_tr.energy_fa;
        // Fig. 19 reports 7.8x / 4.3x average; the model should land in
        // that neighbourhood for a mid-range budget.
        assert!(latency_gain > 4.0 && latency_gain < 20.0, "latency gain {latency_gain}");
        assert!(energy_gain > 2.0, "energy gain {energy_gain}");
    }

    #[test]
    fn latency_is_milliseconds_scale() {
        // Sanity: the ResNet-style network at 170 MHz lands in the
        // milliseconds regime, like the paper's 7.21 ms ResNet-18 (theirs
        // is a much bigger network on much bigger inputs; ours is smaller,
        // so faster).
        let sys = TrSystem::default();
        let tr = ControlRegisters::for_tr(&TrConfig::new(8, 16).with_data_terms(3));
        let r = sys.simulate_network(&resnet_shapes(), &tr, None);
        assert!(r.latency_ms > 0.05 && r.latency_ms < 100.0, "{} ms", r.latency_ms);
        assert!(r.throughput() > 0.0);
    }

    #[test]
    fn measured_pairs_lower_energy_not_latency() {
        let sys = TrSystem::default();
        let tr = ControlRegisters::for_tr(&TrConfig::new(8, 16).with_data_terms(3));
        let shape = LayerShape::conv(64, 576, 64);
        let full = sys.simulate_layer(shape, &tr, None);
        let sparse = sys.simulate_layer(shape, &tr, Some(1000));
        assert_eq!(full.cycles, sparse.cycles); // synchronized schedule
        assert!(sparse.work.compute_fa < full.work.compute_fa);
    }

    #[test]
    fn resources_within_device() {
        let sys = TrSystem::default();
        let used = sys.resource_usage(8, 606);
        let (lut, ff, _, _) = used.utilization(&crate::resources::VC707);
        assert!(lut < 1.0 && ff < 1.0);
    }
}
