//! Published FPGA accelerator baselines (Table IV).
//!
//! The paper compares its VC707 build against four published CNN
//! accelerators; those rows are quoted numbers, not re-implementations,
//! so we carry them as data. Our own row is produced by the simulator
//! (latency, resources) and the `tr-nn` evaluation (accuracy); energy
//! efficiency is reported relative to the paper's published 25.22
//! frames/J operating point (see EXPERIMENTS.md for the calibration note).

use crate::resources::Resources;

/// One row of Table IV.
#[derive(Debug, Clone, PartialEq)]
pub struct AcceleratorRow {
    /// Citation tag.
    pub name: &'static str,
    /// FPGA device.
    pub chip: &'static str,
    /// ImageNet-class top-1 accuracy (%); `None` where unreported.
    pub accuracy_pct: Option<f64>,
    /// Clock frequency (MHz).
    pub frequency_mhz: f64,
    /// Resource consumption.
    pub resources: Resources,
    /// Per-sample latency (ms).
    pub latency_ms: f64,
    /// Energy efficiency (frames/J).
    pub frames_per_joule: f64,
}

/// The published comparison rows (\[45\]–\[48\] in the paper).
pub fn published_baselines() -> Vec<AcceleratorRow> {
    vec![
        AcceleratorRow {
            name: "DNNBuilder [45]",
            chip: "VC706",
            accuracy_pct: Some(53.30),
            frequency_mhz: 200.0,
            resources: Resources { lut: 86_000, ff: 51_000, dsp: 808, bram: 303 },
            latency_ms: 5.88,
            frames_per_joule: 23.6,
        },
        AcceleratorRow {
            name: "Shen et al. [46]",
            chip: "Virtex-7",
            accuracy_pct: Some(55.70),
            frequency_mhz: 100.0,
            resources: Resources { lut: 236_000, ff: 348_000, dsp: 3_177, bram: 1_436 },
            latency_ms: 11.7,
            frames_per_joule: 8.39,
        },
        AcceleratorRow {
            name: "Qiu et al. [47]",
            chip: "ZC706",
            accuracy_pct: Some(64.64),
            frequency_mhz: 150.0,
            resources: Resources { lut: 182_000, ff: 127_000, dsp: 780, bram: 486 },
            latency_ms: 224.0,
            frames_per_joule: 0.46,
        },
        AcceleratorRow {
            name: "Xiao et al. [48]",
            chip: "ZC706",
            accuracy_pct: None,
            frequency_mhz: 100.0,
            resources: Resources { lut: 148_000, ff: 96_000, dsp: 725, bram: 901 },
            latency_ms: 17.3,
            frames_per_joule: 6.13,
        },
    ]
}

/// The paper's own published row ("Ours"), used to calibrate the
/// simulator's abstract energy units to frames/J.
pub fn paper_own_row() -> AcceleratorRow {
    AcceleratorRow {
        name: "TR system (paper)",
        chip: "VC707",
        accuracy_pct: Some(69.48),
        frequency_mhz: 170.0,
        resources: Resources { lut: 201_000, ff: 316_000, dsp: 756, bram: 606 },
        latency_ms: 7.21,
        frames_per_joule: 25.22,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_claims_hold_over_baselines() {
        // Table IV's headline: highest accuracy and energy efficiency,
        // second-lowest latency.
        let ours = paper_own_row();
        let baselines = published_baselines();
        for b in &baselines {
            if let Some(acc) = b.accuracy_pct {
                assert!(ours.accuracy_pct.unwrap() > acc, "{} accuracy", b.name);
            }
            assert!(ours.frames_per_joule > b.frames_per_joule, "{} frames/J", b.name);
        }
        let faster = baselines.iter().filter(|b| b.latency_ms < ours.latency_ms).count();
        assert_eq!(faster, 1, "ours should be second-lowest latency");
    }

    #[test]
    fn four_baselines() {
        assert_eq!(published_baselines().len(), 4);
    }
}
