//! Exhaustive Table-I sweep: run [`analyze`]
//! over *every* valid register configuration and aggregate the proof.
//!
//! The register file is 18 bits, so the space is tiny (≈45k valid
//! configurations after [`ControlRegisters::try_validate`] filtering) and
//! brute force is exact: the resulting [`ProofReport`] is a proof over
//! the whole configuration space, not a sample.

use crate::datapath::{analyze, DatapathProof, Envelope, ImplementedWidths, Stage, StageBound};
use tr_core::TrError;
use tr_hw::registers::ControlRegisters;

/// Every register configuration accepted by
/// [`ControlRegisters::try_validate`], in a fixed enumeration order.
pub fn enumerate_valid_configs() -> Vec<ControlRegisters> {
    let mut out = Vec::new();
    for hese_encoder_on in [false, true] {
        for comparator_on in [false, true] {
            for quant_bitwidth in 0..=15u8 {
                for data_terms in 0..=15u8 {
                    for group_size in 0..=7u8 {
                        for group_budget in 0..=31u8 {
                            let regs = ControlRegisters {
                                hese_encoder_on,
                                comparator_on,
                                quant_bitwidth,
                                data_terms,
                                group_size: group_size + 1,
                                group_budget,
                            };
                            if regs.try_validate().is_ok() {
                                out.push(regs);
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// Aggregate over one stage across the whole sweep.
#[derive(Debug, Clone)]
pub struct StageSummary {
    /// The stage summarized.
    pub stage: Stage,
    /// The largest width any valid configuration requires.
    pub max_required: u64,
    /// The implemented width (constant across the sweep).
    pub implemented: u64,
    /// A configuration attaining `max_required` and its bound.
    pub worst: StageBound,
    /// The register file of the worst configuration.
    pub worst_regs: ControlRegisters,
}

impl StageSummary {
    /// Whether the implemented width covers the whole sweep.
    pub fn ok(&self) -> bool {
        self.max_required <= self.implemented
    }

    /// Spare headroom (implemented − required), clamped at zero.
    pub fn headroom(&self) -> u64 {
        self.implemented.saturating_sub(self.max_required)
    }
}

/// The aggregated proof over every valid configuration.
#[derive(Debug, Clone)]
pub struct ProofReport {
    /// The envelope the proof quantified over.
    pub envelope: Envelope,
    /// The widths the proof checked against.
    pub widths: ImplementedWidths,
    /// Number of valid configurations analyzed.
    pub configs: usize,
    /// One summary per pipeline stage, dataflow order.
    pub stages: Vec<StageSummary>,
    /// Every `(config, bound)` whose implemented width is insufficient.
    pub violations: Vec<(ControlRegisters, StageBound)>,
}

impl ProofReport {
    /// Whether every stage of every configuration is overflow-free.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Loud failure: `Err` describing the first violations.
    pub fn verify(&self) -> Result<(), TrError> {
        if self.ok() {
            return Ok(());
        }
        let shown: Vec<String> = self
            .violations
            .iter()
            .take(4)
            .map(|(regs, b)| format!("{b} at {regs:?}"))
            .collect();
        Err(TrError::OutOfRange(format!(
            "width proof failed for {} of {} configs: {}{}",
            self.violations.len(),
            self.configs,
            shown.join("; "),
            if self.violations.len() > 4 { "; …" } else { "" }
        )))
    }

    /// The summary of one stage.
    ///
    /// # Panics
    /// Never for stages in [`Stage::ALL`]; [`sweep`] emits all of them.
    pub fn stage(&self, stage: Stage) -> &StageSummary {
        self.stages
            .iter()
            .find(|s| s.stage == stage)
            .expect("sweep emits every Stage::ALL entry")
    }

    /// Human-readable proof report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Static width proof over {} valid Table-I configurations\n\
             (coefficient-vector merge span: {} groups; max dot length: {})\n\n",
            self.configs, self.envelope.merge_groups, self.envelope.max_dot_len
        ));
        out.push_str(&format!(
            "{:<22} {:>9} {:>12} {:>9}  {:>6}  worst-case config\n",
            "stage", "required", "implemented", "headroom", "status"
        ));
        for s in &self.stages {
            let r = &s.worst_regs;
            out.push_str(&format!(
                "{:<22} {:>7} {:<1} {:>10} {:<1} {:>9}  {:>6}  hese={} cmp={} b={} s={} g={} k={} range {}\n",
                s.stage.name(),
                s.max_required,
                match s.stage.unit() {
                    "entries" => "e",
                    _ => "b",
                },
                s.implemented,
                match s.stage.unit() {
                    "entries" => "e",
                    _ => "b",
                },
                s.headroom(),
                if s.ok() { "ok" } else { "FAIL" },
                u8::from(r.hese_encoder_on),
                u8::from(r.comparator_on),
                r.quant_bitwidth,
                r.data_terms,
                r.group_size,
                r.group_budget,
                s.worst.range,
            ));
        }
        if !self.violations.is_empty() {
            out.push_str(&format!("\n{} VIOLATIONS:\n", self.violations.len()));
            for (regs, b) in self.violations.iter().take(16) {
                out.push_str(&format!("  {b} at {regs:?}\n"));
            }
            if self.violations.len() > 16 {
                out.push_str(&format!("  … and {} more\n", self.violations.len() - 16));
            }
        }
        out
    }
}

/// Analyze every valid configuration against `widths` under `env`.
///
/// Only fails on analysis-domain errors (which the `i64` domain never
/// hits for the 18-bit register space); insufficient widths land in
/// [`ProofReport::violations`] so callers can report all of them.
pub fn sweep(env: &Envelope, widths: &ImplementedWidths) -> Result<ProofReport, TrError> {
    let configs = enumerate_valid_configs();
    let mut stages: Vec<Option<StageSummary>> = vec![None; Stage::ALL.len()];
    let mut violations = Vec::new();
    for regs in &configs {
        let proof: DatapathProof = analyze(regs, env, widths)?;
        for (slot, bound) in stages.iter_mut().zip(proof.bounds.iter()) {
            let replace = match slot {
                None => true,
                Some(s) => bound.required > s.max_required,
            };
            if replace {
                *slot = Some(StageSummary {
                    stage: bound.stage,
                    max_required: bound.required,
                    implemented: bound.implemented,
                    worst: bound.clone(),
                    worst_regs: *regs,
                });
            }
            if !bound.ok() {
                violations.push((*regs, bound.clone()));
            }
        }
    }
    Ok(ProofReport {
        envelope: *env,
        widths: *widths,
        configs: configs.len(),
        stages: stages
            .into_iter()
            .map(|s| s.expect("at least one valid config per stage"))
            .collect(),
        violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumeration_matches_the_field_count() {
        let configs = enumerate_valid_configs();
        // comparator on: 2 (hese) × 7 (b) × 15 (s) × 8 (g) × 24 (k);
        // comparator off (QT): group size is pinned to 1.
        assert_eq!(configs.len(), 2 * 7 * 15 * 24 * (8 + 1));
        for regs in &configs {
            assert!(regs.try_validate().is_ok());
        }
    }

    #[test]
    fn full_sweep_proves_the_implemented_widths() {
        let report = sweep(&Envelope::default(), &ImplementedWidths::from_hw()).unwrap();
        assert!(report.ok(), "{}", report.render());
        report.verify().unwrap();
        // §V-B headline numbers: the 15-entry vector and 12-bit
        // coefficient registers are exactly the worst-case requirement.
        assert_eq!(report.stage(Stage::ExponentAdder).max_required, 15);
        assert_eq!(report.stage(Stage::CoefficientCounter).max_required, 12);
        assert_eq!(report.stage(Stage::CoefficientCounter).headroom(), 0);
        // The converter stream fits the 28-bit envelope the hardware
        // asserts on drain.
        assert!(report.stage(Stage::ConverterStream).max_required <= 28);
    }

    #[test]
    fn narrowed_coefficient_width_fails_loudly() {
        let mut narrow = ImplementedWidths::from_hw();
        narrow.coeff_bits = 11;
        let report = sweep(&Envelope::default(), &narrow).unwrap();
        assert!(!report.ok());
        let err = report.verify().unwrap_err();
        assert!(err.to_string().contains("width proof failed"), "{err}");
        assert!(report.render().contains("VIOLATIONS"));
        // Only the coefficient stage fails; the rest still hold.
        assert!(report
            .violations
            .iter()
            .all(|(_, b)| b.stage == Stage::CoefficientCounter));
    }

    #[test]
    fn report_renders_every_stage() {
        let report = sweep(&Envelope::default(), &ImplementedWidths::from_hw()).unwrap();
        let text = report.render();
        for stage in Stage::ALL {
            assert!(text.contains(stage.name()), "missing {} in:\n{text}", stage.name());
        }
    }
}
