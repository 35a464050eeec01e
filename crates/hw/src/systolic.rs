//! The systolic array and its tiled schedule (§II-C, §V).
//!
//! The array is a grid of `rows × cols` term MACs: rows map to output
//! neurons (weight-matrix rows), columns to consecutive reduction-dim
//! groups, so one array pass covers a `(rows, cols × g)` weight tile.
//! Data vectors enter skewed from below; partial coefficient vectors flow
//! horizontally. Because TR bounds every group to `k` weight terms and
//! every data value to `s` terms, all cells finish a group within
//! `k × s` cycles — the *beat* — and the whole array advances in
//! lockstep, which is the paper's central hardware argument (§II-B).
//!
//! Two faces: [`SystolicArray::execute`] runs the functional model (real
//! tMACs, exact results) for verification; [`SystolicArray::schedule`]
//! produces the cycle/energy accounting for full-size layers.

use crate::energy::{EnergyModel, WorkReport};
use crate::fault::{FaultInjector, Operand};
use crate::memory::MemorySubsystem;
use crate::registers::{ControlRegisters, HwMode};
use crate::tmac::Tmac;
use tr_core::{PackedTermMatrix, TrError};
use tr_encoding::TermExpr;
use tr_obs::{Counter, Histogram};

/// Layer schedules produced (accounting passes, not functional runs).
static SCHED_CALLS: Counter = Counter::new("hw.schedule.calls");
/// DRAM stall cycles accumulated across schedules.
static SCHED_STALLS: Counter = Counter::new("hw.schedule.stall_cycles");
/// DRAM bytes accumulated across schedules.
static SCHED_DRAM: Counter = Counter::new("hw.schedule.dram_bytes");
/// Synchronized cycles per output tile of the functional model.
static TILE_CYCLES: Histogram = Histogram::new("hw.systolic.tile_cycles");
/// Beats processed by the functional model.
static EXEC_BEATS: Counter = Counter::new("hw.systolic.beats");

/// Array geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystolicArray {
    /// Cell rows (output neurons per tile). The paper's build: 128.
    pub rows: usize,
    /// Cell columns (reduction groups per tile). The paper's build: 64.
    pub cols: usize,
}

/// The cycle accounting of one layer under a register configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TileSchedule {
    /// Weight tiles along the output dimension.
    pub m_tiles: u64,
    /// Weight tiles along the reduction dimension.
    pub k_tiles: u64,
    /// Synchronized cycles per beat (per-group processing bound).
    pub beat_cycles: u64,
    /// Beats per tile pass (data columns + pipeline skew).
    pub beats_per_tile: u64,
    /// Total compute cycles.
    pub compute_cycles: u64,
    /// DRAM stall cycles exposed beyond double buffering.
    pub stall_cycles: u64,
    /// Total DRAM traffic in bytes.
    pub dram_bytes: u64,
}

impl TileSchedule {
    /// Total cycles including stalls.
    pub fn total_cycles(&self) -> u64 {
        self.compute_cycles + self.stall_cycles
    }
}

impl SystolicArray {
    /// The paper's 128×64 build.
    pub fn paper_build() -> SystolicArray {
        SystolicArray { rows: 128, cols: 64 }
    }

    /// Reject degenerate geometry (a zero-dimension array has no cells).
    pub fn try_validate(&self) -> Result<(), TrError> {
        if self.rows == 0 || self.cols == 0 {
            return Err(TrError::InvalidGeometry(format!(
                "systolic array needs positive dims (got {}x{})",
                self.rows, self.cols
            )));
        }
        Ok(())
    }

    /// Synchronized cycles per beat for a register configuration: the
    /// per-group term-pair bound.
    ///
    /// * TR: `k × s` (§V-B);
    /// * QT on the same term hardware: every value contributes up to
    ///   `(bw−1)²` pairs, so a group of `g = 1` values takes `(bw−1)²`.
    pub fn beat_cycles(regs: &ControlRegisters) -> u64 {
        match regs.mode() {
            HwMode::Tr => regs.group_budget as u64 * regs.data_terms as u64,
            HwMode::Qt => {
                let t = (regs.quant_bitwidth - 1) as u64;
                regs.group_size as u64 * t * t
            }
        }
    }

    /// Values of the reduction dimension covered by one tile pass.
    pub fn k_per_tile(&self, g: usize) -> usize {
        self.cols * g
    }

    /// Cycle/traffic schedule for a `(m, k, n)` matmul (dot products of
    /// length `k`, `m` outputs, `n` input vectors).
    pub fn schedule(
        &self,
        m: usize,
        k: usize,
        n: usize,
        regs: &ControlRegisters,
        mem: &MemorySubsystem,
    ) -> TileSchedule {
        match self.try_schedule(m, k, n, regs, mem) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible [`SystolicArray::schedule`]: rejects invalid registers,
    /// degenerate array geometry, and zero layer dimensions.
    pub fn try_schedule(
        &self,
        m: usize,
        k: usize,
        n: usize,
        regs: &ControlRegisters,
        mem: &MemorySubsystem,
    ) -> Result<TileSchedule, TrError> {
        regs.try_validate()?;
        self.try_validate()?;
        if m == 0 || k == 0 || n == 0 {
            return Err(TrError::InvalidGeometry(format!(
                "layer dims must be positive (got m={m}, k={k}, n={n})"
            )));
        }
        let g = regs.group_size.max(1) as usize;
        Ok(self.schedule_custom(m, k, n, g, Self::beat_cycles(regs), mem))
    }

    /// Schedule with an explicit grouping and beat length — used for
    /// non-register-driven designs like the Table III pMAC array, whose
    /// cells process a group of `g` values in `g` single-MAC cycles.
    pub fn schedule_custom(
        &self,
        m: usize,
        k: usize,
        n: usize,
        g: usize,
        beat_cycles: u64,
        mem: &MemorySubsystem,
    ) -> TileSchedule {
        assert!(g > 0 && beat_cycles > 0, "degenerate schedule");
        let m_tiles = m.div_ceil(self.rows) as u64;
        let k_tiles = k.div_ceil(self.k_per_tile(g)) as u64;
        // Pipeline skew: a data vector traverses `cols` cells and results
        // drain over `rows`.
        let beats_per_tile = (n + self.rows + self.cols) as u64;
        let compute_per_tile = beats_per_tile * beat_cycles;
        let tiles = m_tiles * k_tiles;
        // Each weight byte is fetched exactly once (ragged tiles fetch
        // only their valid region), so per-layer traffic is m × k bytes
        // regardless of the tiling.
        let total_bytes = (m * k) as u64;
        let traffic = mem.tile_fetch(total_bytes.div_ceil(tiles.max(1)), compute_per_tile);
        let sched = TileSchedule {
            m_tiles,
            k_tiles,
            beat_cycles,
            beats_per_tile,
            compute_cycles: tiles * compute_per_tile,
            stall_cycles: tiles * traffic.stall_cycles,
            dram_bytes: total_bytes,
        };
        SCHED_CALLS.inc();
        SCHED_STALLS.add(sched.stall_cycles);
        SCHED_DRAM.add(sched.dram_bytes);
        sched
    }

    /// Work accounting for a schedule, given the layer's measured
    /// term-pair statistics. `actual_pairs` is the total pairs a software
    /// count (e.g. `tr-nn`'s pair counting) attributes to this matmul;
    /// cells idle for the remainder of each beat and are charged static
    /// work only.
    pub fn work(
        &self,
        sched: &TileSchedule,
        actual_pairs: u64,
        regs: &ControlRegisters,
        model: &EnergyModel,
    ) -> WorkReport {
        let cells = (self.rows * self.cols) as f64;
        let compute_fa = actual_pairs as f64 * model.tmac_pair_fa;
        let static_fa = cells * sched.total_cycles() as f64 * model.cell_static_fa;
        // HESE + comparator run per output lane when TR is on: one stream
        // bit per cycle per column.
        let overhead_fa = if regs.hese_encoder_on {
            let lane_bits = (self.cols as u64 * sched.total_cycles()) as f64;
            lane_bits * (model.hese_bit_fa + model.comparator_bit_fa)
        } else {
            0.0
        };
        WorkReport {
            cycles: sched.total_cycles(),
            compute_fa,
            static_fa,
            overhead_fa,
            sram_bytes: sched.dram_bytes, // every DRAM byte is also buffered
            dram_bytes: sched.dram_bytes,
        }
    }

    /// Cycle schedule for a *straggler-synchronized* term-serial design
    /// (the Bit-Pragmatic / Bit-Tactical model of §II-B): no TR bound, so
    /// every beat costs the worst group's term pairs. `straggler_pairs`
    /// is the observed per-group maximum (e.g. from
    /// `tr_core::group_pair_histogram`); the paper reports it runs 2–3×
    /// over the average.
    pub fn schedule_straggler(
        &self,
        m: usize,
        k: usize,
        n: usize,
        g: usize,
        straggler_pairs: u64,
        mem: &MemorySubsystem,
    ) -> TileSchedule {
        self.schedule_custom(m, k, n, g, straggler_pairs.max(1), mem)
    }

    /// Check a functional run's inputs: positive array geometry and group
    /// size, non-empty operands, and agreeing reduction lengths. Returns
    /// `(M, N, K)`.
    fn check_operands(
        &self,
        weights: &PackedTermMatrix,
        data: &PackedTermMatrix,
        g: usize,
    ) -> Result<(usize, usize, usize), TrError> {
        self.try_validate()?;
        let (m, n, k) = (weights.rows(), data.rows(), weights.len());
        if m == 0 || n == 0 {
            return Err(TrError::ShapeMismatch("empty operands".into()));
        }
        if g == 0 {
            return Err(TrError::InvalidConfig("group size must be positive".into()));
        }
        if data.len() != k {
            return Err(TrError::ShapeMismatch(format!(
                "reduction dims differ: {k} vs {}",
                data.len()
            )));
        }
        Ok((m, n, k))
    }

    /// Functional execution on a small array: compute `W (M,K) @ X (K,N)`
    /// exactly with real tMACs, where `weights` holds the weight rows and
    /// `data` the transposed data columns. Cells stream the packed
    /// exponent/sign planes. Returns row-major `(M, N)` accumulators and
    /// the straggler-free cycle count (max cell cycles per beat, summed).
    ///
    /// # Errors
    /// [`TrError::InvalidGeometry`] for a zero-dimension array,
    /// [`TrError::InvalidConfig`] for `g == 0`, and
    /// [`TrError::ShapeMismatch`] for empty operands or disagreeing
    /// reduction lengths.
    pub fn execute(
        &self,
        weights: &PackedTermMatrix,
        data: &PackedTermMatrix,
        g: usize,
    ) -> Result<(Vec<i64>, u64), TrError> {
        let (m, n, k) = self.check_operands(weights, data, g)?;
        let _span = tr_obs::span("hw.systolic.execute");
        let mut out = vec![0i64; m * n];
        let mut synchronized_cycles = 0u64;
        // Process output tiles the way the schedule walks them; cells
        // within a beat advance together, so the beat costs the max cell
        // cycles (the straggler) — with TR applied upstream this max is
        // bounded by k×s.
        for col_block in (0..n).step_by(self.cols) {
            let col_end = (col_block + self.cols).min(n);
            for row_block in (0..m).step_by(self.rows) {
                let row_end = (row_block + self.rows).min(m);
                let mut tile_cycles = 0u64;
                let mut tile_beats = 0u64;
                // One beat per (group, data column) wavefront.
                for group_start in (0..k).step_by(g) {
                    let group_end = (group_start + g).min(k);
                    let mut beat_max = 0u64;
                    for i in row_block..row_end {
                        for j in col_block..col_end {
                            let mut cell = Tmac::new();
                            let report = cell
                                .process_group_packed(weights, i, data, j, group_start, group_end);
                            out[i * n + j] += cell.value();
                            beat_max = beat_max.max(report.cycles);
                        }
                    }
                    tile_cycles += beat_max;
                    tile_beats += 1;
                }
                synchronized_cycles += tile_cycles;
                TILE_CYCLES.record(tile_cycles);
                EXEC_BEATS.add(tile_beats);
            }
        }
        Ok((out, synchronized_cycles))
    }

    /// Functional execution under a fault campaign: like
    /// [`SystolicArray::execute`], but operand terms are corrupted by the
    /// injector's deterministic fault streams (each stored element is read
    /// out of the packed planes as a `TermExpr` and passed through
    /// [`FaultInjector::corrupt_expr`]), tMAC cells may be stuck at
    /// zero/one, coefficient accumulation routes through the mitigated
    /// datapath, group partial sums pass the range guard, and (when
    /// configured) redundant replicas vote on each group value.
    ///
    /// At `rate == 0` the outputs and cycle count are bit-identical to
    /// the fault-free [`SystolicArray::execute`]. Injection depends only
    /// on `(seed, rate, coordinates)` — never on traversal order — so a
    /// campaign is exactly reproducible.
    ///
    /// # Errors
    /// The input errors of [`SystolicArray::execute`].
    pub fn execute_with_faults(
        &self,
        weights: &PackedTermMatrix,
        data: &PackedTermMatrix,
        g: usize,
        inj: &mut FaultInjector,
    ) -> Result<(Vec<i64>, u64), TrError> {
        let (m, n, k) = self.check_operands(weights, data, g)?;

        // Buffer-level corruption: one deterministic decision per stored
        // operand element, shared by every cell that reads it.
        let corrupt_matrix = |mat: &PackedTermMatrix, op: Operand, inj: &mut FaultInjector| {
            (0..mat.rows())
                .map(|r| {
                    (0..mat.len())
                        .map(|e| {
                            let expr = TermExpr::from_terms(mat.element_terms(r, e).collect());
                            inj.corrupt_expr(&expr, op, r as u64, e as u64)
                        })
                        .collect::<Vec<TermExpr>>()
                })
                .collect::<Vec<Vec<TermExpr>>>()
        };
        let wf = corrupt_matrix(weights, Operand::Weight, inj);
        let xf = corrupt_matrix(data, Operand::Data, inj);

        // Stuck-cell map over the physical grid × voting replicas,
        // tallied once per stuck slot.
        let replicas = inj.config().mitigation.voting_replicas;
        let mut stuck = vec![None; self.rows * self.cols * replicas];
        for r in 0..self.rows {
            for c in 0..self.cols {
                for rep in 0..replicas {
                    let s = inj.stuck_cell(r as u64, c as u64, rep as u64);
                    if s.is_some() {
                        inj.note_stuck_cell();
                    }
                    stuck[(r * self.cols + c) * replicas + rep] = s;
                }
            }
        }

        let mut out = vec![0i64; m * n];
        let mut synchronized_cycles = 0u64;
        for col_block in (0..n).step_by(self.cols) {
            let col_end = (col_block + self.cols).min(n);
            for row_block in (0..m).step_by(self.rows) {
                let row_end = (row_block + self.rows).min(m);
                for group_start in (0..k).step_by(g) {
                    let group_end = (group_start + g).min(k);
                    let g_eff = group_end - group_start;
                    let mut beat_max = 0u64;
                    for i in row_block..row_end {
                        for j in col_block..col_end {
                            // Physical cell this logical (i, j) lands on.
                            let (pr, pc) = (i - row_block, j - col_block);
                            let mut cell = Tmac::new();
                            let report = cell.process_group_mitigated(
                                &wf[i][group_start..group_end],
                                &xf[j][group_start..group_end],
                                inj,
                            );
                            let clean = cell.value();
                            // Redundant replicas share the operand stream;
                            // only their stuck-at state differs.
                            let mut votes: Vec<i64> = (0..replicas)
                                .map(|rep| {
                                    match stuck[(pr * self.cols + pc) * replicas + rep] {
                                        Some(s) => s.value(),
                                        None => clean,
                                    }
                                })
                                .collect();
                            let voted = inj.vote(&mut votes);
                            out[i * n + j] += inj.guard_group_value(voted, g_eff);
                            beat_max = beat_max.max(report.cycles);
                        }
                    }
                    synchronized_cycles += beat_max;
                }
            }
        }
        Ok((out, synchronized_cycles))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tr_core::{try_packed_term_matmul_i64, TrConfig};
    use tr_encoding::Encoding;
    use tr_quant::{calibrate_max_abs, quantize, QTensor};
    use tr_tensor::{Rng, Shape, Tensor};

    /// A quantized `(M, K)` weight matrix and `(K, N)` data matrix drawn
    /// from one seeded stream.
    fn operands(m: usize, k: usize, n: usize, seed: u64) -> (QTensor, QTensor) {
        let mut rng = Rng::seed_from_u64(seed);
        let w = Tensor::randn(Shape::d2(m, k), 0.3, &mut rng);
        let x = Tensor::randn(Shape::d2(k, n), 0.3, &mut rng);
        (quantize(&w, calibrate_max_abs(&w, 8)), quantize(&x, calibrate_max_abs(&x, 8)))
    }

    /// HESE term planes of both operands: raw, or with TR on the weights
    /// (g = 8, k = 12) and the data capped at 3 terms.
    fn planes(qw: &QTensor, qx: &QTensor, tr: bool) -> (PackedTermMatrix, PackedTermMatrix) {
        let w = PackedTermMatrix::from_weights(qw, Encoding::Hese);
        let x = PackedTermMatrix::from_data_transposed(qx, Encoding::Hese);
        if tr {
            (w.reveal(&TrConfig::new(8, 12)), x.cap_terms(3))
        } else {
            (w, x)
        }
    }

    #[test]
    fn functional_execution_matches_term_matmul() {
        let (qw, qx) = operands(6, 32, 5, 1);
        let (wm, xm) = planes(&qw, &qx, false);
        let array = SystolicArray { rows: 4, cols: 4 };
        let (got, cycles) = array.execute(&wm, &xm, 8).unwrap();
        assert_eq!(got, try_packed_term_matmul_i64(&wm, &xm).unwrap());
        assert!(cycles > 0);
    }

    #[test]
    fn packed_execution_is_bit_identical_to_legacy() {
        // The plane-streaming array against the cell-level reference: a
        // fresh `Tmac::process_group` over each group's `TermExpr`s, the
        // beat charged its slowest cell.
        let (qw, qx) = operands(7, 40, 5, 8);
        let (wm, xm) = planes(&qw, &qx, true);
        let expr_rows = |p: &PackedTermMatrix| -> Vec<Vec<TermExpr>> {
            let element = |r, c| TermExpr::from_terms(p.element_terms(r, c).collect());
            (0..p.rows()).map(|r| (0..p.len()).map(|c| element(r, c)).collect()).collect()
        };
        let (we, xe) = (expr_rows(&wm), expr_rows(&xm));
        let array = SystolicArray { rows: 4, cols: 4 };
        let (m, n, g) = (7, 5, 8);
        let mut want = vec![0i64; m * n];
        let mut want_cycles = 0u64;
        for col_block in (0..n).step_by(array.cols) {
            for row_block in (0..m).step_by(array.rows) {
                for c0 in (0..40).step_by(g) {
                    let c1 = (c0 + g).min(40);
                    let mut beat_max = 0u64;
                    for i in row_block..(row_block + array.rows).min(m) {
                        for j in col_block..(col_block + array.cols).min(n) {
                            let mut cell = Tmac::new();
                            let report = cell.process_group(&we[i][c0..c1], &xe[j][c0..c1]);
                            want[i * n + j] += cell.value();
                            beat_max = beat_max.max(report.cycles);
                        }
                    }
                    want_cycles += beat_max;
                }
            }
        }
        let (got, cycles) = array.execute(&wm, &xm, g).unwrap();
        assert_eq!(got, want);
        assert_eq!(cycles, want_cycles);
    }

    #[test]
    fn execute_rejects_a_zero_group_size() {
        let (qw, qx) = operands(2, 8, 2, 10);
        let (wm, xm) = planes(&qw, &qx, false);
        let err = SystolicArray { rows: 2, cols: 2 }.execute(&wm, &xm, 0).unwrap_err();
        assert!(matches!(err, TrError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn execute_rejects_a_zero_dimension_array() {
        let (qw, qx) = operands(2, 8, 2, 11);
        let (wm, xm) = planes(&qw, &qx, false);
        let err = SystolicArray { rows: 0, cols: 2 }.execute(&wm, &xm, 4).unwrap_err();
        assert!(matches!(err, TrError::InvalidGeometry(_)), "{err}");
    }

    #[test]
    fn execute_rejects_empty_operands() {
        let empty = PackedTermMatrix::from_codes(&[], 0, 8, Encoding::Hese);
        let one = PackedTermMatrix::from_codes(&[1; 8], 1, 8, Encoding::Hese);
        let array = SystolicArray { rows: 2, cols: 2 };
        for (w, x) in [(&empty, &one), (&one, &empty)] {
            let err = array.execute(w, x, 4).unwrap_err();
            assert!(matches!(err, TrError::ShapeMismatch(_)), "{err}");
        }
    }

    #[test]
    fn execute_rejects_mismatched_reduction_dims() {
        let w = PackedTermMatrix::from_codes(&[1; 8], 1, 8, Encoding::Hese);
        let x = PackedTermMatrix::from_codes(&[1; 6], 1, 6, Encoding::Hese);
        let err = SystolicArray { rows: 2, cols: 2 }.execute(&w, &x, 4).unwrap_err();
        assert!(matches!(err, TrError::ShapeMismatch(_)), "{err}");
        assert!(err.to_string().contains("8 vs 6"), "{err}");
    }

    #[test]
    fn tr_bounds_the_synchronized_beat() {
        let (qw, qx) = operands(8, 64, 4, 2);
        let (wm, xm) = planes(&qw, &qx, true);
        let array = SystolicArray { rows: 4, cols: 4 };
        let (_, tr_cycles) = array.execute(&wm, &xm, 8).unwrap();
        // Without TR the straggler beats are longer.
        let (wm_raw, xm_raw) = planes(&qw, &qx, false);
        let (_, raw_cycles) = array.execute(&wm_raw, &xm_raw, 8).unwrap();
        assert!(tr_cycles < raw_cycles, "{tr_cycles} vs {raw_cycles}");
        // Beat bound: groups per dot x beats... every beat <= k*s.
        let beats = (64usize / 8) as u64 * 2 /* row blocks */;
        assert!(tr_cycles <= beats * (12 * 3) as u64);
    }

    #[test]
    fn faulty_execution_at_rate_zero_is_bit_identical() {
        use crate::fault::{FaultConfig, FaultInjector};
        let (qw, qx) = operands(6, 32, 5, 3);
        let (wm, xm) = planes(&qw, &qx, false);
        let array = SystolicArray { rows: 4, cols: 4 };
        let (clean, clean_cycles) = array.execute(&wm, &xm, 8).unwrap();
        let mut inj = FaultInjector::new(FaultConfig::none(99)).unwrap();
        let (faulty, faulty_cycles) = array.execute_with_faults(&wm, &xm, 8, &mut inj).unwrap();
        assert_eq!(clean, faulty);
        assert_eq!(clean_cycles, faulty_cycles);
        assert_eq!(inj.report(), crate::fault::FaultReport::default());
    }

    #[test]
    fn faulty_execution_is_deterministic_per_seed() {
        use crate::fault::{FaultConfig, FaultInjector};
        let (qw, qx) = operands(5, 24, 4, 4);
        let (wm, xm) = planes(&qw, &qx, false);
        let array = SystolicArray { rows: 4, cols: 4 };
        let cfg = FaultConfig::new(1234, 0.05).unwrap();
        let mut a = FaultInjector::new(cfg).unwrap();
        let mut b = FaultInjector::new(cfg).unwrap();
        let (out_a, cyc_a) = array.execute_with_faults(&wm, &xm, 8, &mut a).unwrap();
        let (out_b, cyc_b) = array.execute_with_faults(&wm, &xm, 8, &mut b).unwrap();
        assert_eq!(out_a, out_b);
        assert_eq!(cyc_a, cyc_b);
        assert_eq!(a.report(), b.report());
        assert!(a.report().injected.total() > 0, "5% over ~250 sites should strike");
        // A different seed yields a different campaign.
        let mut c = FaultInjector::new(FaultConfig::new(5678, 0.05).unwrap()).unwrap();
        let (out_c, _) = array.execute_with_faults(&wm, &xm, 8, &mut c).unwrap();
        assert_ne!(out_a, out_c);
    }

    #[test]
    fn voting_outvotes_stuck_cells() {
        use crate::fault::{FaultConfig, FaultInjector, Mitigation};
        let (qw, qx) = operands(6, 16, 6, 5);
        let (wm, xm) = planes(&qw, &qx, false);
        let array = SystolicArray { rows: 3, cols: 3 };
        let (clean, _) = array.execute(&wm, &xm, 8).unwrap();
        // Stuck cells only, aggressive rate; single cells corrupt outputs.
        let mut solo_cfg = FaultConfig::new(7, 0.4).unwrap();
        solo_cfg.term_faults = false;
        solo_cfg.dram_faults = false;
        let mut solo = FaultInjector::new(solo_cfg).unwrap();
        let (out_solo, _) = array.execute_with_faults(&wm, &xm, 8, &mut solo).unwrap();
        assert_ne!(out_solo, clean, "stuck cells at 40% must corrupt something");
        // Triple redundancy: a stuck replica loses the vote almost always
        // (two replicas stuck the same way at the same cell is rare).
        let vote_cfg = solo_cfg.with_mitigation(Mitigation::with_voting(3));
        let mut voted = FaultInjector::new(vote_cfg).unwrap();
        let (out_vote, _) = array.execute_with_faults(&wm, &xm, 8, &mut voted).unwrap();
        let errs = |out: &[i64]| out.iter().zip(&clean).filter(|(a, b)| a != b).count();
        assert!(
            errs(&out_vote) < errs(&out_solo),
            "voting should repair outputs: {} vs {}",
            errs(&out_vote),
            errs(&out_solo)
        );
        assert!(voted.report().corrected > 0);
    }

    #[test]
    fn try_schedule_rejects_degenerate_geometry() {
        let array = SystolicArray::paper_build();
        let mem = MemorySubsystem::default();
        let regs = ControlRegisters::for_qt(8);
        assert!(array.try_schedule(0, 64, 4, &regs, &mem).is_err());
        assert!(array.try_schedule(64, 0, 4, &regs, &mem).is_err());
        let broken = SystolicArray { rows: 0, cols: 64 };
        let err = broken.try_schedule(64, 64, 4, &regs, &mem).unwrap_err();
        assert!(err.to_string().contains("positive dims"), "{err}");
    }

    #[test]
    fn schedule_counts_tiles() {
        let array = SystolicArray::paper_build();
        let mem = MemorySubsystem::default();
        let regs = ControlRegisters::for_tr(&TrConfig::new(8, 16).with_data_terms(3));
        // ResNet-style layer: M = 256, K = 1152, N = 196.
        let s = array.schedule(256, 1152, 196, &regs, &mem);
        assert_eq!(s.m_tiles, 2);
        assert_eq!(s.k_tiles, 1152usize.div_ceil(64 * 8) as u64);
        assert_eq!(s.beat_cycles, 48);
        assert_eq!(s.beats_per_tile, (196 + 128 + 64) as u64);
        assert_eq!(s.compute_cycles, s.m_tiles * s.k_tiles * s.beats_per_tile * 48);
    }

    #[test]
    fn tr_beats_qt_on_latency() {
        let array = SystolicArray::paper_build();
        let mem = MemorySubsystem::default();
        let qt = ControlRegisters::for_qt(8);
        let tr = ControlRegisters::for_tr(&TrConfig::new(8, 12).with_data_terms(3));
        let s_qt = array.schedule(512, 4096, 196, &qt, &mem);
        let s_tr = array.schedule(512, 4096, 196, &tr, &mem);
        let speedup = s_qt.total_cycles() as f64 / s_tr.total_cycles() as f64;
        // QT beat = 1 x 7 x 7 = 49 with k-coverage of 64 values/tile;
        // TR beat = 36 with 512 values/tile: both effects compound.
        assert!(speedup > 5.0, "speedup {speedup}");
    }

    #[test]
    fn work_charges_idle_and_overhead() {
        let array = SystolicArray::paper_build();
        let mem = MemorySubsystem::default();
        let model = EnergyModel::default();
        let tr = ControlRegisters::for_tr(&TrConfig::new(8, 12).with_data_terms(3));
        let sched = array.schedule(128, 512, 64, &tr, &mem);
        let w = array.work(&sched, 1_000_000, &tr, &model);
        assert!(w.compute_fa > 0.0 && w.static_fa > 0.0 && w.overhead_fa > 0.0);
        let qt = ControlRegisters::for_qt(8);
        let sched_qt = array.schedule(128, 512, 64, &qt, &mem);
        let w_qt = array.work(&sched_qt, 10_000_000, &qt, &model);
        assert_eq!(w_qt.overhead_fa, 0.0); // encoder/comparator gated off
    }
}
