//! Memory subsystem (§V-F): weight/data buffers and double-buffered DRAM
//! prefetch.
//!
//! Weights are stored as term exponents and signs per group; the weight
//! buffer is double-buffered so the next tile's DRAM transfer overlaps
//! the current tile's compute. TR does not reduce *storage* (weights stay
//! 8-bit in DRAM, §V-F); it reduces on-chip term traffic.

/// Memory subsystem parameters and traffic accounting.
#[derive(Debug, Clone, Copy)]
pub struct MemorySubsystem {
    /// DRAM bandwidth in bytes per cycle (VC707 DDR3 at the paper's
    /// 170 MHz core clock: ~12.8 GB/s ≈ 75 B/cycle; we use a conservative
    /// 64).
    pub dram_bytes_per_cycle: u64,
    /// Weight buffer capacity in bytes (one of the two double buffers).
    pub weight_buffer_bytes: u64,
    /// Data buffer capacity in bytes.
    pub data_buffer_bytes: u64,
}

impl Default for MemorySubsystem {
    fn default() -> Self {
        MemorySubsystem {
            dram_bytes_per_cycle: 64,
            // 128 x 64 cells x 8 values x 1 byte = 64 KiB per tile buffer.
            weight_buffer_bytes: 64 * 1024,
            data_buffer_bytes: 256 * 1024,
        }
    }
}

/// Traffic and stall outcome for one weight tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileTraffic {
    /// Bytes fetched from DRAM for the tile.
    pub dram_bytes: u64,
    /// Cycles the DRAM transfer needs.
    pub load_cycles: u64,
    /// Extra stall cycles exposed after overlapping with `compute_cycles`
    /// (zero when double buffering fully hides the transfer).
    pub stall_cycles: u64,
}

impl MemorySubsystem {
    /// Model the double-buffered fetch of a weight tile of `tile_bytes`
    /// that overlaps `compute_cycles` of array work.
    pub fn tile_fetch(&self, tile_bytes: u64, compute_cycles: u64) -> TileTraffic {
        let load_cycles = tile_bytes.div_ceil(self.dram_bytes_per_cycle.max(1));
        let stall_cycles = load_cycles.saturating_sub(compute_cycles);
        TileTraffic { dram_bytes: tile_bytes, load_cycles, stall_cycles }
    }

    /// Whether a tile fits one weight buffer.
    pub fn tile_fits(&self, tile_bytes: u64) -> bool {
        tile_bytes <= self.weight_buffer_bytes
    }

    /// Bytes of one weight tile: `rows × cols × g` 8-bit weights (DRAM
    /// stores the fixed-point codes; term expansion happens on chip).
    pub fn weight_tile_bytes(rows: u64, cols: u64, g: u64) -> u64 {
        rows * cols * g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn double_buffering_hides_fast_loads() {
        let m = MemorySubsystem::default();
        let t = m.tile_fetch(64 * 1024, 10_000);
        assert_eq!(t.dram_bytes, 65_536);
        assert_eq!(t.load_cycles, 1024);
        assert_eq!(t.stall_cycles, 0);
    }

    #[test]
    fn slow_loads_expose_stalls() {
        let m = MemorySubsystem::default();
        let t = m.tile_fetch(64 * 1024, 100);
        assert_eq!(t.stall_cycles, 1024 - 100);
    }

    #[test]
    fn standard_tile_fits_buffer() {
        let m = MemorySubsystem::default();
        let bytes = MemorySubsystem::weight_tile_bytes(128, 64, 8);
        assert_eq!(bytes, 64 * 1024);
        assert!(m.tile_fits(bytes));
        assert!(!m.tile_fits(bytes * 2));
    }
}
