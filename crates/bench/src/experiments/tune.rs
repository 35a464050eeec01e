//! tune — run the seeded kernel micro-autotuner and commit its table
//! (`TUNE_PR10.json`).
//!
//! The autotuner races the real kernels (code-plane vs bit-plane, flat
//! vs panel-blocked, serial vs parallel fan-out) on synthetic operands
//! derived from a fixed seed, and writes the measured crossovers into a
//! sealed [`TuneTable`](tr_core::tune::TuneTable) for the host's detected ISA. The sealed JSON is
//! the committed dispatch policy: `repro bench` (and the serve stack,
//! via `tr_core::tune::install`) replays it deterministically instead
//! of re-measuring, so two runs on the same table produce identical
//! plans and identical kernel digests — `tests/tune_determinism.rs`
//! holds that line.
//!
//! The artifact goes to `TUNE_PR10.json` (override with `TR_TUNE_OUT`).
//! Quick mode shrinks the probe shapes and repetitions; the table
//! format is identical either way.

use crate::report::Table;
use crate::zoo::Zoo;
use tr_core::tune::{self, Isa};

/// Deterministic seed for every autotuner probe; folded into each
/// probe's operand synthesis so the table is a pure function of
/// (seed, host ISA, measured timings).
pub const SEED: u64 = 0x7E57_0010;

/// Run the autotuner and write the sealed table.
pub fn run(zoo: &Zoo) -> Vec<Table> {
    let mut table = Table::new(
        "tune",
        "Kernel autotuner: measured dispatch crossovers sealed into TUNE_PR10.json",
        &["knob", "value", "provenance"],
    );
    let isa = Isa::detect();
    tr_obs::set_enabled(true);
    let tuned = tune::autotune(SEED, zoo.quick);
    tr_obs::set_enabled(false);
    let defaults = tune::TuneTable::default_for(isa);

    let provenance = |measured: u64, default: u64| {
        if measured == default {
            "default (probe agreed)"
        } else {
            "measured"
        }
    };
    table.row(vec!["isa".to_string(), tuned.isa.name().to_string(), "detected".to_string()]);
    let mut row = |knob: &str, value: u64, default: u64| {
        table.row(vec![
            knob.to_string(),
            value.to_string(),
            provenance(value, default).to_string(),
        ]);
    };
    row("bitplane_min_k", tuned.bitplane_min_k, defaults.bitplane_min_k);
    row("bitplane_min_macs", tuned.bitplane_min_macs, defaults.bitplane_min_macs);
    row("bitplane_pair_budget", tuned.bitplane_pair_budget, defaults.bitplane_pair_budget);
    row("blocked_min_words", tuned.blocked_min_words, defaults.blocked_min_words);
    row("block_cols", tuned.block_cols, defaults.block_cols);
    row("block_words", tuned.block_words, defaults.block_words);
    row("par_min_macs", tuned.par_min_macs, defaults.par_min_macs);
    row("par_prep_factor", tuned.par_prep_factor, defaults.par_prep_factor);
    row("par_min_pair_words", tuned.par_min_pair_words, defaults.par_min_pair_words);
    table.note(format!(
        "seed {SEED:#x}, {} probes, checksum {:#018x}",
        if zoo.quick { "quick" } else { "full" },
        tuned.checksum
    ));

    let json = tuned.to_json();
    // Install before writing so a `repro -- tune bench` pipeline benches
    // under the table it just produced.
    match tune::install(tuned) {
        Ok(()) => table.note("table installed as the active dispatch policy"),
        Err(e) => table.note(format!("freshly sealed table failed install: {e}")),
    }
    let path = std::env::var("TR_TUNE_OUT").unwrap_or_else(|_| "TUNE_PR10.json".to_string());
    match std::fs::write(&path, json.to_pretty_string() + "\n") {
        Ok(()) => table.note(format!("artifact written to {path}")),
        Err(e) => table.note(format!("could not write {path}: {e}")),
    }
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::test_zoo;

    #[test]
    fn tune_emits_a_sealed_loadable_table() {
        let zoo = test_zoo();
        let dir = zoo.dir().join("tune-out");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("TUNE_TEST.json");
        std::env::set_var("TR_TUNE_OUT", &path);
        let tables = run(&zoo);
        std::env::remove_var("TR_TUNE_OUT");
        tune::reset();
        assert_eq!(tables.len(), 1);
        let text = std::fs::read_to_string(&path).expect("artifact written");
        let loaded = tune::TuneTable::from_json_str(&text).expect("round-trips");
        loaded.verify_integrity().expect("seal survives the disk trip");
        assert_eq!(loaded.isa, Isa::detect(), "table is tuned for this host");
        assert_eq!(loaded.seed, SEED);
    }
}
