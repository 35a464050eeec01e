//! One module per table/figure of the paper's evaluation.

pub mod ablation;
pub mod bench;
pub mod bounds;
pub mod chaos;
pub mod common;
pub mod extensions;
pub mod faults;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod fig3;
pub mod fig5;
pub mod fig7;
pub mod fig8;
pub mod prove;
pub mod serve;
pub mod soak;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod widths;

use crate::report::Table;
use crate::zoo::Zoo;

/// Every experiment id in paper order.
pub const ALL: [&str; 23] = [
    "fig3", "fig5", "fig7", "fig8", "fig15", "fig16", "fig17", "fig18", "fig19", "table1",
    "table2", "table3", "table4", "ablation", "bounds", "extensions", "faults", "serve",
    "chaos", "soak", "verify-widths", "prove", "bench",
];

/// Run one experiment by id.
///
/// # Panics
/// If the id is unknown.
pub fn run(id: &str, zoo: &Zoo) -> Vec<Table> {
    match id {
        "fig3" => fig3::run(zoo),
        "fig5" => fig5::run(zoo),
        "fig7" => fig7::run(),
        "fig8" => fig8::run(zoo),
        "fig15" => fig15::run(zoo),
        "fig16" => fig16::run(zoo),
        "fig17" => fig17::run(zoo),
        "fig18" => fig18::run(zoo),
        "fig19" => fig19::run(zoo),
        "table1" => table1::run(),
        "table2" => table2::run(),
        "table3" => table3::run(zoo),
        "table4" => table4::run(zoo),
        "ablation" => ablation::run(zoo),
        "bounds" => bounds::run(zoo),
        "extensions" => extensions::run(zoo),
        "faults" => faults::run(zoo),
        "serve" => serve::run(zoo),
        "chaos" => chaos::run(zoo),
        "soak" => soak::run(zoo),
        "verify-widths" => widths::run(),
        "prove" => prove::run(zoo),
        "bench" => bench::run(zoo),
        other => panic!("unknown experiment id: {other} (known: {ALL:?})"),
    }
}
