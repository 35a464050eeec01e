//! The bench experiment's JSON artifact: schema-stable keys and live
//! reveal counters.
//!
//! The counter assertions read the process-global tr-obs recorder, so
//! this test has its own binary: other tests revealing on the same
//! recorder while its counter window is open would leak into the QT
//! row.

use tr_bench::experiments::bench::run;
use tr_bench::zoo::test_zoo;
use tr_obs::JsonValue;

#[test]
fn bench_emits_schema_stable_json() {
    let zoo = test_zoo();
    let dir = zoo.dir().join("bench-out");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("BENCH_TEST.json");
    // The env var is process-global; restore it so parallel tests in
    // this binary see a clean environment.
    std::env::set_var("TR_BENCH_OUT", &path);
    let tables = run(&zoo);
    std::env::remove_var("TR_BENCH_OUT");
    assert_eq!(tables.len(), 1);
    let text = std::fs::read_to_string(&path).expect("artifact written");
    for key in [
        "\"schema\": \"tr-bench/v1\"",
        "\"pr\": 10",
        "\"integrity_overhead\"",
        "\"verify_overhead_pct\"",
        "\"verify_wall_ms\"",
        "\"core\"",
        "\"qt8\"",
        "\"tr_g8_k12_s3\"",
        "\"packed_wall_ms\"",
        "\"terms_per_mac\"",
    ] {
        assert!(text.contains(key), "artifact missing {key}:\n{text}");
    }

    // The PR4 artifact reported zeroed reveal counters in the TR row
    // (the recorder was reset after the reveal pass ran); the counter
    // window now covers operand preparation, so the TR row must show
    // the scan and the QT row must legitimately show none.
    let json = JsonValue::parse(&text).expect("artifact parses");
    let reveal = |row: &str, key: &str| {
        json.get("core")
            .and_then(|c| c.get(row))
            .and_then(|r| r.get("counters"))
            .and_then(|c| c.get(key))
            .and_then(JsonValue::as_u64)
            .expect("counter present")
    };
    assert!(reveal("tr_g8_k12_s3", "reveal_groups") > 0, "TR reveal counters are dead");
    assert!(reveal("tr_g8_k12_s3", "reveal_terms_kept") > 0, "TR reveal counters are dead");
    assert_eq!(reveal("qt8", "reveal_groups"), 0, "QT row must not reveal");
}
