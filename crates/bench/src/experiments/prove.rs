//! `prove` — the whole-model soundness certification gate.
//!
//! Lifts the per-stage width proof of `verify-widths` to entire models:
//! for the MLP, the depthwise CNN, and the LSTM LM, the `tr-analysis`
//! abstract interpreter certifies every rung of the default serve
//! ladder, proving the `i64` kernel accumulators overflow-free and
//! deriving each layer's minimal sound width. The sealed certificates —
//! the exact artifact `tr-serve` demands at ladder construction — go to
//! `CERTS_PR7.json` (override with `TR_CERTS_OUT`). Panics if any
//! default rung cannot be certified or if certification is not
//! bit-reproducible, so `scripts/check.sh` fails the gate.
//!
//! Shapes, not weights, drive the proof: the models are built untrained
//! from a fixed seed, because a model's fingerprint and its ranges
//! depend only on its architecture and the rung's TR config.

use crate::report::Table;
use crate::zoo::Zoo;
use tr_analysis::{analyze_model, prune_unsound, CertificateTable, ModelSpec, SweepPoint};
use tr_nn::lstm::LstmLm;
use tr_nn::models::{mlp::build_mlp, mobilenet::build_mobilenet};
use tr_nn::Precision;
use tr_obs::JsonValue;
use tr_serve::LadderConfig;
use tr_tensor::Rng;

/// The three proved architectures, spec'd from fresh fixed-seed builds.
///
/// # Panics
/// If a model exposes no quantization sites (a build regression).
fn specs() -> Vec<ModelSpec> {
    let mut rng = Rng::seed_from_u64(7);
    let mut mlp = build_mlp(10, &mut rng);
    let mut cnn = build_mobilenet(10, &mut rng);
    let mut lstm = LstmLm::new(40, 64, 0.0, &mut rng);
    vec![
        ModelSpec::from_sites("mlp", &mut mlp).expect("mlp spec"),
        ModelSpec::from_sites("mobilenet-v2", &mut cnn).expect("cnn spec"),
        ModelSpec::from_sites("lstm-lm", &mut lstm).expect("lstm spec"),
    ]
}

/// Certify every ladder rung for every model, or panic naming the first
/// rung the prover cannot certify — the gate must fail loudly.
fn certify_all(specs: &[ModelSpec], rungs: &[Precision]) -> Vec<CertificateTable> {
    specs
        .iter()
        .map(|spec| match CertificateTable::certify(spec, rungs) {
            Ok(t) => t,
            Err(e) => panic!("UNPROVEN: model {} has an uncertifiable default rung: {e}", spec.name),
        })
        .collect()
}

/// The per-layer minimal-width table: one row per (model, layer), one
/// width column per ladder rung.
fn layer_width_table(specs: &[ModelSpec], rungs: &[Precision]) -> Table {
    let mut headers: Vec<String> = vec!["model".into(), "layer".into(), "rows".into(), "red".into()];
    headers.extend(rungs.iter().map(Precision::label));
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "prove-widths",
        "Minimal sound accumulator width per layer (bits), per default ladder rung",
        &headers_ref,
    );
    for spec in specs {
        let proofs: Vec<_> = rungs
            .iter()
            .map(|p| analyze_model(spec, p).expect("certified rung must re-analyze"))
            .collect();
        for (i, l) in spec.layers.iter().enumerate() {
            let mut row = vec![
                spec.name.clone(),
                l.name.clone(),
                l.rows.to_string(),
                l.reduction.to_string(),
            ];
            row.extend(proofs.iter().map(|pf| pf.layers[i].required_bits.to_string()));
            t.row(row);
        }
    }
    t
}

/// The model × rung certification matrix.
fn matrix_table(specs: &[ModelSpec], tables: &[CertificateTable], rungs: &[Precision]) -> Table {
    let mut headers: Vec<String> = vec!["model".into(), "fingerprint".into()];
    headers.extend(rungs.iter().map(Precision::label));
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "prove-matrix",
        "Rung certification matrix: sealed proof per (model, rung)",
        &headers_ref,
    );
    for (spec, table) in specs.iter().zip(tables) {
        let fp = spec.fingerprint();
        let mut row = vec![spec.name.clone(), format!("{fp:#018x}")];
        for p in rungs {
            let cert = table.check(fp, &p.label()).expect("certified rung must check");
            row.push(format!("ok w{}", cert.required_bits()));
        }
        t.row(row);
    }
    t
}

/// The static DSE pre-filter demo: adjudicate a handful of (α, k, s,
/// width) points on the largest model without touching the simulator.
/// Includes a deliberately unsound width-16 point that must be rejected
/// and, when the witness/envelope brackets split, an undecided point.
fn prune_table(spec: &ModelSpec) -> (Table, JsonValue) {
    let mut points = vec![
        SweepPoint { group_size: 8, group_budget: 16, data_terms: 3, accumulator_bits: 64 },
        SweepPoint { group_size: 8, group_budget: 8, data_terms: 2, accumulator_bits: 32 },
        SweepPoint { group_size: 8, group_budget: 16, data_terms: 3, accumulator_bits: 16 },
    ];
    // A width between the reachable witness and the sound envelope (when
    // the group budget makes them split) demonstrates the third verdict.
    let probe = prune_unsound(
        spec,
        &[SweepPoint { group_size: 8, group_budget: 2, data_terms: 2, accumulator_bits: 64 }],
    )
    .expect("probe point analyzes");
    if probe[0].witness_bits < probe[0].required_bits {
        points.push(SweepPoint {
            group_size: 8,
            group_budget: 2,
            data_terms: 2,
            accumulator_bits: probe[0].witness_bits,
        });
    }
    let pruned = prune_unsound(spec, &points).expect("sweep points analyze");
    let mut t = Table::new(
        "prove-prune",
        &format!("prune_unsound over (g, k, s, width) points on {}", spec.name),
        &["point", "verdict", "required bits", "witness bits"],
    );
    let mut rows = Vec::new();
    for p in &pruned {
        t.row(vec![
            p.point.label(),
            p.verdict.name().into(),
            p.required_bits.to_string(),
            p.witness_bits.to_string(),
        ]);
        rows.push(JsonValue::object(vec![
            ("point".into(), JsonValue::str(&p.point.label())),
            ("verdict".into(), JsonValue::str(p.verdict.name())),
            ("required_bits".into(), JsonValue::UInt(u64::from(p.required_bits))),
            ("witness_bits".into(), JsonValue::UInt(u64::from(p.witness_bits))),
        ]));
    }
    assert!(
        pruned.iter().any(|p| p.verdict == tr_analysis::Soundness::ProvenUnsound),
        "the width-16 point must be statically rejected"
    );
    t.note("the unsound point was rejected from the witness alone — no simulation ran");
    (t, JsonValue::Array(rows))
}

/// Serialize one certificate table into deterministic JSON.
fn table_json(table: &CertificateTable) -> JsonValue {
    let certs = table
        .sorted()
        .into_iter()
        .map(|c| {
            let layers = c
                .layers
                .iter()
                .map(|l| {
                    JsonValue::object(vec![
                        ("name".into(), JsonValue::str(&l.name)),
                        ("reduction".into(), JsonValue::UInt(l.reduction)),
                        ("acc_lo".into(), JsonValue::Int(l.acc_lo)),
                        ("acc_hi".into(), JsonValue::Int(l.acc_hi)),
                        ("required_bits".into(), JsonValue::UInt(u64::from(l.required_bits))),
                    ])
                })
                .collect();
            JsonValue::object(vec![
                ("model".into(), JsonValue::str(&c.model)),
                ("fingerprint".into(), JsonValue::str(&format!("{:#018x}", c.fingerprint))),
                ("rung".into(), JsonValue::str(&c.rung)),
                ("accumulator_bits".into(), JsonValue::UInt(u64::from(c.accumulator_bits))),
                ("required_bits".into(), JsonValue::UInt(u64::from(c.required_bits()))),
                ("seal".into(), JsonValue::str(&format!("{:#018x}", c.seal))),
                ("layers".into(), JsonValue::Array(layers)),
            ])
        })
        .collect();
    JsonValue::Array(certs)
}

/// Run the proof gate and write the certificate artifact.
///
/// # Panics
/// If any default ladder rung is unprovable for any model, or if two
/// certification passes disagree bit-for-bit.
pub fn run(zoo: &Zoo) -> Vec<Table> {
    let cfg = LadderConfig::default_tr_ladder();
    let rungs: Vec<Precision> = cfg.rungs.iter().map(|r| r.precision).collect();
    let specs = specs();

    let tables = certify_all(&specs, &rungs);
    // Determinism is part of the contract: a certificate that cannot be
    // reproduced cannot be audited. Re-prove everything and compare seals.
    let replay = certify_all(&specs, &rungs);
    for ((spec, a), b) in specs.iter().zip(&tables).zip(&replay) {
        for (ca, cb) in a.sorted().into_iter().zip(b.sorted()) {
            assert_eq!(ca, cb, "NONDETERMINISTIC: {} rung {} re-proved differently", spec.name, ca.rung);
        }
    }

    let widths = layer_width_table(&specs, &rungs);
    let mut matrix = matrix_table(&specs, &tables, &rungs);
    let largest = specs
        .iter()
        .max_by_key(|s| s.max_reduction())
        .expect("at least one model");
    let (prune, prune_json) = prune_table(largest);

    let models = specs
        .iter()
        .zip(&tables)
        .map(|(spec, table)| {
            JsonValue::object(vec![
                ("name".into(), JsonValue::str(&spec.name)),
                ("fingerprint".into(), JsonValue::str(&format!("{:#018x}", spec.fingerprint()))),
                ("layers".into(), JsonValue::UInt(spec.layers.len() as u64)),
                ("certificates".into(), table_json(table)),
            ])
        })
        .collect();
    let json = JsonValue::object(vec![
        ("schema".into(), JsonValue::str("tr-certs/v1")),
        ("pr".into(), JsonValue::UInt(7)),
        ("quick".into(), JsonValue::Bool(zoo.quick)),
        ("rungs".into(), JsonValue::Array(rungs.iter().map(|p| JsonValue::Str(p.label())).collect())),
        ("models".into(), JsonValue::Array(models)),
        ("prune".into(), prune_json),
    ]);
    let path = std::env::var("TR_CERTS_OUT").unwrap_or_else(|_| "CERTS_PR7.json".to_string());
    match std::fs::write(&path, json.to_pretty_string()) {
        Ok(()) => matrix.note(format!("certificate artifact written to {path}")),
        Err(e) => matrix.note(format!("could not write {path}: {e}")),
    }
    matrix.note(format!(
        "PROOF OK: {} (model, rung) certificates issued deterministically",
        tables.iter().map(CertificateTable::len).sum::<usize>()
    ));
    vec![widths, matrix, prune]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::test_zoo;

    #[test]
    fn prove_gate_certifies_every_default_rung() {
        let zoo = test_zoo();
        let dir = zoo.dir().join("prove-out");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("CERTS_TEST.json");
        std::env::set_var("TR_CERTS_OUT", &path);
        let tables = run(&zoo);
        std::env::remove_var("TR_CERTS_OUT");
        assert_eq!(tables.len(), 3);
        let matrix = &tables[1];
        assert_eq!(matrix.rows.len(), 3, "mlp + cnn + lstm");
        assert!(matrix.notes.iter().any(|n| n.contains("PROOF OK")));
        assert!(matrix.rows.iter().all(|r| r[2..].iter().all(|c| c.starts_with("ok "))));
        let text = std::fs::read_to_string(&path).expect("artifact written");
        for key in ["\"schema\": \"tr-certs/v1\"", "\"seal\"", "\"verdict\": \"unsound\""] {
            assert!(text.contains(key), "artifact must contain {key}");
        }
        // Two full runs produce byte-identical artifacts.
        std::env::set_var("TR_CERTS_OUT", &path);
        let _ = run(&zoo);
        std::env::remove_var("TR_CERTS_OUT");
        assert_eq!(text, std::fs::read_to_string(&path).unwrap(), "artifact must be reproducible");
    }
}
