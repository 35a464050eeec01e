//! Sealed soundness certificates and the table tr-serve enforces.
//!
//! A [`ProofCertificate`] is the durable artifact of one
//! [`analyze_model`] run: for a (model
//! fingerprint, rung) pair it records every layer's proved accumulator
//! interval and minimal sound width, and is sealed with the same
//! word-wise FNV-1a construction ([`tr_core::seal`]) that seals packed
//! term planes and rung-cache entries. Issuing requires the proof to
//! *hold* — [`ProofCertificate::issue`] refuses a rung whose envelope
//! does not fit the kernel accumulator, so possession of a valid
//! certificate is evidence of soundness, not just of having run the
//! analyzer.
//!
//! Threat model: certificates cross a trust boundary (built offline,
//! loaded by a serving process), so the table treats a failed seal check
//! exactly like a missing entry — [`TrError::Uncertified`] — rather than
//! trusting any field of a tampered record. The deterministic
//! [`ProofCertificate::tamper`] hook exists so chaos campaigns and tests
//! can exercise that path bit-reproducibly.

use crate::model::{analyze_model, LayerProof, ModelSpec};
use std::collections::HashMap;
use tr_core::seal::{fnv1a_bytes, fnv1a_word, mix, FNV_OFFSET};
use tr_core::TrError;
use tr_nn::Precision;

/// An `i64` reinterpreted as a hash word (lossless, sign-preserving).
fn word_of(v: i64) -> u64 {
    u64::from_le_bytes(v.to_le_bytes())
}

/// One layer's proved bound, as persisted in a certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerCert {
    /// Site name.
    pub name: String,
    /// Dot-product length the bound quantifies over.
    pub reduction: u64,
    /// Proved accumulator interval (lower end).
    pub acc_lo: i64,
    /// Proved accumulator interval (upper end).
    pub acc_hi: i64,
    /// Minimal sound signed accumulator width.
    pub required_bits: u32,
}

/// A sealed whole-model soundness certificate for one (model, rung).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProofCertificate {
    /// Model name (display only; the fingerprint is the identity).
    pub model: String,
    /// [`ModelSpec::fingerprint`] the proof is about.
    pub fingerprint: u64,
    /// Rung label ([`Precision::label`]).
    pub rung: String,
    /// The accumulator width the rung was proved against.
    pub accumulator_bits: u32,
    /// Per-layer bounds in visit order.
    pub layers: Vec<LayerCert>,
    /// FNV-1a seal over every field above.
    pub seal: u64,
}

impl ProofCertificate {
    /// Run the prover and, if the rung is sound at the shipping kernel
    /// width, issue a sealed certificate.
    ///
    /// # Errors
    /// Any [`analyze_model`] error, or [`TrError::OutOfRange`] when the
    /// rung is not provably sound (no certificate exists for it).
    pub fn issue(spec: &ModelSpec, precision: &Precision) -> Result<ProofCertificate, TrError> {
        let proof = analyze_model(spec, precision)?;
        proof.verify()?;
        let layers = proof
            .layers
            .iter()
            .map(|l: &LayerProof| LayerCert {
                name: l.name.clone(),
                reduction: l.reduction,
                acc_lo: l.acc_range.lo(),
                acc_hi: l.acc_range.hi(),
                required_bits: l.required_bits,
            })
            .collect();
        Ok(ProofCertificate {
            model: proof.model,
            fingerprint: proof.fingerprint,
            rung: proof.rung,
            accumulator_bits: proof.accumulator_bits,
            layers,
            seal: 0,
        }
        .sealed())
    }

    /// The seal recomputed over current content — a pure function of the
    /// fields, same construction as the packed-plane seals.
    #[must_use]
    pub fn content_checksum(&self) -> u64 {
        let mut h = fnv1a_bytes(FNV_OFFSET, self.model.as_bytes());
        h = fnv1a_word(h, self.fingerprint);
        h = fnv1a_bytes(h, self.rung.as_bytes());
        h = fnv1a_word(h, u64::from(self.accumulator_bits));
        h = fnv1a_word(h, self.layers.len() as u64);
        for l in &self.layers {
            h = fnv1a_bytes(h, l.name.as_bytes());
            h = fnv1a_word(h, l.reduction);
            h = fnv1a_word(h, word_of(l.acc_lo));
            h = fnv1a_word(h, word_of(l.acc_hi));
            h = fnv1a_word(h, u64::from(l.required_bits));
        }
        h
    }

    fn sealed(mut self) -> ProofCertificate {
        self.seal = self.content_checksum();
        self
    }

    /// Largest per-layer requirement recorded in the certificate.
    #[must_use]
    pub fn required_bits(&self) -> u32 {
        self.layers.iter().map(|l| l.required_bits).max().unwrap_or(1)
    }

    /// Verify the certificate against its seal.
    ///
    /// # Errors
    /// [`TrError::Integrity`] when any field changed after sealing.
    pub fn verify_integrity(&self) -> Result<(), TrError> {
        let actual = self.content_checksum();
        if actual == self.seal {
            Ok(())
        } else {
            Err(TrError::Integrity(format!(
                "certificate ({}, {}) checksum {actual:#018x} != seal {:#018x}",
                self.model, self.rung, self.seal
            )))
        }
    }

    /// Deterministic corruption hook: widen one layer's recorded bound
    /// (the forgery an attacker would want — making an unsound rung look
    /// certified) without updating the seal. Returns `false` when the
    /// certificate has no layers to corrupt.
    pub fn tamper(&mut self, salt: u64) -> bool {
        if self.layers.is_empty() {
            return false;
        }
        let h = mix(salt ^ self.seal);
        let i = usize::try_from(h % self.layers.len() as u64).unwrap_or(0);
        if h & 1 == 0 {
            self.layers[i].required_bits ^= 1;
        } else {
            self.layers[i].acc_hi ^= 1 << (mix(h ^ 3) % 8);
        }
        true
    }
}

/// The certificate store a serving process loads at start-up, keyed by
/// (model fingerprint, rung label).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CertificateTable {
    entries: HashMap<(u64, String), ProofCertificate>,
}

impl CertificateTable {
    /// An empty table (everything is uncertified).
    #[must_use]
    pub fn new() -> CertificateTable {
        CertificateTable::default()
    }

    /// Issue a certificate for every precision and collect them. Fails
    /// on the first rung that cannot be certified — a ladder with any
    /// unsound rung must not come up at all.
    ///
    /// # Errors
    /// As [`ProofCertificate::issue`].
    pub fn certify(
        spec: &ModelSpec,
        precisions: &[Precision],
    ) -> Result<CertificateTable, TrError> {
        let mut table = CertificateTable::new();
        for p in precisions {
            table.insert(ProofCertificate::issue(spec, p)?);
        }
        Ok(table)
    }

    /// Add (or replace) one certificate.
    pub fn insert(&mut self, cert: ProofCertificate) {
        self.entries.insert((cert.fingerprint, cert.rung.clone()), cert);
    }

    /// Remove the entry for a (fingerprint, rung), returning it.
    pub fn remove(&mut self, fingerprint: u64, rung: &str) -> Option<ProofCertificate> {
        self.entries.remove(&(fingerprint, rung.to_string()))
    }

    /// Look up without verifying (tests, display).
    #[must_use]
    pub fn get(&self, fingerprint: u64, rung: &str) -> Option<&ProofCertificate> {
        self.entries.get(&(fingerprint, rung.to_string()))
    }

    /// Mutable lookup — the tamper hook for fault campaigns.
    pub fn get_mut(&mut self, fingerprint: u64, rung: &str) -> Option<&mut ProofCertificate> {
        self.entries.get_mut(&(fingerprint, rung.to_string()))
    }

    /// The enforcement check: the rung may serve this model only if a
    /// certificate exists *and* its seal verifies.
    ///
    /// # Errors
    /// [`TrError::Uncertified`] on a missing entry, and on a tampered
    /// one (wrapping the integrity detail) — a forged certificate earns
    /// no more trust than none.
    pub fn check(&self, fingerprint: u64, rung: &str) -> Result<&ProofCertificate, TrError> {
        let Some(cert) = self.get(fingerprint, rung) else {
            return Err(TrError::Uncertified(format!(
                "no certificate for model {fingerprint:#018x} rung {rung}"
            )));
        };
        cert.verify_integrity().map_err(|e| {
            TrError::Uncertified(format!("certificate for rung {rung} failed its seal check: {e}"))
        })?;
        Ok(cert)
    }

    /// Number of certificates held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no certificates are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All certificates, sorted by (fingerprint, rung) for deterministic
    /// iteration (reports, artifacts).
    #[must_use]
    pub fn sorted(&self) -> Vec<&ProofCertificate> {
        let mut v: Vec<&ProofCertificate> = self.entries.values().collect();
        v.sort_by(|a, b| (a.fingerprint, &a.rung).cmp(&(b.fingerprint, &b.rung)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tr_core::TrConfig;
    use tr_tensor::Rng;

    fn spec() -> ModelSpec {
        let mut rng = Rng::seed_from_u64(3);
        let mut m = tr_nn::models::mlp::build_mlp(10, &mut rng);
        ModelSpec::from_sites("mlp", &mut m).unwrap()
    }

    fn tr(g: usize, k: usize, s: usize) -> Precision {
        Precision::Tr(TrConfig::new(g, k).with_data_terms(s))
    }

    #[test]
    fn issue_seals_and_roundtrips() {
        let s = spec();
        let cert = ProofCertificate::issue(&s, &tr(8, 16, 3)).unwrap();
        cert.verify_integrity().unwrap();
        assert_eq!(cert.fingerprint, s.fingerprint());
        assert_eq!(cert.rung, "tr-g8k16s3");
        assert_eq!(cert.layers.len(), s.layers.len());
        assert!(cert.required_bits() <= cert.accumulator_bits);
        // Issuing is deterministic: same spec, same rung, same seal.
        assert_eq!(cert, ProofCertificate::issue(&s, &tr(8, 16, 3)).unwrap());
    }

    #[test]
    fn table_check_accepts_valid_and_rejects_missing() {
        let s = spec();
        let table = CertificateTable::certify(&s, &[tr(8, 16, 3), tr(8, 8, 2)]).unwrap();
        assert_eq!(table.len(), 2);
        table.check(s.fingerprint(), "tr-g8k16s3").unwrap();
        let err = table.check(s.fingerprint(), "tr-g8k24s3").unwrap_err();
        assert!(matches!(&err, TrError::Uncertified(m) if m.contains("tr-g8k24s3")), "{err}");
        // Wrong model fingerprint: also uncertified.
        assert!(table.check(s.fingerprint() ^ 1, "tr-g8k16s3").is_err());
    }

    #[test]
    fn tampered_certificates_are_uncertified_not_trusted() {
        let s = spec();
        let table = CertificateTable::certify(&s, &[tr(8, 16, 3)]).unwrap();
        for salt in 0..16u64 {
            let mut t = table.clone();
            let cert = t.get_mut(s.fingerprint(), "tr-g8k16s3").unwrap();
            assert!(cert.tamper(salt));
            let err = t.check(s.fingerprint(), "tr-g8k16s3").unwrap_err();
            assert!(matches!(err, TrError::Uncertified(_)), "salt {salt}: {err}");
        }
        // Tampering is deterministic (campaign replay).
        let mut a = table.get(s.fingerprint(), "tr-g8k16s3").unwrap().clone();
        let mut b = a.clone();
        a.tamper(9);
        b.tamper(9);
        assert_eq!(a, b);
        // The pristine table still verifies.
        table.check(s.fingerprint(), "tr-g8k16s3").unwrap();
    }

    #[test]
    fn certify_refuses_unsound_rungs_outright() {
        // A model whose accumulator cannot fit 64 bits necessarily blows
        // the i64 analysis domain first, so `issue` reports it as
        // OutOfRange either way — the point is that no certificate comes
        // back for it.
        let giant = ModelSpec::new(
            "giant",
            vec![crate::model::LayerSpec {
                name: "wide".into(),
                rows: 1,
                reduction: 1 << 50,
            }],
        )
        .unwrap();
        let err = ProofCertificate::issue(&giant, &tr(8, 24, 3)).unwrap_err();
        assert!(matches!(err, TrError::OutOfRange(_)), "{err}");
    }

    #[test]
    fn sorted_iteration_is_deterministic() {
        let s = spec();
        let table = CertificateTable::certify(&s, &[tr(8, 24, 3), tr(8, 8, 2), tr(8, 12, 3)]).unwrap();
        let rungs: Vec<&str> = table.sorted().iter().map(|c| c.rung.as_str()).collect();
        let mut expect = rungs.clone();
        expect.sort_unstable();
        assert_eq!(rungs, expect);
    }
}
