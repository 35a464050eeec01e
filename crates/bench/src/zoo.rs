//! The cached model zoo.
//!
//! Every experiment sweeps quantization settings over *pretrained* models
//! (the paper's whole premise is post-training quantization), so each
//! model is trained once per machine and checkpointed under
//! `target/tr-zoo/`. Delete that directory to force retraining. Set
//! `TR_ZOO_QUICK=1` to use reduced training budgets (for smoke tests).

use std::path::{Path, PathBuf};
use std::time::Duration;
use tr_nn::data::{markov_corpus, synth_digits, synth_images, Dataset, MarkovCorpus};
use tr_nn::io::{is_checkpoint_temp, load_lstm, load_model, save_lstm, save_model};

use tr_nn::lstm::LstmLm;
use tr_nn::models::{mlp::build_mlp, CnnKind};
use tr_nn::optim::Sgd;
use tr_nn::train::{eval_lstm_perplexity, train_classifier, train_lstm, TrainConfig};
use tr_nn::Sequential;
use tr_tensor::Rng;

/// Vocabulary size of the zoo corpus.
pub const VOCAB: usize = 40;
/// Hidden width of the zoo LSTM.
pub const LSTM_HIDDEN: usize = 64;

/// Handle to the cached zoo.
pub struct Zoo {
    dir: PathBuf,
    /// Reduced budgets for smoke testing.
    pub quick: bool,
    /// Base seed for data and training.
    pub seed: u64,
}

/// Serializes train-or-load sections so parallel tests sharing one cache
/// directory train each model exactly once.
///
/// Caveat: this is an **in-process** lock. Two separate processes pointed
/// at the same zoo directory may both train the same model concurrently.
/// That wastes compute but is *safe*: `save_tensors` writes via a
/// uniquely-named temp file plus an atomic rename, so the writers never
/// interleave bytes — the last rename wins with a complete checkpoint and
/// readers never observe a partial file.
static TRAIN_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// How old an orphaned checkpoint temp file must be before the sweep
/// deletes it — generous enough that no live writer (training runs take
/// minutes) ever loses its temp file mid-write.
const STALE_TEMP_AGE: Duration = Duration::from_secs(3600);

/// Delete checkpoint temp files older than `older_than` from `dir` —
/// debris from writers that were killed between `create` and `rename`.
/// Returns how many were removed. Missing directory is a no-op.
pub fn sweep_stale_temps(dir: &Path, older_than: Duration) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    let mut removed = 0;
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if !is_checkpoint_temp(&name) {
            continue;
        }
        let stale = entry
            .metadata()
            .and_then(|m| m.modified())
            .ok()
            .and_then(|t| t.elapsed().ok())
            .is_some_and(|age| age >= older_than);
        if stale && std::fs::remove_file(entry.path()).is_ok() {
            eprintln!("[zoo] swept stale checkpoint temp {name}");
            removed += 1;
        }
    }
    removed
}

/// The shared quick-budget zoo used by this workspace's tests: one fixed
/// directory, so the first test to need a model trains it and the rest
/// load the checkpoint.
pub fn test_zoo() -> Zoo {
    let mut zoo = Zoo::at(std::env::temp_dir().join("tr-zoo-shared-test"));
    zoo.quick = true;
    zoo
}

impl Default for Zoo {
    fn default() -> Self {
        Zoo::new()
    }
}

impl Zoo {
    /// Zoo rooted at `target/tr-zoo` (honoring `TR_ZOO_QUICK`).
    pub fn new() -> Zoo {
        let dir = std::env::var("TR_ZOO_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("target/tr-zoo"));
        let quick = std::env::var("TR_ZOO_QUICK").map(|v| v != "0").unwrap_or(false);
        let zoo = Zoo { dir, quick, seed: 0x7E57 };
        sweep_stale_temps(&zoo.dir, STALE_TEMP_AGE);
        zoo
    }

    /// Zoo rooted at an explicit directory.
    pub fn at(dir: impl Into<PathBuf>) -> Zoo {
        let zoo = Zoo { dir: dir.into(), quick: false, seed: 0x7E57 };
        sweep_stale_temps(&zoo.dir, STALE_TEMP_AGE);
        zoo
    }

    /// Treat a failed checkpoint load as a cache miss: a corrupt file
    /// (CRC mismatch, truncation, bad header) is deleted so the caller
    /// retrains and rewrites it, instead of erroring on every run.
    fn invalidate_corrupt(path: &Path, err: &std::io::Error) {
        if path.exists() {
            eprintln!(
                "[zoo] corrupt checkpoint {}: {err}; deleting and retraining",
                path.display()
            );
            std::fs::remove_file(path).ok();
        }
    }

    fn path(&self, name: &str) -> PathBuf {
        let suffix = if self.quick { "-quick" } else { "" };
        self.dir.join(format!("{name}{suffix}.bin"))
    }

    /// Where the named model's checkpoint lives (for callers that reload
    /// weights directly, e.g. serving-engine factories that must rebuild
    /// after a worker restart without regenerating datasets).
    pub fn checkpoint_path(&self, name: &str) -> PathBuf {
        self.path(name)
    }

    /// The digit dataset (MNIST substitute).
    pub fn digits(&self) -> Dataset {
        if self.quick {
            synth_digits(400, 200, self.seed)
        } else {
            synth_digits(2000, 500, self.seed)
        }
    }

    /// The image dataset (ImageNet substitute).
    pub fn images(&self) -> Dataset {
        if self.quick {
            synth_images(300, 150, self.seed + 1)
        } else {
            synth_images(1600, 400, self.seed + 1)
        }
    }

    /// The token corpus (Wikitext-2 substitute).
    pub fn corpus(&self) -> MarkovCorpus {
        if self.quick {
            markov_corpus(VOCAB, 4, 3000, 500, self.seed + 2)
        } else {
            markov_corpus(VOCAB, 4, 12_000, 1500, self.seed + 2)
        }
    }

    /// The trained MLP and its dataset. Trains and caches on first use.
    pub fn mlp(&self) -> (Sequential, Dataset) {
        let ds = self.digits();
        let mut rng = Rng::seed_from_u64(self.seed + 10);
        let mut model = build_mlp(ds.classes, &mut rng);
        let path = self.path("mlp");
        let _guard = TRAIN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let miss = load_model(&path, &mut model).inspect_err(|e| Self::invalidate_corrupt(&path, e));
        if miss.is_err() {
            let mut opt = Sgd::new(0.1, 0.9, 1e-4);
            let epochs = if self.quick { 2 } else { 5 };
            let cfg = TrainConfig { epochs, batch: 32, lr_drop_at: Some(epochs - 1), verbose: false };
            let hist = train_classifier(&mut model, &ds, &mut opt, &cfg, &mut rng);
            eprintln!(
                "[zoo] trained mlp: acc {:.2}%",
                100.0 * hist.last().map(|h| h.test_accuracy).unwrap_or(0.0)
            );
            save_model(&path, &mut model).expect("zoo checkpoint write");
        }
        (model, ds)
    }

    /// A trained CNN of the given kind and its dataset.
    pub fn cnn(&self, kind: CnnKind) -> (Sequential, Dataset) {
        let ds = self.images();
        let mut rng = Rng::seed_from_u64(self.seed + 20 + kind as u64);
        let mut model = kind.build(ds.classes, &mut rng);
        let path = self.path(kind.name());
        let _guard = TRAIN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let miss = load_model(&path, &mut model).inspect_err(|e| Self::invalidate_corrupt(&path, e));
        if miss.is_err() {
            let mut opt = Sgd::new(0.05, 0.9, 5e-4);
            let epochs = if self.quick { 1 } else { 4 };
            let cfg = TrainConfig { epochs, batch: 32, lr_drop_at: Some(epochs.saturating_sub(1)), verbose: false };
            let t0 = std::time::Instant::now();
            let hist = train_classifier(&mut model, &ds, &mut opt, &cfg, &mut rng);
            eprintln!(
                "[zoo] trained {}: acc {:.2}% in {:.0}s",
                kind.name(),
                100.0 * hist.last().map(|h| h.test_accuracy).unwrap_or(0.0),
                t0.elapsed().as_secs_f64()
            );
            save_model(&path, &mut model).expect("zoo checkpoint write");
        }
        (model, ds)
    }

    /// The trained LSTM language model and its corpus.
    pub fn lstm(&self) -> (LstmLm, MarkovCorpus) {
        let corpus = self.corpus();
        let mut rng = Rng::seed_from_u64(self.seed + 30);
        let mut lm = LstmLm::new(corpus.vocab, LSTM_HIDDEN, 0.1, &mut rng);
        let path = self.path("lstm");
        let _guard = TRAIN_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let miss = load_lstm(&path, &mut lm).inspect_err(|e| Self::invalidate_corrupt(&path, e));
        if miss.is_err() {
            let epochs = if self.quick { 2 } else { 4 };
            let ppl =
                train_lstm(&mut lm, &corpus.train, &corpus.valid, epochs, 24, 0.01, &mut rng);
            eprintln!("[zoo] trained lstm: ppl {ppl:.2} (floor {:.2})", corpus.entropy_rate.exp());
            save_lstm(&path, &mut lm).expect("zoo checkpoint write");
        }
        (lm, corpus)
    }

    /// Wipe the cache directory (used by tests that need fresh training).
    pub fn clear(&self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

/// Evaluate the LSTM's float perplexity (convenience used by experiments).
pub fn float_perplexity(lm: &mut LstmLm, corpus: &MarkovCorpus, rng: &mut Rng) -> f64 {
    eval_lstm_perplexity(lm, &corpus.valid, rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every parameter value of a model, as bit patterns.
    fn weight_bits(model: &mut Sequential) -> Vec<u32> {
        use tr_nn::layer::Layer;
        let mut bits = Vec::new();
        model.visit_params(&mut |_, p| bits.extend(p.value.data().iter().map(|v| v.to_bits())));
        bits
    }

    #[test]
    fn quick_zoo_trains_and_caches_mlp() {
        let dir = std::env::temp_dir().join("tr-zoo-test-mlp");
        let _ = std::fs::remove_dir_all(&dir);
        let mut zoo = Zoo::at(&dir);
        zoo.quick = true;
        let (mut m1, ds) = zoo.mlp();
        assert!(!ds.train.is_empty());
        let path = zoo.path("mlp");
        let written = std::fs::metadata(&path).expect("first call writes the checkpoint");
        // A cache hit loads the checkpoint instead of retraining: the file
        // is not rewritten (a write goes through a temp file and a rename,
        // so it would bring a new inode and mtime), and the loaded weights
        // are the trained ones bit for bit.
        let (mut m2, _) = zoo.mlp();
        let reread = std::fs::metadata(&path).expect("checkpoint still there");
        assert_eq!(reread.modified().ok(), written.modified().ok(), "cache hit rewrote the checkpoint");
        #[cfg(unix)]
        {
            use std::os::unix::fs::MetadataExt;
            assert_eq!(reread.ino(), written.ino(), "cache hit replaced the checkpoint");
        }
        assert!(weight_bits(&mut m1) == weight_bits(&mut m2), "cached weights differ from the trained ones");
        zoo.clear();
    }

    #[test]
    fn corrupt_checkpoint_is_a_cache_miss_not_an_error() {
        let dir = std::env::temp_dir().join("tr-zoo-test-corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        let mut zoo = Zoo::at(&dir);
        zoo.quick = true;
        let (_m, _ds) = zoo.mlp();
        let path = zoo.path("mlp");
        // Smash the cached checkpoint: flip bytes in the middle.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        bytes[mid + 1] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        // The zoo must recover by retraining, not panic or error out.
        let (_m2, _ds2) = zoo.mlp();
        // And the rewritten checkpoint must load cleanly again.
        let (_m3, _ds3) = zoo.mlp();
        assert!(path.exists());
        zoo.clear();
    }

    #[test]
    fn stale_temps_are_swept_live_ones_kept() {
        let dir = std::env::temp_dir().join("tr-zoo-test-sweep");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(".mlp.bin.999.0.tmp"), b"debris").unwrap();
        std::fs::write(dir.join("mlp.bin"), b"not a temp").unwrap();
        // Age 0 sweeps everything temp-shaped; the real file stays.
        assert_eq!(sweep_stale_temps(&dir, Duration::ZERO), 1);
        assert!(!dir.join(".mlp.bin.999.0.tmp").exists());
        assert!(dir.join("mlp.bin").exists());
        // A *young* temp (just written) survives the default-age sweep.
        std::fs::write(dir.join(".cnn.bin.999.1.tmp"), b"in flight").unwrap();
        assert_eq!(sweep_stale_temps(&dir, STALE_TEMP_AGE), 0);
        assert!(dir.join(".cnn.bin.999.1.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
