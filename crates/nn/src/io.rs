//! Checkpoint IO.
//!
//! Experiments train each model once and sweep many quantization settings
//! over it, so checkpoints matter. The container is a minimal named-tensor
//! format:
//!
//! `TRCKPT02`: magic, tensor count, then `name / payload byte length /
//! rank / dims / f32 LE data` per entry (the payload length covers rank,
//! dims and data), and a trailing CRC32 over everything before it.
//! Truncation, bit rot, and partial writes all fail loudly at load time
//! instead of materialising as silently-wrong weights. The CRC-less
//! `TRCKPT01` of the first checkpoints is not read: it is refused as a bad
//! magic, and the zoo retrains on a load error.
//!
//! The reader is fully bounds-checked: every length field is validated
//! against the bytes actually present before any allocation, so a corrupt
//! header produces `InvalidData` — never an OOM or a capacity-overflow
//! panic mid-experiment.
//!
//! Writes are atomic per process *and* across processes: each writer
//! streams into its own uniquely-named temp file (pid + sequence number)
//! in the destination directory, then `rename`s it into place. Two
//! concurrent writers therefore never interleave bytes; the last rename
//! wins with a complete checkpoint, and readers never observe a partial
//! file. (In-process writers are additionally serialised by the zoo's
//! `TRAIN_LOCK`; see `tr-bench`.)
//!
//! BN running statistics are stored as pseudo-parameters by the callers
//! that need them.

use crate::layer::Layer;
use crate::lstm::LstmLm;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use tr_tensor::{Shape, Tensor};

const MAGIC_V2: &[u8; 8] = b"TRCKPT02";

/// Sanity bounds a well-formed checkpoint never exceeds; a header field
/// beyond these is corruption, reported before any allocation happens.
const MAX_NAME_LEN: usize = 4096;
const MAX_RANK: usize = 16;
const MAX_TENSORS: usize = 1 << 20;

/// The reflected CRC32 (IEEE 802.3) polynomial.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 tables: `CRC32_TABLES[0][b]` is the CRC of the single byte
/// `b`, and `CRC32_TABLES[j][b]` advances that by `j` zero bytes, so one
/// step folds eight input bytes with eight lookups. Built at compile time.
const CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        // `b < 256`, so the cast is exact.
        #[allow(clippy::cast_possible_truncation)]
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC32_POLY & 0u32.wrapping_sub(crc & 1));
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut j = 1;
    while j < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[j - 1][b];
            t[j][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        j += 1;
    }
    t
}

/// CRC32 (IEEE 802.3, reflected) — the checksum that seals a `TRCKPT02`
/// file, on both save and load. Implemented locally (the build is
/// offline) as slice-by-8: eight table lookups per eight bytes instead of
/// a shift per bit, the same value as the bitwise definition.
fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc: u32 = 0xFFFF_FFFF;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = (crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]])).to_le_bytes();
        crc = t[7][usize::from(lo[0])]
            ^ t[6][usize::from(lo[1])]
            ^ t[5][usize::from(lo[2])]
            ^ t[4][usize::from(lo[3])]
            ^ t[3][usize::from(c[4])]
            ^ t[2][usize::from(c[5])]
            ^ t[1][usize::from(c[6])]
            ^ t[0][usize::from(c[7])];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][usize::from(crc.to_le_bytes()[0] ^ b)];
    }
    !crc
}

/// Distinguishes this writer's temp files from any other process's.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

fn unique_tmp_path(path: &Path) -> PathBuf {
    let file = path
        .file_name()
        .map(|f| f.to_string_lossy().into_owned())
        .unwrap_or_else(|| "checkpoint".to_string());
    let pid = std::process::id();
    let seq = TMP_SEQ.fetch_add(1, Ordering::SeqCst);
    path.with_file_name(format!(".{file}.{pid}.{seq}.tmp"))
}

/// Whether `name` looks like a temp file left behind by an interrupted
/// [`save_tensors`] writer (used by cache sweepers such as the zoo).
#[must_use]
pub fn is_checkpoint_temp(name: &str) -> bool {
    name.starts_with('.') && name.ends_with(".tmp")
}

/// Write a named-tensor map in `TRCKPT02` format (atomically: stream to
/// a uniquely-named temp file, then rename, so concurrent readers never
/// observe a partial checkpoint and concurrent writers never share a
/// temp path).
pub fn save_tensors(path: &Path, tensors: &[(String, Tensor)]) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let tmp = unique_tmp_path(path);
    let result = save_tensors_inner(&tmp, tensors).and_then(|()| std::fs::rename(&tmp, path));
    if result.is_err() {
        // Best effort: do not leave our own debris behind on failure.
        std::fs::remove_file(&tmp).ok();
    }
    result
}

fn save_tensors_inner(path: &Path, tensors: &[(String, Tensor)]) -> io::Result<()> {
    // Serialise the body in memory so the trailing CRC32 can seal it.
    // Checkpoints here are model weights (a few MB at most), so the
    // buffer is cheap relative to training the model it caches.
    let mut body: Vec<u8> = Vec::new();
    body.extend_from_slice(MAGIC_V2);
    body.extend_from_slice(&(tensors.len() as u64).to_le_bytes());
    for (name, t) in tensors {
        let nb = name.as_bytes();
        if nb.len() > MAX_NAME_LEN {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "tensor name too long"));
        }
        // nb.len() <= MAX_NAME_LEN was checked above.
        #[allow(clippy::cast_possible_truncation)]
        body.extend_from_slice(&(nb.len() as u32).to_le_bytes());
        body.extend_from_slice(nb);
        let dims = t.shape().dims();
        // Payload length: rank field + dims + f32 data, in bytes. Lets a
        // reader validate each entry against the bytes actually present.
        let payload = 4u64 + 8 * dims.len() as u64 + 4 * t.data().len() as u64;
        body.extend_from_slice(&payload.to_le_bytes());
        #[allow(clippy::cast_possible_truncation)] // rank is at most 4
        body.extend_from_slice(&(dims.len() as u32).to_le_bytes());
        for &d in dims {
            body.extend_from_slice(&(d as u64).to_le_bytes());
        }
        for &v in t.data() {
            body.extend_from_slice(&v.to_le_bytes());
        }
    }
    let crc = crc32(&body);
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(&body)?;
    w.write_all(&crc.to_le_bytes())?;
    w.flush()
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// A bounds-checked slice cursor: every read is validated against the
/// bytes remaining, so corrupt length fields fail cleanly.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Cur<'a> {
        Cur { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> io::Result<&'a [u8]> {
        if n > self.remaining() {
            return Err(bad(format!(
                "truncated checkpoint: {what} needs {n} bytes, {} left",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self, what: &str) -> io::Result<u32> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> io::Result<u64> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }
}

/// Parse one entry's `rank / dims / data` section. Dim products are overflow-checked and the element count is
/// validated against the bytes present before the data vector is
/// allocated.
fn read_entry_body(cur: &mut Cur<'_>) -> io::Result<Tensor> {
    let rank = usize::try_from(cur.u32("tensor rank")?).map_err(|_| bad("bad rank"))?;
    if rank > MAX_RANK {
        return Err(bad(format!("corrupt checkpoint: rank {rank} exceeds limit {MAX_RANK}")));
    }
    let mut dims = Vec::with_capacity(rank);
    let mut numel: usize = 1;
    for _ in 0..rank {
        let d = usize::try_from(cur.u64("tensor dim")?)
            .map_err(|_| bad("corrupt checkpoint: dimension exceeds usize"))?;
        numel = numel
            .checked_mul(d)
            .ok_or_else(|| bad("corrupt checkpoint: element count overflows"))?;
        dims.push(d);
    }
    let data_bytes = numel
        .checked_mul(4)
        .ok_or_else(|| bad("corrupt checkpoint: data size overflows"))?;
    let raw = cur.take(data_bytes, "tensor data")?;
    let data: Vec<f32> = raw
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    Ok(Tensor::from_vec(data, Shape::new(dims)))
}

fn read_name(cur: &mut Cur<'_>) -> io::Result<String> {
    let name_len =
        usize::try_from(cur.u32("name length")?).map_err(|_| bad("bad name length"))?;
    if name_len > MAX_NAME_LEN {
        return Err(bad(format!(
            "corrupt checkpoint: name length {name_len} exceeds limit {MAX_NAME_LEN}"
        )));
    }
    let nb = cur.take(name_len, "tensor name")?;
    String::from_utf8(nb.to_vec()).map_err(|_| bad("bad tensor name"))
}

/// Read a named-tensor map in `TRCKPT02` format.
///
/// # Errors
/// `InvalidData` on any corruption — wrong magic (`TRCKPT01` included),
/// truncation, CRC mismatch, impossible lengths — and ordinary IO errors
/// otherwise.
/// Never panics on malformed input.
pub fn load_tensors(path: &Path) -> io::Result<Vec<(String, Tensor)>> {
    let bytes = std::fs::read(path)?;
    if bytes.len() < 8 {
        return Err(bad("truncated checkpoint: missing magic"));
    }
    if &bytes[..8] != MAGIC_V2 {
        return Err(bad("bad checkpoint magic"));
    }
    // Split off and verify the CRC seal before trusting any field.
    if bytes.len() < 12 {
        return Err(bad("truncated checkpoint: missing CRC"));
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
    let actual = crc32(body);
    if stored != actual {
        return Err(bad(format!(
            "corrupt checkpoint: CRC32 mismatch (stored {stored:#010x}, computed {actual:#010x})"
        )));
    }
    let mut cur = Cur::new(body);
    cur.take(8, "magic")?;
    load_entries(&mut cur)
}

fn read_count(cur: &mut Cur<'_>) -> io::Result<usize> {
    let count =
        usize::try_from(cur.u64("tensor count")?).map_err(|_| bad("bad tensor count"))?;
    if count > MAX_TENSORS {
        return Err(bad(format!(
            "corrupt checkpoint: tensor count {count} exceeds limit {MAX_TENSORS}"
        )));
    }
    Ok(count)
}

fn load_entries(cur: &mut Cur<'_>) -> io::Result<Vec<(String, Tensor)>> {
    let count = read_count(cur)?;
    let mut out = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let name = read_name(cur)?;
        let payload =
            usize::try_from(cur.u64("payload length")?).map_err(|_| bad("bad payload length"))?;
        if payload > cur.remaining() {
            return Err(bad(format!(
                "truncated checkpoint: entry '{name}' declares {payload} bytes, {} left",
                cur.remaining()
            )));
        }
        let start = cur.pos;
        let tensor = read_entry_body(cur)?;
        if cur.pos - start != payload {
            return Err(bad(format!(
                "corrupt checkpoint: entry '{name}' payload length {} disagrees with contents {}",
                payload,
                cur.pos - start
            )));
        }
        out.push((name, tensor));
    }
    if cur.remaining() != 0 {
        return Err(bad(format!(
            "corrupt checkpoint: {} trailing bytes after last tensor",
            cur.remaining()
        )));
    }
    Ok(out)
}

/// Save every parameter of a layer-tree model, plus non-learnable buffers
/// (batch-norm running statistics) under a `buf:` prefix.
pub fn save_model(path: &Path, model: &mut dyn Layer) -> io::Result<()> {
    let mut tensors = Vec::new();
    model.visit_params(&mut |name, p| tensors.push((name.to_string(), p.value.clone())));
    model.visit_buffers(&mut |name, b| {
        tensors.push((format!("buf:{name}"), Tensor::from_vec(b.clone(), Shape::d1(b.len()))));
    });
    save_tensors(path, &tensors)
}

/// Load parameters into a freshly built model of the same architecture.
///
/// Names must match the checkpoint exactly (they do when the model was
/// built by the same constructor).
pub fn load_model(path: &Path, model: &mut dyn Layer) -> io::Result<()> {
    let tensors = load_tensors(path)?;
    // Each parameter moves its tensor out of the map: no second copy of
    // the weights is made on the way in.
    let mut map: std::collections::HashMap<String, Tensor> = tensors.into_iter().collect();
    let mut missing = Vec::new();
    model.visit_params(&mut |name, p| match map.remove(name) {
        Some(t) if t.shape().same_as(p.value.shape()) => p.value = t,
        Some(_) => missing.push(format!("{name} (shape mismatch)")),
        None => missing.push(name.to_string()),
    });
    model.visit_buffers(&mut |name, b| match map.get(&format!("buf:{name}")) {
        Some(t) if t.numel() == b.len() => b.copy_from_slice(t.data()),
        Some(_) => missing.push(format!("buf:{name} (shape mismatch)")),
        None => missing.push(format!("buf:{name}")),
    });
    if missing.is_empty() {
        Ok(())
    } else {
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("checkpoint missing parameters: {}", missing.join(", ")),
        ))
    }
}

/// Save an LSTM language model.
pub fn save_lstm(path: &Path, lm: &mut LstmLm) -> io::Result<()> {
    let mut tensors = Vec::new();
    lm.visit_params(&mut |name, p| tensors.push((name.to_string(), p.value.clone())));
    save_tensors(path, &tensors)
}

/// Load an LSTM language model.
pub fn load_lstm(path: &Path, lm: &mut LstmLm) -> io::Result<()> {
    let tensors = load_tensors(path)?;
    let mut map: std::collections::HashMap<String, Tensor> = tensors.into_iter().collect();
    let mut err = None;
    lm.visit_params(&mut |name, p| {
        match map.remove(name) {
            Some(t) if t.shape().same_as(p.value.shape()) => p.value = t,
            _ => err = Some(name.to_string()),
        }
    });
    match err {
        None => Ok(()),
        Some(name) => Err(io::Error::new(io::ErrorKind::InvalidData, format!("missing {name}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Linear;
    use crate::Sequential;
    use tr_tensor::Rng;

    #[test]
    fn crc32_known_vectors() {
        // IEEE 802.3 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bitwise definition of the CRC, one shift per input bit: the
    /// oracle the table-driven [`crc32`] must reproduce.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = 0u32.wrapping_sub(crc & 1);
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn table_crc32_matches_the_bitwise_oracle() {
        let mut rng = Rng::seed_from_u64(0xC3C3);
        let buf: Vec<u8> = (0..1 << 20).map(|_| rng.next_u64().to_le_bytes()[3]).collect();
        // Every length across the 8-byte steps and the byte-wise tail,
        // at every alignment of the step within the buffer.
        for len in 0..=70 {
            for start in 0..8 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "len {len} at offset {start}");
            }
        }
        assert_eq!(crc32(&buf), crc32_bitwise(&buf), "1 MiB buffer");
    }

    #[test]
    fn tensor_round_trip() {
        let dir = std::env::temp_dir().join("tr_nn_io_test");
        let path = dir.join("tensors.bin");
        let tensors = vec![
            ("a".to_string(), Tensor::from_vec(vec![1.0, -2.5, 3.25], Shape::d1(3))),
            ("b.weight".to_string(), Tensor::from_vec(vec![0.5; 6], Shape::d2(2, 3))),
        ];
        save_tensors(&path, &tensors).unwrap();
        let back = load_tensors(&path).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].0, "a");
        assert_eq!(back[0].1.data(), tensors[0].1.data());
        assert_eq!(back[1].1.shape().dims(), &[2, 3]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn writes_v2_magic_and_rejects_legacy_v1() {
        let dir = std::env::temp_dir().join("tr_nn_io_test");
        let path = dir.join("versions.bin");
        let tensors =
            vec![("w".to_string(), Tensor::from_vec(vec![1.0, 2.0], Shape::d1(2)))];
        save_tensors(&path, &tensors).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[..8], MAGIC_V2);

        // Hand-build the same content as the retired TRCKPT01: refused.
        let mut v1: Vec<u8> = Vec::new();
        v1.extend_from_slice(b"TRCKPT01");
        v1.extend_from_slice(&1u64.to_le_bytes());
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(b"w");
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&2u64.to_le_bytes());
        v1.extend_from_slice(&1.0f32.to_le_bytes());
        v1.extend_from_slice(&2.0f32.to_le_bytes());
        let v1_path = dir.join("legacy.bin");
        std::fs::write(&v1_path, &v1).unwrap();
        let err = load_tensors(&v1_path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("bad checkpoint magic"), "{err}");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&v1_path).ok();
    }

    #[test]
    fn temp_paths_are_unique_and_recognisable() {
        let p = Path::new("/tmp/zoo/model.bin");
        let a = unique_tmp_path(p);
        let b = unique_tmp_path(p);
        assert_ne!(a, b);
        let name = a.file_name().unwrap().to_string_lossy().into_owned();
        assert!(is_checkpoint_temp(&name), "{name}");
        assert!(!is_checkpoint_temp("model.bin"));
    }

    #[test]
    fn model_round_trip() {
        let mut rng = Rng::seed_from_u64(1);
        let dir = std::env::temp_dir().join("tr_nn_io_test");
        let path = dir.join("model.bin");
        let mut model = Sequential::new().push(Linear::new(4, 3, &mut rng));
        save_model(&path, &mut model).unwrap();
        // Fresh model with different init, then load.
        let mut model2 = Sequential::new().push(Linear::new(4, 3, &mut rng));
        load_model(&path, &mut model2).unwrap();
        let mut w1 = None;
        model.visit_params(&mut |name, p| {
            if name.contains("weight") {
                w1 = Some(p.value.clone());
            }
        });
        let mut matched = false;
        model2.visit_params(&mut |name, p| {
            if name.contains("weight") {
                assert_eq!(p.value.data(), w1.as_ref().unwrap().data());
                matched = true;
            }
        });
        assert!(matched);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_rejects_architecture_mismatch() {
        let mut rng = Rng::seed_from_u64(2);
        let dir = std::env::temp_dir().join("tr_nn_io_test");
        let path = dir.join("mismatch.bin");
        let mut small = Sequential::new().push(Linear::new(2, 2, &mut rng));
        save_model(&path, &mut small).unwrap();
        let mut big = Sequential::new().push(Linear::new(3, 3, &mut rng));
        assert!(load_model(&path, &mut big).is_err());
        std::fs::remove_file(&path).ok();
    }
}
