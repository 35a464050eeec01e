//! Checkpoint corruption robustness: every malformed input must produce
//! a clean `Err`, never a panic, OOM, or silently-wrong tensors. This is
//! the difference between "a cosmic ray costs one retrain" and "a cosmic
//! ray poisons every downstream accuracy number".

// Helper fns outside #[test] bodies: the tests-may-unwrap clippy
// exemption does not reach them, so carry the allows explicitly.
#![allow(clippy::unwrap_used)]

use std::panic::catch_unwind;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use tr_nn::io::{load_tensors, save_tensors};
use tr_tensor::{Shape, Tensor};

fn fixture_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tr-ckpt-robust-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn sample_tensors() -> Vec<(String, Tensor)> {
    vec![
        ("layer0.weight".to_string(), Tensor::from_vec((0..24).map(|i| i as f32 * 0.5 - 6.0).collect(), Shape::d2(4, 6))),
        ("layer0.bias".to_string(), Tensor::from_vec(vec![0.1, -0.2, 0.3, -0.4], Shape::d1(4))),
        ("buf:bn.running_mean".to_string(), Tensor::from_vec(vec![1.5; 3], Shape::d1(3))),
    ]
}

/// Loading `bytes` must return Err without panicking; returns the
/// error's message.
fn assert_clean_error(bytes: &[u8], what: &str) -> String {
    let dir = std::env::temp_dir().join("tr-ckpt-robust-scratch");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("case-{}.bin", bytes.len()));
    std::fs::write(&path, bytes).unwrap();
    let p = path.clone();
    let result = catch_unwind(move || load_tensors(&p));
    let message = match result {
        Ok(Ok(_)) => panic!("{what}: corrupt checkpoint loaded successfully"),
        Ok(Err(e)) => e.to_string(),
        Err(_) => panic!("{what}: load_tensors panicked on corrupt input"),
    };
    std::fs::remove_file(&path).ok();
    message
}

#[test]
fn every_single_bitflip_is_detected_or_harmless() {
    let dir = fixture_dir("bitflip");
    let path = dir.join("ckpt.bin");
    let tensors = sample_tensors();
    save_tensors(&path, &tensors).unwrap();
    let clean = std::fs::read(&path).unwrap();

    // Flip one bit in every byte of the file. The CRC32 seal guarantees
    // any single-bit corruption is *detected*: the load must error — it
    // must never panic and never return altered tensors.
    for i in 0..clean.len() {
        let mut dirty = clean.clone();
        dirty[i] ^= 0x10;
        assert_clean_error(&dirty, &format!("bit flip at byte {i}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_truncation_point_fails_cleanly() {
    let dir = fixture_dir("trunc");
    let path = dir.join("ckpt.bin");
    save_tensors(&path, &sample_tensors()).unwrap();
    let clean = std::fs::read(&path).unwrap();
    for len in 0..clean.len() {
        assert_clean_error(&clean[..len], &format!("truncated to {len} bytes"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wrong_magic_and_junk_fail_cleanly() {
    assert_clean_error(b"", "empty file");
    assert_clean_error(b"TRCK", "short magic");
    assert_clean_error(b"NOTMAGIC", "wrong magic, no body");
    assert_clean_error(b"TRCKPT99\x01\x00\x00\x00\x00\x00\x00\x00", "future version");
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)] // i*7%251 < 256
    let junk: Vec<u8> = (0..256).map(|i| (i * 7 % 251) as u8).collect();
    assert_clean_error(&junk, "random junk");
}

/// The reflected CRC32 (IEEE 802.3), bit by bit: seals hand-built
/// checkpoint bodies so they get past the loader's CRC check.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

/// A `TRCKPT02` file from a hand-built body after the magic, with a
/// valid CRC seal, so the loader parses the body's header fields.
fn sealed_v2(body: &[u8]) -> Vec<u8> {
    let mut bytes = b"TRCKPT02".to_vec();
    bytes.extend_from_slice(body);
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    bytes
}

/// `bytes` fails cleanly, and with an error naming `why`: the bounds
/// check rejected it, not the CRC or magic check in front of it.
fn assert_rejected_by_bounds(bytes: &[u8], what: &str, why: &str) {
    let err = assert_clean_error(bytes, what);
    assert!(err.contains(why), "{what}: {err}");
}

#[test]
fn hostile_header_fields_cannot_force_huge_allocations() {
    // CRC-valid headers claiming absurd sizes: the loader must reject
    // from the bytes actually present, not allocate first. Before the
    // bounds-checked parser this was a capacity-overflow panic / OOM
    // vector.
    let mut evil: Vec<u8> = Vec::new();
    evil.extend_from_slice(&1u64.to_le_bytes()); // one tensor
    evil.extend_from_slice(&1u32.to_le_bytes());
    evil.push(b'w');
    evil.extend_from_slice(&20u64.to_le_bytes()); // payload: rank + 2 dims
    evil.extend_from_slice(&2u32.to_le_bytes()); // rank 2
    evil.extend_from_slice(&u64::MAX.to_le_bytes()); // dim0 = 2^64-1
    evil.extend_from_slice(&u64::MAX.to_le_bytes()); // dim1 = 2^64-1
    assert_rejected_by_bounds(&sealed_v2(&evil), "overflowing dims", "overflows");

    // Huge tensor count with no entries behind it.
    let evil2 = u64::MAX.to_le_bytes();
    assert_rejected_by_bounds(&sealed_v2(&evil2), "huge tensor count", "exceeds limit");

    // Huge name length.
    let mut evil3: Vec<u8> = Vec::new();
    evil3.extend_from_slice(&1u64.to_le_bytes());
    evil3.extend_from_slice(&u32::MAX.to_le_bytes());
    assert_rejected_by_bounds(&sealed_v2(&evil3), "huge name length", "exceeds limit");

    // Huge payload length behind a valid name.
    let mut evil4: Vec<u8> = Vec::new();
    evil4.extend_from_slice(&1u64.to_le_bytes());
    evil4.extend_from_slice(&1u32.to_le_bytes());
    evil4.push(b'w');
    evil4.extend_from_slice(&u64::MAX.to_le_bytes());
    assert_rejected_by_bounds(&sealed_v2(&evil4), "huge payload length", "declares");
}

#[test]
fn clean_round_trip_still_works() {
    let dir = fixture_dir("clean");
    let path = dir.join("ckpt.bin");
    let tensors = sample_tensors();
    save_tensors(&path, &tensors).unwrap();
    let back = load_tensors(&path).unwrap();
    assert_eq!(back.len(), tensors.len());
    for ((n0, t0), (n1, t1)) in tensors.iter().zip(&back) {
        assert_eq!(n0, n1);
        assert_eq!(t0.data(), t1.data());
        assert_eq!(t0.shape().dims(), t1.shape().dims());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_writers_never_produce_a_partial_file() {
    // Hammer one destination path from several threads; readers running
    // at the same time must only ever see a complete, CRC-valid
    // checkpoint (or no file yet) — never an error from partial bytes.
    let dir = fixture_dir("race");
    let path = dir.join("shared.bin");
    // Reads that start while a writer is still running count as seen
    // mid-race. Each writer keeps writing past its 20 rounds (up to a
    // cap) until the reader has seen one, so a reader thread scheduled
    // late still overlaps the writers.
    let seen_mid_race = Arc::new(AtomicUsize::new(0));
    let writers_done = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..4)
        .map(|w| {
            let path = path.clone();
            let seen_mid_race = Arc::clone(&seen_mid_race);
            std::thread::spawn(move || {
                for round in 0..2000 {
                    if round >= 20 && seen_mid_race.load(Ordering::SeqCst) > 0 {
                        break;
                    }
                    let fill = (w * 100 + round) as f32;
                    let tensors = vec![(
                        "w".to_string(),
                        Tensor::from_vec(vec![fill; 32], Shape::d2(4, 8)),
                    )];
                    save_tensors(&path, &tensors).unwrap();
                }
            })
        })
        .collect();
    let reader = {
        let path = path.clone();
        let seen_mid_race = Arc::clone(&seen_mid_race);
        let writers_done = Arc::clone(&writers_done);
        std::thread::spawn(move || loop {
            // After the writers have joined, one last read checks the
            // final file; it does not count as seen mid-race.
            let racing = !writers_done.load(Ordering::SeqCst);
            match load_tensors(&path) {
                Ok(t) => {
                    assert_eq!(t.len(), 1, "partial checkpoint observed");
                    assert_eq!(t[0].1.data().len(), 32);
                    if racing {
                        seen_mid_race.fetch_add(1, Ordering::SeqCst);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => panic!("reader saw corruption during concurrent writes: {e}"),
            }
            if !racing {
                break;
            }
            std::thread::yield_now();
        })
    };
    for w in writers {
        w.join().unwrap();
    }
    writers_done.store(true, Ordering::SeqCst);
    reader.join().unwrap();
    assert!(seen_mid_race.load(Ordering::SeqCst) > 0, "reader never observed a complete checkpoint while writers ran");
    // No temp debris left behind by any writer.
    let leftovers: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n != "shared.bin")
        .collect();
    assert!(leftovers.is_empty(), "temp debris: {leftovers:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
