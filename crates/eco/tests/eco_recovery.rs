//! Crash-recovery differential suite: recovered ≡ never-crashed, bit for bit.
//!
//! The strategy mirrors the warm≡cold differential tests: one *reference* engine applies a
//! mixed 500-batch delta stream uninterrupted while a *journaled* twin applies the same
//! stream behind a write-ahead journal; at every kill point the journal directory is
//! copied aside — a byte-level copy of the directory at batch `k` is exactly what a
//! process killed right after acking batch `k` leaves on disk — and recovery from the copy
//! must reproduce the reference design **bit-identically** (compared through the binary
//! snapshot codec, so `f64` payloads are compared by bits, not by `==`).
//!
//! Torn tails are driven the same way, harder: kill-at-every-byte-offset over a short
//! journal asserts each prefix recovers to exactly the last complete record — a torn
//! append is replayed fully or dropped cleanly, never half-applied.

use flex_eco::journal::{recover_engine, Journal, JournalConfig};
use flex_eco::{EcoDelta, EcoEngine, EcoStats};
use flex_mgl::config::MglConfig;
use flex_placement::benchmark::{generate, BenchmarkSpec};
use flex_placement::cell::CellId;
use flex_placement::layout::Design;
use flex_placement::snapshot::{crc32, write_design, MAGIC};
use rand::{rngs::StdRng, RngExt, SeedableRng};
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "flex-eco-recovery-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn copy_dir(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap().flatten() {
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// The design's exact bytes through the bit-preserving snapshot codec — the comparison
/// key of every differential below.
fn design_bytes(design: &Design) -> Vec<u8> {
    let mut buf = Vec::new();
    write_design(&mut buf, design).unwrap();
    buf
}

/// A mixed, seeded delta stream: mostly moves, plus inserts/resizes/removes, with ids
/// drawn from a range that removals shrink — so some batches are validation-rejected,
/// exercising the journal's record-rejected-batches-too replay path.
fn mixed_batches(
    seed: u64,
    n: usize,
    sites: i64,
    rows: i64,
    initial_cells: u32,
) -> Vec<Vec<EcoDelta>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut id_ceiling = initial_cells;
    (0..n)
        .map(|_| {
            let len = 1 + rng.next_below(3) as usize;
            (0..len)
                .map(|_| {
                    let gx = rng.random::<f64>() * sites as f64;
                    let gy = rng.random::<f64>() * rows as f64;
                    let id = CellId(rng.next_below(id_ceiling as u64) as u32);
                    match rng.next_below(100) {
                        0..=79 => EcoDelta::MoveCell { id, gx, gy },
                        80..=87 => {
                            id_ceiling += 1;
                            EcoDelta::InsertCell {
                                width: 2 + rng.next_below(6) as i64,
                                height: 1 + rng.next_below(2) as i64,
                                gx,
                                gy,
                            }
                        }
                        88..=95 => EcoDelta::ResizeCell {
                            id,
                            width: 2 + rng.next_below(6) as i64,
                            height: 1 + rng.next_below(2) as i64,
                        },
                        _ => EcoDelta::RemoveCell { id },
                    }
                })
                .collect()
        })
        .collect()
}

/// Twin engines over the same legal design plus the journaled run's directory.
struct Twins {
    reference: EcoEngine,
    journaled: EcoEngine,
    journal: Journal,
    dir: PathBuf,
    batches: Vec<Vec<EcoDelta>>,
}

fn twins(tag: &str, seed: u64, n_batches: usize, snapshot_every: u64) -> Twins {
    let design = generate(&BenchmarkSpec::tiny(tag, seed));
    let bootstrapped = EcoEngine::legalize_and_build(design, MglConfig::default()).unwrap();
    let legal = bootstrapped.design().clone();
    let batches = mixed_batches(
        seed ^ 0xD1F,
        n_batches,
        legal.num_sites_x,
        legal.num_rows,
        legal.cells.len() as u32,
    );
    let reference = EcoEngine::new(legal.clone(), MglConfig::default()).unwrap();
    let journaled = EcoEngine::new(legal, MglConfig::default()).unwrap();
    let dir = temp_dir(tag);
    let mut cfg = JournalConfig::new(&dir);
    cfg.snapshot_every = snapshot_every;
    let journal = Journal::create(cfg, journaled.design(), journaled.stats(), 0).unwrap();
    Twins {
        reference,
        journaled,
        journal,
        dir,
        batches,
    }
}

/// Recover from `dir` and return (engine bytes, stats, last seq).
fn recover_state(dir: &Path) -> (Vec<u8>, EcoStats, u64) {
    let (engine, journal, _report) = recover_engine(JournalConfig::new(dir), MglConfig::default())
        .unwrap()
        .expect("journal directory must hold a snapshot");
    assert!(engine.check_legal(), "recovered engine must be legal");
    (
        design_bytes(engine.design()),
        engine.stats().clone(),
        journal.seq(),
    )
}

#[test]
fn kill_points_over_500_deltas_recover_bit_identical() {
    let mut t = twins("kill500", 11, 500, 64);
    // kill points: a coarse stride plus the awkward edges (first batch, around snapshot
    // rotations at 64/128/…, the final batch)
    let kill_points: Vec<u64> = (1..=500u64)
        .filter(|k| k % 23 == 0 || matches!(k, 1 | 63 | 64 | 65 | 499 | 500))
        .collect();
    let mut next_kill = 0usize;

    let batches = std::mem::take(&mut t.batches);
    for (i, batch) in batches.iter().enumerate() {
        let seq = (i + 1) as u64;
        t.journal.append(batch).unwrap();
        let journaled_result = t.journaled.apply(batch).is_ok();
        t.journal
            .maybe_snapshot(t.journaled.design(), t.journaled.stats())
            .unwrap();
        let reference_result = t.reference.apply(batch).is_ok();
        assert_eq!(
            journaled_result, reference_result,
            "twins diverged at batch {seq}"
        );

        if next_kill < kill_points.len() && kill_points[next_kill] == seq {
            next_kill += 1;
            let copy = t.dir.with_extension(format!("kill{seq}"));
            copy_dir(&t.dir, &copy);
            let (bytes, stats, recovered_seq) = recover_state(&copy);
            assert_eq!(recovered_seq, seq, "recovery must reach the kill point");
            assert_eq!(
                bytes,
                design_bytes(t.reference.design()),
                "kill at batch {seq}: recovered design differs from the uninterrupted engine"
            );
            assert_eq!(
                &stats,
                t.reference.stats(),
                "kill at batch {seq}: recovered lifetime counters differ"
            );
            let _ = std::fs::remove_dir_all(&copy);
        }
    }
    assert_eq!(next_kill, kill_points.len(), "every kill point exercised");
    let _ = std::fs::remove_dir_all(&t.dir);
}

#[test]
fn every_byte_offset_kill_replays_fully_or_drops_cleanly() {
    let mut t = twins("tornbyte", 29, 8, 0); // one generation: snap-0 + wal-0 only
    let batches = std::mem::take(&mut t.batches);

    // reference design bytes after each batch (index 0 = before any batch)
    let mut reference_at = vec![design_bytes(t.reference.design())];
    let mut record_ends = vec![0u64];
    for batch in &batches {
        t.journal.append(batch).unwrap();
        record_ends.push(t.journal.wal_bytes());
        let _ = t.journaled.apply(batch);
        let _ = t.reference.apply(batch);
        reference_at.push(design_bytes(t.reference.design()));
    }
    let wal = t.dir.join("wal-0.log");
    let full = std::fs::metadata(&wal).unwrap().len();
    assert_eq!(full, *record_ends.last().unwrap());

    let copy = t.dir.with_extension("cut");
    for cut in 0..=full {
        copy_dir(&t.dir, &copy);
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(copy.join("wal-0.log"))
            .unwrap();
        f.set_len(cut).unwrap();
        drop(f);

        // a prefix of `cut` bytes holds exactly the records that END at or before it
        let complete = record_ends.iter().filter(|&&end| end <= cut).count() - 1;
        let (bytes, _stats, seq) = recover_state(&copy);
        assert_eq!(
            seq, complete as u64,
            "cut at byte {cut}: wrong number of batches recovered"
        );
        assert_eq!(
            bytes, reference_at[complete],
            "cut at byte {cut}: partial application detected"
        );
        // the torn tail must be physically gone: recovery truncates to the last record
        assert_eq!(
            std::fs::metadata(copy.join("wal-0.log")).unwrap().len(),
            record_ends[complete],
            "cut at byte {cut}: torn tail not truncated"
        );
    }
    let _ = std::fs::remove_dir_all(&copy);
    let _ = std::fs::remove_dir_all(&t.dir);
}

#[test]
fn corrupt_record_crc_ends_history_at_the_previous_record() {
    let mut t = twins("tornbit", 43, 8, 0);
    let batches = std::mem::take(&mut t.batches);
    let mut reference_at = vec![design_bytes(t.reference.design())];
    let mut record_ends = vec![0u64];
    for batch in &batches {
        t.journal.append(batch).unwrap();
        record_ends.push(t.journal.wal_bytes());
        let _ = t.journaled.apply(batch);
        let _ = t.reference.apply(batch);
        reference_at.push(design_bytes(t.reference.design()));
    }

    // flip one payload byte in the middle of record 5 (bytes record_ends[4]..record_ends[5])
    let corrupt_record = 5usize;
    let copy = t.dir.with_extension("crc");
    copy_dir(&t.dir, &copy);
    let wal_path = copy.join("wal-0.log");
    let mut bytes = std::fs::read(&wal_path).unwrap();
    let victim = (record_ends[corrupt_record - 1] + 12) as usize; // past the 8-byte header
    bytes[victim] ^= 0x01;
    std::fs::write(&wal_path, &bytes).unwrap();

    let (recovered, _stats, seq) = recover_state(&copy);
    assert_eq!(seq, (corrupt_record - 1) as u64);
    assert_eq!(recovered, reference_at[corrupt_record - 1]);
    // records after a CRC failure are untrusted even if intact: the file ends there now
    assert_eq!(
        std::fs::metadata(&wal_path).unwrap().len(),
        record_ends[corrupt_record - 1]
    );

    let _ = std::fs::remove_dir_all(&copy);
    let _ = std::fs::remove_dir_all(&t.dir);
}

#[test]
fn corrupt_newest_snapshot_falls_back_to_the_previous_generation() {
    let mut t = twins("snapfall", 57, 40, 16); // rotations at 16 and 32
    let batches = std::mem::take(&mut t.batches);
    for batch in &batches {
        t.journal.append(batch).unwrap();
        let _ = t.journaled.apply(batch);
        t.journal
            .maybe_snapshot(t.journaled.design(), t.journaled.stats())
            .unwrap();
        let _ = t.reference.apply(batch);
    }

    // generations now: snap-16/wal-16 (previous), snap-32/wal-32 (current)
    for sabotage in ["truncate", "bitflip"] {
        let copy = t.dir.with_extension(sabotage);
        copy_dir(&t.dir, &copy);
        let newest = copy.join("snap-32.ecosnap");
        match sabotage {
            "truncate" => {
                let len = std::fs::metadata(&newest).unwrap().len();
                let f = std::fs::OpenOptions::new()
                    .write(true)
                    .open(&newest)
                    .unwrap();
                f.set_len(len / 2).unwrap();
            }
            _ => {
                let mut bytes = std::fs::read(&newest).unwrap();
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x80;
                std::fs::write(&newest, &bytes).unwrap();
            }
        }
        let (recovered, stats, seq) = recover_state(&copy);
        assert_eq!(
            seq, 40,
            "{sabotage}: fallback must still replay wal-16 + wal-32"
        );
        assert_eq!(
            recovered,
            design_bytes(t.reference.design()),
            "{sabotage}: fallback recovery diverged"
        );
        assert_eq!(&stats, t.reference.stats(), "{sabotage}");
        assert!(
            !copy.join("snap-32.ecosnap").exists(),
            "{sabotage}: the corrupt snapshot must be deleted"
        );
        let _ = std::fs::remove_dir_all(&copy);
    }
    let _ = std::fs::remove_dir_all(&t.dir);
}

#[test]
fn fresh_directory_recovers_to_nothing_and_shutdown_snapshot_restores_instantly() {
    let dir = temp_dir("fresh");
    assert!(
        recover_engine(JournalConfig::new(&dir), MglConfig::default())
            .unwrap()
            .is_none(),
        "an empty directory is a fresh start, not an error"
    );

    // a journal whose engine applied nothing recovers to the snapshot exactly
    let design = generate(&BenchmarkSpec::tiny("fresh", 3));
    let engine = EcoEngine::legalize_and_build(design, MglConfig::default()).unwrap();
    let expected = design_bytes(engine.design());
    let _journal =
        Journal::create(JournalConfig::new(&dir), engine.design(), engine.stats(), 0).unwrap();
    let (bytes, stats, seq) = recover_state(&dir);
    assert_eq!(seq, 0);
    assert_eq!(bytes, expected);
    assert_eq!(stats, EcoStats::default());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_claiming_an_unbounded_die_is_a_typed_error() {
    let dir = temp_dir("huge-die");
    let design = generate(&BenchmarkSpec::tiny("huge-die", 3));
    let engine = EcoEngine::legalize_and_build(design, MglConfig::default()).unwrap();
    let _journal =
        Journal::create(JournalConfig::new(&dir), engine.design(), engine.stats(), 0).unwrap();

    // rewrite the snapshot's design image to claim 2^40 rows and re-seal its CRC, so the
    // body decodes and only the engine's die bound stands between recovery and a per-row
    // allocation of 2^40 entries (which would abort the process at once)
    let path = dir.join("snap-0.ecosnap");
    let mut bytes = std::fs::read(&path).unwrap();
    let image = bytes.windows(MAGIC.len()).position(|w| w == MAGIC).unwrap();
    let body_len = u64::from_le_bytes(bytes[image + 12..image + 20].try_into().unwrap());
    let body = image + 24..image + 24 + body_len as usize;
    let name_len =
        u32::from_le_bytes(bytes[body.start..body.start + 4].try_into().unwrap()) as usize;
    let rows_at = body.start + 4 + name_len + 8;
    bytes[rows_at..rows_at + 8].copy_from_slice(&(1i64 << 40).to_le_bytes());
    let crc = crc32(&bytes[body]);
    bytes[image + 20..image + 24].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();

    let Err(err) = recover_engine(JournalConfig::new(&dir), MglConfig::default()) else {
        panic!("a snapshot claiming 2^40 rows must not recover");
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("exceeds the bounds"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
