//! Deterministic, structure-aware fuzz harness for every parser on the service's trust
//! boundary: the JSON decoder, the request decoder, the length-prefixed framing, and the
//! binary design snapshot that crash recovery reads.
//!
//! Philosophy: std-only and **seeded** — a fixed xorshift64* stream drives both the
//! structure-aware generators (valid documents/frames/requests, so the deep paths get
//! exercised, not just the first error check) and the byte mutators (bit flips, splices,
//! truncations, so the error paths get exercised too). Every failure is reproducible
//! from the seed printed in the assertion message; CI runs the fixed default seed as a
//! smoke test (a few seconds), `FLEX_FUZZ_ITERS` scales the same harness up for longer
//! local runs.
//!
//! The only property asserted is the parsers' contract: **typed results, never a
//! panic** — `Ok` or a typed error for arbitrary input, and exact round-trips for valid
//! input.

use flex_eco::json::Json;
use flex_eco::proto::{decode_request, encode_request, read_frame, write_frame, Request};
use flex_eco::EcoDelta;
use flex_placement::cell::{Cell, CellId};
use flex_placement::geom::Rect;
use flex_placement::layout::Design;
use flex_placement::row::Rail;
use flex_placement::snapshot::{crc32, read_design, write_design, SnapshotError};
use std::io::Cursor;

/// Iterations per fuzz target (override with `FLEX_FUZZ_ITERS` for longer runs).
fn iters() -> u64 {
    std::env::var("FLEX_FUZZ_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000)
}

/// xorshift64* — tiny, seedable, no dependencies; good enough to drive a fuzzer.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

// --- structure-aware generators ---------------------------------------------------------

/// A syntactically valid JSON document, biased toward the constructs the protocol uses
/// (objects with string keys, short arrays, numbers, escapes).
fn gen_json(rng: &mut Rng, depth: u32) -> String {
    match if depth == 0 {
        rng.below(4)
    } else {
        rng.below(6)
    } {
        0 => "null".to_string(),
        1 => if rng.below(2) == 0 { "true" } else { "false" }.to_string(),
        2 => {
            let n = rng.f64() * 1e6 - 5e5;
            if rng.below(2) == 0 {
                format!("{}", n as i64)
            } else {
                format!("{n:.4}")
            }
        }
        3 => gen_string(rng),
        4 => {
            let items: Vec<String> = (0..rng.below(4))
                .map(|_| gen_json(rng, depth - 1))
                .collect();
            format!("[{}]", items.join(","))
        }
        _ => {
            let items: Vec<String> = (0..rng.below(4))
                .map(|_| format!("{}:{}", gen_string(rng), gen_json(rng, depth - 1)))
                .collect();
            format!("{{{}}}", items.join(","))
        }
    }
}

fn gen_string(rng: &mut Rng) -> String {
    let mut s = String::from("\"");
    for _ in 0..rng.below(12) {
        match rng.below(10) {
            0 => s.push_str("\\\""),
            1 => s.push_str("\\\\"),
            2 => s.push_str("\\n"),
            3 => s.push_str("\\u00e9"),
            4 => s.push('\u{1F600}'), // multi-byte UTF-8 straight through
            _ => s.push((b'a' + rng.below(26) as u8) as char),
        }
    }
    s.push('"');
    s
}

fn gen_delta(rng: &mut Rng) -> EcoDelta {
    let id = CellId(rng.below(100) as u32);
    match rng.below(4) {
        0 => EcoDelta::MoveCell {
            id,
            gx: rng.f64() * 100.0,
            gy: rng.f64() * 40.0,
        },
        1 => EcoDelta::InsertCell {
            width: 1 + rng.below(6) as i64,
            height: 1 + rng.below(2) as i64,
            gx: rng.f64() * 100.0,
            gy: rng.f64() * 40.0,
        },
        2 => EcoDelta::ResizeCell {
            id,
            width: 1 + rng.below(6) as i64,
            height: 1 + rng.below(2) as i64,
        },
        _ => EcoDelta::RemoveCell { id },
    }
}

fn gen_request(rng: &mut Rng) -> Request {
    match rng.below(8) {
        0 => Request::Info,
        1 => Request::Stats,
        2 => Request::Health,
        3 => Request::Metrics {
            prometheus: rng.below(2) == 0,
        },
        4 => Request::Trace {
            chrome: rng.below(2) == 0,
        },
        5 => Request::Shutdown,
        _ => Request::Apply((0..1 + rng.below(4)).map(|_| gen_delta(rng)).collect()),
    }
}

/// A small design holding every field kind a snapshot stores: blockages, fixed cells,
/// cells up to four rows tall (even heights carry a row parity), legalized flags, desired
/// coordinates no placement would produce, and a tombstone.
fn gen_design(rng: &mut Rng) -> Design {
    let (sites, rows) = (20 + rng.below(60) as i64, 4 + rng.below(12) as i64);
    let mut design = Design::new(format!("fuzz-{}", rng.below(1000)), sites, rows);
    design.site_width = 0.05 + rng.f64();
    design.row_height = 0.5 + 4.0 * rng.f64();
    if rng.below(2) == 0 {
        design.base_rail = Rail::Vss;
    }
    for _ in 0..rng.below(4) {
        let (x, y) = (
            rng.below(sites as u64) as i64,
            rng.below(rows as u64) as i64,
        );
        let (w, h) = (1 + rng.below(8) as i64, 1 + rng.below(3) as i64);
        design.add_blockage(Rect::new(x, y, x + w, y + h));
    }
    for _ in 0..1 + rng.below(20) {
        let (width, height) = (1 + rng.below(5) as i64, 1 + rng.below(4) as i64);
        let (gx, gy) = (rng.f64() * sites as f64, rng.f64() * rows as f64);
        let mut cell = if rng.below(6) == 0 {
            Cell::fixed(CellId(0), width, height, gx as i64, gy as i64)
        } else {
            Cell::movable(CellId(0), width, height, gx, gy)
        };
        cell.legalized |= rng.below(3) == 0;
        design.add_cell(cell);
    }
    design.add_cell(Cell::movable(CellId(0), 2, 2, f64::NAN, -1e300));
    let removed = CellId(rng.below(design.cells.len() as u64) as u32);
    design.tombstone_cell(removed);
    design
}

// --- byte mutators ----------------------------------------------------------------------

/// Up to `max_mutations` random bit flips, splices, and truncations.
fn mutate(bytes: &mut Vec<u8>, rng: &mut Rng, max_mutations: u64) {
    for _ in 0..1 + rng.below(max_mutations) {
        if bytes.is_empty() {
            bytes.push(rng.next() as u8);
            continue;
        }
        let at = rng.below(bytes.len() as u64) as usize;
        match rng.below(4) {
            0 => bytes[at] ^= 1 << rng.below(8),     // bit flip
            1 => bytes[at] = rng.next() as u8,       // byte splat
            2 => bytes.insert(at, rng.next() as u8), // insert
            _ => drop(bytes.drain(at..)),            // truncate
        }
    }
}

// --- the targets ------------------------------------------------------------------------

#[test]
fn json_parser_survives_generated_and_mutated_documents() {
    let seed = 0xF00D_0001u64;
    let mut rng = Rng::new(seed);
    for i in 0..iters() {
        let doc = gen_json(&mut rng, 4);
        // a generated document is valid by construction and must round-trip exactly
        let parsed = Json::parse(&doc)
            .unwrap_or_else(|e| panic!("seed {seed:#x} iter {i}: valid doc rejected: {e}\n{doc}"));
        let reparsed = Json::parse(&parsed.to_string())
            .unwrap_or_else(|e| panic!("seed {seed:#x} iter {i}: serialized form rejected: {e}"));
        assert_eq!(
            parsed.to_string(),
            reparsed.to_string(),
            "seed {seed:#x} iter {i}: round-trip diverged"
        );
        // its mutation must produce a typed result, never a panic
        let mut bytes = doc.into_bytes();
        mutate(&mut bytes, &mut rng, 8);
        let _ = Json::parse(&String::from_utf8_lossy(&bytes));
    }
}

#[test]
fn json_parser_bounds_nesting_depth_instead_of_overflowing_the_stack() {
    for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
        let deep = format!("{}null{}", open.repeat(100_000), close.repeat(100_000));
        // must return a typed error (depth bound), not recurse to a stack overflow
        assert!(Json::parse(&deep).is_err(), "unbounded nesting accepted");
    }
}

#[test]
fn request_decoder_survives_valid_and_mutated_payloads() {
    let seed = 0xF00D_0002u64;
    let mut rng = Rng::new(seed);
    for i in 0..iters() {
        let request = gen_request(&mut rng);
        let payload = encode_request(&request);
        // encode → decode → encode must be a fixed point
        let decoded = decode_request(&payload)
            .unwrap_or_else(|e| panic!("seed {seed:#x} iter {i}: valid request rejected: {e}"));
        assert_eq!(
            encode_request(&decoded),
            payload,
            "seed {seed:#x} iter {i}: request round-trip diverged"
        );
        // raw mutated bytes (possibly invalid UTF-8) must yield Ok or a typed Err
        let mut bytes = payload;
        mutate(&mut bytes, &mut rng, 8);
        let _ = decode_request(&bytes);
    }
}

#[test]
fn frame_reader_survives_arbitrary_and_mutated_byte_streams() {
    let seed = 0xF00D_0003u64;
    let mut rng = Rng::new(seed);
    for i in 0..iters() {
        // a well-formed multi-frame stream must be read back exactly
        let frames: Vec<Vec<u8>> = (0..1 + rng.below(3))
            .map(|_| (0..rng.below(64)).map(|_| rng.next() as u8).collect())
            .collect();
        let mut stream = Vec::new();
        for frame in &frames {
            write_frame(&mut stream, frame).unwrap();
        }
        let mut cursor = Cursor::new(stream.clone());
        for (n, frame) in frames.iter().enumerate() {
            let got = read_frame(&mut cursor)
                .unwrap_or_else(|e| panic!("seed {seed:#x} iter {i}: frame {n} failed: {e}"))
                .unwrap_or_else(|| panic!("seed {seed:#x} iter {i}: stream ended early"));
            assert_eq!(&got, frame, "seed {seed:#x} iter {i}: frame {n} corrupted");
        }
        assert!(read_frame(&mut cursor).unwrap().is_none());

        // its mutation (headers included — oversized lengths, torn frames) must drain to
        // a typed error or clean EOF, never a panic or an unbounded allocation
        mutate(&mut stream, &mut rng, 12);
        let mut cursor = Cursor::new(stream);
        for _ in 0..8 {
            match read_frame(&mut cursor) {
                Ok(Some(_)) => continue,
                Ok(None) | Err(_) => break,
            }
        }
    }
}

/// Every field of `back` equals `want`'s, floats compared by their bits.
fn assert_same_design(back: &Design, want: &Design, ctx: &str) {
    let die = |d: &Design| {
        let sizes = (d.site_width.to_bits(), d.row_height.to_bits());
        let bounds = (d.num_sites_x, d.num_rows, d.base_rail);
        (d.name.clone(), bounds, sizes, d.blockages.clone())
    };
    let cell = |c: &Cell| {
        let desired = (c.gx.to_bits(), c.gy.to_bits());
        let flags = (c.fixed, c.legalized, c.row_parity);
        (c.id, c.width, c.height, c.x, c.y, flags, desired)
    };
    assert_eq!(die(back), die(want), "{ctx}: name, die or blockages");
    assert_eq!(back.cells.len(), want.cells.len(), "{ctx}: cell count");
    for (a, b) in back.cells.iter().zip(&want.cells) {
        assert_eq!(cell(a), cell(b), "{ctx}: cell {}", b.id);
    }
}

/// Bytes before a snapshot's body: magic (8), version (4), body length (8), body CRC (4).
const SNAPSHOT_HEADER: usize = 24;

#[test]
fn snapshot_roundtrips_seeded_designs_bit_exactly() {
    let seed = 0xF00D_0004u64;
    let mut rng = Rng::new(seed);
    for i in 0..iters() / 4 {
        let design = gen_design(&mut rng);
        let mut bytes = Vec::new();
        write_design(&mut bytes, &design).unwrap();
        let back = read_design(&mut Cursor::new(&bytes))
            .unwrap_or_else(|e| panic!("seed {seed:#x} iter {i}: valid snapshot rejected: {e}"));
        assert_same_design(&back, &design, &format!("seed {seed:#x} iter {i}"));
        let mut again = Vec::new();
        write_design(&mut again, &back).unwrap();
        assert_eq!(
            again, bytes,
            "seed {seed:#x} iter {i}: re-encoding diverged"
        );
    }
}

#[test]
fn snapshot_decoder_survives_body_mutations() {
    let seed = 0xF00D_0005u64;
    let mut rng = Rng::new(seed);
    for i in 0..iters() / 4 {
        let mut bytes = Vec::new();
        write_design(&mut bytes, &gen_design(&mut rng)).unwrap();
        let mut body = bytes.split_off(SNAPSHOT_HEADER);
        mutate(&mut body, &mut rng, 8);
        // re-seal the header around the mutated body, so the mutation passes the length and
        // CRC checks and reaches the field decoder
        bytes[12..20].copy_from_slice(&(body.len() as u64).to_le_bytes());
        bytes[20..24].copy_from_slice(&crc32(&body).to_le_bytes());
        bytes.extend_from_slice(&body);
        match read_design(&mut Cursor::new(&bytes)) {
            Ok(_) | Err(SnapshotError::Corrupt(_)) => {}
            Err(e) => panic!("seed {seed:#x} iter {i}: in-memory snapshot read failed: {e}"),
        }
    }
}
