//! Checksummed binary design snapshots: the on-disk design format of the ECO service's
//! crash recovery.
//!
//! A recovery snapshot must round-trip every field **bit-exactly** (the ECO recovery
//! differential compares cells with `f64::to_bits`), it must detect its own corruption (a
//! torn write during a crash must never be mistaken for a valid design), and it is on the
//! hot path of a resident service's checkpoint loop, so it should not format and re-parse
//! half a million floats.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic    8 bytes  "FLEXSNAP"
//! version  u32
//! body_len u64      length of the body that follows the checksum
//! body_crc u32      CRC-32 (IEEE) of the body bytes
//! body              name, die, rails, blockages, cells (see `write_body`)
//! ```
//!
//! A reader first consumes the fixed header, then reads exactly `body_len` bytes and
//! validates the checksum before interpreting a single field — a truncated or bit-flipped
//! file surfaces as [`SnapshotError::Corrupt`], never as a half-parsed design. Floats are
//! stored as raw IEEE-754 bits, so `gx`/`gy` survive unchanged even for the NaN/±1e300
//! extremes the robustness suite injects.

use crate::cell::{Cell, CellId};
use crate::geom::Rect;
use crate::layout::Design;
use crate::row::Rail;
use std::io::{Read, Write};

/// File magic of a design snapshot.
pub const MAGIC: &[u8; 8] = b"FLEXSNAP";

/// Current format version.
pub const VERSION: u32 = 1;

/// Why a snapshot failed to load.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying reader failed (including short reads of the declared body).
    Io(std::io::Error),
    /// The bytes are not a valid snapshot; the message names the first violation.
    Corrupt(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        // a short read while consuming the declared body length means the file was
        // truncated mid-write: that is corruption, not an environment failure
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            SnapshotError::Corrupt("truncated snapshot".to_string())
        } else {
            SnapshotError::Io(e)
        }
    }
}

// --- CRC-32 (IEEE 802.3, reflected) ----------------------------------------------------

/// CRC-32 (IEEE) over `bytes`. Table-driven, std-only; shared by the snapshot format and
/// the ECO service's write-ahead journal records.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0, bytes)
}

/// Continue a CRC-32 across chunks: `crc32_update(crc32(a), b) == crc32(a ++ b)`.
pub fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        table
    });
    let mut c = !crc;
    for &b in bytes {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// --- body encoding ---------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn write_body(design: &Design) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + design.cells.len() * 58);
    let name = design.name.as_bytes();
    put_u32(&mut out, name.len() as u32);
    out.extend_from_slice(name);
    put_i64(&mut out, design.num_sites_x);
    put_i64(&mut out, design.num_rows);
    put_f64(&mut out, design.site_width);
    put_f64(&mut out, design.row_height);
    out.push(match design.base_rail {
        Rail::Vdd => 0,
        Rail::Vss => 1,
    });
    put_u64(&mut out, design.blockages.len() as u64);
    for b in &design.blockages {
        put_i64(&mut out, b.x_lo);
        put_i64(&mut out, b.y_lo);
        put_i64(&mut out, b.x_hi);
        put_i64(&mut out, b.y_hi);
    }
    put_u64(&mut out, design.cells.len() as u64);
    for c in &design.cells {
        put_i64(&mut out, c.width);
        put_i64(&mut out, c.height);
        put_f64(&mut out, c.gx);
        put_f64(&mut out, c.gy);
        put_i64(&mut out, c.x);
        put_i64(&mut out, c.y);
        out.push(u8::from(c.fixed) | (u8::from(c.legalized) << 1));
        out.push(c.row_parity.unwrap_or(0xFF));
    }
    out
}

/// Write `design` as one checksummed snapshot. The caller decides durability (flush,
/// fsync, atomic rename) — this emits bytes only.
pub fn write_design(w: &mut impl Write, design: &Design) -> std::io::Result<()> {
    let body = write_body(design);
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&(body.len() as u64).to_le_bytes())?;
    w.write_all(&crc32(&body).to_le_bytes())?;
    w.write_all(&body)
}

// --- body decoding ---------------------------------------------------------------------

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| SnapshotError::Corrupt("body field past end of body".to_string()))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }
}

/// Read one snapshot back into a [`Design`]. Every field round-trips bit-exactly through
/// [`write_design`]; any truncation or corruption is a typed error, never a panic or a
/// half-populated design.
pub fn read_design(r: &mut impl Read) -> Result<Design, SnapshotError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(SnapshotError::Corrupt("bad magic".to_string()));
    }
    let mut word = [0u8; 4];
    r.read_exact(&mut word)?;
    let version = u32::from_le_bytes(word);
    if version != VERSION {
        return Err(SnapshotError::Corrupt(format!(
            "unsupported snapshot version {version}"
        )));
    }
    let mut len8 = [0u8; 8];
    r.read_exact(&mut len8)?;
    let body_len = u64::from_le_bytes(len8);
    // a garbage header must not drive an unbounded allocation: 64 bytes/cell at the
    // 10M-cell roadmap ceiling is ~640 MB, so cap at 1 GiB
    if body_len > 1 << 30 {
        return Err(SnapshotError::Corrupt(format!(
            "implausible body length {body_len}"
        )));
    }
    r.read_exact(&mut word)?;
    let expect_crc = u32::from_le_bytes(word);
    let mut body = vec![0u8; body_len as usize];
    r.read_exact(&mut body)?;
    let got_crc = crc32(&body);
    if got_crc != expect_crc {
        return Err(SnapshotError::Corrupt(format!(
            "body CRC mismatch (stored {expect_crc:#010x}, computed {got_crc:#010x})"
        )));
    }

    let mut cur = Cursor {
        bytes: &body,
        pos: 0,
    };
    let name_len = cur.u32()? as usize;
    let name = std::str::from_utf8(cur.take(name_len)?)
        .map_err(|e| SnapshotError::Corrupt(format!("design name not UTF-8: {e}")))?
        .to_string();
    let mut design = Design::new(name, 0, 0);
    design.num_sites_x = cur.i64()?;
    design.num_rows = cur.i64()?;
    design.site_width = cur.f64()?;
    design.row_height = cur.f64()?;
    design.base_rail = match cur.u8()? {
        0 => Rail::Vdd,
        1 => Rail::Vss,
        other => return Err(SnapshotError::Corrupt(format!("bad rail tag {other}"))),
    };
    let num_blockages = cur.u64()? as usize;
    for _ in 0..num_blockages {
        let (x_lo, y_lo, x_hi, y_hi) = (cur.i64()?, cur.i64()?, cur.i64()?, cur.i64()?);
        design.add_blockage(Rect::new(x_lo, y_lo, x_hi, y_hi));
    }
    let num_cells = cur.u64()? as usize;
    for _ in 0..num_cells {
        let (width, height) = (cur.i64()?, cur.i64()?);
        let (gx, gy) = (cur.f64()?, cur.f64()?);
        let (x, y) = (cur.i64()?, cur.i64()?);
        let flags = cur.u8()?;
        let parity = cur.u8()?;
        let mut c = Cell::movable(CellId(0), width, height, gx, gy);
        c.x = x;
        c.y = y;
        c.fixed = flags & 1 != 0;
        c.legalized = flags & 2 != 0;
        c.row_parity = if parity == 0xFF { None } else { Some(parity) };
        design.add_cell(c);
    }
    if cur.pos != body.len() {
        return Err(SnapshotError::Corrupt(format!(
            "{} trailing body bytes",
            body.len() - cur.pos
        )));
    }
    Ok(design)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark::{generate, BenchmarkSpec};

    fn sample() -> Design {
        let mut d = generate(&BenchmarkSpec::tiny("snap", 3));
        // exercise the odd corners: a tombstone-like zero cell, NaN/huge desired coords
        let id = d.add_cell(Cell::movable(CellId(0), 3, 2, f64::NAN, -1e300));
        d.cell_mut(id).legalized = true;
        let t = d.add_cell(Cell::movable(CellId(0), 1, 1, 0.5, 0.5));
        let t = d.cell_mut(t);
        t.width = 0;
        t.height = 0;
        t.fixed = true;
        d
    }

    fn roundtrip(d: &Design) -> Design {
        let mut buf = Vec::new();
        write_design(&mut buf, d).unwrap();
        read_design(&mut std::io::Cursor::new(buf)).unwrap()
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let d = sample();
        let back = roundtrip(&d);
        assert_eq!(back.name, d.name);
        assert_eq!(back.num_sites_x, d.num_sites_x);
        assert_eq!(back.num_rows, d.num_rows);
        assert_eq!(back.site_width.to_bits(), d.site_width.to_bits());
        assert_eq!(back.base_rail, d.base_rail);
        assert_eq!(back.blockages, d.blockages);
        assert_eq!(back.cells.len(), d.cells.len());
        for (a, b) in back.cells.iter().zip(d.cells.iter()) {
            assert_eq!(a.id, b.id);
            assert_eq!((a.width, a.height, a.x, a.y), (b.width, b.height, b.x, b.y));
            assert_eq!(a.gx.to_bits(), b.gx.to_bits(), "gx bits for {}", a.id);
            assert_eq!(a.gy.to_bits(), b.gy.to_bits(), "gy bits for {}", a.id);
            assert_eq!(
                (a.fixed, a.legalized, a.row_parity),
                (b.fixed, b.legalized, b.row_parity)
            );
        }
    }

    #[test]
    fn every_truncation_is_detected() {
        let mut buf = Vec::new();
        write_design(&mut buf, &sample()).unwrap();
        // chop the file at a spread of offsets, including the header
        for cut in (0..buf.len()).step_by(7).chain([buf.len() - 1]) {
            let err = read_design(&mut std::io::Cursor::new(&buf[..cut]))
                .expect_err("truncated snapshot must not load");
            assert!(
                matches!(err, SnapshotError::Corrupt(_)),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn every_single_byte_flip_is_detected_or_roundtrips_nowhere() {
        let mut buf = Vec::new();
        write_design(&mut buf, &sample()).unwrap();
        let reference = roundtrip(&sample());
        for i in (0..buf.len()).step_by(11) {
            let mut evil = buf.clone();
            evil[i] ^= 0x40;
            if let Ok(d) = read_design(&mut std::io::Cursor::new(evil)) {
                // flips in `body_len` can only shorten the read → CRC catches it; a load
                // that *succeeds* must never silently differ from the original
                assert_eq!(d.cells.len(), reference.cells.len());
                panic!("byte flip at {i} went undetected");
            }
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // standard IEEE test vector
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_update(crc32(b"1234"), b"56789"), 0xCBF4_3926);
    }
}
