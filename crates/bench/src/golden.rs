//! Golden-stats snapshots: Table-1-style quality numbers pinned against committed JSON.
//!
//! The benchmark generators and the legalizers are deterministic (seeded SplitMix64 streams,
//! pure integer/float arithmetic), so the quality stats of a named case are reproducible
//! bit-for-bit across runs and machines. The differential tests in
//! `crates/bench/tests/golden_table1.rs` legalize two tiny ICCAD-2017 synthetic cases and
//! compare against the JSON files committed under `crates/bench/tests/golden/`; set
//! `FLEX_BLESS=1` to regenerate the files after an intentional algorithm change.
//!
//! The JSON codec is hand-rolled (flat objects, no escapes needed for the keys used) because
//! the workspace builds offline without `serde`.

use flex_mgl::api::LegalizeReport;

/// Quality statistics of one legalization run, excluding anything wall-clock dependent.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenStats {
    /// Case name.
    pub case: String,
    /// Number of movable cells legalized.
    pub cells: usize,
    /// Whether the placement passed the full legality check.
    pub legal: bool,
    /// Average displacement `S_am`.
    pub s_am: f64,
    /// Maximum single-cell displacement.
    pub max_displacement: f64,
    /// Cells committed through FOP inside a localRegion.
    pub placed_in_region: usize,
    /// Cells placed by the fallback scan.
    pub fallback_placed: usize,
}

impl GoldenStats {
    /// Capture the stats of a unified-API [`LegalizeReport`].
    pub fn capture_report(case: &str, report: &LegalizeReport) -> Self {
        Self {
            case: case.to_string(),
            cells: report.cells,
            legal: report.legal,
            s_am: report.displacement.average,
            max_displacement: report.displacement.max,
            placed_in_region: report.placed_in_region,
            fallback_placed: report.fallback_placed,
        }
    }

    /// Serialize to the committed JSON format (full `f64` round-trip precision).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"case\": \"{}\",\n  \"cells\": {},\n  \"legal\": {},\n  \"s_am\": {:?},\n  \"max_displacement\": {:?},\n  \"placed_in_region\": {},\n  \"fallback_placed\": {}\n}}\n",
            self.case,
            self.cells,
            self.legal,
            self.s_am,
            self.max_displacement,
            self.placed_in_region,
            self.fallback_placed,
        )
    }

    /// Parse the JSON produced by [`GoldenStats::to_json`].
    pub fn from_json(text: &str) -> Result<Self, String> {
        fn field<'a>(text: &'a str, key: &str) -> Result<&'a str, String> {
            let pat = format!("\"{key}\":");
            let start = text
                .find(&pat)
                .ok_or_else(|| format!("missing field {key}"))?
                + pat.len();
            let rest = text[start..].trim_start();
            let end = rest
                .find([',', '\n', '}'])
                .ok_or_else(|| format!("unterminated field {key}"))?;
            Ok(rest[..end].trim())
        }
        let string_field = |key: &str| -> Result<String, String> {
            Ok(field(text, key)?.trim_matches('"').to_string())
        };
        let usize_field = |key: &str| -> Result<usize, String> {
            field(text, key)?.parse().map_err(|e| format!("{key}: {e}"))
        };
        let f64_field = |key: &str| -> Result<f64, String> {
            field(text, key)?.parse().map_err(|e| format!("{key}: {e}"))
        };
        Ok(Self {
            case: string_field("case")?,
            cells: usize_field("cells")?,
            legal: field(text, "legal")? == "true",
            s_am: f64_field("s_am")?,
            max_displacement: f64_field("max_displacement")?,
            placed_in_region: usize_field("placed_in_region")?,
            fallback_placed: usize_field("fallback_placed")?,
        })
    }

    /// Compare against a golden snapshot. Counts must match exactly; the float stats must
    /// agree within `tol` (1e-9 in the tests — they are bit-identical in practice, the
    /// tolerance only guards against a future platform with different float formatting).
    pub fn matches(&self, golden: &Self, tol: f64) -> Result<(), String> {
        if self.case != golden.case {
            return Err(format!("case: {} vs {}", self.case, golden.case));
        }
        if self.cells != golden.cells {
            return Err(format!("cells: {} vs {}", self.cells, golden.cells));
        }
        if self.legal != golden.legal {
            return Err(format!("legal: {} vs {}", self.legal, golden.legal));
        }
        if self.placed_in_region != golden.placed_in_region {
            return Err(format!(
                "placed_in_region: {} vs {}",
                self.placed_in_region, golden.placed_in_region
            ));
        }
        if self.fallback_placed != golden.fallback_placed {
            return Err(format!(
                "fallback_placed: {} vs {}",
                self.fallback_placed, golden.fallback_placed
            ));
        }
        if (self.s_am - golden.s_am).abs() > tol {
            return Err(format!("s_am: {:?} vs {:?}", self.s_am, golden.s_am));
        }
        if (self.max_displacement - golden.max_displacement).abs() > tol {
            return Err(format!(
                "max_displacement: {:?} vs {:?}",
                self.max_displacement, golden.max_displacement
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GoldenStats {
        GoldenStats {
            case: "unit".to_string(),
            cells: 123,
            legal: true,
            s_am: 4.567890123456789,
            max_displacement: 21.5,
            placed_in_region: 120,
            fallback_placed: 3,
        }
    }

    #[test]
    fn json_roundtrips_exactly() {
        let s = sample();
        let back = GoldenStats::from_json(&s.to_json()).unwrap();
        assert_eq!(s, back);
        assert!(s.matches(&back, 0.0).is_ok());
    }

    #[test]
    fn mismatches_are_reported() {
        let s = sample();
        let mut other = sample();
        other.fallback_placed = 4;
        assert!(s
            .matches(&other, 1e-9)
            .unwrap_err()
            .contains("fallback_placed"));
        let mut drift = sample();
        drift.s_am += 1e-3;
        assert!(s.matches(&drift, 1e-9).unwrap_err().contains("s_am"));
        assert!(s.matches(&drift, 1.0).is_ok());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(GoldenStats::from_json("{}").is_err());
    }
}
