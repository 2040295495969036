//! What one benchmark run produces: named metrics with units, correctness gates, counts,
//! and the run metadata that lets a noisy run be recognised.

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// One correctness check. A failed gate makes the run incorrect and the process exit
/// non-zero.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    pub name: &'static str,
    pub passed: bool,
    pub detail: String,
}

/// Everything one run measured.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// End-to-end metrics (reported by untraced runs).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (reported by traced runs).
    pub per_layer: Vec<Metric>,
    pub gates: Vec<Gate>,
    /// Operations attempted: cells legalized plus deltas sent.
    pub attempted: u64,
    /// Operations failed: cells left unplaced, deltas failed or refused.
    pub failed: u64,
    /// Free-form run metadata, printed beside the result.
    pub meta: Vec<(String, String)>,
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Record a check. A gate checked more than once (once per round) is kept once: it
    /// passes only if every check passed, and keeps the detail of the first failure.
    pub fn gate(&mut self, name: &'static str, passed: bool, detail: impl Into<String>) {
        match self.gates.iter_mut().find(|g| g.name == name) {
            Some(g) if g.passed && !passed => {
                g.passed = false;
                g.detail = detail.into();
            }
            Some(_) => {}
            None => self.gates.push(Gate {
                name,
                passed,
                detail: detail.into(),
            }),
        }
    }

    pub fn meta(&mut self, key: &str, value: impl ToString) {
        self.meta.push((key.to_string(), value.to_string()));
    }

    pub fn correct(&self) -> bool {
        self.gates.iter().all(|g| g.passed)
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics of the requested
    /// kind. A failed gate counts as one more failed operation.
    pub fn result_json(&self, traced: bool) -> String {
        let metrics = if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let body: Vec<String> = metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(&m.name),
                    number(m.value),
                    quote(m.unit)
                )
            })
            .collect();
        let gate_failures = self.gates.iter().filter(|g| !g.passed).count() as u64;
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed + gate_failures,
            body.join(", ")
        )
    }

    /// The metadata line printed before the result.
    pub fn meta_json(&self) -> String {
        let fields: Vec<String> = self
            .meta
            .iter()
            .map(|(k, v)| format!("{}: {}", quote(k), quote(v)))
            .chain(self.gates.iter().map(|g| {
                let verdict = if g.passed { "pass" } else { "FAIL" };
                format!(
                    "{}: {}",
                    quote(&format!("gate.{}", g.name)),
                    quote(&format!("{verdict} {}", g.detail))
                )
            }))
            .collect();
        format!("{{\"meta\": {{{}}}}}", fields.join(", "))
    }
}

/// A JSON number; non-finite values become `null`, which the self-test rejects.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
