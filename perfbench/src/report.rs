//! The result record: named metrics with units, the attempt/failure
//! accounting behind `success_share`, and the one-line JSON result.

use std::fmt::Write;

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// Operations attempted and how each failed one failed. Every attempt
/// that does not end in a correct, in-time answer is a failure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Accounting {
    pub attempted: u64,
    /// Answers whose output differs from the reference.
    pub wrong: u64,
    /// Requests refused by admission control (overload or tenant quota).
    pub shed: u64,
    /// Requests answered `DeadlineExceeded`.
    pub expired: u64,
    /// Any other typed error.
    pub errors: u64,
    /// Correct answers that arrived after the latency limit.
    pub late: u64,
    /// Service counter invariants found broken at the end of a phase.
    pub invariant_violations: u64,
}

impl Accounting {
    pub fn failed(&self) -> u64 {
        self.wrong + self.shed + self.expired + self.errors + self.late + self.invariant_violations
    }

    /// Share of attempts that failed; 0 for no attempts.
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.attempted as f64
        }
    }

    /// Wrong outputs and broken invariants make the whole run incorrect;
    /// sheds, expiries and late answers are service behaviour, counted
    /// but not a defect of the benchmark's outputs.
    pub fn correct(&self) -> bool {
        self.wrong == 0 && self.invariant_violations == 0
    }

    pub fn add(&mut self, o: &Accounting) {
        self.attempted += o.attempted;
        self.wrong += o.wrong;
        self.shed += o.shed;
        self.expired += o.expired;
        self.errors += o.errors;
        self.late += o.late;
        self.invariant_violations += o.invariant_violations;
    }
}

/// A JSON number with every digit Rust's shortest round-trip printer
/// gives; non-finite values are a bug in the caller.
pub fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value must be finite, got {v}");
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
pub fn result_line(acc: &Accounting, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                escape(&m.name),
                json_num(m.value),
                escape(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        acc.correct(),
        acc.attempted,
        acc.failed(),
        body.join(", ")
    )
}

/// A flat JSON object of string/number fields, for the provenance line.
pub fn json_object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> =
        fields.iter().map(|(k, v)| format!("\"{}\": {}", escape(k), v)).collect();
    format!("{{{}}}", body.join(", "))
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_of_failure_counts_against_attempts() {
        let acc = Accounting {
            attempted: 200,
            wrong: 1,
            shed: 2,
            expired: 3,
            errors: 4,
            late: 5,
            invariant_violations: 0,
        };
        assert_eq!(acc.failed(), 15);
        assert!((acc.failed_share() - 0.075).abs() < 1e-15);
        assert!(!acc.correct(), "a wrong output makes the run incorrect");
        let service_only = Accounting { wrong: 0, ..acc };
        assert!(service_only.correct(), "sheds and expiries are counted, not defects");
        let broken = Accounting { invariant_violations: 1, ..Accounting::default() };
        assert!(!broken.correct());
        assert_eq!(Accounting::default().failed_share(), 0.0);
        let mut sum = acc;
        sum.add(&acc);
        assert_eq!((sum.attempted, sum.failed()), (400, 30));
    }

    #[test]
    fn result_line_has_the_four_keys_and_full_digits() {
        let acc = Accounting { attempted: 3, ..Accounting::default() };
        let line = result_line(
            &acc,
            &[
                Metric { name: "latency_p50_ms".into(), unit: "ms", value: 1.2034567 },
                Metric { name: "setup_s".into(), unit: "s", value: 2.0 },
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"latency_p50_ms\": \
             {\"value\": 1.2034567, \"unit\": \"ms\"}, \"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
    }
}
