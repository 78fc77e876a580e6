//! The printed report: one row per metric with its unit and sample note,
//! free-text lines, and the closing JSON object.

/// One measured value.
struct Row {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
    /// Whether the value goes into the closing JSON object.
    in_json: bool,
}

/// Everything one invocation prints.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    rows: Vec<Row>,
    lines: Vec<String>,
}

impl Report {
    /// A report of a correct run until a check says otherwise.
    pub fn new(attempted: u64, failed: u64) -> Self {
        Self {
            correct: true,
            attempted,
            failed,
            rows: Vec::new(),
            lines: Vec::new(),
        }
    }

    /// Adds a metric that the closing JSON object carries.
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        self.push(name.into(), value, unit, note.into(), true);
    }

    /// Adds a metric that is printed but not part of the JSON object.
    pub fn extra(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        self.push(name.into(), value, unit, note.into(), false);
    }

    fn push(&mut self, name: String, value: f64, unit: &'static str, note: String, in_json: bool) {
        self.rows.push(Row {
            name,
            value,
            unit,
            note,
            in_json,
        });
    }

    /// Adds a free-text line printed after the metric rows.
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Value of a metric added earlier.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.rows.iter().find(|r| r.name == name).map(|r| r.value)
    }

    /// The human-readable table followed by the JSON line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.rows {
            out.push_str(&format!(
                "  {:<34} {:>14.4} {:<6} {}{}\n",
                r.name,
                r.value,
                r.unit,
                r.note,
                if r.in_json { "" } else { " [not gated]" }
            ));
        }
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        out.push_str(&self.json());
        out
    }

    /// The closing JSON object: `correct`, `attempted`, `failed` and every
    /// gated metric with its unit.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .rows
            .iter()
            .filter(|r| r.in_json)
            .map(|r| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    r.name,
                    json_number(r.value),
                    r.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit of `v`; JSON has no infinity or NaN, so
/// those become the largest finite double.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        format!("{:?}", f64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_carries_gated_metrics_only() {
        let mut r = Report::new(10, 1);
        r.metric("p50_ms", 1.25, "ms", "n=9");
        r.extra("error_ratio", 0.1, "ratio", "");
        let json = r.json();
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        assert!(r.render().ends_with(&json));
        assert!(r.render().contains("error_ratio"));
        assert_eq!(r.value("error_ratio"), Some(0.1));
    }

    #[test]
    fn non_finite_values_stay_valid_json() {
        assert_eq!(json_number(2.0), "2.0");
        assert_eq!(json_number(f64::INFINITY), format!("{:?}", f64::MAX));
    }
}
