//! Diagnostics and the human/JSON renderers.

/// One lint finding.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Stable rule ID, e.g. `BX001`.
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// What the rule objects to.
    pub message: String,
    /// The trimmed source line, for baseline `contains` matching and display.
    pub snippet: String,
}

impl Diagnostic {
    /// Render as `path:line:col: [RULE] message`.
    pub fn human(&self) -> String {
        format!(
            "{}:{}:{}: [{}] {}\n    {}",
            self.path, self.line, self.col, self.rule, self.message, self.snippet
        )
    }
}

/// Outcome of linting the workspace and applying the baseline.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Findings not covered by any suppression — these fail the gate.
    pub unsuppressed: Vec<Diagnostic>,
    /// Findings matched by an `[[allow]]` entry.
    pub suppressed: Vec<Diagnostic>,
    /// `lint.toml` lines of `[[allow]]` entries that matched nothing.
    pub stale_allows: Vec<String>,
    /// Library sites of the budgeted clippy lints that `#[expect]`
    /// attributes cover (set by [`check_budget`](crate::check_budget)).
    pub expected_sites: usize,
    /// Baseline-budget violations: the baselined total exceeded
    /// `[limits] max_baselined` — the baseline may only shrink.
    pub budget_violations: Vec<String>,
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Wall-clock milliseconds the lint pass took (set by the driver;
    /// zero when unmeasured).
    pub lint_pass_ms: u128,
    /// The lock-order graph of the linted workspace as JSON
    /// (`target/lock-order.json`); empty for single-file lints.
    pub lock_order: String,
}

impl Outcome {
    /// Did the gate pass?
    pub fn is_clean(&self) -> bool {
        self.unsuppressed.is_empty()
            && self.stale_allows.is_empty()
            && self.budget_violations.is_empty()
    }

    /// The JSON report (pretty-printed, stable key order).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        push_kv_num(&mut out, 1, "files_scanned", self.files_scanned, true);
        out.push_str(&format!("  \"lint_pass_ms\": {},\n", self.lint_pass_ms));
        push_kv_num(
            &mut out,
            1,
            "unsuppressed_count",
            self.unsuppressed.len(),
            true,
        );
        push_kv_num(&mut out, 1, "suppressed_count", self.suppressed.len(), true);
        push_kv_num(&mut out, 1, "expected_sites", self.expected_sites, true);
        out.push_str("  \"budget_violations\": [");
        for (i, s) in self.budget_violations.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_string(s));
        }
        out.push_str("],\n");
        out.push_str("  \"stale_allows\": [");
        for (i, s) in self.stale_allows.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_string(s));
        }
        out.push_str("],\n");
        push_diag_array(&mut out, "unsuppressed", &self.unsuppressed, true);
        push_diag_array(&mut out, "suppressed", &self.suppressed, false);
        out.push_str("}\n");
        out
    }
}

fn push_kv_num(out: &mut String, indent: usize, key: &str, value: usize, comma: bool) {
    for _ in 0..indent {
        out.push_str("  ");
    }
    out.push_str(&format!(
        "\"{}\": {}{}\n",
        key,
        value,
        if comma { "," } else { "" }
    ));
}

fn push_diag_array(out: &mut String, key: &str, diags: &[Diagnostic], comma: bool) {
    out.push_str(&format!("  \"{key}\": [\n"));
    for (i, d) in diags.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!("\"rule\": {}, ", json_string(d.rule)));
        out.push_str(&format!("\"path\": {}, ", json_string(&d.path)));
        out.push_str(&format!("\"line\": {}, ", d.line));
        out.push_str(&format!("\"col\": {}, ", d.col));
        out.push_str(&format!("\"message\": {}, ", json_string(&d.message)));
        out.push_str(&format!("\"snippet\": {}", json_string(&d.snippet)));
        out.push('}');
        if i + 1 < diags.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str(&format!("  ]{}\n", if comma { "," } else { "" }));
}

pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_structure() {
        let outcome = Outcome {
            unsuppressed: vec![Diagnostic {
                rule: "BX020",
                path: "crates/x/src/lib.rs".to_string(),
                line: 3,
                col: 7,
                message: "raw write in \"library\" code".to_string(),
                snippet: "file.write_all(&b)?;".to_string(),
            }],
            suppressed: Vec::new(),
            stale_allows: vec!["lint.toml:12".to_string()],
            files_scanned: 42,
            ..Outcome::default()
        };
        let json = outcome.to_json();
        assert!(json.contains("\"files_scanned\": 42"));
        assert!(json.contains("\\\"library\\\""));
        assert!(json.contains("lint.toml:12"));
        assert!(!outcome.is_clean());
    }
}
