//! The `lint.toml` suppression baseline.
//!
//! The workspace cannot take a TOML dependency (the analyzer must stay
//! dependency-free), so this module parses the small subset we actually use:
//!
//! ```toml
//! # Per-rule policy: paths where the rule simply does not apply.
//! [rules.BX020]
//! allow_paths = ["xtask/src"]
//!
//! # Point suppressions: every entry must carry a justification and must
//! # still match at least one finding, or the gate errors (stale baseline).
//! [[allow]]
//! rule = "BX001"
//! path = "xtask/src/analyze/semantic.rs"
//! contains = "pager.write(victim"
//! justification = "deliberate corruption injection"
//! ```
//!
//! `allow_paths` entries are prefix matches on workspace-relative paths and
//! are *policy* — they are not stale-checked. `[[allow]]` entries suppress a
//! single rule in a single file (optionally narrowed to lines whose text
//! contains `contains`) and *are* stale-checked.
//!
//! A `[limits]` table caps the baseline itself:
//!
//! ```toml
//! [limits]
//! max_baselined = 212   # gate fails if the baselined total exceeds this
//! ```
//!
//! The baselined total is the `[[allow]]`ed findings plus the `#[expect]`ed
//! library sites of the budgeted clippy lints (see
//! [`check_budget`](crate::check_budget)).

use std::collections::BTreeMap;

/// One `[[allow]]` suppression entry.
#[derive(Clone, Debug)]
pub struct AllowEntry {
    /// Rule ID, e.g. `BX020`.
    pub rule: String,
    /// Workspace-relative file path the suppression applies to.
    pub path: String,
    /// Optional substring the offending source line must contain.
    pub contains: Option<String>,
    /// Why this finding is acceptable. Mandatory.
    pub justification: String,
    /// Line in `lint.toml` where the entry starts (for error reporting).
    pub line_no: usize,
}

/// Parsed `lint.toml`.
#[derive(Clone, Debug, Default)]
pub struct Config {
    /// `[rules.BXnnn] allow_paths` — path prefixes where the rule is off.
    pub rule_allow_paths: BTreeMap<String, Vec<String>>,
    /// All `[[allow]]` point suppressions.
    pub allows: Vec<AllowEntry>,
    /// `[limits] max_baselined` — hard ceiling on the baselined total.
    /// `None` means uncapped.
    pub max_baselined: Option<usize>,
}

/// A malformed `lint.toml`.
#[derive(Debug)]
pub struct ConfigError {
    /// 1-based line the error was detected on.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lint.toml:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for ConfigError {}

enum Section {
    None,
    Rule(String),
    Allow(usize),
    Limits,
}

impl Config {
    /// Parse the configuration text.
    pub fn parse(text: &str) -> Result<Config, ConfigError> {
        let mut cfg = Config::default();
        let mut section = Section::None;
        for (line_no, line) in logical_lines(text) {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(inner) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
                match inner.trim() {
                    "allow" => {
                        cfg.allows.push(AllowEntry {
                            rule: String::new(),
                            path: String::new(),
                            contains: None,
                            justification: String::new(),
                            line_no,
                        });
                        section = Section::Allow(cfg.allows.len() - 1);
                    }
                    other => {
                        return Err(ConfigError {
                            line: line_no,
                            message: format!("unknown array table [[{other}]]"),
                        });
                    }
                }
                continue;
            }
            if let Some(inner) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                let inner = inner.trim();
                if let Some(rule) = inner.strip_prefix("rules.") {
                    section = Section::Rule(rule.trim().to_string());
                } else if inner == "limits" {
                    section = Section::Limits;
                } else {
                    return Err(ConfigError {
                        line: line_no,
                        message: format!("unknown table [{inner}]"),
                    });
                }
                continue;
            }
            let Some(eq) = line.find('=') else {
                return Err(ConfigError {
                    line: line_no,
                    message: format!("expected `key = value`, got `{line}`"),
                });
            };
            let key = line[..eq].trim();
            let value = line[eq + 1..].trim();
            match &section {
                Section::None => {
                    return Err(ConfigError {
                        line: line_no,
                        message: format!("key `{key}` outside any table"),
                    });
                }
                Section::Rule(rule) => {
                    if key != "allow_paths" {
                        return Err(ConfigError {
                            line: line_no,
                            message: format!("unknown key `{key}` in [rules.{rule}]"),
                        });
                    }
                    let paths = parse_string_array(value).ok_or_else(|| ConfigError {
                        line: line_no,
                        message: "allow_paths must be an array of strings".to_string(),
                    })?;
                    cfg.rule_allow_paths
                        .entry(rule.clone())
                        .or_default()
                        .extend(paths);
                }
                Section::Limits => {
                    if key != "max_baselined" {
                        return Err(ConfigError {
                            line: line_no,
                            message: format!("unknown key `{key}` in [limits]"),
                        });
                    }
                    let n: usize = value.parse().map_err(|_| ConfigError {
                        line: line_no,
                        message: "max_baselined must be an integer".to_string(),
                    })?;
                    cfg.max_baselined = Some(n);
                }
                Section::Allow(i) => {
                    let s = parse_string(value).ok_or_else(|| ConfigError {
                        line: line_no,
                        message: format!("`{key}` must be a quoted string"),
                    })?;
                    let Some(entry) = cfg.allows.get_mut(*i) else {
                        continue;
                    };
                    match key {
                        "rule" => entry.rule = s,
                        "path" => entry.path = s,
                        "contains" => entry.contains = Some(s),
                        "justification" => entry.justification = s,
                        _ => {
                            return Err(ConfigError {
                                line: line_no,
                                message: format!("unknown key `{key}` in [[allow]]"),
                            });
                        }
                    }
                }
            }
        }
        for entry in &cfg.allows {
            if entry.rule.is_empty() || entry.path.is_empty() {
                return Err(ConfigError {
                    line: entry.line_no,
                    message: "[[allow]] entry needs both `rule` and `path`".to_string(),
                });
            }
            if entry.justification.trim().is_empty() {
                return Err(ConfigError {
                    line: entry.line_no,
                    message: format!(
                        "[[allow]] for {} in {} has no justification — every \
                         suppression must say why",
                        entry.rule, entry.path
                    ),
                });
            }
        }
        Ok(cfg)
    }

    /// Is `path` covered by a rule's `allow_paths` policy?
    pub fn rule_allows_path(&self, rule: &str, path: &str) -> bool {
        self.rule_allow_paths
            .get(rule)
            .is_some_and(|prefixes| prefixes.iter().any(|p| path.starts_with(p.as_str())))
    }
}

/// Join physical lines into logical ones: a line whose `[` arrays are still
/// open continues onto the next line, so multi-line `allow_paths` arrays
/// parse naturally. Returns `(first_line_no, joined_text)` pairs.
fn logical_lines(text: &str) -> Vec<(usize, String)> {
    let mut out: Vec<(usize, String)> = Vec::new();
    let mut pending: Option<(usize, String, i32)> = None;
    for (idx, raw_line) in text.lines().enumerate() {
        let stripped = strip_comment(raw_line);
        let delta = bracket_delta(stripped);
        match pending.take() {
            Some((start, mut acc, depth)) => {
                acc.push(' ');
                acc.push_str(stripped.trim());
                if depth + delta > 0 {
                    pending = Some((start, acc, depth + delta));
                } else {
                    out.push((start, acc));
                }
            }
            None => {
                if delta > 0 {
                    pending = Some((idx + 1, stripped.trim().to_string(), delta));
                } else {
                    out.push((idx + 1, stripped.to_string()));
                }
            }
        }
    }
    if let Some((start, acc, _)) = pending {
        out.push((start, acc)); // unbalanced; let the parser report it
    }
    out
}

/// Net `[`-minus-`]` count outside of quoted strings. Table headers like
/// `[rules.BX001]` are balanced and contribute zero.
fn bracket_delta(line: &str) -> i32 {
    let mut depth = 0i32;
    let mut in_str = false;
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => in_str = !in_str,
            b'\\' if in_str => i += 1,
            b'[' if !in_str => depth += 1,
            b']' if !in_str => depth -= 1,
            _ => {}
        }
        i += 1;
    }
    depth
}

fn strip_comment(line: &str) -> &str {
    // A `#` outside of quotes starts a comment.
    let mut in_str = false;
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => in_str = !in_str,
            b'\\' if in_str => i += 1,
            b'#' if !in_str => return &line[..i],
            _ => {}
        }
        i += 1;
    }
    line
}

fn parse_string(value: &str) -> Option<String> {
    let inner = value.strip_prefix('"')?.strip_suffix('"')?;
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next()? {
                'n' => out.push('\n'),
                't' => out.push('\t'),
                '\\' => out.push('\\'),
                '"' => out.push('"'),
                other => {
                    out.push('\\');
                    out.push(other);
                }
            }
        } else {
            out.push(c);
        }
    }
    Some(out)
}

fn parse_string_array(value: &str) -> Option<Vec<String>> {
    let inner = value.strip_prefix('[')?.strip_suffix(']')?.trim();
    if inner.is_empty() {
        return Some(Vec::new());
    }
    inner
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(parse_string)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_rules_and_allows() {
        let text = r#"
# policy
[rules.BX020]
allow_paths = ["xtask/src", "crates/bench/src"]

[[allow]]
rule = "BX020"
path = "crates/pager/src/lib.rs"
contains = "let _ = f.write_torn"
justification = "corruption injection: both outcomes are acceptable"
"#;
        let cfg = Config::parse(text).expect("valid config");
        assert!(cfg.rule_allows_path("BX020", "xtask/src/main.rs"));
        assert!(!cfg.rule_allows_path("BX020", "crates/pager/src/lib.rs"));
        assert_eq!(cfg.allows.len(), 1);
        assert_eq!(
            cfg.allows[0].contains.as_deref(),
            Some("let _ = f.write_torn")
        );
    }

    #[test]
    fn missing_justification_is_an_error() {
        let text = "[[allow]]\nrule = \"BX001\"\npath = \"crates/x/src/lib.rs\"\n";
        let err = Config::parse(text).expect_err("must reject");
        assert!(err.message.contains("justification"));
    }

    #[test]
    fn unknown_tables_are_errors() {
        assert!(Config::parse("[surprise]\n").is_err());
        assert!(Config::parse("[[deny]]\n").is_err());
    }

    #[test]
    fn multi_line_arrays() {
        let text = "[rules.BX001]\nallow_paths = [\n  \"crates/pager/src\", # io\n  \"crates/lidf/src\",\n]\n";
        let cfg = Config::parse(text).expect("valid");
        assert_eq!(cfg.rule_allow_paths["BX001"].len(), 2);
    }

    #[test]
    fn limits_table_parses() {
        let cfg = Config::parse("[limits]\nmax_baselined = 212\n").expect("valid");
        assert_eq!(cfg.max_baselined, Some(212));
        assert!(Config::parse("[limits]\nmax_baselined = \"lots\"\n").is_err());
        assert!(Config::parse("[limits]\nother = 1\n").is_err());
    }

    #[test]
    fn comments_and_escapes() {
        let text = "[rules.BX020] # io\nallow_paths = [\"a#b\"] # trailing\n";
        let cfg = Config::parse(text).expect("valid");
        assert_eq!(cfg.rule_allow_paths["BX020"], vec!["a#b".to_string()]);
    }
}
