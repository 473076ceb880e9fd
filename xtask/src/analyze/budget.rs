//! The site budget's clippy half. Library code suppresses the budgeted
//! clippy lints with `#[expect]`, often one module-level attribute for many
//! sites, so the budget counts sites, not attributes: one extra
//! `cargo clippy --lib` pass over the library crates force-warns the
//! budgeted lints through every `#[expect]`, and each diagnostic it reports
//! outside `third_party/` costs one `[limits] max_baselined` slot.

use std::path::Path;
use std::process::Command;

/// The lints whose library sites count against `max_baselined`.
const BUDGETED: [&str; 5] = [
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::unreachable",
    "clippy::as_conversions",
];

/// Run the force-warn pass over `packages` and count the budgeted sites.
pub(crate) fn count_clippy_sites(root: &Path, packages: &[String]) -> Result<usize, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let mut cmd = Command::new(cargo);
    cmd.current_dir(root)
        .args(["clippy", "--lib", "--message-format=json"]);
    for p in packages {
        cmd.args(["-p", p]);
    }
    cmd.arg("--");
    for lint in BUDGETED {
        cmd.args(["--force-warn", lint]);
    }
    let out = cmd
        .output()
        .map_err(|e| format!("failed to spawn the budget clippy pass: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "the budget clippy pass failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(count_budget_sites(&String::from_utf8_lossy(&out.stdout)))
}

/// Count the budgeted-lint diagnostics in `cargo clippy
/// --message-format=json` output, one per diagnostic (two sites on one
/// line or at one position count twice), skipping vendored `third_party/`
/// code.
fn count_budget_sites(cargo_json: &str) -> usize {
    cargo_json
        .lines()
        .filter_map(Json::parse)
        .filter(|m| m.get("reason").and_then(Json::as_str) == Some("compiler-message"))
        .filter_map(|m| m.get("message").cloned())
        .filter(|msg| {
            let code = msg
                .get("code")
                .and_then(|c| c.get("code"))
                .and_then(Json::as_str);
            let file = msg
                .get("spans")
                .and_then(Json::as_array)
                .and_then(|spans| {
                    spans
                        .iter()
                        .find(|s| s.get("is_primary") == Some(&Json::Bool(true)))
                })
                .and_then(|s| s.get("file_name"))
                .and_then(Json::as_str);
            code.is_some_and(|c| BUDGETED.contains(&c))
                && file.is_some_and(|f| !f.starts_with("third_party/"))
        })
        .count()
}

/// Just enough JSON to read cargo's diagnostic messages.
#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num,
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one complete JSON document; `None` on malformed input.
    fn parse(text: &str) -> Option<Json> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        (p.i == p.s.len()).then_some(v)
    }

    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Option<()> {
        self.ws();
        (self.s.get(self.i) == Some(&b)).then(|| self.i += 1)
    }

    fn literal(&mut self, word: &str, v: Json) -> Option<Json> {
        let end = self.i + word.len();
        (self.s.get(self.i..end) == Some(word.as_bytes())).then(|| {
            self.i = end;
            v
        })
    }

    fn value(&mut self) -> Option<Json> {
        self.ws();
        match self.s.get(self.i)? {
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                if self.eat(b'}').is_some() {
                    return Some(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    if self.eat(b',').is_none() {
                        self.eat(b'}')?;
                        return Some(Json::Obj(fields));
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                if self.eat(b']').is_some() {
                    return Some(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    if self.eat(b',').is_none() {
                        self.eat(b']')?;
                        return Some(Json::Arr(items));
                    }
                }
            }
            b'"' => self.string().map(Json::Str),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
                {
                    self.i += 1;
                }
                (self.i > start).then_some(Json::Num)
            }
        }
    }

    fn string(&mut self) -> Option<String> {
        if self.s.get(self.i) != Some(&b'"') {
            return None;
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            let b = *self.s.get(self.i)?;
            self.i += 1;
            match b {
                b'"' => return String::from_utf8(out).ok(),
                b'\\' => {
                    let e = *self.s.get(self.i)?;
                    self.i += 1;
                    match e {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            // Diagnostic text may carry \u escapes; the
                            // counter never reads it, so keep a placeholder.
                            self.s.get(self.i..self.i + 4)?;
                            self.i += 4;
                            out.push(b'?');
                        }
                        other => out.push(other),
                    }
                }
                other => out.push(other),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One diagnostic as cargo prints it (keys sorted, notes as children
    /// with their own `code` and `spans`), trimmed to the fields that
    /// matter.
    fn diag(code: &str, file: &str, line: u32, col: u32) -> String {
        format!(
            "{{\"reason\":\"compiler-message\",\"package_id\":\"path+file:///w/crates/x#boxes-x@0.1.0\",\
             \"message\":{{\"rendered\":\"warning: used `expect()`\\n  --> {file}:{line}:{col}\\n\",\
             \"$message_type\":\"diagnostic\",\"children\":[{{\"children\":[],\"code\":null,\
             \"level\":\"note\",\"message\":\"requested on the command line with `--force-warn {code}`\",\
             \"rendered\":null,\"spans\":[]}}],\"level\":\"warning\",\"message\":\"used `expect()`\",\
             \"spans\":[{{\"byte_end\":10,\"byte_start\":1,\"column_end\":40,\"column_start\":{col},\
             \"expansion\":null,\"file_name\":\"{file}\",\"is_primary\":true,\"label\":null,\
             \"line_end\":{line},\"line_start\":{line},\"suggested_replacement\":null,\
             \"suggestion_applicability\":null,\"text\":[{{\"highlight_end\":40,\"highlight_start\":1,\
             \"text\":\"        .expect(\\\"codec: block underrun\\\")\"}}]}}],\
             \"code\":{{\"code\":\"{code}\",\"explanation\":null}}}}}}"
        )
    }

    #[test]
    fn counts_each_library_site_once() {
        let out = [
            "{\"reason\":\"compiler-artifact\",\"package_id\":\"x\",\"fresh\":true}".to_string(),
            // Both `expect`s in `codec.rs`'s `take` start at one position.
            diag("clippy::expect_used", "crates/pager/src/codec.rs", 235, 30),
            diag("clippy::expect_used", "crates/pager/src/codec.rs", 235, 30),
            diag("clippy::as_conversions", "crates/wbox/src/tree.rs", 12, 9),
            // Vendored code does not count.
            diag(
                "clippy::as_conversions",
                "third_party/rand/src/lib.rs",
                40,
                5,
            ),
            // Neither do lints outside the budget.
            diag("clippy::disallowed_types", "crates/pager/src/file.rs", 3, 5),
            "{\"reason\":\"build-finished\",\"success\":true}".to_string(),
        ]
        .join("\n");
        assert_eq!(count_budget_sites(&out), 3);
    }

    #[test]
    fn ignores_non_json_and_codeless_messages() {
        let codeless = diag("clippy::panic", "crates/x/src/lib.rs", 1, 1).replace(
            "\"code\":{\"code\":\"clippy::panic\",\"explanation\":null}",
            "\"code\":null",
        );
        let out = format!("not json\n{codeless}\n");
        assert_eq!(count_budget_sites(&out), 0);
    }
}
