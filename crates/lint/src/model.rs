//! Lightweight source model over the token stream.
//!
//! Rules do not get an AST — they get a [`SourceFile`]: the full token
//! stream, a *significant* (comment-free) view of it, bracket matching,
//! a per-token test-code mask (`#[cfg(test)]` / `#[test]` regions), and an
//! item-level mask that says which tokens sit at item-declaration level
//! (module, impl, trait or type bodies — not function bodies). That is
//! enough to express every BX rule precisely without type information.

use crate::lexer::{lex, Token, TokenKind};

/// A lexed source file plus the derived structure the rules consume.
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// The raw source text.
    pub text: String,
    /// Every token, comments included.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of the significant (non-comment) tokens.
    pub sig: Vec<usize>,
    /// Per significant token: does it sit inside test-only code?
    pub in_test: Vec<bool>,
    /// Per significant token: matching closer for `(`/`[`/`{`.
    pub close_of: Vec<Option<usize>>,
    /// Per significant token: matching opener for `)`/`]`/`}`.
    pub open_of: Vec<Option<usize>>,
    /// Per significant token: does it sit at item-declaration level?
    pub item_level: Vec<bool>,
    /// Byte offset of each line start (line `n` is `line_starts[n-1]`).
    line_starts: Vec<usize>,
}

impl SourceFile {
    /// Lex and analyze one source file.
    pub fn parse(path: impl Into<String>, text: impl Into<String>) -> SourceFile {
        let path = path.into();
        let text = text.into();
        let tokens = lex(&text);
        let sig: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
            .map(|(i, _)| i)
            .collect();
        let mut file = SourceFile {
            path,
            text,
            tokens,
            in_test: vec![false; sig.len()],
            close_of: vec![None; sig.len()],
            open_of: vec![None; sig.len()],
            item_level: vec![false; sig.len()],
            line_starts: Vec::new(),
            sig,
        };
        file.line_starts = std::iter::once(0)
            .chain(
                file.text
                    .bytes()
                    .enumerate()
                    .filter(|(_, b)| *b == b'\n')
                    .map(|(i, _)| i + 1),
            )
            .collect();
        file.match_brackets();
        file.mark_test_regions();
        file.map_item_levels();
        file
    }

    /// The significant token at sig-index `si`.
    pub fn stok(&self, si: usize) -> Option<&Token> {
        self.sig.get(si).and_then(|&raw| self.tokens.get(raw))
    }

    /// Text of the significant token at sig-index `si` (empty when out of
    /// range).
    pub fn stext(&self, si: usize) -> &str {
        self.stok(si).map(|t| t.text(&self.text)).unwrap_or("")
    }

    /// Number of significant tokens.
    pub fn slen(&self) -> usize {
        self.sig.len()
    }

    /// The trimmed source line containing significant token `si`.
    pub fn line_snippet(&self, si: usize) -> &str {
        let Some(tok) = self.stok(si) else { return "" };
        let start = self
            .line_starts
            .get(tok.line.saturating_sub(1))
            .copied()
            .unwrap_or(0);
        let end = self
            .line_starts
            .get(tok.line)
            .copied()
            .unwrap_or(self.text.len());
        self.text.get(start..end).unwrap_or("").trim()
    }

    fn match_brackets(&mut self) {
        let mut stack: Vec<(u8, usize)> = Vec::new();
        for si in 0..self.sig.len() {
            let t = self.stext(si);
            let Some(&b) = t.as_bytes().first() else {
                continue;
            };
            if t.len() != 1 {
                continue;
            }
            match b {
                b'(' | b'[' | b'{' => stack.push((b, si)),
                b')' | b']' | b'}' => {
                    let expect = match b {
                        b')' => b'(',
                        b']' => b'[',
                        _ => b'{',
                    };
                    // Pop through mismatches so one stray bracket does not
                    // desynchronize the rest of the file.
                    while let Some((open_b, open_si)) = stack.pop() {
                        if open_b == expect {
                            self.close_of[open_si] = Some(si);
                            self.open_of[si] = Some(open_si);
                            break;
                        }
                    }
                }
                _ => {}
            }
        }
    }

    /// An attribute group starting at sig-index `si` (which must be `#`):
    /// returns `(close_index, idents_inside)` of the `[...]` group.
    fn attr_group(&self, si: usize) -> Option<(usize, Vec<String>)> {
        if self.stext(si) != "#" {
            return None;
        }
        let mut open = si + 1;
        if self.stext(open) == "!" {
            open += 1;
        }
        if self.stext(open) != "[" {
            return None;
        }
        let close = self.close_of.get(open).copied().flatten()?;
        let mut idents = Vec::new();
        for k in open + 1..close {
            if let Some(t) = self.stok(k) {
                if t.kind == TokenKind::Ident {
                    idents.push(t.text(&self.text).to_string());
                }
            }
        }
        Some((close, idents))
    }

    /// Mark `#[test]`, `#[cfg(test)]`-style attributed items (and everything
    /// inside them) as test code. Files under a `tests/` directory are test
    /// code in their entirety.
    fn mark_test_regions(&mut self) {
        if self.path.starts_with("tests/") || self.path.contains("/tests/") {
            self.in_test.iter_mut().for_each(|x| *x = true);
            return;
        }
        let mut si = 0;
        while si < self.slen() {
            let Some((close, idents)) = self.attr_group(si) else {
                si += 1;
                continue;
            };
            let testish = idents
                .iter()
                .any(|t| t == "test" || t == "should_panic" || t == "bench")
                && !idents.iter().any(|t| t == "not");
            if !testish {
                si = close + 1;
                continue;
            }
            // Skip any further attributes between this one and the item.
            let mut j = close + 1;
            while let Some((c, _)) = self.attr_group(j) {
                j = c + 1;
            }
            // The item extends to its body's closing brace, or to the next
            // `;` for braceless items. Bracket groups in the header (fn
            // params, generics as `[]`? no — only () and []) are skipped.
            let mut k = j;
            let mut item_end = self.slen().saturating_sub(1);
            while k < self.slen() {
                match self.stext(k) {
                    "{" => {
                        item_end = self.close_of.get(k).copied().flatten().unwrap_or(k);
                        break;
                    }
                    ";" => {
                        item_end = k;
                        break;
                    }
                    "(" | "[" => {
                        k = self.close_of.get(k).copied().flatten().unwrap_or(k) + 1;
                    }
                    _ => k += 1,
                }
            }
            for m in si..=item_end.min(self.slen().saturating_sub(1)) {
                self.in_test[m] = true;
            }
            si = item_end + 1;
        }
    }

    /// Does the `{` after these header tokens (since the last statement
    /// boundary) open a scope that holds items: a module, impl, trait, or
    /// type body? Function bodies, match arms, plain blocks, initializers
    /// and macro bodies do not.
    fn opens_item_scope(&self, header: &[usize]) -> bool {
        let texts: Vec<&str> = header.iter().map(|&si| self.stext(si)).collect();
        !texts.contains(&"fn")
            && texts
                .iter()
                .any(|t| matches!(*t, "impl" | "mod" | "trait" | "struct" | "enum" | "union"))
    }

    /// Walk the file, recording for every token whether it sits at
    /// item-declaration level. Function bodies and unclassifiable braces
    /// are opaque.
    fn map_item_levels(&mut self) {
        let mut level = vec![false; self.slen()];
        let mut work: Vec<(usize, usize)> = vec![(0, self.slen())];
        while let Some((mut i, end)) = work.pop() {
            let mut header: Vec<usize> = Vec::new();
            while i < end {
                match self.stext(i) {
                    "{" => {
                        let close = self
                            .close_of
                            .get(i)
                            .copied()
                            .flatten()
                            .unwrap_or(end.saturating_sub(1));
                        if self.opens_item_scope(&header) {
                            work.push((i + 1, close.min(end)));
                        }
                        i = close + 1;
                        header.clear();
                    }
                    ";" | "}" => {
                        i += 1;
                        header.clear();
                    }
                    "(" | "[" => {
                        // Bracket groups in headers (fn params, attr args,
                        // array types) carry no item declarations.
                        header.push(i);
                        i = self.close_of.get(i).copied().flatten().unwrap_or(i) + 1;
                    }
                    _ => {
                        if let Some(slot) = level.get_mut(i) {
                            *slot = true;
                        }
                        header.push(i);
                        i += 1;
                    }
                }
            }
        }
        self.item_level = level;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_regions_cover_cfg_test_mod() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n  fn helper() { x.unwrap(); }\n}\n";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        let unwrap_si = (0..f.slen()).find(|&i| f.stext(i) == "unwrap");
        let live_si = (0..f.slen()).find(|&i| f.stext(i) == "live");
        assert!(f.in_test[unwrap_si.expect("unwrap token present")]);
        assert!(!f.in_test[live_si.expect("live token present")]);
    }

    #[test]
    fn impl_bodies_hold_items() {
        let src = "impl Foo { fn a() {} }\nimpl<T> Bar for Foo<T> { fn b() {} }";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        let fns: Vec<bool> = (0..f.slen())
            .filter(|&i| f.stext(i) == "fn")
            .map(|i| f.item_level[i])
            .collect();
        assert_eq!(fns, vec![true, true]);
    }

    #[test]
    fn fn_bodies_are_opaque() {
        let src = "fn outer() { pub fn not_an_item() {} }";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        for i in 0..f.slen() {
            if f.stext(i) == "pub" {
                assert!(!f.item_level[i]);
            }
        }
    }
}
