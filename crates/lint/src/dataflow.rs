//! Per-function dataflow summaries.
//!
//! Token-level analyses feed the BX012 and BX014 rules and the lock-set
//! analysis:
//!
//! * **I/O-error Result propagation** ([`summarize`]): which functions
//!   produce a `Result` carrying `PagerError`/`WalError` — directly (the
//!   error type appears in the return type) or transitively (the function
//!   returns a `Result` and propagates an I/O-result call with `?`). The
//!   transitive closure is a fixpoint over the call graph.
//! * **Guard liveness** (`borrow_live_end`): a guard bound to a local is
//!   live to the end of its enclosing block (or an explicit `drop`); a
//!   temporary lives to the end of its statement. The lock-set analysis
//!   ([`crate::locks`]) uses it for `MutexGuard` windows.
//! * **Span ordering** ([`spans_after_early_return`]): an `OpSpan::op`
//!   opened after a `?`/`return` in the same body has early-return paths
//!   on which the operation runs with no attribution window at all.

use crate::callgraph::{CallGraph, EdgeKind};
use crate::lexer::TokenKind;
use crate::model::SourceFile;

/// Error-type names whose `Result`s BX012 guards, plus `IoResult<T>`,
/// the alias for `Result<T, PagerError>`.
pub const IO_ERROR_TYPES: [&str; 3] = ["PagerError", "WalError", "IoResult"];

/// What one function's signature and body imply for error flow.
#[derive(Clone, Copy, Debug, Default)]
pub struct FnSummary {
    /// The return type mentions `Result`.
    pub returns_result: bool,
    /// The return type names an I/O error type directly.
    pub io_error_direct: bool,
    /// Produces an I/O-error `Result` — directly or by `?`-propagating one
    /// (transitive fixpoint).
    pub io_result: bool,
}

/// Build summaries for every node in the graph, running the propagation
/// fixpoint to completion.
pub fn summarize(graph: &CallGraph, files: &[SourceFile]) -> Vec<FnSummary> {
    let mut out: Vec<FnSummary> = graph
        .fns
        .iter()
        .map(|f| {
            let returns_result = f
                .ret_tokens
                .iter()
                .any(|t| t == "Result" || t == "IoResult");
            let io_error_direct = returns_result
                && f.ret_tokens
                    .iter()
                    .any(|t| IO_ERROR_TYPES.contains(&t.as_str()));
            FnSummary {
                returns_result,
                io_error_direct,
                io_result: io_error_direct,
            }
        })
        .collect();
    // Fixpoint: a Result-returning fn that `?`-propagates an io_result call
    // becomes io_result itself. Only resolved edges propagate — an unknown
    // edge is too weak a signal to brand the caller's whole signature.
    loop {
        let mut changed = false;
        for (id, f) in graph.fns.iter().enumerate() {
            if out[id].io_result || !out[id].returns_result {
                continue;
            }
            let file = &files[f.file_idx];
            let hit = graph.edges[id].iter().any(|e| {
                e.kind != EdgeKind::Unknown
                    && out[e.to].io_result
                    && call_is_propagated(file, e.call_si)
            });
            if hit {
                out[id].io_result = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    out
}

/// Does the call whose name token is at `si` end in a `?` (directly or
/// through a trailing method chain such as `.map_err(…)?`)?
pub fn call_is_propagated(file: &SourceFile, si: usize) -> bool {
    let Some(mut j) = file.close_of.get(si + 1).copied().flatten() else {
        return false;
    };
    loop {
        match file.stext(j + 1) {
            "?" => return true,
            "." => {
                // Skip `.ident(…)` or `.ident` links.
                let name = j + 2;
                if file.stok(name).map(|t| t.kind) != Some(TokenKind::Ident) {
                    return false;
                }
                if file.stext(name + 1) == "(" {
                    match file.close_of.get(name + 1).copied().flatten() {
                        Some(c) => j = c,
                        None => return false,
                    }
                } else {
                    j = name;
                }
            }
            _ => return false,
        }
    }
}

/// How a call's `Result` value is consumed at its call site.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Consumption {
    /// Propagated with `?`.
    Propagated,
    /// `let _ = f(…);` — wildcard-dropped.
    WildcardDropped,
    /// `f(…);` as a bare statement.
    BareStatement,
    /// `f(…).ok();` — converted to `Option` and then dropped.
    OkSilenced,
    /// `match f(…) { …, Err(_) => {} }` — the error arm does nothing.
    IgnoredErrArm,
    /// Anything else: bound, matched meaningfully, chained onward.
    Flows,
}

impl Consumption {
    /// Is the error silently thrown away?
    pub fn is_swallowed(self) -> bool {
        matches!(
            self,
            Consumption::WildcardDropped
                | Consumption::BareStatement
                | Consumption::OkSilenced
                | Consumption::IgnoredErrArm
        )
    }

    /// Human label for diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            Consumption::WildcardDropped => "`let _ =`-dropped",
            Consumption::BareStatement => "discarded as a bare statement",
            Consumption::OkSilenced => "`.ok()`-silenced",
            Consumption::IgnoredErrArm => "matched with an ignoring `Err(_) => {}` arm",
            _ => "consumed",
        }
    }
}

/// Classify how the call at name token `si` is consumed. `chain_start`
/// must locate the first token of the receiver chain (see
/// [`crate::rules::chain_start`]); it is injected to avoid a module cycle.
pub fn classify_consumption(
    file: &SourceFile,
    si: usize,
    chain_start: impl Fn(&SourceFile, usize) -> Option<usize>,
) -> Consumption {
    if call_is_propagated(file, si) {
        return Consumption::Propagated;
    }
    let Some(close) = file.close_of.get(si + 1).copied().flatten() else {
        return Consumption::Flows;
    };
    // Trailing `.ok();`
    if file.stext(close + 1) == "." && file.stext(close + 2) == "ok" && file.stext(close + 3) == "("
    {
        if let Some(okc) = file.close_of.get(close + 3).copied().flatten() {
            if file.stext(okc + 1) == ";" {
                return Consumption::OkSilenced;
            }
        }
        return Consumption::Flows;
    }
    let start = match chain_start(file, si) {
        Some(s) => s,
        None => return Consumption::Flows,
    };
    // `match f(…) { … }` with an ignoring error arm.
    if start >= 1 && file.stext(start - 1) == "match" {
        if let Some(arm) = ignoring_err_arm(file, close) {
            return arm;
        }
        return Consumption::Flows;
    }
    if file.stext(close + 1) != ";" {
        return Consumption::Flows;
    }
    if start == 0 {
        return Consumption::BareStatement;
    }
    let prev = file.stext(start - 1);
    if matches!(prev, ";" | "{" | "}") {
        return Consumption::BareStatement;
    }
    if prev == "=" && start >= 3 && file.stext(start - 2) == "_" && file.stext(start - 3) == "let" {
        return Consumption::WildcardDropped;
    }
    Consumption::Flows
}

/// After the argument close paren of a matched call, find the match body and
/// look for `Err(_) => {}` / `Err(_) => ()` arms.
fn ignoring_err_arm(file: &SourceFile, args_close: usize) -> Option<Consumption> {
    // The match body is the next `{` after the scrutinee.
    let mut j = args_close + 1;
    let mut guard = 0;
    while file.stext(j) != "{" {
        j += 1;
        guard += 1;
        if guard > 16 || j >= file.slen() {
            return None;
        }
    }
    let body_close = file.close_of.get(j).copied().flatten()?;
    let mut k = j + 1;
    while k < body_close {
        if file.stext(k) == "Err"
            && file.stext(k + 1) == "("
            && file.stext(k + 2) == "_"
            && file.stext(k + 3) == ")"
            && file.stext(k + 4) == "="
            && file.stext(k + 5) == ">"
        {
            let arm = k + 6;
            let empty_block = file.stext(arm) == "{"
                && file.close_of.get(arm).copied().flatten() == Some(arm + 1);
            let unit = file.stext(arm) == "("
                && file.close_of.get(arm).copied().flatten() == Some(arm + 1);
            if empty_block || unit {
                return Some(Consumption::IgnoredErrArm);
            }
        }
        k += 1;
    }
    None
}

/// Where does the guard or borrow starting at method-name token `si` stop
/// being live?
///
/// * Bound via `let g = …` → the enclosing block's close (or an
///   intervening `drop(g)`).
/// * Temporary → the statement's terminating `;`.
pub(crate) fn borrow_live_end(
    file: &SourceFile,
    body_open: usize,
    body_close: usize,
    si: usize,
) -> usize {
    // Statement start: walk left to the nearest `;`/`{`/`}` inside the body.
    let mut stmt_start = si;
    while stmt_start > body_open + 1 && !matches!(file.stext(stmt_start - 1), ";" | "{" | "}") {
        stmt_start -= 1;
    }
    let bound_name = if file.stext(stmt_start) == "let" {
        let mut n = stmt_start + 1;
        if file.stext(n) == "mut" {
            n += 1;
        }
        // Only simple `let name = …` bindings count; `let (a, b) = …` and
        // wildcard drops do not extend liveness.
        if file.stok(n).is_some_and(|t| t.kind == TokenKind::Ident) && file.stext(n) != "_" {
            Some(file.stext(n).to_string())
        } else {
            None
        }
    } else {
        None
    };
    match bound_name {
        None => {
            // Temporary: live to the end of the statement.
            let mut j = si;
            while j < body_close && file.stext(j) != ";" {
                if matches!(file.stext(j), "(" | "[" | "{") {
                    j = file.close_of.get(j).copied().flatten().unwrap_or(j) + 1;
                    continue;
                }
                j += 1;
            }
            j
        }
        Some(name) => {
            let block_close = enclosing_block_close(file, body_open, body_close, si);
            // An explicit `drop(name)` ends the borrow early.
            let mut j = si;
            while j < block_close {
                if file.stext(j) == "drop"
                    && file.stext(j + 1) == "("
                    && file.stext(j + 2) == name.as_str()
                    && file.stext(j + 3) == ")"
                {
                    return j;
                }
                j += 1;
            }
            block_close
        }
    }
}

/// The close brace of the innermost `{ … }` containing `si` within the
/// function body (`body_open`..`body_close`).
fn enclosing_block_close(
    file: &SourceFile,
    body_open: usize,
    body_close: usize,
    si: usize,
) -> usize {
    let mut best = body_close;
    let mut stack: Vec<usize> = Vec::new();
    let mut j = body_open + 1;
    while j < body_close {
        match file.stext(j) {
            "{" => stack.push(j),
            "}" => {
                if let Some(o) = stack.pop() {
                    if o < si && j > si && j < best {
                        best = j;
                    }
                }
            }
            _ => {}
        }
        j += 1;
    }
    best
}

/// One `OpSpan::op` constructed after fallible work in the same body.
#[derive(Clone, Debug)]
pub struct LateSpan {
    /// Sig-index of the `op` token.
    pub si: usize,
    /// What precedes the span: `"?"` or `"return"`.
    pub reason: &'static str,
    /// 1-based line of the earliest preceding early-return token.
    pub early_line: usize,
}

/// Find `OpSpan::op(…)` constructions preceded by a `?` operator or a
/// `return` statement in the same function body. Phase spans are exempt —
/// they are scoped refinements inside an already-open op window.
pub fn spans_after_early_return(file: &SourceFile, open: usize, close: usize) -> Vec<LateSpan> {
    let mut first_fallible: Option<(&'static str, usize)> = None;
    let mut out = Vec::new();
    for si in open + 1..close {
        let t = file.stext(si);
        if first_fallible.is_none() {
            let reason = match t {
                "?" if file.stok(si).map(|tk| tk.kind) == Some(TokenKind::Punct) => Some("?"),
                "return" => Some("return"),
                _ => None,
            };
            if let Some(r) = reason {
                let line = file.stok(si).map(|tk| tk.line).unwrap_or(0);
                first_fallible = Some((r, line));
                continue;
            }
        }
        if t == "op"
            && file.stext(si + 1) == "("
            && si >= 3
            && file.stext(si - 1) == ":"
            && file.stext(si - 2) == ":"
            && file.stext(si - 3) == "OpSpan"
        {
            if let Some((reason, early_line)) = first_fallible {
                out.push(LateSpan {
                    si,
                    reason,
                    early_line,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::parser::parse_file;

    fn analysis(src: &str) -> (Vec<SourceFile>, CallGraph, Vec<FnSummary>) {
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        let p = parse_file(&f, 0);
        let files = vec![f];
        let g = CallGraph::build(&files, std::slice::from_ref(&p));
        let s = summarize(&g, &files);
        (files, g, s)
    }

    fn summary_of<'s>(g: &CallGraph, s: &'s [FnSummary], name: &str) -> &'s FnSummary {
        let id = g.fns.iter().position(|f| f.name == name).expect("fn");
        &s[id]
    }

    #[test]
    fn direct_and_transitive_io_results() {
        let src = "\
fn raw() -> Result<(), PagerError> { Ok(()) }
fn wraps() -> Result<u8, PagerError> { raw()?; Ok(1) }
fn chained() -> Result<u8, MyError> { raw().map_err(MyError::from)?; Ok(1) }
fn unrelated() -> Result<u8, OtherError> { Ok(1) }
fn aliased() -> IoResult<u8> { Ok(1) }
fn consumes() { let _ = raw(); }";
        let (_, g, s) = analysis(src);
        assert!(summary_of(&g, &s, "raw").io_error_direct);
        assert!(summary_of(&g, &s, "aliased").io_error_direct);
        assert!(summary_of(&g, &s, "wraps").io_result);
        assert!(summary_of(&g, &s, "chained").io_result);
        assert!(!summary_of(&g, &s, "unrelated").io_result);
        assert!(!summary_of(&g, &s, "consumes").io_result);
    }

    fn body_of(src: &str) -> (SourceFile, usize, usize) {
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        let open = (0..f.slen()).find(|&i| f.stext(i) == "{").expect("open");
        let close = f.close_of[open].expect("close");
        (f, open, close)
    }

    #[test]
    fn late_spans_flagged_early_spans_pass() {
        let (f, o, c) = body_of(
            "fn f(&self) -> Result<(), E> { self.gate()?; let _s = OpSpan::op(\"W\", \"i\"); Ok(()) }",
        );
        let late = spans_after_early_return(&f, o, c);
        assert_eq!(late.len(), 1);
        assert_eq!(late[0].reason, "?");

        let (f, o, c) = body_of(
            "fn f(&self) -> Result<(), E> { let _s = OpSpan::op(\"W\", \"i\"); self.gate()?; \
             let _p = OpSpan::phase(\"split\"); Ok(()) }",
        );
        assert!(spans_after_early_return(&f, o, c).is_empty());
    }

    #[test]
    fn consumption_classification() {
        let chain = |f: &SourceFile, si: usize| crate::rules::chain_start(f, si);
        let cases: [(&str, Consumption); 6] = [
            ("fn f() { let _ = io(); }", Consumption::WildcardDropped),
            ("fn f() { io(); }", Consumption::BareStatement),
            ("fn f() { io().ok(); }", Consumption::OkSilenced),
            (
                "fn f() { match io() { Ok(v) => use_it(v), Err(_) => {} } }",
                Consumption::IgnoredErrArm,
            ),
            ("fn f() -> R { io()?; Ok(()) }", Consumption::Propagated),
            ("fn f() { let x = io(); keep(x); }", Consumption::Flows),
        ];
        for (src, want) in cases {
            let f = SourceFile::parse("crates/x/src/lib.rs", src);
            let si = (0..f.slen())
                .find(|&i| f.stext(i) == "io" && f.stext(i + 1) == "(")
                .expect("call");
            assert_eq!(classify_consumption(&f, si, chain), want, "{src}");
        }
    }
}
