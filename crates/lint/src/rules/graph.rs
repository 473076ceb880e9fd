//! The call-graph/dataflow rule family (BX012, BX014).
//!
//! These rules run once over the whole-workspace [`Analysis`] — call graph
//! plus per-function dataflow summaries — instead of file-by-file:
//!
//! * **BX012** — transitive error swallowing: a `Result` carrying
//!   `PagerError`/`WalError` (directly or by `?`-propagation, per the
//!   summary fixpoint) must not be `let _ =`-dropped, bare-`;`-discarded,
//!   `.ok()`-silenced, or matched with an ignoring `Err(_)` arm. A call
//!   whose receiver type is not recoverable has no edge, so it cannot fire
//!   (caveat in DESIGN.md).
//! * **BX014** — span balance: `OpSpan::op` must open before any `?`/
//!   `return` in its function body, or early-return paths run unattributed.

use std::collections::BTreeSet;

use super::{chain_start, push};
use crate::dataflow;
use crate::report::Diagnostic;
use crate::Analysis;

/// Run every graph rule.
pub fn run_all(a: &Analysis, out: &mut Vec<Diagnostic>) {
    bx012(a, out);
    bx014(a, out);
}

/// BX012: swallowed I/O-error `Result`s, transitively over the summary
/// fixpoint. Resolved edges only.
fn bx012(a: &Analysis, out: &mut Vec<Diagnostic>) {
    let g = &a.graph;
    let mut seen: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (id, f) in g.fns.iter().enumerate() {
        if f.in_test {
            continue;
        }
        let file = &a.files[f.file_idx];
        for e in &g.edges[id] {
            if !a.summaries[e.to].io_result {
                continue;
            }
            let callee = &g.fns[e.to];
            if !seen.insert((f.file_idx, e.call_si)) {
                continue;
            }
            let c = dataflow::classify_consumption(file, e.call_si, chain_start);
            if c.is_swallowed() {
                push(
                    file,
                    e.call_si,
                    "BX012",
                    format!(
                        "I/O-error `Result` from `{}` is {} — a disk fault vanishes \
                         here; propagate with `?` or handle both arms",
                        callee.qual(),
                        c.label()
                    ),
                    out,
                );
            }
        }
    }
}

/// BX014: `OpSpan::op` constructed after fallible work in the same body.
fn bx014(a: &Analysis, out: &mut Vec<Diagnostic>) {
    for f in &a.graph.fns {
        if f.in_test {
            continue;
        }
        let Some((open, close)) = f.body else {
            continue;
        };
        let file = &a.files[f.file_idx];
        for s in dataflow::spans_after_early_return(file, open, close) {
            push(
                file,
                s.si,
                "BX014",
                format!(
                    "`OpSpan::op` opens after a `{}` at line {} — early-return paths \
                     (including fault-service retries) run with no attribution window",
                    s.reason, s.early_line
                ),
                out,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SourceFile;

    fn analyze(srcs: &[(&str, &str)]) -> Analysis {
        let files: Vec<SourceFile> = srcs
            .iter()
            .map(|(p, s)| SourceFile::parse(*p, *s))
            .collect();
        Analysis::build(files)
    }

    fn rules_of(diags: &[Diagnostic], rule: &str) -> Vec<String> {
        diags
            .iter()
            .filter(|d| d.rule == rule)
            .map(|d| d.message.clone())
            .collect()
    }

    #[test]
    fn bx012_transitive_swallow_fires_and_propagation_passes() {
        let a = analyze(&[(
            "crates/wal/src/lib.rs",
            "fn raw() -> Result<(), WalError> { Ok(()) }\n\
             fn wraps() -> Result<(), WalError> { raw()?; Ok(()) }\n\
             pub fn bad() { let _ = wraps(); }\n\
             pub fn good() -> Result<(), WalError> { wraps()?; Ok(()) }",
        )]);
        let mut out = Vec::new();
        run_all(&a, &mut out);
        let b = rules_of(&out, "BX012");
        assert_eq!(b.len(), 1, "{b:?}");
        assert!(b[0].contains("boxes-wal::wraps"));
        assert!(b[0].contains("`let _ =`-dropped"));
    }

    #[test]
    fn bx014_fires_on_a_late_op_span() {
        let a = analyze(&[(
            "crates/trace/src/lib.rs",
            "pub struct T;\n\
             impl T { pub fn late(&self) -> Result<(), E> { self.gate()?; \
             let _s = OpSpan::op(\"w\", \"i\"); Ok(()) } \
             fn gate(&self) -> Result<(), E> { Ok(()) } }",
        )]);
        let mut out = Vec::new();
        run_all(&a, &mut out);
        assert_eq!(rules_of(&out, "BX014").len(), 1);
    }
}
