//! The BX rule catalog: the invariants rustc and clippy cannot express,
//! because they need this workspace's call graph or names specific to it.
//!
//! Three rule families share this module's helpers:
//!
//! * [`stream`] — BX001, a pure function over one [`SourceFile`]'s token
//!   stream (no cross-file knowledge).
//! * [`graph`] — BX012 and BX014, functions over the whole-workspace
//!   [`Analysis`](crate::Analysis): call graph plus dataflow summaries.
//! * [`locks`] — BX015, BX017 and BX019, lock-discipline rules over the
//!   workspace lock-set analysis ([`crate::locks`]): lock-order cycles,
//!   re-acquisition, and atomic-ordering hygiene.
//!
//! Every rule errs on the side of firing — a finding can be baselined with
//! a justification; a silent miss cannot.

/// BX012, BX014: call-graph and dataflow rules over the workspace.
pub mod graph;
/// BX015, BX017, BX019: lock-discipline rules over the lock-set analysis.
pub mod locks;
/// BX001: per-file token-stream rules.
pub mod stream;

use crate::lexer::TokenKind;
use crate::model::SourceFile;
use crate::report::Diagnostic;

/// All stable rule IDs, in catalog order.
pub const RULE_IDS: [&str; 6] = ["BX001", "BX012", "BX014", "BX015", "BX017", "BX019"];

/// Rationale and fix recipe for one rule, rendered by
/// `cargo xtask analyze --explain BXnnn`.
pub struct RuleDoc {
    /// Stable rule ID.
    pub id: &'static str,
    /// One-line invariant statement.
    pub title: &'static str,
    /// Why the workspace enforces it (ties back to the paper's claims).
    pub rationale: &'static str,
    /// How to fix a finding (or when to baseline it instead).
    pub fix: &'static str,
}

/// The full rule documentation table.
pub const RULE_DOCS: [RuleDoc; 6] = [
    RuleDoc {
        id: "BX001",
        title: "pager I/O (`read/write/alloc/free`) only in designated I/O modules",
        rationale: "Every complexity claim (Thm 4.4, Thm 5.1) counts pager block transfers. \
                    A direct pager call outside the accounted storage modules is I/O the \
                    measurements never see.",
        fix: "Route the access through the owning scheme's API. If the module genuinely is \
              a storage module, add it to [rules.BX001] allow_paths with a comment.",
    },
    RuleDoc {
        id: "BX012",
        title: "no swallowed `PagerError`/`WalError` Results, transitively",
        rationale: "BX012 follows the call graph: any function that produces or \
                    `?`-propagates an I/O-error Result is protected, so wrapping an I/O \
                    call in a helper cannot hide a swallowed disk fault.",
        fix: "Propagate with `?`, handle both arms meaningfully, or document why the error \
              is ignorable in a [[allow]] justification.",
    },
    RuleDoc {
        id: "BX014",
        title: "span balance: `OpSpan::op` opens before any fallible work in its function",
        rationale: "The profile gate enforces that every pager I/O lands in an open span. \
                    An op span constructed after a `?`/`return` leaves early-return paths \
                    (including fault-service retries) unattributed, which the attribution \
                    identity then reports as someone else's I/O.",
        fix: "Open the op span as the first statement of the public entry point — before \
              gates, journaled() checks, or any `?`. Phase spans are exempt.",
    },
    RuleDoc {
        id: "BX015",
        title: "lock-order graph is acyclic: no path acquires lock B holding A while \
                another acquires A holding B",
        rationale: "The storage core is Send + Sync; deadlock freedom now rests on a \
                    single global lock order. The analysis records an edge A → B \
                    whenever any path acquires B while a guard of A is live (directly \
                    or through a callee's lock set) and exports the graph with \
                    witnesses to target/lock-order.json. Any cycle is a schedule away \
                    from a frozen pager.",
        fix: "Pick one acquisition order and restructure the violating path (usually: \
              drop the outer guard before calling into the other subsystem, as \
              `Wal::commit` does around the barrier tick). Witness paths in \
              target/lock-order.json show exactly which functions to fix.",
    },
    RuleDoc {
        id: "BX017",
        title: "no same-lock re-acquisition while the first guard is live",
        rationale: "std::sync locks are not reentrant: a path that re-locks a mutex it \
                    already holds — directly or through a helper that locks the same \
                    field — deadlocks itself the first time it runs. Single-threaded \
                    tests never catch this; the analysis does.",
        fix: "Thread the existing guard (or the data it derefs to) into the helper \
              instead of re-locking, or drop the first guard before the second \
              acquisition. Guard-returning helpers like `Pager::lock` are modeled, so \
              moving the lock into one does not hide the overlap.",
    },
    RuleDoc {
        id: "BX019",
        title: "no bare relaxed atomic ordering in library crates",
        rationale: "The workspace standardizes on SeqCst: the atomics guard cheap \
                    counters and flags, not hot paths, so the strongest ordering costs \
                    nothing measurable while a misplaced weak ordering costs a \
                    heisenbug. Weakening is opt-in, not default.",
        fix: "Use Ordering::SeqCst. If a profile shows the fence matters, weaken it \
              behind a justified [[allow]] citing the measurement.",
    },
];

/// Look up a rule's documentation by ID.
pub fn rule_doc(id: &str) -> Option<&'static RuleDoc> {
    RULE_DOCS.iter().find(|d| d.id.eq_ignore_ascii_case(id))
}

/// Run the token-stream rule (BX001) against one file.
pub fn run_all(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    stream::run_all(file, out);
}

/// Run the call-graph/dataflow rules (BX012, BX014) and the
/// lock-discipline rules (BX015, BX017, BX019) against a whole analysis.
pub fn run_graph(
    analysis: &crate::Analysis,
    lock_analysis: &crate::locks::LockAnalysis,
    out: &mut Vec<Diagnostic>,
) {
    graph::run_all(analysis, out);
    locks::run_all(analysis, lock_analysis, out);
}

// ------------------------------------------------------------------ helpers
// Shared between both rule families (and the dataflow consumption
// classifier, which takes `chain_start` as an injected fn).

pub(crate) fn push(
    file: &SourceFile,
    si: usize,
    rule: &'static str,
    message: String,
    out: &mut Vec<Diagnostic>,
) {
    let (line, col) = file.stok(si).map(|t| (t.line, t.col)).unwrap_or((0, 0));
    out.push(Diagnostic {
        rule,
        path: file.path.clone(),
        line,
        col,
        message,
        snippet: file.line_snippet(si).to_string(),
    });
}

pub(crate) fn is_ident(file: &SourceFile, si: usize, text: &str) -> bool {
    file.stok(si).is_some_and(|t| t.kind == TokenKind::Ident) && file.stext(si) == text
}

/// Is sig-index `si` immediately preceded by a `::` (two `:` puncts)?
pub(crate) fn preceded_by_path_sep(file: &SourceFile, si: usize) -> bool {
    si >= 2 && file.stext(si - 1) == ":" && file.stext(si - 2) == ":"
}

/// Walk left from the call ident at `si` over `.`/`::` links, call groups,
/// and index groups to the first token of the whole receiver chain. `None`
/// on malformed input.
pub(crate) fn chain_start(file: &SourceFile, si: usize) -> Option<usize> {
    let mut start = si; // first token of the current chain element
    loop {
        if start == 0 {
            return Some(0);
        }
        let prev = start - 1;
        if file.stext(prev) == "." || preceded_by_path_sep(file, start) {
            let link = if file.stext(prev) == "." {
                prev
            } else {
                start - 2
            };
            if link == 0 {
                return None;
            }
            let mut elem = link - 1;
            // Jump over a call/index group: `foo(…).name`, `xs[i].name`.
            if matches!(file.stext(elem), ")" | "]") {
                match file.open_of[elem] {
                    Some(open) => elem = open,
                    None => return None,
                }
                // `foo(…)` — include the callee ident.
                if elem > 0
                    && file
                        .stok(elem - 1)
                        .is_some_and(|t| t.kind == TokenKind::Ident)
                {
                    elem -= 1;
                }
            }
            start = elem;
        } else {
            return Some(start);
        }
    }
}
