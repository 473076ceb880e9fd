//! `boxes-lint` — a dependency-free source-level static analyzer for the
//! BOXes workspace.
//!
//! The paper's contribution is measured in block I/Os, so correctness here
//! means *discipline*: every disk touch flows through the accounted
//! [`Pager`] entry points, no disk fault is swallowed, and locks are taken
//! in one global order. Those invariants need this workspace's call graph
//! and names, so rustc and clippy cannot check them; this crate encodes
//! them as the BX rule catalog (see [`rules`]) over a hand-rolled lexer
//! ([`lexer`]) and a lightweight token-stream model ([`model`]). What the
//! compiler can check (panics, casts, docs, dropped reports, `std::fs`,
//! clocks, `!Sync` state) is left to rustc and clippy lints denied at every
//! library crate root.
//!
//! Three analysis tiers share that substrate:
//!
//! * **Token-stream rules** (BX001, BX020) are pure per-file
//!   functions.
//! * **Call-graph rules** (BX010, BX012, BX014) run over an [`Analysis`]:
//!   an item-level parse ([`parser`]) of every file, a heuristic workspace
//!   call graph ([`callgraph`]) with explicit unknown edges so reachability
//!   stays sound-by-default, and per-function dataflow summaries
//!   ([`dataflow`]). No rustc internals, no external dependencies.
//! * **Lock-discipline rules** (BX015–BX017, BX019) run over the lock-set
//!   analysis ([`locks`]): per-function `Mutex`/`RwLock` acquisition
//!   summaries with guard-liveness windows, solved to fixpoint over the
//!   call graph. The resulting lock-order graph is exported to
//!   `target/lock-order.json` ([`Outcome::lock_order`](report::Outcome)).
//!
//! Findings are [`report::Diagnostic`]s with `file:line:col` spans. A
//! checked-in baseline (`lint.toml`, parsed by [`config`]) suppresses
//! reviewed findings; every entry needs a justification and an entry that
//! no longer matches anything fails the gate. `[limits] max_baselined`
//! caps every baselined site — these findings plus the `#[expect]`ed
//! clippy sites the driver counts — so the baseline can only shrink
//! ([`check_budget`]).
//!
//! [`Pager`]: https://docs.rs/boxes-pager

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::as_conversions,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok,
        clippy::mem_forget,
        clippy::disallowed_types,
        clippy::disallowed_methods,
        clippy::disallowed_macros,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

/// The workspace call graph with explicit unknown edges.
pub mod callgraph;
/// The `lint.toml` suppression baseline: parser and matching policy.
pub mod config;
/// Per-function dataflow: error propagation, guard liveness, span order.
pub mod dataflow;
/// The hand-rolled, panic-free Rust lexer.
pub mod lexer;
/// Lock-set analysis: acquisitions, guard windows, the lock-order graph.
pub mod locks;
/// Token-stream source model (brackets, test regions, item scopes).
pub mod model;
/// Item-level parser: functions, impl blocks, type aliases, field types.
pub mod parser;
/// Diagnostics plus the human and JSON renderers.
pub mod report;
/// The BX rule catalog.
pub mod rules;

use std::io;
use std::path::{Path, PathBuf};

use callgraph::CallGraph;
use config::Config;
use dataflow::FnSummary;
use locks::LockAnalysis;
use model::SourceFile;
use parser::ParsedFile;
use report::{Diagnostic, Outcome};

/// The whole-workspace analysis the call-graph and lock rules run over.
pub struct Analysis {
    /// Every scanned file, token-stream form.
    pub files: Vec<SourceFile>,
    /// Item-level parse of each file, parallel to `files`.
    pub parsed: Vec<ParsedFile>,
    /// The workspace call graph over all parsed functions.
    pub graph: CallGraph,
    /// Dataflow summaries, parallel to `graph.fns`.
    pub summaries: Vec<FnSummary>,
}

impl Analysis {
    /// Parse, link, and summarize a set of files.
    pub fn build(files: Vec<SourceFile>) -> Analysis {
        let parsed: Vec<ParsedFile> = files
            .iter()
            .enumerate()
            .map(|(i, f)| parser::parse_file(f, i))
            .collect();
        let graph = CallGraph::build(&files, &parsed);
        let summaries = dataflow::summarize(&graph, &files);
        Analysis {
            files,
            parsed,
            graph,
            summaries,
        }
    }

    /// Run every rule tier, drop findings under a rule's `allow_paths`
    /// policy, and sort. Returns the findings and the lock analysis the
    /// lock rules ran over.
    fn lint(&self, config: &Config) -> (Vec<Diagnostic>, LockAnalysis) {
        let locks = LockAnalysis::build(self);
        let mut diags = Vec::new();
        for f in &self.files {
            rules::run_all(f, &mut diags);
        }
        rules::run_graph(self, &locks, &mut diags);
        diags.retain(|d| !config.rule_allows_path(d.rule, &d.path));
        diags.sort_by(|a, b| {
            (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
        });
        (diags, locks)
    }
}

/// Lint a single source text under its workspace-relative `path`, running
/// every rule tier (the call graph sees just this one file).
///
/// Applies the per-rule `allow_paths` policy from `config` but not the
/// `[[allow]]` baseline — feed the result to [`apply_baseline`] for that.
pub fn lint_source(path: &str, text: &str, config: &Config) -> Vec<Diagnostic> {
    Analysis::build(vec![SourceFile::parse(path, text)])
        .lint(config)
        .0
}

/// Partition findings into suppressed/unsuppressed against the `[[allow]]`
/// baseline and surface entries that matched nothing (stale
/// suppressions).
pub fn apply_baseline(diags: Vec<Diagnostic>, config: &Config) -> Outcome {
    let mut matched = vec![false; config.allows.len()];
    let mut outcome = Outcome::default();
    for d in diags {
        let hit = config.allows.iter().position(|a| {
            a.rule == d.rule
                && a.path == d.path
                && a.contains.as_deref().is_none_or(|c| d.snippet.contains(c))
        });
        match hit {
            Some(i) => {
                if let Some(slot) = matched.get_mut(i) {
                    *slot = true;
                }
                outcome.suppressed.push(d);
            }
            None => outcome.unsuppressed.push(d),
        }
    }
    for (i, a) in config.allows.iter().enumerate() {
        if !matched.get(i).copied().unwrap_or(true) {
            outcome.stale_allows.push(format!(
                "lint.toml:{}: [[allow]] {} in {} matched no findings — remove the \
                 stale entry",
                a.line_no, a.rule, a.path
            ));
        }
    }
    outcome
}

/// Enforce `[limits] max_baselined` over every baselined site: the
/// `[[allow]]`-suppressed findings in `outcome` plus `expected_sites`, the
/// library sites of the budgeted clippy lints that `#[expect]` attributes
/// cover. The driver counts those with a force-warn clippy pass, so one
/// module-level `#[expect]` still costs one slot per site.
pub fn check_budget(outcome: &mut Outcome, config: &Config, expected_sites: usize) {
    outcome.expected_sites = expected_sites;
    let total = outcome.suppressed.len() + expected_sites;
    if let Some(max) = config.max_baselined {
        if total > max {
            outcome.budget_violations.push(format!(
                "baseline budget exceeded: {} suppressed findings + {expected_sites} \
                 #[expect]ed clippy sites = {total} > max_baselined = {max} — fix \
                 findings instead of growing the baseline",
                outcome.suppressed.len()
            ));
        }
    }
}

/// Lint the whole workspace rooted at `root`: every `.rs` file under
/// `crates/*/src` and `xtask/src` (integration tests, fixtures, and
/// `third_party/` are out of scope), parsed once, with every rule tier and
/// the baseline applied. The outcome carries the lock-order graph of the
/// same analysis.
#[expect(
    clippy::disallowed_methods,
    reason = "the analyzer reads the workspace's own sources, never labeled data"
)]
pub fn lint_workspace(root: &Path, config: &Config) -> io::Result<Outcome> {
    let mut files: Vec<PathBuf> = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in std::fs::read_dir(&crates_dir)? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files)?;
            }
        }
    }
    let xtask_src = root.join("xtask").join("src");
    if xtask_src.is_dir() {
        collect_rs(&xtask_src, &mut files)?;
    }
    files.sort();

    let mut sources: Vec<SourceFile> = Vec::new();
    for path in &files {
        let text = std::fs::read_to_string(path)?;
        sources.push(SourceFile::parse(rel_path(root, path), text));
    }
    let analysis = Analysis::build(sources);
    let (diags, locks) = analysis.lint(config);
    let mut outcome = apply_baseline(diags, config);
    outcome.files_scanned = analysis.files.len();
    outcome.lock_order = locks.to_json();
    Ok(outcome)
}

/// Load and parse `lint.toml` from the workspace root. A missing file is an
/// empty config (no policy, no suppressions).
#[expect(
    clippy::disallowed_methods,
    reason = "the analyzer reads the workspace's own sources, never labeled data"
)]
pub fn load_config(root: &Path) -> Result<Config, String> {
    let path = root.join("lint.toml");
    if !path.is_file() {
        return Ok(Config::default());
    }
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read lint.toml: {e}"))?;
    Config::parse(&text).map_err(|e| e.to_string())
}

#[expect(
    clippy::disallowed_methods,
    reason = "the analyzer reads the workspace's own sources, never labeled data"
)]
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::Diagnostic;

    fn diag(rule: &'static str, path: &str, snippet: &str) -> Diagnostic {
        Diagnostic {
            rule,
            path: path.to_string(),
            line: 1,
            col: 1,
            message: String::new(),
            snippet: snippet.to_string(),
        }
    }

    #[test]
    fn baseline_suppresses_and_detects_stale() {
        let cfg = Config::parse(
            "[[allow]]\nrule = \"BX020\"\npath = \"crates/a/src/lib.rs\"\n\
             contains = \"injection\"\njustification = \"deliberate raw write\"\n\
             [[allow]]\nrule = \"BX001\"\npath = \"crates/b/src/lib.rs\"\n\
             justification = \"never matches\"\n",
        )
        .expect("valid config");
        let diags = vec![
            diag("BX020", "crates/a/src/lib.rs", "injection.write_all(buf)?;"),
            diag("BX020", "crates/a/src/lib.rs", "file.write_all(buf)?;"),
        ];
        let outcome = apply_baseline(diags, &cfg);
        assert_eq!(outcome.suppressed.len(), 1);
        assert_eq!(outcome.unsuppressed.len(), 1);
        assert_eq!(outcome.stale_allows.len(), 1);
        assert!(outcome.stale_allows[0].contains("BX001"));
        assert!(!outcome.is_clean());
    }

    #[test]
    fn allow_paths_policy_filters_findings() {
        let cfg =
            Config::parse("[rules.BX001]\nallow_paths = [\"xtask/src\"]\n").expect("valid config");
        let src = "fn f(p: &Pager) { p.pager.read(id); }";
        let diags = lint_source("xtask/src/main.rs", src, &cfg);
        assert!(diags.is_empty());
        let diags = lint_source("crates/a/src/lib.rs", src, &cfg);
        assert_eq!(diags.len(), 1);
    }

    #[test]
    fn baseline_budget_counts_expected_sites() {
        let cfg = Config::parse(
            "[limits]\nmax_baselined = 2\n\
             [[allow]]\nrule = \"BX001\"\npath = \"crates/a/src/lib.rs\"\n\
             justification = \"temporary\"\n",
        )
        .expect("valid config");
        let mut outcome = apply_baseline(vec![diag("BX001", "crates/a/src/lib.rs", "x")], &cfg);
        check_budget(&mut outcome, &cfg, 1);
        assert!(outcome.is_clean(), "{:?}", outcome.budget_violations);
        check_budget(&mut outcome, &cfg, 2);
        assert_eq!(outcome.budget_violations.len(), 1);
        assert!(!outcome.is_clean());
        assert!(outcome.to_json().contains("baseline budget exceeded"));
    }
}
