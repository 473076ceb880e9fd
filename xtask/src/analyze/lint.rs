//! The source-lint step: drive `boxes-lint` over the workspace, count the
//! `#[expect]`ed clippy sites against the shared budget, print human
//! diagnostics, and drop the JSON artifacts in `target/lint-report.json`
//! and `target/lock-order.json`.

use std::path::Path;
use std::time::Instant;

use boxes_lint::config::Config;
use boxes_lint::report::Outcome;

use super::{budget, sweeps};

/// Run the kept BX rules against the `lint.toml` baseline and enforce
/// `[limits] max_baselined` over their suppressed findings plus the
/// budgeted clippy sites. Prints every unsuppressed finding, stale
/// suppression, and budget violation; returns whether the gate is clean.
/// Also writes the lint report (with the pass runtime) and the BX015
/// lock-order graph.
pub(crate) fn run(root: &Path) -> bool {
    let start = Instant::now();
    let Some((config, mut outcome)) = lint_workspace(root) else {
        return false;
    };
    outcome.lint_pass_ms = start.elapsed().as_millis();
    let packages: Vec<String> = sweeps::library_crates(root)
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    let sites = match budget::count_clippy_sites(root, &packages) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("  lint: {e}");
            return false;
        }
    };
    boxes_lint::check_budget(&mut outcome, &config, sites);
    write_artifacts(root, &outcome);
    for d in &outcome.unsuppressed {
        eprintln!("  {}", d.human());
    }
    for stale in &outcome.stale_allows {
        eprintln!("  {stale}");
    }
    for violation in &outcome.budget_violations {
        eprintln!("  {violation}");
    }
    println!(
        "  lint: {} file(s), {} finding(s) baselined + {} #[expect]ed clippy site(s) \
         (cap {}), {} unsuppressed, {} stale suppression(s), {} ms",
        outcome.files_scanned,
        outcome.suppressed.len(),
        outcome.expected_sites,
        config
            .max_baselined
            .map_or_else(|| "none".to_string(), |m| m.to_string()),
        outcome.unsuppressed.len(),
        outcome.stale_allows.len(),
        outcome.lint_pass_ms,
    );
    outcome.is_clean()
}

/// `--explain BXnnn`: print a rule's rationale and fix recipe.
pub(crate) fn explain(id: &str) -> bool {
    match boxes_lint::rules::rule_doc(id) {
        Some(doc) => {
            println!("{}: {}", doc.id, doc.title);
            println!("\nwhy:\n  {}", doc.rationale);
            println!("\nfix:\n  {}", doc.fix);
            true
        }
        None => {
            eprintln!(
                "unknown rule `{id}` — known rules: {}",
                boxes_lint::rules::RULE_IDS.join(", ")
            );
            false
        }
    }
}

/// `--baseline`: print ready-to-paste `[[allow]]` entries for the current
/// unsuppressed findings. The justification is left as a TODO on purpose —
/// the gate rejects entries without one, so each must be filled in by hand.
pub(crate) fn emit_baseline(root: &Path) -> bool {
    let Some((_, outcome)) = lint_workspace(root) else {
        return false;
    };
    if outcome.unsuppressed.is_empty() {
        println!("# no unsuppressed findings — nothing to baseline");
        return true;
    }
    for d in &outcome.unsuppressed {
        println!("[[allow]]");
        println!("rule = \"{}\"", d.rule);
        println!("path = \"{}\"", d.path);
        if !d.snippet.is_empty() {
            println!(
                "contains = \"{}\"",
                d.snippet.replace('\\', "\\\\").replace('"', "\\\"")
            );
        }
        println!("justification = \"TODO: why is this finding acceptable?\"");
        println!();
    }
    true
}

fn lint_workspace(root: &Path) -> Option<(Config, Outcome)> {
    let config = match boxes_lint::load_config(root) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("  lint: {e}");
            return None;
        }
    };
    match boxes_lint::lint_workspace(root, &config) {
        Ok(o) => Some((config, o)),
        Err(e) => {
            eprintln!("  lint: workspace scan failed: {e}");
            None
        }
    }
}

/// Write `target/lint-report.json` and `target/lock-order.json` (the
/// witnessed lock-order graph BX015 checks for cycles).
fn write_artifacts(root: &Path, outcome: &Outcome) {
    let dir = root.join("target");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("  lint: cannot create {}: {e}", dir.display());
        return;
    }
    let report = outcome.to_json();
    for (name, text) in [
        ("lint-report.json", report.as_str()),
        ("lock-order.json", outcome.lock_order.as_str()),
    ] {
        let path = dir.join(name);
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("  lint: cannot write {}: {e}", path.display());
        }
    }
}
