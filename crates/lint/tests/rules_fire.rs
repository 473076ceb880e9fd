//! Fixture-driven proof that every rule in the BX catalog fires on a
//! known-bad snippet and stays quiet on its known-clean counterpart, plus
//! the stale-suppression and budget negative controls (stream and graph
//! tiers).

use boxes_lint::config::Config;
use boxes_lint::rules::RULE_IDS;
use boxes_lint::{apply_baseline, check_budget, lint_source};

/// Load a fixture and lint it as if it lived in consumer library code
/// (a path no `allow_paths` policy would cover).
fn lint_fixture(name: &str) -> Vec<&'static str> {
    let path = format!("{}/tests/fixtures/{name}.rs", env!("CARGO_MANIFEST_DIR"));
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {path} unreadable: {e}"));
    lint_source("crates/fixture/src/lib.rs", &text, &Config::default())
        .into_iter()
        .map(|d| d.rule)
        .collect()
}

#[test]
fn every_rule_fires_on_its_bad_fixture() {
    for rule in RULE_IDS {
        let fired = lint_fixture(&format!("{}_bad", rule.to_lowercase()));
        assert!(
            fired.contains(&rule),
            "{rule} did not fire on its bad fixture (got {fired:?})"
        );
    }
}

#[test]
fn no_rule_fires_on_its_clean_fixture() {
    for rule in RULE_IDS {
        let fired = lint_fixture(&format!("{}_clean", rule.to_lowercase()));
        assert!(
            !fired.contains(&rule),
            "{rule} fired on its clean fixture ({fired:?})"
        );
    }
}

#[test]
fn bad_fixture_counts_are_pinned() {
    // A rule regression that doubles or silences findings should trip
    // something more precise than "at least one".
    let cases = [
        ("bx001_bad", "BX001", 3),
        ("bx010_bad", "BX010", 2),
        ("bx012_bad", "BX012", 4),
        ("bx014_bad", "BX014", 2),
        ("bx015_bad", "BX015", 1),
        ("bx016_bad", "BX016", 2),
        ("bx017_bad", "BX017", 2),
        ("bx019_bad", "BX019", 2),
        ("bx020_bad", "BX020", 3),
    ];
    for (fixture, rule, want) in cases {
        let fired = lint_fixture(fixture);
        let got = fired.iter().filter(|r| **r == rule).count();
        assert_eq!(
            got, want,
            "{fixture}: expected {want} {rule} findings, got {fired:?}"
        );
    }
}

#[test]
fn bx010_names_the_transitive_chain() {
    // The two-hop `entry -> helper -> FileStore::read` leak must be caught
    // and the diagnostic must spell out the call chain to the sink.
    let text = std::fs::read_to_string(format!(
        "{}/tests/fixtures/bx010_bad.rs",
        env!("CARGO_MANIFEST_DIR")
    ))
    .expect("fixture readable");
    let diags = lint_source("crates/fixture/src/lib.rs", &text, &Config::default());
    let entry = diags
        .iter()
        .find(|d| d.rule == "BX010" && d.message.contains("::entry`"))
        .unwrap_or_else(|| panic!("no BX010 finding for the 2-hop entry fn: {diags:?}"));
    assert!(
        entry.message.contains("helper") && entry.message.contains("FileStore::read"),
        "chain diagnostic should walk through the helper to the sink: {}",
        entry.message
    );
}

#[test]
fn stale_graph_suppression_fails_the_gate() {
    // A BX010 baseline entry that matches nothing must fail the gate just
    // like a stale stream-tier entry: graph findings are stale-checked too.
    let toml = r#"
[[allow]]
rule = "BX010"
path = "crates/fixture/src/lib.rs"
contains = "reaches_nothing_anymore"
justification = "kept after the bypass was routed through the pager"
"#;
    let config = Config::parse(toml).expect("baseline parses");
    let text = std::fs::read_to_string(format!(
        "{}/tests/fixtures/bx010_clean.rs",
        env!("CARGO_MANIFEST_DIR")
    ))
    .expect("fixture readable");
    let diags = lint_source("crates/fixture/src/lib.rs", &text, &config);
    let outcome = apply_baseline(diags, &config);
    assert_eq!(outcome.stale_allows.len(), 1, "{:?}", outcome.stale_allows);
    assert!(
        !outcome.is_clean(),
        "a stale BX010 [[allow]] must fail the gate"
    );
    assert!(
        outcome.stale_allows[0].contains("BX010"),
        "stale message names the rule: {}",
        outcome.stale_allows[0]
    );
}

#[test]
fn bx015_names_the_cycle_and_exports_witnesses() {
    // The 3-lock cycle fixture must produce one finding that spells out the
    // full cycle in lock-identity terms.
    let text = std::fs::read_to_string(format!(
        "{}/tests/fixtures/bx015_bad.rs",
        env!("CARGO_MANIFEST_DIR")
    ))
    .expect("fixture readable");
    let diags = lint_source("crates/fixture/src/lib.rs", &text, &Config::default());
    let cycle = diags
        .iter()
        .find(|d| d.rule == "BX015")
        .unwrap_or_else(|| panic!("no BX015 finding: {diags:?}"));
    for lock in ["Triple.a", "Triple.b", "Triple.c"] {
        assert!(
            cycle.message.contains(lock),
            "cycle message should name {lock}: {}",
            cycle.message
        );
    }
    assert!(
        cycle.message.contains("lock-order.json"),
        "finding should point at the witness artifact: {}",
        cycle.message
    );
}

#[test]
fn baseline_budget_violation_fails_the_gate() {
    let toml = r#"
[limits]
max_baselined = 4

[[allow]]
rule = "BX020"
path = "crates/fixture/src/lib.rs"
justification = "fixture exercises deliberate raw writes"
"#;
    let config = Config::parse(toml).expect("baseline parses");
    let text = std::fs::read_to_string(format!(
        "{}/tests/fixtures/bx020_bad.rs",
        env!("CARGO_MANIFEST_DIR")
    ))
    .expect("fixture readable");
    let diags = lint_source("crates/fixture/src/lib.rs", &text, &config);
    let mut outcome = apply_baseline(diags, &config);
    assert_eq!(outcome.suppressed.len(), 3, "fixture should baseline 3");
    // The cap covers the #[expect]ed clippy sites too: 3 findings plus 1
    // site fit, a second site does not.
    check_budget(&mut outcome, &config, 1);
    assert!(outcome.is_clean(), "{:?}", outcome.budget_violations);
    check_budget(&mut outcome, &config, 2);
    assert_eq!(outcome.budget_violations.len(), 1);
    assert!(
        !outcome.is_clean(),
        "exceeding max_baselined must fail the gate"
    );
}

#[test]
fn stale_suppression_fails_the_gate() {
    let toml = r#"
[[allow]]
rule = "BX020"
path = "crates/fixture/src/lib.rs"
contains = "this snippet appears nowhere"
justification = "entry kept after the finding was fixed"
"#;
    let config = Config::parse(toml).expect("baseline parses");
    let text = std::fs::read_to_string(format!(
        "{}/tests/fixtures/bx020_clean.rs",
        env!("CARGO_MANIFEST_DIR")
    ))
    .expect("fixture readable");
    let diags = lint_source("crates/fixture/src/lib.rs", &text, &config);
    let outcome = apply_baseline(diags, &config);
    assert_eq!(outcome.stale_allows.len(), 1, "{:?}", outcome.stale_allows);
    assert!(!outcome.is_clean(), "a stale [[allow]] must fail the gate");
    assert!(
        outcome.stale_allows[0].contains("BX020"),
        "stale message names the rule: {}",
        outcome.stale_allows[0]
    );
}

#[test]
fn live_suppression_keeps_the_gate_green() {
    let toml = r#"
[[allow]]
rule = "BX020"
path = "crates/fixture/src/lib.rs"
justification = "fixture exercises deliberate raw writes"

[[allow]]
rule = "BX001"
path = "crates/fixture/src/lib.rs"
justification = "fixture exercises raw pager calls"
"#;
    let config = Config::parse(toml).expect("baseline parses");
    let text = std::fs::read_to_string(format!(
        "{}/tests/fixtures/bx020_bad.rs",
        env!("CARGO_MANIFEST_DIR")
    ))
    .expect("fixture readable");
    let diags = lint_source("crates/fixture/src/lib.rs", &text, &config);
    let outcome = apply_baseline(diags, &config);
    assert!(
        outcome.unsuppressed.is_empty(),
        "{:?}",
        outcome.unsuppressed
    );
    assert_eq!(
        outcome.stale_allows.len(),
        1,
        "the BX001 entry matches nothing in the BX020 fixture"
    );
    assert_eq!(outcome.suppressed.len(), 3);
}
