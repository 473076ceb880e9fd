//! The `analyze` command: orchestration of the workspace static-analysis
//! gate. The individual passes live in the submodules —
//! [`sweeps`] (crate-root attribute audits), [`lint`] (the `boxes-lint`
//! source analyzer plus the [`budget`] count of `#[expect]`ed clippy
//! sites), [`semantic`] (auditor-driven workload replay),
//! [`crash`] (WAL crash-injection sweeps with recovery verification),
//! [`chaos`] (seeded faulty-disk sweeps: retry, read-repair, degraded
//! mode), [`sessions`] (concurrent snapshot-reader stress plus the
//! `session-report.json` artifact), and [`profile`] (trace-attribution
//! identity checks plus the `trace-report.json` / `BENCH_boxes.json`
//! artifacts).

mod budget;
mod chaos;
mod crash;
pub(crate) mod crashfile;
mod lint;
mod profile;
mod semantic;
mod sessions;
mod sweeps;

use std::path::Path;
use std::process::Command;

/// Entry point for `cargo xtask analyze`. Returns the process exit code.
pub(crate) fn analyze(args: &[String]) -> i32 {
    let mut seed: u64 = 0xb0c5_ed01;
    let mut skip_cargo = false;
    let mut lint_only = false;
    let mut chaos_only = false;
    let mut crash_file_only = false;
    let mut profile_only = false;
    let mut sessions_only = false;
    let mut baseline = false;
    let mut explain: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--explain" => match it.next() {
                Some(id) => explain = Some(id.clone()),
                None => {
                    eprintln!("--explain needs a rule ID (e.g. --explain BX012)");
                    return 2;
                }
            },
            "--seed" => match it.next().and_then(|s| s.parse().ok()) {
                Some(s) => seed = s,
                None => {
                    eprintln!("--seed needs an integer argument");
                    return 2;
                }
            },
            "--skip-cargo" => skip_cargo = true,
            "--lint-only" => lint_only = true,
            "--chaos-only" => chaos_only = true,
            "--crash-file-only" => crash_file_only = true,
            "--profile-only" => profile_only = true,
            "--sessions-only" => sessions_only = true,
            "--baseline" => baseline = true,
            other => {
                eprintln!("unknown argument `{other}`");
                return 2;
            }
        }
    }

    let root = crate::workspace_root();

    if let Some(id) = explain {
        return i32::from(!lint::explain(&id));
    }
    if baseline {
        return i32::from(!lint::emit_baseline(&root));
    }
    if lint_only {
        return i32::from(!lint::run(&root));
    }
    if chaos_only {
        return i32::from(!chaos::chaos_lint(seed, &root));
    }
    if crash_file_only {
        return i32::from(!crashfile::crash_file_lint(seed, &root));
    }
    if profile_only {
        return i32::from(!profile::profile_lint(seed, &root));
    }
    if sessions_only {
        return i32::from(!sessions::sessions_lint(&root));
    }

    let mut failures = 0u32;
    let mut step = |name: &str, ok: bool| {
        println!("analyze: {name:<24} {}", if ok { "ok" } else { "FAILED" });
        if !ok {
            failures += 1;
        }
    };

    if skip_cargo {
        println!("analyze: fmt/clippy skipped (--skip-cargo)");
    } else {
        step("cargo fmt --check", run_fmt_check(&root));
        step("cargo clippy", run_clippy(&root));
    }
    step("unsafe-code audit", sweeps::audit_unsafe(&root));
    step("crate-root sweep", sweeps::audit_crate_roots(&root));
    step("source lint", lint::run(&root));
    step("semantic lint", semantic::semantic_lint(seed));
    step("crash recovery", crash::crash_recovery_lint(seed));
    step("crash-file matrix", crashfile::crash_file_lint(seed, &root));
    step("chaos sweep", chaos::chaos_lint(seed, &root));
    step("session stress", sessions::sessions_lint(&root));
    step("profile/attribution", profile::profile_lint(seed, &root));

    if failures == 0 {
        println!("analyze: all checks passed");
        0
    } else {
        eprintln!("analyze: {failures} check(s) failed");
        1
    }
}

fn run_fmt_check(root: &Path) -> bool {
    run_cargo(root, &["fmt", "--all", "--check"])
}

fn run_clippy(root: &Path) -> bool {
    run_cargo(
        root,
        &[
            "clippy",
            "--workspace",
            "--all-targets",
            "--",
            "-D",
            "warnings",
            "-D",
            "clippy::dbg_macro",
            "-D",
            "clippy::todo",
            "-D",
            "clippy::unimplemented",
        ],
    )
}

fn run_cargo(root: &Path, args: &[&str]) -> bool {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    match Command::new(cargo).args(args).current_dir(root).status() {
        Ok(status) => status.success(),
        Err(e) => {
            eprintln!("analyze: failed to spawn cargo {}: {e}", args.join(" "));
            false
        }
    }
}
