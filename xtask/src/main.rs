#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Repository automation, invoked as `cargo xtask <command>`.
//!
//! The only command so far is `analyze`: the workspace-wide static-analysis
//! gate. It runs, in order,
//!
//! 1. `cargo fmt --all --check`;
//! 2. a curated `cargo clippy` pass with `-D warnings` plus a few
//!    deny-listed lints (`dbg_macro`, `todo`, `unimplemented`); the library
//!    lint policy (panics, `as` casts, dropped reports, `std::fs`, clocks,
//!    `!Sync` state, bare `#[allow]`) is denied at each library crate root;
//! 3. an unsafe-code audit: every crate root must carry
//!    `#![forbid(unsafe_code)]` and no source file may contain an `unsafe`
//!    token outside comments;
//! 4. a crate-root sweep: every crate root must carry
//!    `#![warn(missing_docs)]` and every library crate root the policy line;
//! 5. the **source lint**: the `boxes-lint` BX rule catalog (pager I/O
//!    discipline, swallowed I/O errors, span balance, lock discipline,
//!    durable-file discipline) over every crate, against the checked-in
//!    `lint.toml` baseline, plus the site budget: the `[[allow]]`ed
//!    findings and the `#[expect]`ed clippy panic and cast sites, counted
//!    by a force-warn clippy pass, must fit `[limits] max_baselined`. The
//!    JSON report lands in `target/lint-report.json`. `--lint-only` runs
//!    just this step; `--baseline` prints suggested suppression entries for
//!    the current unsuppressed findings.
//! 6. a **semantic lint**: the [`boxes_audit::Auditable`] auditors are run
//!    over randomized `boxes_xml::workload` update streams after every
//!    operation, failing on any [`boxes_audit::Violation`]. The run also
//!    performs a negative control — a block is deliberately corrupted
//!    through the pager and the audit must *report* it (typed violation,
//!    no panic) — so a silently broken auditor fails the gate too.
//! 7. a **profile/attribution pass** (`--profile-only` runs just this
//!    step): seeded workloads are replayed through every scheme with the
//!    `boxes-trace` span layer live, and the accounting identity is
//!    enforced pager by pager — every I/O a pager counts (including
//!    fault-service retries, repairs and backoff ticks) must be attributed
//!    to a span open on that pager's own trace, with no spans leaked. The
//!    pass writes the deterministic `target/trace-report.json` (one report
//!    per traced pager) and `target/BENCH_boxes.json` artifacts.
//! 8. a **process-kill crash matrix** (`--crash-file-only` runs just this
//!    step): this binary re-execs itself as `xtask crash-child` running a
//!    file-backed workload, `SIGKILL`s the child at seeded kill points,
//!    optionally shreds the unsynced log tail the way a power cut would,
//!    recovers from the surviving files, and demands exactly the committed
//!    prefix back (plus an fsync-poisoning negative control). Report:
//!    `target/crash-file-report.json`.
//!
//! Exit status is zero only when every step passes.

mod analyze;

use std::path::{Path, PathBuf};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("analyze") => analyze::analyze(&args[1..]),
        // The process-kill crash matrix re-enters this binary as its own
        // victim: the parent sweep spawns `xtask crash-child …` and kills
        // it at seeded points (see `analyze::crashfile`).
        Some("crash-child") => analyze::crashfile::crash_child(&args[1..]),
        _ => {
            eprintln!(
                "usage: cargo xtask analyze [--seed N] [--skip-cargo] [--lint-only] \
                 [--chaos-only] [--crash-file-only] [--profile-only] [--baseline]"
            );
            2
        }
    };
    std::process::exit(code);
}

/// Root of the workspace (parent of the `xtask` crate directory).
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask lives one level below the workspace root")
        .to_path_buf()
}
