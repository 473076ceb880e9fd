//! `--repeat N`: run each workload N times in fresh processes, with seeds
//! `seed`, `seed + 1`, …, and print each metric's median, quartiles and
//! spread (interquartile range over median). With `--trace`, every seed is
//! run untraced and traced, in alternating order, and the summary adds the
//! per-layer medians and the tracing overhead on each end-to-end metric.

use crate::stats::{median, quartiles};
use crate::workloads::Workload;
use crate::Args;

/// `metric` lines of one child run, in printed order:
/// (scope, name) → (value, unit).
type Sample = Vec<((String, String), (f64, String))>;

/// Run the repeats and print the summaries. True when every run was
/// correct.
pub fn run(args: &Args) -> bool {
    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut ok = true;
    for w in workloads {
        let (mut plain, mut traced) = (Vec::new(), Vec::new());
        for i in 0..args.repeat {
            let seed = args.config.seed + i as u64;
            let order: &[bool] = match (args.config.trace, i % 2) {
                (false, _) => &[false],
                (true, 0) => &[false, true],
                (true, _) => &[true, false],
            };
            for &trace in order {
                let output = args
                    .child(w, seed, trace)
                    .and_then(|mut child| child.output());
                match output {
                    Ok(out) if out.status.success() => {
                        let sample = parse(&String::from_utf8_lossy(&out.stdout));
                        if trace {
                            traced.push(sample);
                        } else {
                            plain.push(sample);
                        }
                    }
                    Ok(out) => {
                        ok = false;
                        eprintln!(
                            "bench_e2e: {} seed {seed} failed:\n{}{}",
                            w.name(),
                            String::from_utf8_lossy(&out.stdout),
                            String::from_utf8_lossy(&out.stderr)
                        );
                    }
                    Err(e) => {
                        ok = false;
                        eprintln!("bench_e2e: cannot start a run: {e}");
                    }
                }
            }
        }
        summarize(w, args, &plain, &traced);
    }
    ok
}

fn parse(stdout: &str) -> Sample {
    stdout
        .lines()
        .filter_map(|line| {
            let mut f = line.strip_prefix("metric ")?.split(' ');
            let (scope, name, value, unit) = (f.next()?, f.next()?, f.next()?, f.next()?);
            Some((
                (scope.to_string(), name.to_string()),
                (value.parse().ok()?, unit.to_string()),
            ))
        })
        .collect()
}

/// Values of `(scope, name)` across samples, with its unit.
fn column(samples: &[Sample], key: &(String, String)) -> (Vec<f64>, String) {
    let mut unit = String::new();
    let values = samples
        .iter()
        .filter_map(|s| {
            let (_, (v, u)) = s.iter().find(|(k, _)| k == key)?;
            unit.clone_from(u);
            Some(*v)
        })
        .collect();
    (values, unit)
}

fn summarize(w: Workload, args: &Args, plain: &[Sample], traced: &[Sample]) {
    println!(
        "== {}: {} run(s) per side, seeds {}..={} ==",
        w.name(),
        plain.len(),
        args.config.seed,
        args.config.seed + args.repeat.saturating_sub(1) as u64
    );
    println!(
        "{:<36} {:>6} {:>14} {:>14} {:>14} {:>8}",
        "metric", "unit", "median", "q1", "q3", "spread"
    );
    let row = |name: &str, values: &[f64], unit: &str| {
        let m = median(values);
        let (q1, q3) = quartiles(values);
        let spread = if m != 0.0 { (q3 - q1) / m.abs() } else { 0.0 };
        println!(
            "{name:<36} {unit:>6} {m:>14.4} {q1:>14.4} {q3:>14.4} {:>7.2}%",
            spread * 100.0
        );
    };
    let keys = |samples: &[Sample], scope: &str| -> Vec<(String, String)> {
        samples
            .first()
            .map(|s| {
                s.iter()
                    .map(|(k, _)| k)
                    .filter(|(sc, _)| sc == scope)
                    .cloned()
                    .collect()
            })
            .unwrap_or_default()
    };
    for scope in ["e2e", "detail"] {
        for key in keys(plain, scope) {
            let (values, unit) = column(plain, &key);
            row(&key.1, &values, &unit);
        }
    }
    if traced.is_empty() {
        return;
    }
    for key in keys(traced, "layer") {
        let (values, unit) = column(traced, &key);
        row(&key.1, &values, &unit);
    }
    println!("tracing overhead (traced median / untraced median - 1):");
    for scope in ["e2e", "detail"] {
        for key in keys(plain, scope) {
            let off = median(&column(plain, &key).0);
            let on = median(&column(traced, &key).0);
            if off != 0.0 {
                println!("  {:<34} {:>+7.2}%", key.1, (on / off - 1.0) * 100.0);
            }
        }
    }
}
