//! Printing a run: one `metric` line per metric for people and for
//! `--repeat`, then the one-line JSON result the benchmark contract reads.

use std::fmt::Write as _;
use std::path::Path;

use crate::workloads::{Config, Run, Workload};

/// One named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit, e.g. `us`, `s`, `1/s`, `count`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Print `run` in full: header, every metric, problems, then the JSON line.
pub fn print_run(workload: Workload, cfg: &Config, run: &Run) {
    println!(
        "bench_e2e workload={} seed={} seconds={} trace={} size={:?} digest={:016x}",
        workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.size,
        run.digest
    );
    for (scope, metrics) in [
        ("e2e", &run.end_to_end),
        ("detail", &run.detail),
        ("layer", &run.layers),
    ] {
        for m in metrics {
            println!("metric {scope} {} {} {}", m.name, m.value, m.unit);
        }
    }
    for p in &run.problems {
        println!("problem {p}");
    }
    let reported = if cfg.trace {
        &run.layers
    } else {
        &run.end_to_end
    };
    println!("{}", json_line(run, reported));
}

/// The result object: `correct`, `attempted`, `failed` and `metrics`.
pub fn json_line(run: &Run, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.correct,
        run.attempted,
        run.failed,
        metrics_object(metrics)
    )
}

fn metrics_object(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push('}');
    out
}

/// Write a traced run's numbers to `target/bench/<workload>.trace.json`:
/// the per-layer metrics plus the end-to-end metrics as measured with the
/// timers in place.
pub fn write_trace(workload: Workload, cfg: &Config, run: &Run) -> std::io::Result<()> {
    let dir = Path::new("target/bench");
    std::fs::create_dir_all(dir)?;
    let body = format!(
        "{{\"schema\": \"boxes-bench-e2e-trace/1\", \"workload\": \"{}\", \"seed\": {}, \
         \"seconds\": {}, \"correct\": {}, \"layers\": {}, \"end_to_end_traced\": {}, \
         \"detail_traced\": {}}}\n",
        workload.name(),
        cfg.seed,
        cfg.seconds,
        run.correct,
        metrics_object(&run.layers),
        metrics_object(&run.end_to_end),
        metrics_object(&run.detail),
    );
    std::fs::write(dir.join(format!("{}.trace.json", workload.name())), body)
}
