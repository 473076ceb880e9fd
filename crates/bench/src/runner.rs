//! Scheme construction and stream execution for the experiments.

use boxes_core::bbox::BBoxConfig;
use boxes_core::pager::{IoStats, Pager, PagerConfig};
use boxes_core::wbox::WBoxConfig;
use boxes_core::xml::workload::UpdateStream;
use boxes_core::{BBoxScheme, DocumentDriver, LabelingScheme, NaiveScheme, WBoxScheme};
use std::time::{Duration, Instant};

/// Which labeling scheme to construct — the lines of Figures 5–9.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchemeKind {
    /// Basic W-BOX.
    WBox,
    /// W-BOX-O (start/end pair optimization).
    WBoxO,
    /// W-BOX with ordinal size fields.
    WBoxOrdinal,
    /// Basic B-BOX.
    BBox,
    /// B-BOX-O (ordinal size fields).
    BBoxO,
    /// naive-k with the given number of extra gap bits.
    Naive(u32),
}

impl SchemeKind {
    /// Display name matching the paper's legends.
    pub fn name(&self) -> String {
        match self {
            SchemeKind::WBox => "W-BOX".into(),
            SchemeKind::WBoxO => "W-BOX-O".into(),
            SchemeKind::WBoxOrdinal => "W-BOX(ord)".into(),
            SchemeKind::BBox => "B-BOX".into(),
            SchemeKind::BBoxO => "B-BOX-O".into(),
            SchemeKind::Naive(k) => format!("naive-{k}"),
        }
    }

    /// The full line-up of Figures 5–9: both BOX variants and naive-k for
    /// k ∈ {1, 4, 16, 64, 256}.
    pub fn paper_lineup() -> Vec<SchemeKind> {
        vec![
            SchemeKind::BBox,
            SchemeKind::BBoxO,
            SchemeKind::WBox,
            SchemeKind::WBoxO,
            SchemeKind::Naive(1),
            SchemeKind::Naive(4),
            SchemeKind::Naive(16),
            SchemeKind::Naive(64),
            SchemeKind::Naive(256),
        ]
    }

    /// A quick line-up without the most expensive naive variants.
    pub fn quick_lineup() -> Vec<SchemeKind> {
        vec![
            SchemeKind::BBox,
            SchemeKind::BBoxO,
            SchemeKind::WBox,
            SchemeKind::WBoxO,
            SchemeKind::Naive(4),
            SchemeKind::Naive(64),
        ]
    }
}

/// Outcome of replaying one stream on one scheme.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Scheme display name.
    pub scheme: String,
    /// Per-operation I/O costs inside the measurement window.
    pub costs: Vec<u64>,
    /// Aggregate I/O over the whole replay (including priming).
    pub total: IoStats,
    /// Bits per label at the end of the run.
    pub label_bits: u32,
    /// Blocks allocated at the end (index + LIDF).
    pub blocks_used: usize,
    /// Labels stored at the end.
    pub final_len: u64,
    /// Wall-clock time of the replay.
    pub elapsed: Duration,
}

impl RunResult {
    /// Mean per-operation I/O in the measurement window — the y-axis of
    /// Figures 5, 7 and 8.
    pub fn avg_io(&self) -> f64 {
        if self.costs.is_empty() {
            return 0.0;
        }
        self.costs.iter().sum::<u64>() as f64 / self.costs.len() as f64
    }

    /// Largest single-operation cost in the window.
    pub fn max_io(&self) -> u64 {
        self.costs.iter().copied().max().unwrap_or(0)
    }
}

fn drive<S: LabelingScheme>(name: String, scheme: S, stream: &UpdateStream) -> RunResult {
    let start = Instant::now();
    let pager = scheme.pager().clone();
    let before = pager.stats();
    let mut driver = DocumentDriver::load(scheme, &stream.base).expect("bulk load");
    let costs = driver.replay(&stream.ops).expect("stream replay");
    let total = pager.stats().since(&before);
    RunResult {
        scheme: name,
        costs: costs[stream.measure_from.min(costs.len())..].to_vec(),
        total,
        label_bits: driver.scheme.label_bits().expect("label bits"),
        blocks_used: pager.allocated_blocks(),
        final_len: driver.scheme.len(),
        elapsed: start.elapsed(),
    }
}

/// Build the scheme and replay the stream.
pub fn run_stream(kind: SchemeKind, stream: &UpdateStream, block_size: usize) -> RunResult {
    let pager = Pager::new(PagerConfig::with_block_size(block_size));
    match kind {
        SchemeKind::WBox => drive(
            kind.name(),
            WBoxScheme::new(pager, WBoxConfig::from_block_size(block_size)),
            stream,
        ),
        SchemeKind::WBoxO => drive(
            kind.name(),
            WBoxScheme::new(pager, WBoxConfig::from_block_size_paired(block_size)),
            stream,
        ),
        SchemeKind::WBoxOrdinal => drive(
            kind.name(),
            WBoxScheme::new(
                pager,
                WBoxConfig::from_block_size(block_size).with_ordinal(),
            ),
            stream,
        ),
        SchemeKind::BBox => drive(
            kind.name(),
            BBoxScheme::new(pager, BBoxConfig::from_block_size(block_size)),
            stream,
        ),
        SchemeKind::BBoxO => drive(
            kind.name(),
            BBoxScheme::new(
                pager,
                BBoxConfig::from_block_size(block_size).with_ordinal(),
            ),
            stream,
        ),
        SchemeKind::Naive(k) => drive(
            kind.name(),
            NaiveScheme::with_block_size(block_size, k),
            stream,
        ),
    }
}

/// Run a stream across several schemes, with progress on stderr.
pub fn run_schemes(
    kinds: &[SchemeKind],
    stream: &UpdateStream,
    block_size: usize,
) -> Vec<RunResult> {
    kinds
        .iter()
        .map(|&kind| {
            eprint!("  {:<12} ...", kind.name());
            let result = run_stream(kind, stream, block_size);
            eprintln!(" avg {:.2} I/Os, {:?}", result.avg_io(), result.elapsed);
            result
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use boxes_core::xml::workload::{concentrated, scattered};

    #[test]
    fn runner_measures_every_scheme_kind() {
        let stream = concentrated(300, 80);
        for kind in [
            SchemeKind::WBox,
            SchemeKind::WBoxO,
            SchemeKind::WBoxOrdinal,
            SchemeKind::BBox,
            SchemeKind::BBoxO,
            SchemeKind::Naive(4),
        ] {
            let r = run_stream(kind, &stream, 1024);
            assert_eq!(r.costs.len(), 80, "{:?}", kind);
            assert!(r.avg_io() > 0.0);
            assert!(r.label_bits > 0);
            assert_eq!(r.final_len, 2 * (301 + 80));
        }
    }

    #[test]
    fn concentrated_hurts_naive_more_than_boxes() {
        let stream = concentrated(2_000, 600);
        let bbox = run_stream(SchemeKind::BBox, &stream, 1024);
        let naive = run_stream(SchemeKind::Naive(4), &stream, 1024);
        assert!(
            naive.avg_io() > 3.0 * bbox.avg_io(),
            "naive {} vs B-BOX {}",
            naive.avg_io(),
            bbox.avg_io()
        );
    }

    #[test]
    fn scattered_is_kind_to_everyone() {
        let stream = scattered(2_000, 600);
        let naive = run_stream(SchemeKind::Naive(16), &stream, 1024);
        let bbox = run_stream(SchemeKind::BBox, &stream, 1024);
        // Figure 7: with evenly spread inserts the naive policies shine;
        // nobody should be doing relabel-scale work.
        assert!(naive.avg_io() < 12.0, "naive avg {}", naive.avg_io());
        assert!(bbox.avg_io() < 12.0, "bbox avg {}", bbox.avg_io());
    }

    #[test]
    fn measurement_window_respects_measure_from() {
        let mut stream = concentrated(300, 100);
        stream.measure_from = 40;
        let r = run_stream(SchemeKind::BBox, &stream, 1024);
        assert_eq!(r.costs.len(), 60);
    }
}
