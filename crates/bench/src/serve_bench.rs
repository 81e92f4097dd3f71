//! Serving benchmark: the numbers behind the artifact + `af-serve` layer.
//!
//! Measures, at the current `AF_SCALE`:
//! * **artifact size** — bytes of a full `AutoFormula::save` (config +
//!   featurizer + model + self-contained index);
//! * **cold-start load vs rebuild** — `AutoFormula::load` from bytes
//!   against re-embedding the reference corpus with `build_index` (the
//!   only option before artifacts existed). The ratio is the point of the
//!   persistence layer: a serving process restarts in milliseconds instead
//!   of re-running the embedding model over every reference sheet;
//! * **concurrent query latency** — p50/p99 of `ServeHandle` predictions
//!   under multi-threaded load (one shared handle), plus the
//!   micro-batched `predict_batch` throughput.
//!
//! Results are written to `BENCH_serve.json`. The committed file is a
//! small-scale baseline from the fixed benchmark machine; the CI smoke job
//! regenerates tiny-scale numbers per PR.
//!
//! With `--features failpoints` the report additionally carries a
//! `chaos` block: a fault-injecting closed loop (probabilistic scan
//! panics, rank errors, and compaction faults racing concurrent writes)
//! measuring degraded-mode behavior — how many queries degraded, what
//! the tail looked like under faults, and whether recovery restored the
//! healthy tail. Without the feature the block is `null`.

use af_core::pipeline::{AutoFormula, PredictOptions};
use af_core::{index::IndexOptions, AutoFormulaConfig};
use af_corpus::organization::{OrgSpec, Scale};
use af_embed::{CellFeaturizer, FeatureMask, SbertSim};
use af_grid::CellRef;
// The one shared percentile implementation (af-obs) — runtime histogram
// quantiles and bench reports agree on the same rank convention.
use af_obs::percentile;
use af_serve::ServeHandle;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Training episodes for the embedding model (the bench measures the
/// serving layer, not model quality).
const TRAIN_EPISODES: usize = 48;
/// Cap on distinct query targets.
const MAX_QUERIES: usize = 60;
/// Reader threads for the concurrent probe.
const READER_THREADS: usize = 4;
/// Rounds each reader replays the query list.
const READER_ROUNDS: usize = 3;
/// Worker threads in the mixed read/write probe.
const MIXED_THREADS: usize = 4;
/// Operations each mixed worker issues.
const MIXED_OPS_PER_THREAD: usize = 75;
/// Every N-th operation is an `add_workbook` (a 4% write mix), so the
/// pooled p99 sits in the write tail — the latency an operation actually
/// sees when it lands behind an ingest.
const MIXED_ADD_EVERY: usize = 25;

/// One measured serving configuration.
#[derive(Debug, Clone)]
pub struct ServeBenchReport {
    pub scale: &'static str,
    pub threads: usize,
    pub n_sheets: usize,
    pub n_regions: usize,
    pub artifact_bytes: usize,
    /// Rebuilding the index from the raw workbooks (embed + index).
    pub rebuild_ms: f64,
    /// `AutoFormula::load` from artifact bytes.
    pub load_ms: f64,
    /// `rebuild_ms / load_ms` — how much faster a cold start got.
    pub load_speedup: f64,
    pub queries: usize,
    pub sequential_p50_ms: f64,
    pub sequential_p99_ms: f64,
    pub concurrent_readers: usize,
    pub concurrent_p50_ms: f64,
    pub concurrent_p99_ms: f64,
    pub concurrent_queries_per_sec: f64,
    /// Micro-batched `predict_batch` throughput (one embed pass per burst).
    pub batch_queries_per_sec: f64,
    /// Sustained add-while-query probe with delta segments disabled —
    /// every write clones the whole index.
    pub mixed_baseline: MixedLoadReport,
    /// Same probe with delta segments (the default config): writes clone
    /// only the delta.
    pub mixed_deltas: MixedLoadReport,
    /// `mixed_baseline.mixed_p99_ms / mixed_deltas.mixed_p99_ms` — how
    /// much the delta write path improves tail latency under mixed
    /// read/write load.
    pub mixed_p99_speedup: f64,
    /// Degraded-mode probe (`--features failpoints` builds only).
    pub chaos: Option<ChaosReport>,
}

/// Numbers from the fault-injecting closed loop: queries served while
/// probabilistic faults (scan panics, rank errors, compaction failures)
/// race concurrent writes, then again after faults clear and the index
/// recovers.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Queries issued under fault injection. Every one returned an
    /// outcome — the loop would have panicked otherwise.
    pub ops: usize,
    /// Outcomes flagged degraded (index skipped, candidate dropped, or
    /// deadline cut).
    pub degraded: usize,
    /// Outcomes whose per-query deadline expired.
    pub deadline_exceeded: usize,
    /// The index was quarantined when the storm ended (before recovery).
    pub quarantined_at_end: bool,
    /// Compactor supervision incidents during the storm.
    pub compactor_restarts: u64,
    /// Writes that fell back to inline compaction during the storm.
    pub inline_compactions: u64,
    /// Query p99 before any fault was armed.
    pub healthy_p99_ms: f64,
    /// Query p99 while faults were firing (degraded answers included).
    pub faulted_p99_ms: f64,
    /// Query p99 after `clear` + `recover` — the recovery check.
    pub recovered_p99_ms: f64,
}

/// Latencies from one mixed read/write run: `MIXED_THREADS` closed-loop
/// workers each issue `MIXED_OPS_PER_THREAD` operations, every
/// `MIXED_ADD_EVERY`-th an `add_workbook` and the rest predictions.
#[derive(Debug, Clone)]
pub struct MixedLoadReport {
    pub read_p50_ms: f64,
    pub read_p99_ms: f64,
    pub add_p50_ms: f64,
    pub add_p99_ms: f64,
    /// p99 over every operation in the mix (reads and adds pooled) — the
    /// tail latency an operation sees under sustained mixed load.
    pub mixed_p99_ms: f64,
    pub reads: usize,
    pub adds: usize,
}

/// Run the add-while-query probe against one handle configuration.
pub(crate) fn mixed_load(
    handle: &af_serve::ServeHandle,
    org: &af_corpus::OrgCorpus,
    targets: &[(usize, CellRef)],
) -> MixedLoadReport {
    let (read_ms, add_ms) = mixed_load_samples(handle, org, targets);
    mixed_report(read_ms, add_ms)
}

/// The raw per-operation latencies (ms) behind [`mixed_load`]:
/// `(reads, adds)`, unsorted. The obs overhead probe pools these across
/// several runs so its p99 is a deep order statistic instead of the
/// 3rd-worst op of a single 300-op run.
pub(crate) fn mixed_load_samples(
    handle: &af_serve::ServeHandle,
    org: &af_corpus::OrgCorpus,
    targets: &[(usize, CellRef)],
) -> (Vec<f64>, Vec<f64>) {
    let holdout = org.workbooks.len() - 1;
    let mut read_ms: Vec<f64> = Vec::new();
    let mut add_ms: Vec<f64> = Vec::new();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..MIXED_THREADS)
            .map(|t| {
                let handle = handle.clone();
                scope.spawn(move || {
                    let mut reads = Vec::new();
                    let mut adds = Vec::new();
                    for op in 0..MIXED_OPS_PER_THREAD {
                        if op % MIXED_ADD_EVERY == MIXED_ADD_EVERY - 1 {
                            let wb = &org.workbooks[(t + op) % org.workbooks.len()];
                            let q = Instant::now();
                            let epoch = handle.add_workbook(wb);
                            std::hint::black_box(epoch);
                            adds.push(q.elapsed().as_secs_f64() * 1e3);
                        } else {
                            let (si, at) = targets[(t + op) % targets.len()];
                            let sheet = &org.workbooks[holdout].sheets[si];
                            let q = Instant::now();
                            let outcome = handle.query(&[(sheet, at)], PredictOptions::default());
                            std::hint::black_box(&outcome);
                            reads.push(q.elapsed().as_secs_f64() * 1e3);
                        }
                    }
                    (reads, adds)
                })
            })
            .collect();
        for w in workers {
            let (r, a) = w.join().expect("mixed worker");
            read_ms.extend(r);
            add_ms.extend(a);
        }
    });
    (read_ms, add_ms)
}

/// Reduce raw mixed-load latencies to the reported percentiles.
pub(crate) fn mixed_report(mut read_ms: Vec<f64>, mut add_ms: Vec<f64>) -> MixedLoadReport {
    read_ms.sort_by(|a, b| a.total_cmp(b));
    add_ms.sort_by(|a, b| a.total_cmp(b));
    let mut pooled = read_ms.clone();
    pooled.extend_from_slice(&add_ms);
    pooled.sort_by(|a, b| a.total_cmp(b));
    MixedLoadReport {
        read_p50_ms: percentile(&read_ms, 0.5),
        read_p99_ms: percentile(&read_ms, 0.99),
        add_p50_ms: percentile(&add_ms, 0.5),
        add_p99_ms: percentile(&add_ms, 0.99),
        mixed_p99_ms: percentile(&pooled, 0.99),
        reads: read_ms.len(),
        adds: add_ms.len(),
    }
}

/// The fault-injecting closed loop (only built with `failpoints`): serve
/// a handle with small deltas, arm probabilistic faults, run a
/// multi-threaded read loop against concurrent writes, then clear the
/// faults, recover the index, and re-measure.
#[cfg(feature = "failpoints")]
fn chaos_probe(
    artifact: &bytes::Bytes,
    org: &af_corpus::OrgCorpus,
    targets: &[(usize, CellRef)],
) -> Option<ChaosReport> {
    use af_core::failpoint::{self, FailAction};
    let holdout = org.workbooks.len() - 1;
    let (mut af, index) =
        AutoFormula::load_bytes_artifact(artifact.clone()).expect("artifact loads");
    af.model.cfg.delta_max_sheets = 2;
    let handle = ServeHandle::new(af, index);

    let run_queries = |tag: &str| -> Vec<f64> {
        let mut ms = Vec::new();
        for round in 0..2 {
            for &(si, at) in targets {
                let sheet = &org.workbooks[holdout].sheets[si];
                let q = Instant::now();
                let o = handle.query(&[(sheet, at)], PredictOptions::default());
                std::hint::black_box(&o);
                ms.push(q.elapsed().as_secs_f64() * 1e3);
                std::hint::black_box((tag, round));
            }
        }
        ms.sort_by(|a, b| a.total_cmp(b));
        ms
    };
    let healthy = run_queries("healthy");
    let stats_before = handle.stats();

    // Injected panics print through the panic hook; silence it while the
    // storm runs (the hook is process-global — restore on the way out).
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    failpoint::seed(0xBE4C_4A05);
    failpoint::configure("serve::shard_scan", FailAction::Panic, 0.02);
    failpoint::configure("serve::region_rank", FailAction::Error, 0.05);
    failpoint::configure("serve::compact", FailAction::Error, 0.50);

    let mut faulted: Vec<f64> = Vec::new();
    let mut ops = 0usize;
    let mut degraded = 0usize;
    let mut deadline_hit = 0usize;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..MIXED_THREADS)
            .map(|t| {
                let handle = handle.clone();
                scope.spawn(move || {
                    let mut ms = Vec::new();
                    let mut deg = 0usize;
                    let mut ddl = 0usize;
                    for op in 0..MIXED_OPS_PER_THREAD {
                        if op % MIXED_ADD_EVERY == MIXED_ADD_EVERY - 1 {
                            let wb = &org.workbooks[(t + op) % org.workbooks.len()];
                            handle.add_workbook(wb);
                        } else {
                            let (si, at) = targets[(t + op) % targets.len()];
                            let sheet = &org.workbooks[holdout].sheets[si];
                            let q = Instant::now();
                            let o =
                                handle.query(&[(sheet, at)], PredictOptions::default()).remove(0);
                            ms.push(q.elapsed().as_secs_f64() * 1e3);
                            deg += o.degraded as usize;
                            ddl += o.deadline_exceeded as usize;
                        }
                    }
                    (ms, deg, ddl)
                })
            })
            .collect();
        for w in workers {
            let (ms, deg, ddl) = w.join().expect("chaos worker");
            ops += ms.len();
            degraded += deg;
            deadline_hit += ddl;
            faulted.extend(ms);
        }
    });
    faulted.sort_by(|a, b| a.total_cmp(b));
    let quarantined_at_end = handle.quarantined_since().is_some();

    failpoint::clear_all();
    std::panic::set_hook(hook);
    handle.recover();
    let recovered = run_queries("recovered");
    let stats_after = handle.stats();

    Some(ChaosReport {
        ops,
        degraded,
        deadline_exceeded: deadline_hit,
        quarantined_at_end,
        compactor_restarts: stats_after.compactor_restarts - stats_before.compactor_restarts,
        inline_compactions: stats_after.inline_compactions - stats_before.inline_compactions,
        healthy_p99_ms: percentile(&healthy, 0.99),
        faulted_p99_ms: percentile(&faulted, 0.99),
        recovered_p99_ms: percentile(&recovered, 0.99),
    })
}

#[cfg(not(feature = "failpoints"))]
fn chaos_probe(
    _artifact: &bytes::Bytes,
    _org: &af_corpus::OrgCorpus,
    _targets: &[(usize, CellRef)],
) -> Option<ChaosReport> {
    None
}

fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
        Scale::Full => "full",
    }
}

/// Run the serving benchmark at the `AF_SCALE` scale.
pub fn measure() -> ServeBenchReport {
    measure_full().report
}

/// Everything `measure()` produced plus the inputs the obs probe reuses:
/// the saved artifact and the query targets, so the `--features obs`
/// serve bin can run its overhead measurement against the exact same
/// trained system without a second training run.
pub struct ServeBenchRun {
    /// The regular serve bench report.
    pub report: ServeBenchReport,
    /// The saved artifact the probes serve from.
    pub artifact: bytes::Bytes,
    /// The generated reference corpus (holdout workbook included).
    pub org: af_corpus::OrgCorpus,
    /// Query targets into the holdout workbook.
    pub targets: Vec<(usize, CellRef)>,
}

/// Run the serving benchmark and keep the artifact + query set around.
pub fn measure_full() -> ServeBenchRun {
    let scale = Scale::from_env();
    let threads = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);

    // A briefly-trained system (same regime as the throughput bench).
    let universe = OrgSpec::web_crawl(scale).generate();
    let featurizer = CellFeaturizer::new(Arc::new(SbertSim::new(64)), FeatureMask::FULL);
    let cfg = AutoFormulaConfig { episodes: TRAIN_EPISODES, ..AutoFormulaConfig::default() };
    let (af, _) = AutoFormula::train(&universe.workbooks, featurizer, cfg, Default::default());

    // Reference index over all but the holdout workbook.
    let org = OrgSpec::pge(scale).generate();
    let n_wb = org.workbooks.len();
    let members: Vec<usize> = (0..n_wb.saturating_sub(1)).collect();
    let rebuild_started = Instant::now();
    let index = af.build_index(&org.workbooks, &members, IndexOptions::default());
    let rebuild_ms = rebuild_started.elapsed().as_secs_f64() * 1e3;

    // Artifact round trip: size and cold-start load time (best of 3 to
    // shave allocator noise off a sub-millisecond-to-millisecond number).
    let artifact = af.save(&index);
    let artifact_bytes = artifact.len();
    let mut load_ms = f64::INFINITY;
    let mut loaded = None;
    for _ in 0..3 {
        let bytes = artifact.clone(); // O(1): Bytes is an Arc window
        let t = Instant::now();
        let pair = AutoFormula::load_bytes_artifact(bytes).expect("artifact loads");
        load_ms = load_ms.min(t.elapsed().as_secs_f64() * 1e3);
        loaded = Some(pair);
    }
    let (loaded_af, loaded_index) = loaded.expect("three loads ran");
    let n_sheets = loaded_index.n_sheets();
    let n_regions = loaded_index.n_regions();

    // Serve the loaded artifact.
    let handle = ServeHandle::new(loaded_af, loaded_index);
    let holdout = n_wb - 1;
    let targets: Vec<(usize, CellRef)> = org.workbooks[holdout]
        .sheets
        .iter()
        .enumerate()
        .flat_map(|(si, s)| s.formulas().map(move |(at, _)| (si, at)))
        .take(MAX_QUERIES)
        .collect();

    // Sequential latency.
    let mut seq_ms: Vec<f64> = Vec::with_capacity(targets.len());
    for &(si, at) in &targets {
        let sheet = &org.workbooks[holdout].sheets[si];
        let t = Instant::now();
        let outcome = handle.query(&[(sheet, at)], PredictOptions::default());
        std::hint::black_box(&outcome);
        seq_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    seq_ms.sort_by(|a, b| a.total_cmp(b));

    // Concurrent latency: READER_THREADS threads replay the query list
    // against one shared handle.
    let started = Instant::now();
    let mut all_ms: Vec<f64> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..READER_THREADS)
            .map(|t| {
                let handle = handle.clone();
                let org = &org;
                let targets = &targets;
                scope.spawn(move || {
                    let mut ms = Vec::with_capacity(targets.len() * READER_ROUNDS);
                    for round in 0..READER_ROUNDS {
                        for qi in 0..targets.len() {
                            // Stagger start points so threads do not march
                            // in lockstep over identical queries.
                            let (si, at) = targets[(qi + t + round) % targets.len()];
                            let sheet = &org.workbooks[org.workbooks.len() - 1].sheets[si];
                            let q = Instant::now();
                            let outcome = handle.query(&[(sheet, at)], PredictOptions::default());
                            std::hint::black_box(&outcome);
                            ms.push(q.elapsed().as_secs_f64() * 1e3);
                        }
                    }
                    ms
                })
            })
            .collect();
        for h in handles {
            all_ms.extend(h.join().expect("reader thread"));
        }
    });
    let concurrent_seconds = started.elapsed().as_secs_f64();
    let concurrent_queries = all_ms.len();
    all_ms.sort_by(|a, b| a.total_cmp(b));

    // Micro-batched burst: all targets in one predict_batch call.
    let batch_queries: Vec<(&af_grid::Sheet, CellRef)> =
        targets.iter().map(|&(si, at)| (&org.workbooks[holdout].sheets[si], at)).collect();
    let t = Instant::now();
    let batch = handle.query(&batch_queries, PredictOptions::default());
    std::hint::black_box(&batch);
    let batch_seconds = t.elapsed().as_secs_f64();

    // Sustained add-while-query: the same artifact served two ways. The
    // baseline disables delta segments (every write clones the whole
    // index); the contender absorbs writes into the delta.
    let (mut base_af, base_index) =
        AutoFormula::load_bytes_artifact(artifact.clone()).expect("artifact loads");
    base_af.model.cfg.delta_max_sheets = 0;
    let baseline_handle = ServeHandle::new(base_af, base_index);
    let mixed_baseline = mixed_load(&baseline_handle, &org, &targets);
    drop(baseline_handle);

    let (delta_af, delta_index) =
        AutoFormula::load_bytes_artifact(artifact.clone()).expect("artifact loads");
    let delta_handle = ServeHandle::new(delta_af, delta_index);
    let mixed_deltas = mixed_load(&delta_handle, &org, &targets);
    drop(delta_handle);
    let mixed_p99_speedup = mixed_baseline.mixed_p99_ms / mixed_deltas.mixed_p99_ms.max(1e-9);

    // Degraded-mode probe — a no-op `None` unless built with `failpoints`.
    let chaos = chaos_probe(&artifact, &org, &targets);

    let report = ServeBenchReport {
        scale: scale_name(scale),
        threads,
        n_sheets,
        n_regions,
        artifact_bytes,
        rebuild_ms,
        load_ms,
        load_speedup: rebuild_ms / load_ms.max(1e-9),
        queries: targets.len(),
        sequential_p50_ms: percentile(&seq_ms, 0.5),
        sequential_p99_ms: percentile(&seq_ms, 0.99),
        concurrent_readers: READER_THREADS,
        concurrent_p50_ms: percentile(&all_ms, 0.5),
        concurrent_p99_ms: percentile(&all_ms, 0.99),
        concurrent_queries_per_sec: concurrent_queries as f64 / concurrent_seconds.max(1e-9),
        batch_queries_per_sec: batch_queries.len() as f64 / batch_seconds.max(1e-9),
        mixed_baseline,
        mixed_deltas,
        mixed_p99_speedup,
        chaos,
    };
    ServeBenchRun { report, artifact, org, targets }
}

fn chaos_json(c: &Option<ChaosReport>) -> String {
    match c {
        None => "null".to_string(),
        Some(c) => format!(
            concat!(
                "{{\n",
                "    \"ops\": {},\n",
                "    \"degraded\": {},\n",
                "    \"deadline_exceeded\": {},\n",
                "    \"quarantined_at_end\": {},\n",
                "    \"compactor_restarts\": {},\n",
                "    \"inline_compactions\": {},\n",
                "    \"healthy_p99_ms\": {:.3},\n",
                "    \"faulted_p99_ms\": {:.3},\n",
                "    \"recovered_p99_ms\": {:.3}\n",
                "  }}"
            ),
            c.ops,
            c.degraded,
            c.deadline_exceeded,
            c.quarantined_at_end,
            c.compactor_restarts,
            c.inline_compactions,
            c.healthy_p99_ms,
            c.faulted_p99_ms,
            c.recovered_p99_ms,
        ),
    }
}

fn mixed_json(r: &MixedLoadReport) -> String {
    format!(
        concat!(
            "{{\n",
            "    \"read_p50_ms\": {:.3},\n",
            "    \"read_p99_ms\": {:.3},\n",
            "    \"add_p50_ms\": {:.3},\n",
            "    \"add_p99_ms\": {:.3},\n",
            "    \"mixed_p99_ms\": {:.3},\n",
            "    \"reads\": {},\n",
            "    \"adds\": {}\n",
            "  }}"
        ),
        r.read_p50_ms, r.read_p99_ms, r.add_p50_ms, r.add_p99_ms, r.mixed_p99_ms, r.reads, r.adds,
    )
}

/// Serialize the report as JSON (hand-rolled; flat schema, no serde in the
/// workspace).
pub fn to_json(r: &ServeBenchReport) -> String {
    format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"serve\",\n",
            "  \"scale\": \"{}\",\n",
            "  \"threads\": {},\n",
            "  \"n_sheets\": {},\n",
            "  \"n_regions\": {},\n",
            "  \"artifact_bytes\": {},\n",
            "  \"rebuild_ms\": {:.3},\n",
            "  \"load_ms\": {:.3},\n",
            "  \"load_speedup\": {:.1},\n",
            "  \"queries\": {},\n",
            "  \"sequential_p50_ms\": {:.3},\n",
            "  \"sequential_p99_ms\": {:.3},\n",
            "  \"concurrent_readers\": {},\n",
            "  \"concurrent_p50_ms\": {:.3},\n",
            "  \"concurrent_p99_ms\": {:.3},\n",
            "  \"concurrent_queries_per_sec\": {:.2},\n",
            "  \"batch_queries_per_sec\": {:.2},\n",
            "  \"mixed_threads\": {},\n",
            "  \"mixed_ops_per_thread\": {},\n",
            "  \"mixed_add_every\": {},\n",
            "  \"mixed_baseline\": {},\n",
            "  \"mixed_deltas\": {},\n",
            "  \"mixed_p99_speedup\": {:.2},\n",
            "  \"chaos\": {}\n",
            "}}\n"
        ),
        r.scale,
        r.threads,
        r.n_sheets,
        r.n_regions,
        r.artifact_bytes,
        r.rebuild_ms,
        r.load_ms,
        r.load_speedup,
        r.queries,
        r.sequential_p50_ms,
        r.sequential_p99_ms,
        r.concurrent_readers,
        r.concurrent_p50_ms,
        r.concurrent_p99_ms,
        r.concurrent_queries_per_sec,
        r.batch_queries_per_sec,
        MIXED_THREADS,
        MIXED_OPS_PER_THREAD,
        MIXED_ADD_EVERY,
        mixed_json(&r.mixed_baseline),
        mixed_json(&r.mixed_deltas),
        r.mixed_p99_speedup,
        chaos_json(&r.chaos),
    )
}

/// Write `BENCH_serve.json`.
pub fn write_json(report: &ServeBenchReport, path: &Path) {
    std::fs::write(path, to_json(report)).expect("write BENCH_serve.json");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parity with the sort-based percentile this file used to define
    /// locally: the shared af-obs implementation must reproduce the old
    /// `round(p·(n-1))` nearest-rank results exactly, so deduplicating
    /// the math changes no committed bench number.
    #[test]
    fn percentile_bounds() {
        let ms = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&ms, 0.0), 1.0);
        assert_eq!(percentile(&ms, 1.0), 4.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        let old = |sorted_ms: &[f64], p: f64| -> f64 {
            if sorted_ms.is_empty() {
                return 0.0;
            }
            let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
            sorted_ms[idx.min(sorted_ms.len() - 1)]
        };
        for n in 1..=40 {
            let sample: Vec<f64> = (0..n).map(|i| (i * i) as f64 * 0.25).collect();
            for p in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
                assert_eq!(percentile(&sample, p), old(&sample, p), "n={n} p={p}");
            }
        }
    }

    #[test]
    fn json_is_well_formed() {
        let r = ServeBenchReport {
            scale: "tiny",
            threads: 1,
            n_sheets: 10,
            n_regions: 20,
            artifact_bytes: 1234,
            rebuild_ms: 100.0,
            load_ms: 5.0,
            load_speedup: 20.0,
            queries: 8,
            sequential_p50_ms: 1.0,
            sequential_p99_ms: 2.0,
            concurrent_readers: 4,
            concurrent_p50_ms: 1.5,
            concurrent_p99_ms: 3.0,
            concurrent_queries_per_sec: 500.0,
            batch_queries_per_sec: 900.0,
            mixed_baseline: MixedLoadReport {
                read_p50_ms: 1.0,
                read_p99_ms: 4.0,
                add_p50_ms: 30.0,
                add_p99_ms: 60.0,
                mixed_p99_ms: 40.0,
                reads: 100,
                adds: 12,
            },
            mixed_deltas: MixedLoadReport {
                read_p50_ms: 1.0,
                read_p99_ms: 3.0,
                add_p50_ms: 5.0,
                add_p99_ms: 9.0,
                mixed_p99_ms: 8.0,
                reads: 120,
                adds: 12,
            },
            mixed_p99_speedup: 5.0,
            chaos: None,
        };
        let json = to_json(&r);
        assert!(json.contains("\"artifact_bytes\": 1234"));
        assert!(json.contains("\"load_speedup\": 20.0"));
        assert!(json.contains("\"mixed_p99_speedup\": 5.00"));
        assert!(json.contains("\"mixed_deltas\": {"));
        assert!(json.contains("\"chaos\": null"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());

        let with_chaos = ServeBenchReport {
            chaos: Some(ChaosReport {
                ops: 640,
                degraded: 37,
                deadline_exceeded: 4,
                quarantined_at_end: true,
                compactor_restarts: 6,
                inline_compactions: 2,
                healthy_p99_ms: 2.0,
                faulted_p99_ms: 5.0,
                recovered_p99_ms: 2.1,
            }),
            ..r
        };
        let json = to_json(&with_chaos);
        assert!(json.contains("\"degraded\": 37"));
        assert!(json.contains("\"quarantined_at_end\": true"));
        assert!(json.contains("\"compactor_restarts\": 6"));
        assert!(json.contains("\"recovered_p99_ms\": 2.100"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
