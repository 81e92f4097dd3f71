//! The traced run: per-layer metrics, from outside.
//!
//! Three rounds of the workload's request stream, each played three times
//! from the same state and with the same edits:
//!
//! * **recomposed** — the funnel rebuilt from the program's public granules
//!   on the unsharded index (`embed_sheet` → `similar_sheets` →
//!   `fine_window` + `region_distance` ranking → `adapt_region` walk), a
//!   span around each call;
//! * **core** — `AutoFormula::predict_prepared` on the same index, untraced;
//! * **served** — `ServeHandle::predict` / `predict_batch`, untraced.
//!
//! Each play meets every request equally cold, so their times compare. The
//! run fails unless every recomposed answer equals the served one. Around
//! the rounds, probes time the layers no query stream reaches.

use crate::inputs::{Inputs, BURST_MAX_TARGETS};
use crate::report::Metric;
use crate::run::Setup;
use crate::spans::{self_times_ns, Recorder};
use crate::stats::{percentile, sorted};
use crate::system::{answer, build, restart, Built, ServeLayout, STORE, TRAIN_EPISODES};
use crate::workloads::{
    elapsed_us as us, play_served, request, Answers, Op, Play, Stream, Workload,
};
use af_core::features::WindowOrigin;
use af_core::pipeline::{AutoFormula, PipelineVariant, Prediction};
use af_core::ReferenceIndex;
use af_formula::{parse_formula, Template};
use af_grid::{CellRef, Sheet};
use af_serve::ServeHandle;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Rounds of a traced run.
pub const ROUNDS: usize = 3;
/// Regions of the S2 ranking that S3 tries to adapt, as the pipeline does.
const S3_MAX_ATTEMPTS: usize = 8;
/// Provenance ids of workbooks added to the recomposition's index.
const ARRIVAL_ID_BASE: usize = 1 << 24;
/// Repeats of the slower probes; their median is reported.
const PROBE_REPEATS: usize = 3;

/// Counts taken where the work happens.
#[derive(Default)]
struct Counts {
    queries: u64,
    regions_ranked: u64,
    adapt_attempts: u64,
    answers: u64,
}

/// The funnel from public granules, one span per layer call.
fn recompose(
    rec: &mut Recorder,
    counts: &mut Counts,
    system: &AutoFormula,
    index: &ReferenceIndex,
    sheet: &Sheet,
    targets: &[CellRef],
) -> Answers {
    let cfg = system.cfg();
    let embedder = system.embedder();
    rec.next_request();
    rec.span("request", |rec| {
        let emb = rec.span("embed", |_| embedder.embed_sheet(sheet, false));
        targets
            .iter()
            .map(|&target| {
                counts.queries += 1;
                let prediction: Option<Prediction> = rec.span("query", |rec| {
                    let candidates =
                        rec.span("s1", |_| index.similar_sheets(&emb.coarse, cfg.k_sheets));
                    let ranked = rec.span("s2", |_| {
                        let window =
                            embedder.fine_window(&emb, sheet, WindowOrigin::Centered(target));
                        let mut ranked: Vec<(usize, f32)> = candidates
                            .iter()
                            .flat_map(|c| index.regions_of_sheet(c.id))
                            .map(|&rid| (rid, index.region_distance(rid, &window)))
                            .collect();
                        ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
                        ranked
                    });
                    counts.regions_ranked += ranked.len() as u64;
                    rec.span("s3", |rec| {
                        ranked.iter().take(S3_MAX_ATTEMPTS).find_map(|&(rid, dist)| {
                            counts.adapt_attempts += 1;
                            rec.span("s3.attempt", |_| {
                                system.adapt_region(
                                    index,
                                    &emb,
                                    sheet,
                                    target,
                                    rid,
                                    dist,
                                    PipelineVariant::Full,
                                )
                            })
                        })
                    })
                });
                counts.answers += u64::from(prediction.is_some());
                answer(prediction.filter(|p| p.s2_distance <= cfg.theta_region))
            })
            .collect()
    })
}

/// The pipeline's own entry point on the same index, untraced.
fn core_predict(
    system: &AutoFormula,
    index: &ReferenceIndex,
    sheet: &Sheet,
    targets: &[CellRef],
) -> Answers {
    let emb = system.embedder().embed_sheet(sheet, false);
    targets
        .iter()
        .map(|&target| {
            let p = system.predict_prepared(index, &emb, sheet, target, PipelineVariant::Full);
            answer(p.filter(|p| p.s2_distance <= system.cfg().theta_region))
        })
        .collect()
}

/// Play `ops` against the unsharded index: traced through the recomposed
/// funnel when there is a recorder, through `predict_prepared` otherwise.
fn play_index(
    mut traced: Option<(&mut Recorder, &mut Counts)>,
    system: &AutoFormula,
    index: &mut ReferenceIndex,
    inputs: &mut Inputs,
    ops: &[Op],
    k0: u64,
) -> Play {
    let mut play = Play::default();
    for (i, &op) in ops.iter().enumerate() {
        if let Op::Add(a) = op {
            let workbook = &inputs.arrivals[a];
            let embedder = system.embedder();
            match &mut traced {
                Some((rec, _)) => {
                    rec.next_request();
                    rec.span("index.add_workbook", |_| {
                        index.add_workbook(&embedder, workbook, ARRIVAL_ID_BASE + a)
                    })
                }
                None => index.add_workbook(&embedder, workbook, ARRIVAL_ID_BASE + a),
            }
            continue;
        }
        let (sheet, targets) = request(inputs, op, k0 + i as u64);
        let t = Instant::now();
        let answers = match &mut traced {
            Some((rec, counts)) => recompose(rec, counts, system, index, sheet, &targets),
            None => core_predict(system, index, sheet, &targets),
        };
        play.request_us.push((us(t), targets.len()));
        play.answers.push(answers);
    }
    play
}

fn p50(values: impl IntoIterator<Item = f64>) -> f64 {
    percentile(&sorted(values.into_iter().collect()), 0.50)
}

/// Everything the three plays of all rounds measured.
#[derive(Default)]
struct Plays {
    core: Vec<(f64, usize)>,
    served: Vec<(f64, usize)>,
    add_ms: Vec<f64>,
    after_add_us: Vec<f64>,
    requests: usize,
}

/// What a restarted process has: the artifact, the handle serving it, and
/// for the recomposition the same artifact loaded without the serving
/// layer, so that core and served times are of equally laid-out indexes.
struct Restarted {
    system: AutoFormula,
    index: ReferenceIndex,
    handle: ServeHandle,
    artifact: Vec<u8>,
}

impl Restarted {
    /// Load the artifact without the serving layer, beside the handle
    /// restarted from it.
    fn load(
        artifact: Vec<u8>,
        handle: ServeHandle,
        layout: &ServeLayout,
    ) -> Result<Restarted, String> {
        let (system, index) = match &layout.path {
            Some(path) => AutoFormula::load_mmap(path),
            None => AutoFormula::load(&artifact),
        }
        .map_err(|e| format!("loading the artifact unsharded: {e}"))?;
        Ok(Restarted { system, index, handle, artifact })
    }
}

/// One traced round: the three plays from one state, answers compared.
fn traced_round(
    rec: &mut Recorder,
    counts: &mut Counts,
    plays: &mut Plays,
    restarted: &mut Restarted,
    inputs: &mut Inputs,
    stream: &Stream,
    k0: u64,
) -> Result<(), String> {
    let Restarted { system, index, handle, .. } = restarted;
    let mutates = stream.ops.iter().any(|op| matches!(op, Op::Add(_)));
    // A stream that adds workbooks is played on a copy of the index, so
    // that every play starts from the state the handle was loaded from.
    let mut play = |traced: Option<(&mut Recorder, &mut Counts)>, inputs: &mut Inputs| match mutates
    {
        true => play_index(traced, system, &mut index.clone(), inputs, &stream.ops, k0),
        false => play_index(traced, system, index, inputs, &stream.ops, k0),
    };
    let recomposed = play(Some((rec, counts)), inputs);
    let core = play(None, inputs);
    play_served(handle, inputs, &stream.warmup, k0)?;
    let served = play_served(handle, inputs, &stream.ops, k0)?;

    for (i, (ours, theirs)) in recomposed.answers.iter().zip(&served.answers).enumerate() {
        if ours != theirs {
            return Err(format!("request {i}: recomposed {ours:?}, served {theirs:?}"));
        }
        if ours != &core.answers[i] {
            return Err(format!("request {i}: recomposed {ours:?}, core {:?}", core.answers[i]));
        }
    }
    plays.requests += recomposed.answers.len();
    plays.core.extend(core.request_us);
    plays.served.extend(served.request_us);
    plays.add_ms.extend(served.add_ms);
    plays.after_add_us.extend(served.after_add_us);
    Ok(())
}

/// Layer probes: what no query stream reaches, timed call by call.
fn probes(
    built: &mut Built,
    handle: &ServeHandle,
    inputs: &Inputs,
    scratch: &Path,
    write_layout: &ServeLayout,
) -> Result<(Vec<Metric>, Vec<u8>), String> {
    let mut out = Vec::new();
    let system = &built.system;
    let embedder = system.embedder();

    // af-embed + af-nn: one tensor pass over 16 distinct sheets.
    let sheets: Vec<&Sheet> =
        inputs.bursts.iter().take(BURST_MAX_TARGETS).map(|b| &b.sheet).collect();
    let batch_us = p50((0..30).map(|_| {
        let t = Instant::now();
        black_box(embedder.embed_sheets(&sheets, false));
        us(t) / sheets.len() as f64
    }));
    out.push(Metric::new("embed.batch16_us_per_sheet", "us", batch_us));

    // af-formula: parse a reference formula and extract its template.
    let parse_us = p50(built.index.regions.iter().take(2000).map(|region| {
        let t = Instant::now();
        black_box(parse_formula(&region.formula).ok().map(|e| Template::extract(&e)));
        us(t)
    }));
    out.push(Metric::new("formula.parse_template_us", "us", parse_us));

    // af-serve: pinning a snapshot, and a 16-query burst per query.
    const SNAPSHOTS: usize = 100_000;
    let t = Instant::now();
    for _ in 0..SNAPSHOTS {
        black_box(handle.snapshot());
    }
    out.push(Metric::new("serve.snapshot_ns", "ns", us(t) * 1e3 / SNAPSHOTS as f64));
    let burst_us = p50(inputs.bursts.iter().map(|burst| {
        let queries: Vec<(&Sheet, CellRef)> =
            burst.targets.iter().map(|&t| (&burst.sheet, t)).collect();
        let t = Instant::now();
        black_box(handle.predict_batch(&queries));
        us(t) / queries.len() as f64
    }));
    out.push(Metric::new("serve.batch16_us_per_query", "us", burst_us));

    // af-core::index: embed and index one sheet into a standalone delta.
    let mut delta = built.index.empty_like(system.cfg());
    let arriving = inputs.arrivals.iter().flat_map(|wb| &wb.sheets).take(60);
    let add_sheet_ms = p50(arriving.enumerate().map(|(i, sheet)| {
        let key = af_core::SheetKey { workbook: ARRIVAL_ID_BASE, sheet: i };
        let t = Instant::now();
        delta.add_sheet(&embedder, sheet, key);
        us(t) / 1e3
    }));
    out.push(Metric::new("index.add_sheet_ms", "ms", add_sheet_ms));

    // af-core::artifact: stream to a file, map it back, load into shards.
    let path = scratch.join(format!("probe_{}.afar", std::process::id()));
    let mut save_ms = Vec::new();
    let mut load_ms = Vec::new();
    for _ in 0..PROBE_REPEATS {
        let t = Instant::now();
        system.save_to_path_with(&built.index, STORE, None, &path).map_err(|e| e.to_string())?;
        save_ms.push(us(t) / 1e3);
        let t = Instant::now();
        let loaded = AutoFormula::load_mmap(&path).map_err(|e| e.to_string())?;
        load_ms.push(us(t) / 1e3);
        drop(loaded);
    }
    let _ = std::fs::remove_file(&path);
    out.push(Metric::new("artifact.save_ms", "ms", p50(save_ms)));
    out.push(Metric::new("artifact.load_ms", "ms", p50(load_ms)));

    // The same index saved under the write-configured layout.
    let read_cfg = built.system.model.cfg;
    built.system.model.cfg.n_shards = write_layout.n_shards;
    built.system.model.cfg.delta_max_sheets = write_layout.delta_max_sheets;
    let sharded = built.system.save_with(&built.index, STORE).map(|b| b.to_vec());
    built.system.model.cfg = read_cfg;
    let sharded = sharded.map_err(|e| e.to_string())?;
    let mut sharded_ms = Vec::new();
    for _ in 0..PROBE_REPEATS {
        let t = Instant::now();
        let loaded = write_layout.load(&sharded)?;
        sharded_ms.push(us(t) / 1e3);
        drop(loaded);
    }
    out.push(Metric::new("artifact.load_sharded_ms", "ms", p50(sharded_ms)));
    out.push(Metric::new(
        "artifact.bytes_per_sheet",
        "bytes",
        built.artifact_bytes as f64 / built.index.n_sheets() as f64,
    ));
    Ok((out, sharded))
}

/// The write path seen from a client: adds, the request right after each,
/// and what the handle had counted when the stream ended.
fn write_path_metrics(add_ms: &[f64], after_add_us: &[f64], handle: &ServeHandle) -> Vec<Metric> {
    let adds = sorted(add_ms.to_vec());
    let stats = handle.stats();
    let delta_sheets: usize = stats.shards.iter().map(|s| s.delta_sheets).sum();
    vec![
        Metric::new("serve.add_p50_ms", "ms", percentile(&adds, 0.50)),
        Metric::new("serve.add_p90_ms", "ms", percentile(&adds, 0.90)),
        Metric::new("serve.add_max_ms", "ms", percentile(&adds, 1.0)),
        Metric::new("serve.query_after_add_us", "us", p50(after_add_us.iter().copied())),
        Metric::new("serve.delta_sheets_end", "count", delta_sheets as f64),
        Metric::new("serve.inline_compactions", "count", stats.inline_compactions as f64),
        Metric::new("serve.degraded_queries", "count", stats.degraded_queries as f64),
    ]
}

pub struct Traced {
    pub metrics: Vec<Metric>,
    /// Requests recomposed, each checked against its served answer.
    pub attempted: usize,
    pub recorder: Recorder,
}

pub fn run(workload: Workload, setup: Setup, scratch: &Path) -> Result<Traced, String> {
    let Setup { mut inputs, built, artifact, handle, layout, generate_s, .. } = setup;
    let mut built = built.ok_or("a traced run keeps the system its set-up built")?;
    let mut rec = Recorder::new();
    let mut counts = Counts::default();
    let mut plays = Plays::default();
    let n_sheets = built.index.n_sheets() as f64;
    let mut metrics = vec![
        Metric::new("corpus.gen_s", "s", generate_s),
        Metric::new("corpus.sheets", "count", n_sheets),
        Metric::new("corpus.regions", "count", built.index.n_regions() as f64),
        Metric::new("corpus.cases", "count", inputs.cases.len() as f64),
        Metric::new("train.episode_ms", "ms", built.train_s * 1e3 / TRAIN_EPISODES as f64),
        Metric::new("train.final_fine_loss", "loss", built.final_fine_loss as f64),
        Metric::new("index.build_ms_per_sheet", "ms", built.build_index_s * 1e3 / n_sheets),
    ];

    let write_layout = Workload::IngestMixed.layout(scratch);
    let (probed, write_artifact) = probes(&mut built, &handle, &inputs, scratch, &write_layout)?;
    metrics.extend(probed);

    // The write path. `ingest_mixed` reports it from its own rounds; the
    // other workloads never write, so they play its stream once.
    let mut k0 = 1u64;
    if workload != Workload::IngestMixed {
        let writes = Stream::of(Workload::IngestMixed, &inputs);
        let handle = write_layout.load(&write_artifact)?;
        play_served(&handle, &mut inputs, &writes.warmup, k0)?;
        let served = play_served(&handle, &mut inputs, &writes.ops, k0)?;
        metrics.extend(write_path_metrics(&served.add_ms, &served.after_add_us, &handle));
        k0 += writes.ops.len() as u64;
    }
    drop(write_artifact);

    let stream = Stream::of(workload, &inputs);
    drop(built);
    let mut restarted = Restarted::load(artifact, handle, &layout)?;
    for _ in 0..ROUNDS {
        match workload {
            Workload::RebuildRestart => {
                // Each round rebuilds and restarts, as the workload does;
                // the previous system goes first.
                drop(restarted);
                rec.next_request();
                let built = rec.span("build", |_| build(&inputs, &layout))?;
                let reference = built.reference_answers(&inputs.cases);
                drop(built);
                let (handle, _) =
                    rec.span("restart", |_| restart(&layout, &[], &inputs.cases, &reference))?;
                restarted = Restarted::load(Vec::new(), handle, &layout)?;
                // A freshly mapped artifact faults its pages in on first
                // touch. The workload pays that, but the three plays must
                // be equally warm to compare: a discarded play goes first.
                let Restarted { system, index, .. } = &mut restarted;
                play_index(None, system, index, &mut inputs, &stream.ops, k0);
            }
            Workload::IngestMixed => restarted.handle = layout.load(&restarted.artifact)?,
            Workload::Interactive | Workload::FillDown => {}
        }
        traced_round(&mut rec, &mut counts, &mut plays, &mut restarted, &mut inputs, &stream, k0)?;
        k0 += stream.ops.len() as u64;
    }
    if workload == Workload::IngestMixed {
        metrics.extend(write_path_metrics(&plays.add_ms, &plays.after_add_us, &restarted.handle));
    }
    if let Some(path) = &layout.path {
        let _ = std::fs::remove_file(path);
    }

    metrics.extend(stage_metrics(&rec, &counts, &plays, restarted.index.n_sheets()));
    metrics.push(Metric::new("trace.spans", "count", rec.spans().len() as f64));
    Ok(Traced { metrics, attempted: plays.requests, recorder: rec })
}

/// The funnel's budget: stage self times from the spans, beside the
/// untraced core and served times of the same requests.
fn stage_metrics(rec: &Recorder, counts: &Counts, plays: &Plays, n_sheets: usize) -> Vec<Metric> {
    const STAGES: [&str; 4] = ["embed", "s1", "s2", "s3"];
    let spans = rec.spans();
    let self_ns = self_times_ns(spans);
    // S3's attempts are S3's work; spans outside the funnel have no stage.
    let stage_of = |name: &str| match name {
        "s3.attempt" => Some(3),
        _ => STAGES.iter().position(|&s| s == name),
    };

    let mut total_ns = [0u64; 4];
    let mut by_request: std::collections::BTreeMap<u64, f64> = Default::default();
    for (span, &own) in spans.iter().zip(&self_ns) {
        if let Some(stage) = stage_of(span.name) {
            total_ns[stage] += own;
            *by_request.entry(span.request).or_default() += own as f64 / 1e3;
        }
    }
    let durations_us = |name: &str| -> Vec<f64> {
        spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64 / 1e3).collect()
    };
    let funnel_ns: u64 = total_ns.iter().sum();
    let share = |stage: usize| total_ns[stage] as f64 / funnel_ns as f64;

    let s1_us = p50(durations_us("s1"));
    let traced_request_us = p50(durations_us("request"));
    let stage_sum_us = p50(by_request.into_values());
    let core_request_us = p50(plays.core.iter().map(|&(t, _)| t));
    let core_us = p50(plays.core.iter().map(|&(t, n)| t / n as f64));
    let served_us = p50(plays.served.iter().map(|&(t, n)| t / n as f64));
    let overhead_us =
        p50(plays.served.iter().zip(&plays.core).map(|(&(s, n), &(c, _))| (s - c) / n as f64));

    vec![
        Metric::new("embed.sheet_us", "us", p50(durations_us("embed"))),
        Metric::new("embed.share", "ratio", share(0)),
        Metric::new("ann.s1_us", "us", s1_us),
        Metric::new("ann.s1_ns_per_vector", "ns", s1_us * 1e3 / n_sheets as f64),
        Metric::new("ann.s1_share", "ratio", share(1)),
        Metric::new("s2.rank_us", "us", p50(durations_us("s2"))),
        Metric::new(
            "s2.regions_per_query",
            "count",
            counts.regions_ranked as f64 / counts.queries as f64,
        ),
        Metric::new("s2.ns_per_region", "ns", total_ns[2] as f64 / counts.regions_ranked as f64),
        Metric::new("s2.share", "ratio", share(2)),
        Metric::new("s3.adapt_us", "us", p50(durations_us("s3"))),
        Metric::new(
            "s3.attempts_per_answer",
            "ratio",
            counts.adapt_attempts as f64 / counts.answers as f64,
        ),
        Metric::new("s3.share", "ratio", share(3)),
        Metric::new("core.predict_us", "us", core_us),
        Metric::new("core.stage_sum_ratio", "ratio", stage_sum_us / core_request_us),
        Metric::new("serve.predict_us", "us", served_us),
        Metric::new("serve.overhead_us", "us", overhead_us),
        Metric::new("trace.overhead_ratio", "ratio", traced_request_us / core_request_us),
    ]
}
