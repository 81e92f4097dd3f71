//! The four workloads: their request streams and their untraced rounds.
//!
//! A round is a fixed stream of operations, the same in every round of a
//! run, so that the best round is a clean estimator. On `ingest_mixed` the
//! fixed operation counts give every round the same number of delta
//! publishes and compactions, and the best round cannot dodge them.

use crate::inputs::{touch, Inputs};
use crate::stats::{percentile, sorted, Better};
use crate::system::{answer, build, restart, timed, Answer, ServeLayout, TRAIN_EPISODES};
use af_grid::{CellRef, Sheet};
use af_serve::ServeHandle;
use std::path::Path;
use std::time::Instant;

/// Latency percentiles are taken over at least this many queries a round.
const MIN_QUERIES_PER_ROUND: usize = 1000;
/// … and the burst p90 over at least this many bursts.
const MIN_BURSTS_PER_ROUND: usize = 130;
/// `ingest_mixed`: shards and delta capacity of the write-configured handle.
const INGEST_SHARDS: usize = 2;
const INGEST_DELTA_MAX_SHEETS: usize = 16;
/// `ingest_mixed`: untimed queries after each fresh load.
const INGEST_WARMUP_QUERIES: usize = 200;
/// `ingest_mixed`: every 12th operation of a round is an `add_workbook`.
const INGEST_ADD_EVERY: usize = 12;
/// `ingest_mixed`: workbooks arriving in one round, when there are that many.
const INGEST_ADDS_PER_ROUND: usize = 100;
/// Bursts checked against one-by-one answers before `fill_down` is timed.
const BATCH_CHECK_BURSTS: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Interactive,
    FillDown,
    IngestMixed,
    RebuildRestart,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Interactive,
        Workload::FillDown,
        Workload::IngestMixed,
        Workload::RebuildRestart,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Interactive => "interactive",
            Workload::FillDown => "fill_down",
            Workload::IngestMixed => "ingest_mixed",
            Workload::RebuildRestart => "rebuild_restart",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// How this workload's handle is laid out; `scratch` is where
    /// `rebuild_restart` keeps its artifact file.
    pub fn layout(self, scratch: &Path) -> ServeLayout {
        match self {
            Workload::Interactive | Workload::FillDown => ServeLayout::read_only(),
            Workload::IngestMixed => ServeLayout {
                n_shards: INGEST_SHARDS,
                delta_max_sheets: INGEST_DELTA_MAX_SHEETS,
                path: None,
            },
            Workload::RebuildRestart => ServeLayout {
                path: Some(scratch.join(format!("rebuild_{}.afar", std::process::id()))),
                ..ServeLayout::read_only()
            },
        }
    }
}

/// One operation of a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Ask for the target of case `i`.
    Case(usize),
    /// Fill down burst `i` in one `predict_batch` call.
    Burst(usize),
    /// Arrival `i` is added to the index.
    Add(usize),
}

/// The operations of one round, and the untimed ones before it.
pub struct Stream {
    pub warmup: Vec<Op>,
    pub ops: Vec<Op>,
}

impl Stream {
    pub fn of(workload: Workload, inputs: &Inputs) -> Stream {
        let cases = || (0..inputs.cases.len()).map(Op::Case);
        match workload {
            Workload::Interactive | Workload::RebuildRestart => {
                let passes = MIN_QUERIES_PER_ROUND.div_ceil(inputs.cases.len());
                Stream { warmup: Vec::new(), ops: (0..passes).flat_map(|_| cases()).collect() }
            }
            Workload::FillDown => {
                let passes = MIN_BURSTS_PER_ROUND.div_ceil(inputs.bursts.len());
                let bursts = || (0..inputs.bursts.len()).map(Op::Burst);
                Stream { warmup: Vec::new(), ops: (0..passes).flat_map(|_| bursts()).collect() }
            }
            Workload::IngestMixed => {
                let adds = INGEST_ADDS_PER_ROUND.min(inputs.arrivals.len());
                let mut queries = cases().cycle();
                let warmup = queries.by_ref().take(INGEST_WARMUP_QUERIES).collect();
                let ops = (0..adds * INGEST_ADD_EVERY)
                    .map(|op| match op % INGEST_ADD_EVERY == INGEST_ADD_EVERY - 1 {
                        true => Op::Add(op / INGEST_ADD_EVERY),
                        false => queries.next().expect("a cycle never ends"),
                    })
                    .collect();
                Stream { warmup, ops }
            }
        }
    }

    /// Queries one round answers.
    pub fn queries(&self, inputs: &Inputs) -> usize {
        self.ops
            .iter()
            .map(|op| match op {
                Op::Case(_) => 1,
                Op::Burst(i) => inputs.bursts[*i].targets.len(),
                Op::Add(_) => 0,
            })
            .sum()
    }
}

/// Apply request `k`'s one-cell edit and hand back what the request asks.
pub fn request(inputs: &mut Inputs, op: Op, k: u64) -> (&Sheet, Vec<CellRef>) {
    match op {
        Op::Case(i) => {
            let case = &mut inputs.cases[i];
            touch(&mut case.sheet, case.edit, k);
            (&case.sheet, vec![case.target])
        }
        Op::Burst(i) => {
            let burst = &mut inputs.bursts[i];
            touch(&mut burst.sheet, burst.edit, k);
            (&burst.sheet, burst.targets.clone())
        }
        Op::Add(_) => unreachable!("an add carries no request"),
    }
}

/// The answers to one request, one per query.
pub type Answers = Vec<Answer>;

/// Times and answers of one play of a stream.
#[derive(Default)]
pub struct Play {
    pub wall_s: f64,
    /// Per request: microseconds from issuing it to having its answers,
    /// and how many queries it carried.
    pub request_us: Vec<(f64, usize)>,
    pub answers: Vec<Answers>,
    pub add_ms: Vec<f64>,
    /// Latency of the first request after each add.
    pub after_add_us: Vec<f64>,
}

impl Play {
    /// Per query, the milliseconds its request took: the queries of a
    /// burst all have their answers when the burst returns.
    pub fn query_ms(&self) -> Vec<f64> {
        self.request_us.iter().flat_map(|&(t, n)| std::iter::repeat_n(t / 1e3, n)).collect()
    }
}

pub fn elapsed_us(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

/// Play `ops` against the serving handle from one closed-loop client:
/// `predict` for a single target, `predict_batch` for a burst,
/// `add_workbook` for an arrival. `k0` is the first request's edit value.
pub fn play_served(
    handle: &ServeHandle,
    inputs: &mut Inputs,
    ops: &[Op],
    k0: u64,
) -> Result<Play, String> {
    let mut play = Play::default();
    let mut epoch = handle.epoch();
    let mut after_add = false;
    let started = Instant::now();
    for (i, &op) in ops.iter().enumerate() {
        if let Op::Add(a) = op {
            let t = Instant::now();
            let published = handle.add_workbook(&inputs.arrivals[a]);
            play.add_ms.push(elapsed_us(t) / 1e3);
            if published != epoch + 1 {
                return Err(format!("add {a} moved the epoch from {epoch} to {published}"));
            }
            epoch = published;
            after_add = true;
            continue;
        }
        let (sheet, targets) = request(inputs, op, k0 + i as u64);
        let t = Instant::now();
        let answers: Answers = match targets[..] {
            [target] => vec![answer(handle.predict(sheet, target))],
            _ => {
                let queries: Vec<(&Sheet, CellRef)> = targets.iter().map(|&t| (sheet, t)).collect();
                handle.predict_batch(&queries).into_iter().map(answer).collect()
            }
        };
        let elapsed = elapsed_us(t);
        play.request_us.push((elapsed, targets.len()));
        play.answers.push(answers);
        if std::mem::take(&mut after_add) {
            play.after_add_us.push(elapsed);
        }
    }
    play.wall_s = started.elapsed().as_secs_f64();
    Ok(play)
}

/// A named number a round reports besides the gated metrics.
#[derive(Debug, Clone, Copy)]
pub struct Extra {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub value: f64,
}

impl Extra {
    fn lower_ms(name: &'static str, value: f64) -> Extra {
        Extra { name, unit: "ms", better: Better::Lower, value }
    }

    fn higher_rate(name: &'static str, value: f64) -> Extra {
        Extra { name, unit: "1/s", better: Better::Higher, value }
    }
}

/// What one round measured.
pub struct Round {
    /// Wall time of the round's fixed work.
    pub wall_s: f64,
    /// Operations completed within `wall_s`: queries, and adds where
    /// there are any.
    pub ops: usize,
    pub query_p50_ms: f64,
    pub query_p99_ms: f64,
    /// Operations attempted, loads and rebuild steps outside the stream
    /// included.
    pub attempted: usize,
    /// Degraded or deadline-cut answers.
    pub failed: usize,
    /// Ungated, workload-specific numbers.
    pub extras: Vec<Extra>,
}

impl Round {
    pub fn queries_per_s(&self) -> f64 {
        self.ops as f64 / self.wall_s
    }
}

/// Degraded plus deadline-cut answers the handle has counted so far.
fn unhealthy_answers(handle: &ServeHandle) -> u64 {
    let stats = handle.stats();
    stats.degraded_queries + stats.deadline_exceeded
}

/// Drives one workload's untraced rounds.
pub struct Runner {
    pub workload: Workload,
    pub inputs: Inputs,
    pub stream: Stream,
    layout: ServeLayout,
    /// The artifact `ingest_mixed` reloads at the start of every round.
    artifact: Vec<u8>,
    handle: Option<ServeHandle>,
    /// Requests issued so far; each edits its sheet with the next value.
    requests: u64,
}

impl Runner {
    /// What the rounds need of a finished set-up: the artifact and the
    /// handle restarted from it.
    pub fn new(
        workload: Workload,
        inputs: Inputs,
        layout: ServeLayout,
        artifact: Vec<u8>,
        handle: ServeHandle,
    ) -> Runner {
        let stream = Stream::of(workload, &inputs);
        Runner { workload, inputs, stream, layout, artifact, handle: Some(handle), requests: 0 }
    }

    fn handle(&self) -> &ServeHandle {
        self.handle.as_ref().expect("a handle is loaded between rounds")
    }

    /// Share of the cases whose thresholded prediction is string-equal to
    /// the ground-truth formula. Untimed, and run before any request has
    /// edited a sheet.
    pub fn hit_rate(&self) -> f64 {
        assert_eq!(self.requests, 0, "the hit-rate pass sees unedited cases");
        let cases = &self.inputs.cases;
        let hit = |c: &&crate::inputs::Case| {
            self.handle().predict(&c.sheet, c.target).is_some_and(|p| p.formula == c.truth)
        };
        cases.iter().filter(hit).count() as f64 / cases.len() as f64
    }

    /// `predict_batch` answers a burst exactly as `predict` answers its
    /// queries one by one.
    pub fn check_bursts(&self) -> Result<(), String> {
        for (bi, burst) in self.inputs.bursts.iter().take(BATCH_CHECK_BURSTS).enumerate() {
            let queries: Vec<(&Sheet, CellRef)> =
                burst.targets.iter().map(|&t| (&burst.sheet, t)).collect();
            let batched = self.handle().predict_batch(&queries);
            for (&(sheet, target), batched) in queries.iter().zip(batched) {
                let single = answer(self.handle().predict(sheet, target));
                if answer(batched) != single {
                    return Err(format!(
                        "burst {bi}: batched answer at {target:?} is not {single:?}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Play `ops` on `handle`, the edits continuing where the last play
    /// stopped.
    fn play(&mut self, handle: &ServeHandle, warmup: bool) -> Result<Play, String> {
        let ops = if warmup { &self.stream.warmup } else { &self.stream.ops };
        let play = play_served(handle, &mut self.inputs, ops, self.requests + 1)?;
        self.requests += ops.len() as u64;
        Ok(play)
    }

    pub fn round(&mut self) -> Result<Round, String> {
        let mut extras = Vec::new();
        // Loads and rebuild steps: attempted, but not part of the stream.
        let mut outside_stream = 0usize;
        // `rebuild_restart` is timed from the start of the rebuild.
        let mut rebuild_s = 0.0;
        let handle = match self.workload {
            Workload::Interactive | Workload::FillDown => self.handle().clone(),
            Workload::IngestMixed => {
                // The previous round's handle goes first: two loaded
                // copies of the corpus never coexist.
                self.handle = None;
                let (handle, load_s) = timed(|| self.layout.load(&self.artifact));
                let handle = handle?;
                extras.push(Extra::lower_ms("cold_load_ms", load_s * 1e3));
                outside_stream = 1;
                self.play(&handle, true)?;
                handle
            }
            Workload::RebuildRestart => {
                self.handle = None;
                let built = build(&self.inputs, &self.layout)?;
                let reference = built.reference_answers(&self.inputs.cases);
                let n_sheets = built.index.n_sheets();
                let (train_s, build_index_s, whole_s) =
                    (built.train_s, built.build_index_s, built.whole_s);
                extras.push(Extra {
                    name: "artifact_bytes",
                    unit: "bytes",
                    better: Better::Lower,
                    value: built.artifact_bytes as f64,
                });
                // The restarted process has the artifact file alone.
                drop(built);
                let (handle, load_s) = restart(&self.layout, &[], &self.inputs.cases, &reference)?;
                extras.extend([
                    Extra::higher_rate("train_episodes_per_s", TRAIN_EPISODES as f64 / train_s),
                    Extra::higher_rate("index_sheets_per_s", n_sheets as f64 / build_index_s),
                    Extra::lower_ms("cold_load_ms", load_s * 1e3),
                ]);
                outside_stream = 4;
                rebuild_s = whole_s + load_s;
                handle
            }
        };
        let unhealthy = unhealthy_answers(&handle);
        let play = self.play(&handle, false)?;
        let wall_s = rebuild_s + play.wall_s;
        let failed = (unhealthy_answers(&handle) - unhealthy) as usize;
        self.handle = Some(handle);

        let query_ms = sorted(play.query_ms());
        match self.workload {
            Workload::FillDown => {
                let burst_ms = sorted(play.request_us.iter().map(|&(t, _)| t / 1e3).collect());
                extras.push(Extra::lower_ms("burst_p50_ms", percentile(&burst_ms, 0.50)));
                extras.push(Extra::lower_ms("burst_p90_ms", percentile(&burst_ms, 0.90)));
            }
            Workload::IngestMixed => extras.push(Extra::lower_ms(
                "add_p50_ms",
                percentile(&sorted(play.add_ms.clone()), 0.50),
            )),
            Workload::Interactive | Workload::RebuildRestart => {}
        }
        let ops = query_ms.len() + play.add_ms.len();
        Ok(Round {
            wall_s,
            ops,
            query_p50_ms: percentile(&query_ms, 0.50),
            query_p99_ms: percentile(&query_ms, 0.99),
            attempted: ops + outside_stream,
            failed,
            extras,
        })
    }

    /// Remove what the workload left on disk.
    pub fn clean_up(&self) {
        if let Some(path) = &self.layout.path {
            let _ = std::fs::remove_file(path);
        }
    }
}
