//! `af-serve` — concurrent serving of self-contained recommendation
//! artifacts.
//!
//! The paper's online pipeline (Algorithm 2) is train-once / predict-many;
//! this crate is the predict-many half as a production component:
//!
//! * **Sealed runs and a delta.** The reference corpus is one ascending
//!   list of immutable sealed *runs* (the loaded base is run 0) plus a
//!   small mutable *delta* (always `Flat`-backed, so it stays exact). A
//!   sheet's global id is its position in runs-then-delta order, so ids
//!   are dense and never change. [`ServeHandle::add_workbook`] clones and
//!   grows only the delta — O(delta), not O(corpus). Once the delta
//!   reaches [`AutoFormulaConfig::delta_max_sheets`] a background
//!   compactor *seals* it — moves it onto the end of the list, no table
//!   copy — and then merges the last two runs while the newer has at
//!   least as many sheets as the older (size-tiered: a sheet is re-copied
//!   O(log n) times, the base only once additions rival it). Merges are
//!   built off the writer lock. Queries scan every run plus the delta and
//!   merge, so writes are cheap and reads never miss fresh sheets.
//! * **One snapshot cell.** The serving state is one immutable `State`
//!   behind a mutex that is held only to clone or swap its `Arc`: a
//!   reader never waits on an embedding, a table copy or a merge build,
//!   which all happen under a separate writer lock. Readers holding a
//!   [`Snapshot`] keep serving that exact state until they drop it.
//! * **One funnel, one entry point.** [`ServeHandle::query`] embeds a
//!   burst's distinct query sheets through the representation model in
//!   one tensor pass, then answers all targets of a sheet in one pass of
//!   af-core's `AutoFormula::funnel` over every sealed run and the delta:
//!   one S1, one ranking of each candidate sheet scoring every target at
//!   once, then S3 per target — bit-identical to issuing the queries one
//!   at a time, which is the one-target case of the same funnel. The
//!   direct pipeline is its one-segment case, so the two paths share
//!   every S2 and S3 step by construction.
//! * **Artifacts in, artifacts out.** [`ServeHandle::from_artifact`]
//!   cold-starts a server from bytes produced by `AutoFormula::save`;
//!   [`ServeHandle::to_artifact`] merges the current serving state —
//!   including workbooks added since load — back into one artifact in
//!   global sheet order.
//! * **Graceful degradation.** Every per-segment scan runs under
//!   `catch_unwind`: a panic quarantines the index (skipped by queries
//!   until [`ServeHandle::recover`]). [`ServeHandle::query`] returns a
//!   [`ServeOutcome`] — the prediction plus `degraded` / `index_skipped`
//!   / `deadline_exceeded` flags — so callers can tell a full answer from
//!   a partial one. Per-query deadlines ([`PredictOptions::deadline`])
//!   are checked between segment scans and between the S1/S2/S3 stages
//!   and return best-effort results from whatever completed. The
//!   background compactor is supervised: after a panic or injected error
//!   it restarts with capped exponential backoff
//!   ([`ServeStats::compactor_restarts`] counts incidents), and if a
//!   wedged compactor lets the delta reach `delta_max_sheets ×
//!   backpressure_factor`, the write path seals and merges inline instead
//!   of letting the delta grow without bound. Fault injection for all of
//!   this lives behind the `failpoints` cargo feature
//!   (`af_core::failpoint`).
//!
//! See `ARCHITECTURE.md` at the repository root for the full design,
//! including the snapshot cell, why there is one partition, and the
//! failure model (quarantine state machine, deadline semantics,
//! compactor backoff).
//!
//! # Examples
//!
//! ```no_run
//! use af_corpus::organization::{OrgSpec, Scale};
//! use af_core::index::IndexOptions;
//! use af_core::{AutoFormula, AutoFormulaConfig, RepresentationModel};
//! use af_embed::{CellFeaturizer, FeatureMask, SbertSim};
//! use af_serve::ServeHandle;
//! use std::sync::Arc;
//!
//! let corpus = OrgSpec::pge(Scale::Tiny).generate();
//! let featurizer = CellFeaturizer::new(Arc::new(SbertSim::new(16)), FeatureMask::FULL);
//! let cfg = AutoFormulaConfig::test_tiny();
//! let af = AutoFormula::from_model(RepresentationModel::new(featurizer.dim(), cfg), featurizer);
//! let index = af.build_index(&corpus.workbooks, &[0, 1, 2], IndexOptions::default());
//!
//! let handle = ServeHandle::new(af, index);
//! let sheet = &corpus.workbooks[3].sheets[0];
//! let (target, _) = sheet.formulas().next().unwrap();
//! let prediction = handle.predict(sheet, target); // any thread
//! handle.add_workbook(&corpus.workbooks[3]); // grows the delta
//! let bytes = handle.to_artifact(); // runs and delta merged into one index
//! # let _ = (prediction, bytes);
//! ```
#![warn(missing_docs)]
#![forbid(unsafe_code)]

use af_ann::{merge_neighbors, Neighbor};
use af_core::artifact::{write_atomic, ArtifactError};
use af_core::config::{AnnBackend, AutoFormulaConfig};
use af_core::fail_point;
use af_core::index::{ReferenceIndex, SheetKey, SheetMeta};
use af_core::pipeline::{
    AutoFormula, FunnelResult, PipelineVariant, PredictOptions, Prediction, Segment,
};
use af_grid::{CellRef, Sheet, Workbook};
use bytes::Bytes;
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// ---------------------------------------------------------- write policy

/// What a write that grew the delta should do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DeltaDisposition {
    /// Publish the grown delta as-is.
    Grow,
    /// The delta reached the backpressure threshold: seal it and merge
    /// runs inline before publishing (one synchronous compaction beats
    /// every query degrading toward O(corpus)).
    CompactInline,
}

/// Decide a grown delta's fate against the backpressure threshold.
fn delta_disposition(delta_sheets: usize, backpressure_at: Option<usize>) -> DeltaDisposition {
    match backpressure_at {
        Some(at) if delta_sheets >= at => DeltaDisposition::CompactInline,
        _ => DeltaDisposition::Grow,
    }
}

/// The compactor's re-check under the writer lock: a racing compaction
/// (inline or a previous signal) may already have sealed the delta, in
/// which case the seal is a no-op. `delta_max` of zero behaves as one
/// (a compactor signaled at all means deltas are enabled).
fn compact_warranted(delta_sheets: usize, delta_max: usize) -> bool {
    delta_sheets >= delta_max.max(1)
}

/// After a publish: should the compactor be signaled?
fn should_signal_compactor(delta_sheets: usize, delta_max: usize) -> bool {
    delta_max > 0 && delta_sheets >= delta_max.max(1)
}

/// The merge rule, applied to the last two sealed runs until
/// it no longer holds: merge them while the newer (`last`) has at least
/// as many sheets as the older (`prev`). This is the logarithmic method —
/// run sizes end up strictly decreasing, so the list holds O(log n) runs,
/// each sheet is re-copied O(log n) times, and a large base is copied
/// only once the sheets added since rival it. A fixed function on
/// purpose, not a knob.
fn should_merge(last_sheets: usize, prev_sheets: usize) -> bool {
    last_sheets >= prev_sheets
}

// ----------------------------------------------------------- serving state

/// `older` followed by `newer` as one run — the only table copy
/// compaction ever makes, and it copies nothing but the two runs being
/// merged. The result keeps `older`'s ANN backend.
fn merged(older: &ReferenceIndex, newer: &ReferenceIndex) -> ReferenceIndex {
    let mut run = older.clone();
    run.absorb(newer);
    run
}

/// The immutable published serving state: sealed runs plus a small
/// delta. A sheet's global id is its position in runs-then-delta order:
/// a write appends to the delta, a seal moves the delta onto the end of
/// the runs and a merge joins two neighbouring runs in order, so no
/// sheet's position ever changes.
#[derive(Clone)]
struct State {
    /// Sealed runs, oldest first; never empty. Run 0 is the loaded base
    /// (possibly HNSW/IVF) until the merge rule folds it. `Arc`-shared
    /// across publishes: a write or a merge never copies a run it does
    /// not touch.
    runs: Vec<Arc<ReferenceIndex>>,
    /// Mutable segment, always `Flat`-backed (exact). Cloned — O(delta) —
    /// on every write; sealing moves the `Arc` onto `runs`.
    delta: Arc<ReferenceIndex>,
    /// The number of workbooks whose every sheet this state holds: set by
    /// each workbook's last publish, copied unchanged by compaction.
    epoch: u64,
    /// When this state was published (drives
    /// [`ServeStats::snapshot_age`]).
    published_at: Instant,
}

impl State {
    fn sealed_sheets(&self) -> usize {
        self.runs.iter().map(|r| r.n_sheets()).sum()
    }

    /// This state with the delta moved onto the end of the run list and
    /// `empty_delta` in its place. No table is copied.
    fn sealed(&self, empty_delta: &Arc<ReferenceIndex>) -> State {
        let mut runs = self.runs.clone();
        runs.push(Arc::clone(&self.delta));
        State { runs, delta: Arc::clone(empty_delta), published_at: Instant::now(), ..*self }
    }

    /// Where the merge rule ([`should_merge`]) wants the next merge: the
    /// position of the older of the last two runs, `None` once the rule
    /// holds.
    fn merge_due(&self) -> Option<usize> {
        let [.., prev, last] = self.runs.as_slice() else { return None };
        should_merge(last.n_sheets(), prev.n_sheets()).then(|| self.runs.len() - 2)
    }

    /// This state with runs `at` and `at + 1` replaced by `merged`.
    fn with_merged(&self, at: usize, merged: ReferenceIndex) -> State {
        let mut runs = self.runs.clone();
        runs.splice(at..at + 2, [Arc::new(merged)]);
        State { runs, delta: Arc::clone(&self.delta), published_at: Instant::now(), ..*self }
    }

    /// Seal the delta and merge until the rule holds, synchronously — the
    /// whole compaction in one step, for a caller that already holds the
    /// writer lock (the backpressure path).
    fn compacted(&self, empty_delta: &Arc<ReferenceIndex>) -> State {
        let mut state = self.sealed(empty_delta);
        while let Some(at) = state.merge_due() {
            state = state.with_merged(at, merged(&state.runs[at], &state.runs[at + 1]));
        }
        state
    }

    /// Build the merge of runs `at` and `at + 1` — the part of a
    /// compaction that copies tables, done off the writer lock.
    fn plan_merge(&self, at: usize) -> MergePlan {
        let (older, newer) = (Arc::clone(&self.runs[at]), Arc::clone(&self.runs[at + 1]));
        let run = merged(&older, &newer);
        MergePlan { at, older, newer, run }
    }
}

/// A merge built off the writer lock from the state it was read in: the
/// two runs it joins, by identity, and their merge.
struct MergePlan {
    at: usize,
    older: Arc<ReferenceIndex>,
    newer: Arc<ReferenceIndex>,
    run: ReferenceIndex,
}

/// The index's health, shared between the handle and every snapshot: one
/// word holding either [`Health::HEALTHY`] or the epoch quarantine was
/// imposed at, so the flag and its epoch are always read together. It is
/// sticky: once a query (or an operator) quarantines the index, it stays
/// excluded from the read path until an explicit [`ServeHandle::recover`]
/// — automatic un-quarantine would re-expose readers to an index that
/// just proved it can panic. While quarantined, queries answer nothing
/// and report [`ServeOutcome::index_skipped`]; writes and compaction
/// still proceed — the data is intact, it is the *scan* that misbehaved.
struct Health(AtomicU64);

impl Health {
    const HEALTHY: u64 = u64::MAX;

    fn new() -> Health {
        Health(AtomicU64::new(Health::HEALTHY))
    }

    /// Impose quarantine at `epoch`. Idempotent: `true` only for the
    /// imposition that flipped the index from healthy, which alone records
    /// an event; a later one keeps the first epoch.
    fn impose(&self, epoch: u64) -> bool {
        // ordering: AcqRel on success — pairs with `since`'s Acquire and
        // with `recover`'s Release; Acquire on failure orders a losing
        // imposition after the winning one.
        let won = self
            .0
            .compare_exchange(Health::HEALTHY, epoch, Ordering::AcqRel, Ordering::Acquire)
            .is_ok();
        if won {
            af_obs::event!("serve::quarantine", "imposed", epoch);
        }
        won
    }

    /// The epoch quarantine was imposed at; `None` when healthy.
    fn since(&self) -> Option<u64> {
        // ordering: Acquire — pairs with `impose` and `recover`, so a
        // query that sees the recovery also sees what preceded it.
        let v = self.0.load(Ordering::Acquire);
        (v != Health::HEALTHY).then_some(v)
    }

    /// Lift the quarantine (operator action; never automatic).
    fn recover(&self) {
        // ordering: Release — a reader that observes the recovery also
        // observes whatever repair preceded it.
        self.0.store(Health::HEALTHY, Ordering::Release);
    }
}

/// Monotonic serving counters, all updated with relaxed atomics — they
/// are observability, not synchronization.
#[derive(Default)]
struct Counters {
    /// Queries answered through any `predict*` entry point.
    queries: AtomicU64,
    /// Snapshot acquisitions (one per `snapshot()` — every predict call
    /// and every explicit reader pin).
    snapshots: AtomicU64,
    /// Successful `add_workbook` publishes.
    adds: AtomicU64,
    /// Queries that returned a degraded [`ServeOutcome`].
    degraded_queries: AtomicU64,
    /// Queries whose deadline expired before the pipeline finished.
    deadline_exceeded: AtomicU64,
    /// Compactor supervision incidents: each panic or injected error that
    /// forced a backoff-and-restart of the compaction loop.
    compactor_restarts: AtomicU64,
    /// Writes that sealed and merged inline because the delta hit the
    /// backpressure threshold.
    inline_compactions: AtomicU64,
}

/// How the served sheets are laid out: sealed runs plus the delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunLayout {
    /// Sheets in sealed runs (the loaded base and everything compacted
    /// since).
    pub base_sheets: usize,
    /// Sealed runs those sheets are spread over — O(log) of the sheets
    /// added since load under the size-tiered merge rule.
    pub sealed_runs: usize,
    /// Sheets waiting in the delta segment (not yet sealed).
    pub delta_sheets: usize,
}

/// A point-in-time view of a [`ServeHandle`]'s health: which epoch is
/// serving, how stale it is, and how much traffic the handle has seen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeStats {
    /// Epoch of the currently-active snapshot (bumped per
    /// [`ServeHandle::add_workbook`]).
    pub epoch: u64,
    /// Time since the serving state was last published, by a write or a
    /// compaction. A large value on a write-heavy deployment means the
    /// writers are starving.
    pub snapshot_age: Duration,
    /// Queries served since startup, across every `predict*` entry point
    /// (batch calls count each query).
    pub queries_served: u64,
    /// Reader snapshot acquisitions since startup (includes the one this
    /// `stats()` call performed).
    pub snapshots_acquired: u64,
    /// Workbooks incrementally indexed since startup.
    pub workbooks_added: u64,
    /// Epoch at which the index was quarantined; `None` when healthy (a
    /// gauge: [`ServeHandle::recover`] clears it).
    pub quarantined_since: Option<u64>,
    /// Queries answered degraded — the index skipped, a candidate
    /// dropped, or a deadline cut the pipeline short.
    pub degraded_queries: u64,
    /// Queries whose [`PredictOptions::deadline`] expired mid-pipeline.
    pub deadline_exceeded: u64,
    /// Compactor supervision incidents (panic or injected error, each
    /// followed by a capped-exponential-backoff restart of the loop).
    pub compactor_restarts: u64,
    /// Writes that sealed and merged inline because the delta reached the
    /// backpressure threshold (`delta_max_sheets × backpressure_factor`).
    pub inline_compactions: u64,
    /// The sealed runs and the delta.
    pub layout: RunLayout,
    /// `[layout]`. Kept only because the benchmark sums `delta_sheets`
    /// over it; it goes with the benchmark's next change.
    pub shards: [RunLayout; 1],
}

/// The result of one deadline-aware, degradation-aware query: what
/// [`ServeHandle::query`] returns per query. A non-degraded outcome is
/// bit-identical to the direct pipeline (`AutoFormula::predict_with` on
/// the index merged in global order, on the exact `Flat` backend); a
/// degraded one is the best effort of whatever completed — the flags say
/// what was missing so callers can retry, alert, or serve partial.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// The prediction, if any segment produced an adaptable reference.
    /// `None` on a degraded outcome means "nothing survived", not
    /// "confidently no recommendation".
    pub prediction: Option<Prediction>,
    /// True when anything was skipped: the quarantined index, a dropped
    /// candidate, or a deadline cut. `false` guarantees the full pass ran
    /// over every segment.
    pub degraded: bool,
    /// The index was excluded from this query: quarantined at the start,
    /// or by a fault (a caught panic, an injected error) during it.
    pub index_skipped: bool,
    /// S1 candidates dropped without S2 ranking (their id failed to
    /// resolve — the torn-id path that used to panic — or their rank
    /// failed).
    pub candidates_dropped: usize,
    /// The query's deadline expired before the pipeline finished; the
    /// prediction (if any) came from the stages that completed in time.
    pub deadline_exceeded: bool,
}

struct Shared {
    system: Arc<AutoFormula>,
    /// The published serving state. The lock is held only to clone or
    /// swap the `Arc` ([`Shared::current`], [`Shared::publish`]), never
    /// while a state is built.
    state: Mutex<Arc<State>>,
    /// Serializes publishers: every read-check-build-publish sequence of
    /// a write, a seal or a merge swap runs under it, so none of them
    /// publishes a state derived from one another has replaced. Readers
    /// never take it.
    writer: Mutex<()>,
    health: Arc<Health>,
    /// Provenance id the next added workbook receives.
    next_workbook_id: AtomicUsize,
    /// Shared with every snapshot so degradation/deadline accounting
    /// happens where the outcome is computed.
    counters: Arc<Counters>,
    /// Delta capacity before compaction is signalled; `0` disables deltas
    /// (writes grow the last run synchronously).
    delta_max: usize,
    /// Inline-compaction threshold: when the delta reaches
    /// `delta_max × backpressure_factor` sheets the write path stops
    /// waiting for the (evidently wedged) compactor and seals the delta
    /// itself. `None` disables the fallback.
    backpressure_at: Option<usize>,
    /// The delta the state starts from and returns to when its delta is
    /// sealed: no sheets, `Flat` backend (exact), the index's optional
    /// structures and codecs.
    empty_delta: Arc<ReferenceIndex>,
    /// Wakes the compactor when the delta is full. `None` when
    /// `delta_max == 0` (no compactor thread).
    compact_tx: Option<mpsc::Sender<()>>,
}

impl Shared {
    /// The published state, pinned.
    fn current(&self) -> Arc<State> {
        Arc::clone(&self.state.lock())
    }

    /// Replace the published state. The caller must hold `writer`. The
    /// old state is dropped after the lock is released, so a reader never
    /// waits on the last reference to a run being freed.
    fn publish(&self, new: State) {
        let old = std::mem::replace(&mut *self.state.lock(), Arc::new(new));
        drop(old);
    }

    /// Seal the delta if it is full, then merge runs until the rule
    /// holds. Runs on the compactor thread. An `Err` is only ever an
    /// injected fault (the `serve::compact` failpoint); the supervisor
    /// treats it like a panic.
    fn compact(&self) -> Result<(), af_core::failpoint::Injected> {
        // The failpoint sits before any build so an injected panic or
        // error leaves the published state untouched; so does a panic
        // mid-merge, which unwinds before the swap (parking_lot mutexes
        // unlock on unwind without poisoning).
        fail_point!("serve::compact", Err);
        self.seal_full_delta();
        while self.merge_once() {}
        Ok(())
    }

    /// Move the delta onto the end of the run list if it has reached
    /// `delta_max`. Copies nothing; holds the writer lock for one publish.
    fn seal_full_delta(&self) {
        let _guard = self.writer.lock();
        let cur = self.current();
        // Re-check under the lock: a racing signal or an inline
        // compaction may already have sealed this delta.
        if compact_warranted(cur.delta.n_sheets(), self.delta_max) {
            // How deep the delta got before it was sealed — the backlog
            // gauge a wedged compactor shows up in first.
            af_obs::observe!("serve::compact_backlog", cur.delta.n_sheets());
            self.publish(cur.sealed(&self.empty_delta));
        }
    }

    /// One step of the merge rule: `false` once the rule holds. The merge
    /// is built off the writer lock from the immutable `Arc`s and swapped
    /// in under it, so an `add_workbook` never waits on a table copy.
    fn merge_once(&self) -> bool {
        let cur = self.current();
        let Some(at) = cur.merge_due() else { return false };
        let _merging = af_obs::span!("serve::compact");
        self.swap_merged(cur.plan_merge(at));
        true
    }

    /// Publish a merge built off the lock, if the two runs it joins are
    /// still where it read them; `false` drops it. Writers only replace
    /// the delta, so the runs are normally still in place, but an inline
    /// compaction may have merged them itself — splicing the plan in then
    /// would lose or duplicate the runs that compaction produced.
    fn swap_merged(&self, plan: MergePlan) -> bool {
        let _guard = self.writer.lock();
        let now = self.current();
        let in_place = matches!(
            now.runs.get(plan.at..plan.at + 2),
            Some([a, b]) if Arc::ptr_eq(a, &plan.older) && Arc::ptr_eq(b, &plan.newer)
        );
        if in_place {
            self.publish(now.with_merged(plan.at, plan.run));
        }
        in_place
    }
}

// ------------------------------------------------------------- snapshot

/// One immutable serving state: the trained system plus a consistent set
/// of sealed runs and delta. Everything needed to answer predictions;
/// holding one pins every segment it references for as long as the
/// caller likes.
pub struct Snapshot {
    /// The trained system (model + featurizer), shared across epochs —
    /// incremental indexing never retrains.
    pub system: Arc<AutoFormula>,
    /// The number of added workbooks whose every sheet this snapshot
    /// holds.
    pub epoch: u64,
    state: Arc<State>,
    /// Live health flag, shared with the handle: a quarantine imposed
    /// through one snapshot is immediately visible to every other reader.
    health: Arc<Health>,
    /// Shared serving counters — query/degradation accounting happens
    /// where the outcome is computed.
    counters: Arc<Counters>,
}

impl Snapshot {
    /// Every non-empty sealed run and then the delta, each with the
    /// global id of its first sheet, whatever the health flag says —
    /// persistence ([`Snapshot::keys`], [`ServeHandle::to_artifact`])
    /// must never lose a quarantined index's data; only the query path
    /// excludes it.
    fn segments(&self) -> impl Iterator<Item = Segment<'_>> {
        let all = self.state.runs.iter().chain(std::iter::once(&self.state.delta));
        let mut offset = 0;
        all.map(move |index| {
            let segment = Segment { index, offset };
            offset += index.n_sheets();
            segment
        })
        .filter(|seg| seg.index.n_sheets() > 0)
    }

    /// Sheets indexed in this snapshot, across every segment.
    pub fn n_sheets(&self) -> usize {
        self.state.sealed_sheets() + self.state.delta.n_sheets()
    }

    /// Formula regions indexed in this snapshot.
    pub fn n_regions(&self) -> usize {
        self.segments().map(|seg| seg.index.n_regions()).sum()
    }

    /// Sheets sitting in the delta segment (not yet sealed).
    /// Observability for the backpressure path.
    pub fn n_delta_sheets(&self) -> usize {
        self.state.delta.n_sheets()
    }

    /// Provenance keys of every indexed sheet, in global sheet-id order.
    pub fn keys(&self) -> Vec<SheetKey> {
        self.segments().flat_map(|seg| seg.index.keys.iter().copied()).collect()
    }

    /// Name and dimensions of an indexed sheet, by *global* sheet id (as
    /// returned in [`Prediction::reference_sheet_idx`] and by
    /// [`Snapshot::similar_sheets`]). `None` when the id is not indexed in
    /// this snapshot — a stale or corrupt id degrades the caller's one
    /// lookup, never the whole process.
    pub fn sheet_meta(&self, global: usize) -> Option<&SheetMeta> {
        self.segments().find_map(|seg| Some(seg.index.sheet_meta(seg.local(global)?)))
    }

    /// S1 across every segment: per-segment top-k, globalized and merged
    /// by `(distance, global id)`. On the exact `Flat` backend this is
    /// bit-identical — ids and score bits, ties included — to the scan of
    /// the index merged in global order, because every segment scans its
    /// sheets in ascending global order.
    pub fn similar_sheets(&self, coarse_query: &[f32], k: usize) -> Vec<Neighbor> {
        merge_neighbors(
            self.segments().map(|seg| {
                seg.index
                    .similar_sheets(coarse_query, k)
                    .into_iter()
                    .map(|n| Neighbor::new(seg.global(n.id), n.dist))
                    .collect::<Vec<_>>()
            }),
            k,
        )
    }

    /// Predict with the confidence threshold applied, against this
    /// snapshot: one query on the full pipeline through
    /// [`Snapshot::query`].
    pub fn predict(&self, sheet: &Sheet, target: CellRef) -> Option<Prediction> {
        let theta = self.system.cfg().theta_region;
        self.query(&[(sheet, target)], PredictOptions::default())
            .pop()?
            .prediction
            .filter(|p| p.s2_distance <= theta)
    }

    /// Bookkeeping for one funnel result: count the query, fold the
    /// skip/drop/deadline tallies into counters, and build the outcome.
    fn outcome(&self, result: FunnelResult) -> ServeOutcome {
        let FunnelResult { prediction, excluded, candidates_dropped, deadline_exceeded } = result;
        let degraded = excluded || candidates_dropped > 0 || deadline_exceeded;
        // ordering: Relaxed — independent monotonic counters; stats()
        // tolerates observing them at slightly different instants.
        self.counters.queries.fetch_add(1, Ordering::Relaxed);
        if degraded {
            self.counters.degraded_queries.fetch_add(1, Ordering::Relaxed);
        }
        if deadline_exceeded {
            self.counters.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
        }
        ServeOutcome {
            prediction,
            degraded,
            index_skipped: excluded,
            candidates_dropped,
            deadline_exceeded,
        }
    }

    /// Answer queries against this snapshot, without thresholding: the
    /// serving entry point, for a lone query (a one-element slice) and a
    /// burst alike. Distinct query sheets (deduplicated by identity — a
    /// burst is naturally many targets on few sheets) go through the
    /// representation model in one tensor pass, then each sheet's targets
    /// share one [`AutoFormula::funnel`] pass over every sealed run and
    /// the delta: one S1, one ranking of each candidate sheet. Outcomes
    /// come back in query order, each bit-identical to querying it alone.
    /// One deadline ([`PredictOptions::deadline`]) covers the whole call;
    /// queries reached after it expires return immediately with
    /// `deadline_exceeded` set.
    ///
    /// A quarantined index is skipped; a panic inside a scan, rank or
    /// adapt quarantines it at once — visible to every other reader.
    pub fn query(&self, queries: &[(&Sheet, CellRef)], opts: PredictOptions) -> Vec<ServeOutcome> {
        // Each distinct sheet with the positions of its queries, in order
        // of first appearance.
        let mut groups: Vec<(&Sheet, Vec<usize>)> = Vec::new();
        for (qi, &(sheet, _)) in queries.iter().enumerate() {
            match groups.iter_mut().find(|(s, _)| std::ptr::eq(*s, sheet)) {
                Some((_, members)) => members.push(qi),
                None => groups.push((sheet, vec![qi])),
            }
        }
        let sheets: Vec<&Sheet> = groups.iter().map(|&(sheet, _)| sheet).collect();
        let embedder = self.system.embedder();
        let embs = embedder.embed_sheets(&sheets, opts.variant == PipelineVariant::FineOnly);
        let segments: Vec<Segment<'_>> = self.segments().collect();
        let mut outcomes: Vec<Option<ServeOutcome>> = vec![None; queries.len()];
        for ((sheet, members), emb) in groups.iter().zip(&embs) {
            let targets: Vec<CellRef> = members.iter().map(|&qi| queries[qi].1).collect();
            // Per-pass exclusion, seeded from the sticky quarantine flag;
            // a mid-pass panic sets it (and the shared flag).
            let mut excluded = self.health.since().is_some();
            let results = self.system.funnel(
                &segments,
                emb,
                sheet,
                &targets,
                opts,
                &mut excluded,
                &mut |_| {
                    self.health.impose(self.epoch);
                },
            );
            for (&qi, result) in members.iter().zip(results) {
                outcomes[qi] = Some(self.outcome(result));
            }
        }
        // Every query is in one group, and the funnel answers every target.
        outcomes.into_iter().flatten().collect()
    }

    /// Every segment folded back into one index in global sheet order —
    /// what [`ServeHandle::to_artifact`] persists.
    fn merged(&self) -> ReferenceIndex {
        let mut merged = self.state.delta.empty_like(self.system.cfg());
        for seg in self.segments() {
            merged.absorb(seg.index);
        }
        merged
    }
}

// --------------------------------------------------------------- handle

/// Joins the background compactor when the last [`ServeHandle`] clone
/// drops. Declared *after* `shared` in the handle so the channel sender
/// (owned by `Shared`) is gone before the join — the thread's `recv` then
/// disconnects and it exits.
struct CompactorGuard {
    join: Option<JoinHandle<()>>,
}

impl Drop for CompactorGuard {
    fn drop(&mut self) {
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

/// A cloneable handle to a concurrently-served recommendation artifact.
///
/// Cheap to clone (two `Arc`s); hand one to every worker thread. All
/// methods take `&self`.
#[derive(Clone)]
pub struct ServeHandle {
    shared: Arc<Shared>,
    _compactor: Arc<CompactorGuard>,
}

impl ServeHandle {
    /// Serve an in-memory system and its built index. The index becomes
    /// run 0 exactly as built — no ANN rebuild, so an approximate
    /// backend's graph is served bit-for-bit — and its sheet ids are the
    /// global ids.
    pub fn new(system: AutoFormula, index: ReferenceIndex) -> ServeHandle {
        let cfg = *system.cfg();
        let delta_cfg = AutoFormulaConfig { ann_backend: AnnBackend::Flat, ..cfg };
        let next_workbook_id = index.keys.iter().map(|k| k.workbook + 1).max().unwrap_or(0);
        let empty_delta = Arc::new(index.empty_like(&delta_cfg));
        let state = State {
            runs: vec![Arc::new(index)],
            delta: Arc::clone(&empty_delta),
            epoch: 0,
            published_at: Instant::now(),
        };

        let (compact_tx, compact_rx) = if cfg.delta_max_sheets > 0 {
            let (tx, rx) = mpsc::channel::<()>();
            (Some(tx), Some(rx))
        } else {
            (None, None)
        };
        let shared = Arc::new(Shared {
            system: Arc::new(system),
            state: Mutex::new(Arc::new(state)),
            writer: Mutex::new(()),
            health: Arc::new(Health::new()),
            next_workbook_id: AtomicUsize::new(next_workbook_id),
            counters: Arc::new(Counters::default()),
            delta_max: cfg.delta_max_sheets,
            backpressure_at: (cfg.delta_max_sheets > 0 && cfg.backpressure_factor > 0)
                .then(|| cfg.delta_max_sheets * cfg.backpressure_factor),
            empty_delta,
            compact_tx,
        });
        let join = compact_rx.map(|rx| {
            // The thread holds only a weak reference: when the last handle
            // drops, `Shared` (and its sender) drop, `recv` disconnects,
            // and the thread exits — joined by the guard.
            //
            // Supervision: a compaction that panics (or returns an
            // injected error) is retried with capped exponential backoff
            // instead of killing the thread. The upgraded `Arc` is dropped
            // before every sleep so a handle dropped mid-backoff can still
            // tear the channel down and join promptly.
            let weak: Weak<Shared> = Arc::downgrade(&shared);
            std::thread::spawn(move || {
                while let Ok(()) = rx.recv() {
                    let mut backoff = Duration::from_millis(5);
                    loop {
                        let outcome = {
                            let Some(shared) = weak.upgrade() else { return };
                            catch_unwind(AssertUnwindSafe(|| shared.compact()))
                        };
                        if matches!(outcome, Ok(Ok(()))) {
                            break;
                        }
                        match weak.upgrade() {
                            Some(shared) => {
                                // ordering: Relaxed — independent stats
                                // counter, publishes nothing.
                                shared.counters.compactor_restarts.fetch_add(1, Ordering::Relaxed)
                            }
                            None => return,
                        };
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(Duration::from_millis(500));
                    }
                }
            })
        });
        ServeHandle { shared, _compactor: Arc::new(CompactorGuard { join }) }
    }

    /// Cold-start a server from artifact bytes (`AutoFormula::save`). An
    /// artifact saved by a sharded server of an earlier version loads as
    /// one partition in its saved global order.
    pub fn from_artifact(data: &[u8]) -> Result<ServeHandle, ArtifactError> {
        let (system, index) = AutoFormula::load(data)?;
        Ok(ServeHandle::new(system, index))
    }

    /// Cold-start a server straight from an artifact file via `mmap(2)`
    /// (`AutoFormula::load_mmap`): embedding tables serve page-on-demand
    /// from the page cache, so artifacts larger than RAM are servable.
    /// The mapping lives as long as any snapshot still views it.
    pub fn from_artifact_path(path: &Path) -> Result<ServeHandle, ArtifactError> {
        let (system, index) = AutoFormula::load_mmap(path)?;
        Ok(ServeHandle::new(system, index))
    }

    /// Serialize the *current* serving state — including workbooks added
    /// since startup — into a self-contained artifact: every segment
    /// merged back into one index in global sheet order.
    pub fn to_artifact(&self) -> Bytes {
        let snap = self.snapshot();
        // Fully merged: save the one run as-is (no merge copy, and an
        // approximate ANN graph round-trips bit-for-bit).
        if let ([run], 0) = (snap.state.runs.as_slice(), snap.state.delta.n_sheets()) {
            return snap.system.save(run);
        }
        snap.system.save(&snap.merged())
    }

    /// [`ServeHandle::to_artifact`] straight to disk, atomically: bytes go
    /// to a temporary file in the target's directory and are `rename(2)`d
    /// into place, so a crash (or an injected `core::artifact_save` fault)
    /// mid-write leaves any previous artifact at `path` intact.
    pub fn to_artifact_path(&self, path: &Path) -> Result<(), ArtifactError> {
        write_atomic(path, &self.to_artifact())
    }

    /// Acquire the current snapshot: the published state, pinned by
    /// cloning its `Arc` under the state lock — never behind a write, a
    /// seal or a merge build. The returned snapshot stays valid (and
    /// immutable) for as long as the caller holds it, regardless of
    /// concurrent writes.
    pub fn snapshot(&self) -> Snapshot {
        // ordering: Relaxed — independent stats counter, publishes nothing.
        self.shared.counters.snapshots.fetch_add(1, Ordering::Relaxed);
        let state = self.shared.current();
        Snapshot {
            system: Arc::clone(&self.shared.system),
            epoch: state.epoch,
            state,
            health: Arc::clone(&self.shared.health),
            counters: Arc::clone(&self.shared.counters),
        }
    }

    /// Current epoch (0 until the first [`ServeHandle::add_workbook`]).
    pub fn epoch(&self) -> u64 {
        self.shared.current().epoch
    }

    /// Serving counters and snapshot age — the numbers an operator (or a
    /// metrics scraper) wants on one line. Cheap: one snapshot
    /// acquisition plus relaxed counter loads.
    pub fn stats(&self) -> ServeStats {
        let snap = self.snapshot();
        let layout = RunLayout {
            base_sheets: snap.state.sealed_sheets(),
            sealed_runs: snap.state.runs.len(),
            delta_sheets: snap.state.delta.n_sheets(),
        };
        let c = &self.shared.counters;
        ServeStats {
            epoch: snap.epoch,
            snapshot_age: snap.state.published_at.elapsed(),
            // ordering: Relaxed — stats reads are independent monotonic
            // counters; a snapshot of them need not be mutually consistent.
            queries_served: c.queries.load(Ordering::Relaxed),
            snapshots_acquired: c.snapshots.load(Ordering::Relaxed),
            workbooks_added: c.adds.load(Ordering::Relaxed),
            quarantined_since: self.quarantined_since(),
            degraded_queries: c.degraded_queries.load(Ordering::Relaxed),
            deadline_exceeded: c.deadline_exceeded.load(Ordering::Relaxed),
            compactor_restarts: c.compactor_restarts.load(Ordering::Relaxed),
            inline_compactions: c.inline_compactions.load(Ordering::Relaxed),
            layout,
            shards: [layout],
        }
    }

    /// A point-in-time [`af_obs::MetricsSnapshot`] of every histogram
    /// site in the process (the `serve::*` stage timings plus whatever
    /// else — training, artifact I/O — has recorded). Empty unless the
    /// workspace was built with the `obs` feature; see
    /// ARCHITECTURE.md §8 for the site table.
    pub fn metrics(&self) -> af_obs::MetricsSnapshot {
        af_obs::MetricsSnapshot::capture()
    }

    /// Manually quarantine the index: queries answer nothing (and report
    /// [`ServeOutcome::index_skipped`]) until [`ServeHandle::recover`].
    /// The same imposition a caught panic performs — useful for operator
    /// drills and for draining an index suspected of bad data.
    pub fn quarantine(&self) {
        self.shared.health.impose(self.epoch());
    }

    /// Lift the quarantine, returning the index to the read path.
    /// Quarantine is sticky by design — only this explicit call (an
    /// operator or an orchestrator deciding the index is trustworthy
    /// again) clears it; queries never un-quarantine automatically.
    pub fn recover(&self) {
        self.shared.health.recover();
    }

    /// The epoch at which the index was quarantined; `None` on a healthy
    /// server.
    pub fn quarantined_since(&self) -> Option<u64> {
        self.shared.health.since()
    }

    /// Sheets currently indexed.
    pub fn n_sheets(&self) -> usize {
        self.snapshot().n_sheets()
    }

    /// Formula regions currently indexed.
    pub fn n_regions(&self) -> usize {
        self.snapshot().n_regions()
    }

    /// Predict with the confidence threshold applied (the serving
    /// entry point). Runs entirely against one snapshot.
    pub fn predict(&self, sheet: &Sheet, target: CellRef) -> Option<Prediction> {
        self.snapshot().predict(sheet, target)
    }

    /// [`ServeHandle::predict`] for a burst, one thresholded prediction per
    /// query. One snapshot serves the whole call, so the threshold and the
    /// predictions always come from the same epoch.
    pub fn predict_batch(&self, queries: &[(&Sheet, CellRef)]) -> Vec<Option<Prediction>> {
        let snap = self.snapshot();
        let theta = snap.system.cfg().theta_region;
        let outcomes = snap.query(queries, PredictOptions::default());
        outcomes.into_iter().map(|o| o.prediction.filter(|p| p.s2_distance <= theta)).collect()
    }

    /// Answer queries without thresholding, with full per-call control —
    /// pipeline variant plus an optional deadline — against one snapshot
    /// (see [`Snapshot::query`]). Each [`ServeOutcome`] carries the
    /// prediction and what, if anything, was skipped to produce it; on a
    /// healthy server with no deadline `degraded` is `false` and the
    /// prediction is bit-identical to the direct pipeline's.
    ///
    /// ```no_run
    /// # use af_corpus::organization::{OrgSpec, Scale};
    /// # use af_core::index::IndexOptions;
    /// # use af_core::{AutoFormula, AutoFormulaConfig, RepresentationModel};
    /// # use af_embed::{CellFeaturizer, FeatureMask, SbertSim};
    /// # use std::sync::Arc;
    /// use af_core::PredictOptions;
    /// use af_serve::ServeHandle;
    /// # let corpus = OrgSpec::pge(Scale::Tiny).generate();
    /// # let featurizer = CellFeaturizer::new(Arc::new(SbertSim::new(16)), FeatureMask::FULL);
    /// # let cfg = AutoFormulaConfig::test_tiny();
    /// # let af = AutoFormula::from_model(RepresentationModel::new(featurizer.dim(), cfg), featurizer);
    /// # let index = af.build_index(&corpus.workbooks, &[0, 1, 2], IndexOptions::default());
    /// # let handle = ServeHandle::new(af, index);
    /// # let sheet = &corpus.workbooks[3].sheets[0];
    /// # let (target, _) = sheet.formulas().next().unwrap();
    ///
    /// // A lone query is a one-element slice; this one gets 5 ms.
    /// let opts = PredictOptions::default().deadline_in_ms(5);
    /// let out = &handle.query(&[(sheet, target)], opts)[0];
    /// // out.prediction         : Option<Prediction> — best answer assembled in time
    /// // out.degraded           : index skipped, candidate dropped, or deadline hit
    /// // out.index_skipped      : quarantined, or faulted during this query
    /// // out.candidates_dropped : S2 candidates lost to per-candidate faults
    /// // out.deadline_exceeded  : the deadline cut the pipeline short
    /// # let _ = out;
    /// ```
    pub fn query(&self, queries: &[(&Sheet, CellRef)], opts: PredictOptions) -> Vec<ServeOutcome> {
        self.snapshot().query(queries, opts)
    }

    /// Incrementally index one more workbook: each sheet is appended to
    /// the delta segment — the write clones O(delta), not O(corpus) — and
    /// published as a new state, so the sheet's global id is the number of
    /// sheets before it. Readers never wait on the write; queries in
    /// flight keep their snapshot, new queries see the new sheets. The
    /// workbook's last publish advances the epoch. A full delta is handed
    /// to the background compactor. Returns the new epoch.
    pub fn add_workbook(&self, workbook: &Workbook) -> u64 {
        let shared = &*self.shared;
        // ordering: Relaxed — a unique-id allocator; nothing is published
        // through it (the sheets become visible via the state publish).
        let id = shared.next_workbook_id.fetch_add(1, Ordering::Relaxed);
        let embedder = shared.system.embedder();
        let mut epoch = 0;
        for (si, sheet) in workbook.sheets.iter().enumerate() {
            let key = SheetKey { workbook: id, sheet: si };
            // Time spent queued behind another writer or a compactor swap
            // is its own site, so `serve::delta_publish` is the work only.
            let waiting = af_obs::span!("serve::write_lock_wait");
            let guard = shared.writer.lock();
            waiting.end();
            let publish = af_obs::span!("serve::delta_publish");
            let cur = shared.current();
            let mut runs = cur.runs.clone();
            let mut delta = Arc::clone(&cur.delta);
            match runs.last_mut() {
                // Deltas disabled: grow the (only) run synchronously —
                // O(corpus) per write.
                Some(last) if shared.delta_max == 0 => {
                    let mut run = (**last).clone();
                    run.add_sheet(&embedder, sheet, key);
                    *last = Arc::new(run);
                }
                _ => {
                    let mut run = (*delta).clone();
                    run.add_sheet(&embedder, sheet, key);
                    delta = Arc::new(run);
                }
            }
            epoch = cur.epoch + u64::from(si + 1 == workbook.sheets.len());
            let mut new = State { runs, delta, epoch, published_at: Instant::now() };
            if delta_disposition(new.delta.n_sheets(), shared.backpressure_at)
                == DeltaDisposition::CompactInline
            {
                // Backpressure: the delta has outgrown the compactor
                // (wedged, or simply outpaced). Seal and merge it here —
                // one synchronous compaction beats every query degrading
                // toward O(corpus).
                // ordering: Relaxed — observability counter.
                shared.counters.inline_compactions.fetch_add(1, Ordering::Relaxed);
                let _stall = af_obs::span!("serve::inline_compact");
                new = new.compacted(&shared.empty_delta);
            }
            let signal = should_signal_compactor(new.delta.n_sheets(), shared.delta_max);
            // An injected panic here aborts the write *before* the publish:
            // the writer lock unwinds clean and readers keep the previous
            // state — no torn state, and no id spent on a sheet that never
            // landed.
            fail_point!("serve::delta_publish");
            shared.publish(new);
            drop(guard);
            publish.end();
            if signal {
                if let Some(tx) = &shared.compact_tx {
                    let _ = tx.send(());
                }
            }
        }
        if workbook.sheets.is_empty() {
            // No sheet publish to carry the epoch: republish the same data
            // at the next one.
            let _guard = shared.writer.lock();
            let cur = shared.current();
            epoch = cur.epoch + 1;
            shared.publish(State { epoch, published_at: Instant::now(), ..State::clone(&cur) });
        }
        // ordering: Relaxed — independent stats counter, publishes nothing.
        shared.counters.adds.fetch_add(1, Ordering::Relaxed);
        epoch
    }
}

// The handle is shared across worker threads by design.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ServeHandle>();
    assert_send_sync::<Snapshot>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use af_core::artifact::StoreOptions;
    use af_core::config::AutoFormulaConfig;
    use af_core::index::IndexOptions;
    use af_core::model::RepresentationModel;
    use af_corpus::organization::{OrgSpec, Scale};
    use af_embed::{CellFeaturizer, FeatureMask, SbertSim};

    fn system_with(cfg: AutoFormulaConfig) -> AutoFormula {
        let featurizer = CellFeaturizer::new(Arc::new(SbertSim::new(16)), FeatureMask::FULL);
        AutoFormula::from_model(RepresentationModel::new(featurizer.dim(), cfg), featurizer)
    }

    fn system_and_corpus() -> (AutoFormula, af_corpus::OrgCorpus) {
        let corpus = OrgSpec::pge(Scale::Tiny).generate();
        (system_with(AutoFormulaConfig::test_tiny()), corpus)
    }

    fn handle_over_with(
        cfg: AutoFormulaConfig,
        n_workbooks: usize,
    ) -> (ServeHandle, af_corpus::OrgCorpus) {
        let corpus = OrgSpec::pge(Scale::Tiny).generate();
        let af = system_with(cfg);
        let members: Vec<usize> = (0..n_workbooks).collect();
        let index = af.build_index(&corpus.workbooks, &members, IndexOptions::default());
        (ServeHandle::new(af, index), corpus)
    }

    fn handle_over(n_workbooks: usize) -> (ServeHandle, af_corpus::OrgCorpus) {
        handle_over_with(AutoFormulaConfig::test_tiny(), n_workbooks)
    }

    /// Seal a run of `sealed` sheets onto `runs` and merge until the rule
    /// holds, exactly as the compactor does.
    fn seal_sizes(mut runs: Vec<usize>, sealed: usize) -> Vec<usize> {
        runs.push(sealed);
        while let [.., prev, last] = runs[..] {
            if !should_merge(last, prev) {
                break;
            }
            runs.truncate(runs.len() - 2);
            runs.push(prev + last);
        }
        runs
    }

    #[test]
    fn equal_runs_merge_and_a_large_base_is_left_alone() {
        assert_eq!(seal_sizes(vec![16], 16), [32]);
        assert_eq!(seal_sizes(vec![284, 32, 16], 16), [284, 64]);
        assert_eq!(seal_sizes(vec![284, 64], 16), [284, 64, 16]);
    }

    #[test]
    fn an_empty_base_is_merged_away_by_the_first_seal() {
        assert_eq!(seal_sizes(vec![0], 16), [16]);
    }

    #[test]
    fn the_base_is_copied_only_once_additions_rival_it() {
        let mut runs = vec![284];
        for added in (16..=512).step_by(16) {
            runs = seal_sizes(runs, 16);
            assert!(runs.windows(2).all(|w| w[0] > w[1]), "sizes strictly decreasing: {runs:?}");
            assert_eq!(runs[0] == 284, added < 512, "after {added} added sheets: {runs:?}");
        }
        assert_eq!(runs, [284 + 512]);
    }

    #[test]
    fn thresholds_gate_the_seal_and_the_signal() {
        assert!(compact_warranted(16, 16) && !compact_warranted(15, 16));
        assert!(compact_warranted(1, 0), "delta_max 0 behaves as 1");
        assert!(should_signal_compactor(16, 16) && !should_signal_compactor(16, 0));
        assert_eq!(delta_disposition(63, Some(64)), DeltaDisposition::Grow);
        assert_eq!(delta_disposition(64, Some(64)), DeltaDisposition::CompactInline);
        assert_eq!(delta_disposition(1 << 20, None), DeltaDisposition::Grow);
    }

    fn query_targets(corpus: &af_corpus::OrgCorpus, wb: usize) -> Vec<(&Sheet, CellRef)> {
        corpus.workbooks[wb]
            .sheets
            .iter()
            .flat_map(|s| s.formulas().map(move |(at, _)| (s, at)))
            .collect()
    }

    /// One query through [`ServeHandle::query`], no deadline.
    fn one(handle: &ServeHandle, sheet: &Sheet, at: CellRef) -> ServeOutcome {
        handle.query(&[(sheet, at)], PredictOptions::default()).remove(0)
    }

    /// Segments tile the global ids: each starts where the one before it
    /// ended, so every id below `n_sheets` names exactly one sheet — the
    /// invariant the bit-identical merge and `sheet_meta` rest on,
    /// checked on a live snapshot.
    fn assert_coherent(snap: &Snapshot) {
        let mut next = 0;
        for seg in snap.segments() {
            assert_eq!(seg.offset, next, "segments do not tile the global ids");
            next += seg.index.n_sheets();
        }
        assert_eq!(snap.n_sheets(), next);
        assert_eq!(snap.keys().len(), next);
        assert!((0..next).all(|g| snap.sheet_meta(g).is_some()));
        assert!(snap.sheet_meta(next).is_none());
    }

    #[test]
    fn serves_predictions_matching_the_direct_pipeline() {
        let (af, corpus) = system_and_corpus();
        let members: Vec<usize> = (0..4).collect();
        let index = af.build_index(&corpus.workbooks, &members, IndexOptions::default());
        let handle = ServeHandle::new(system_with(AutoFormulaConfig::test_tiny()), index.clone());
        for (sheet, target) in query_targets(&corpus, 0).into_iter().take(10) {
            let direct = af.predict_with(&index, sheet, target, PipelineVariant::Full);
            let served = one(&handle, sheet, target);
            assert!(!served.degraded, "healthy server must not degrade");
            assert_eq!(direct.map(|p| p.formula), served.prediction.map(|p| p.formula));
        }
    }

    /// Two snapshots answer `queries` identically: S1 ids and score bits,
    /// and every field of the prediction.
    fn assert_snapshots_agree(
        a: &Snapshot,
        b: &Snapshot,
        queries: &[(&Sheet, CellRef)],
        ctx: &str,
    ) {
        assert_coherent(b);
        assert_eq!(a.keys(), b.keys(), "{ctx}");
        let k = a.system.cfg().k_sheets;
        for &(sheet, target) in queries {
            let emb = a.system.embedder().embed_sheet(sheet, false);
            let ha = a.similar_sheets(&emb.coarse, k);
            let hb = b.similar_sheets(&emb.coarse, k);
            assert_eq!(ha.len(), hb.len(), "{ctx}");
            for (x, y) in ha.iter().zip(&hb) {
                assert_eq!(x.id, y.id, "{ctx}");
                assert_eq!(x.dist.to_bits(), y.dist.to_bits(), "{ctx}");
            }
            let pa = a.query(&[(sheet, target)], PredictOptions::default()).remove(0).prediction;
            let pb = b.query(&[(sheet, target)], PredictOptions::default()).remove(0).prediction;
            assert_same_prediction(pa.as_ref(), pb.as_ref(), ctx);
        }
        // The same queries as one burst on `b`: a pass spans every
        // segment, whatever the layout.
        let burst = b.query(queries, PredictOptions::default());
        assert_eq!(burst.len(), queries.len(), "{ctx}");
        for (&(sheet, target), o) in queries.iter().zip(&burst) {
            assert!(!o.degraded, "{ctx}");
            let pa = a.query(&[(sheet, target)], PredictOptions::default()).remove(0).prediction;
            assert_same_prediction(pa.as_ref(), o.prediction.as_ref(), &format!("{ctx}, burst"));
        }
    }

    /// Sheet counts of the sealed runs, oldest first.
    fn run_sizes(snap: &Snapshot) -> Vec<usize> {
        snap.state.runs.iter().map(|r| r.n_sheets()).collect()
    }

    /// Seal the delta by hand, as the compactor would.
    fn seal(handle: &ServeHandle) {
        let shared = &handle.shared;
        let _guard = shared.writer.lock();
        shared.publish(shared.current().sealed(&shared.empty_delta));
    }

    #[test]
    fn every_run_layout_serves_bit_identically() {
        // The test plays compactor itself, one step at a time, so every
        // intermediate layout a reader could catch — sealed but not yet
        // merged, half-way up a merge cascade — is compared against a
        // handle that never seals, and the run lists are the same on every
        // run of the test.
        const SEAL_AT: usize = 2;
        let corpus = OrgSpec::pge(Scale::Tiny).generate();
        // A delta capacity the test never reaches: no compactor signal,
        // no backpressure.
        let cfg = AutoFormulaConfig { delta_max_sheets: 1 << 20, ..AutoFormulaConfig::test_tiny() };
        let af = system_with(cfg);
        let members: Vec<usize> = (0..4).collect();
        let index = af.build_index(&corpus.workbooks, &members, IndexOptions::default());
        let queries = query_targets(&corpus, 0);
        assert!(queries.len() >= 3);

        let plain = ServeHandle::new(system_with(cfg), index.clone());
        let layered = ServeHandle::new(af, index.clone());
        assert_snapshots_agree(&plain.snapshot(), &layered.snapshot(), &queries, "as loaded");
        let loaded = index.n_sheets();
        // How many merges deep each run is (the test's own book-keeping:
        // a seal is 0, a merge one more than the deeper of its inputs).
        let mut depths: Vec<usize> = vec![0];
        let mut most_runs = 0usize;
        let mut deepest_merge = 0usize;
        let mut reloaded_multi_run = false;
        let mut steps = 0usize;
        // Grow by more than four deltas' worth of sheets, cycling through
        // the unindexed workbooks (a repeat is a new workbook with
        // byte-identical sheets: distance ties, broken by global id).
        for wb in corpus.workbooks[4..].iter().cycle() {
            if layered.n_sheets() - loaded > 4 * SEAL_AT {
                break;
            }
            plain.add_workbook(wb);
            layered.add_workbook(wb);
            if layered.snapshot().n_delta_sheets() < SEAL_AT {
                continue;
            }
            seal(&layered);
            depths.push(0);
            loop {
                // A few queries per layout, all of them in turn.
                let some: Vec<_> =
                    (0..3).map(|i| queries[(steps * 3 + i) % queries.len()]).collect();
                steps += 1;
                let snap = layered.snapshot();
                let sizes = run_sizes(&snap);
                assert_snapshots_agree(&plain.snapshot(), &snap, &some, &format!("{sizes:?}"));
                assert_eq!(sizes.len(), depths.len());
                most_runs = most_runs.max(sizes.len());
                if !layered.shared.merge_once() {
                    break;
                }
                // Nobody else compacts: it merged the last two.
                let inputs = depths.split_off(sizes.len() - 2);
                depths.push(inputs[0].max(inputs[1]) + 1);
                deepest_merge = deepest_merge.max(inputs[0].max(inputs[1]) + 1);
            }
            // Once, from a state with several runs: the artifact of a
            // multi-run state reloads to the same global order and the
            // same answers.
            let snap = layered.snapshot();
            if !reloaded_multi_run && snap.state.runs.len() >= 3 {
                reloaded_multi_run = true;
                let reloaded = ServeHandle::from_artifact(&layered.to_artifact()).unwrap();
                let what = format!("reloaded from {:?}", run_sizes(&snap));
                assert_snapshots_agree(&plain.snapshot(), &reloaded.snapshot(), &queries, &what);
            }
        }
        assert!(most_runs >= 3, "never more than {most_runs} runs");
        assert!(deepest_merge >= 2, "no merge of an already merged run");
        assert!(reloaded_multi_run, "no multi-run state was saved");
        let (a, b) = (plain.snapshot(), layered.snapshot());
        let sizes = run_sizes(&b);
        assert!(sizes.windows(2).all(|w| w[0] > w[1]), "merge rule holds at rest: {sizes:?}");
        assert_snapshots_agree(&a, &b, &queries, "at rest");
    }

    /// A prediction's `reference_sheet_idx` is a position in the run
    /// list, so it keeps naming the same sheet while the list changes
    /// under it: an add, a seal and a merge later, the ids served before
    /// resolve to the same key and metadata.
    #[test]
    fn sheet_ids_survive_adds_seals_and_merges() {
        let cfg = AutoFormulaConfig { delta_max_sheets: 1 << 20, ..AutoFormulaConfig::test_tiny() };
        let (handle, corpus) = handle_over_with(cfg, 3);
        let served: Vec<(usize, SheetKey, SheetMeta)> = query_targets(&corpus, 0)
            .into_iter()
            .filter_map(|(sheet, at)| one(&handle, sheet, at).prediction)
            .map(|p| {
                let meta = handle.snapshot().sheet_meta(p.reference_sheet_idx).cloned();
                (p.reference_sheet_idx, p.reference_sheet, meta.expect("a served id resolves"))
            })
            .collect();
        assert!(!served.is_empty());
        let still_resolve = |what: &str| {
            let snap = handle.snapshot();
            assert_coherent(&snap);
            let keys = snap.keys();
            for (idx, key, meta) in &served {
                assert_eq!(keys.get(*idx), Some(key), "{what}: id {idx}");
                assert_eq!(snap.sheet_meta(*idx), Some(meta), "{what}: id {idx}");
            }
        };
        handle.add_workbook(&corpus.workbooks[3]);
        still_resolve("after an add");
        seal(&handle);
        still_resolve("after a seal");
        handle.add_workbook(&corpus.workbooks[4]);
        seal(&handle);
        assert_eq!(run_sizes(&handle.snapshot()).len(), 3);
        assert!(handle.shared.merge_once(), "the newer run is the larger");
        while handle.shared.merge_once() {}
        assert!(run_sizes(&handle.snapshot()).len() < 3);
        still_resolve("after a merge");
    }

    /// A merge planned off the lock is published only if its two runs are
    /// still in place. Here an inline compaction merges them first and a
    /// later seal puts a new run where they were, so a swap without the
    /// identity re-check would splice over two runs it never read and
    /// lose their sheets; this one must drop the plan instead.
    #[test]
    fn a_merge_planned_before_an_inline_compaction_is_dropped() {
        const INLINE_AT: usize = 4;
        // Backpressure at INLINE_AT sheets: the write that fills the delta
        // seals and merges it inline. No publish leaves a full delta, so
        // the compactor is never signalled and the test is deterministic.
        let cfg = AutoFormulaConfig {
            delta_max_sheets: INLINE_AT,
            backpressure_factor: 1,
            ..AutoFormulaConfig::test_tiny()
        };
        let never_seals =
            AutoFormulaConfig { delta_max_sheets: 1 << 20, ..AutoFormulaConfig::test_tiny() };
        let (handle, corpus) = handle_over_with(cfg, 8);
        let (plain, _) = handle_over_with(never_seals, 8);
        let base = handle.n_sheets();
        assert!(base > 2 * INLINE_AT, "no merge may reach the base");
        // One-sheet workbooks, so the test sets every run's size.
        let singles: Vec<Workbook> = corpus.workbooks[8..]
            .iter()
            .flat_map(|wb| &wb.sheets)
            .map(|sheet| Workbook { name: "one".into(), sheets: vec![sheet.clone()], timestamp: 0 })
            .take(INLINE_AT + 3)
            .collect();
        let mut singles = singles.iter();
        let mut add = |n: usize| {
            for wb in singles.by_ref().take(n) {
                handle.add_workbook(wb);
                plain.add_workbook(wb);
            }
        };
        add(1);
        seal(&handle);
        add(1);
        seal(&handle);
        let cur = handle.shared.current();
        let plan = cur.plan_merge(cur.merge_due().expect("two equal runs are due a merge"));
        assert_eq!((plan.at, run_sizes(&handle.snapshot())), (1, vec![base, 1, 1]));
        add(INLINE_AT);
        assert_eq!(run_sizes(&handle.snapshot()), [base, 2 + INLINE_AT], "merged inline");
        add(1);
        seal(&handle);
        assert_eq!(run_sizes(&handle.snapshot()), [base, 2 + INLINE_AT, 1]);

        assert!(!handle.shared.swap_merged(plan), "the planned runs are gone");
        let snap = handle.snapshot();
        assert_eq!(snap.n_sheets(), base + INLINE_AT + 3, "a sheet was lost");
        let runs = &snap.state.runs;
        for (i, a) in runs.iter().enumerate() {
            assert!(runs[i + 1..].iter().all(|b| !Arc::ptr_eq(a, b)), "run {i} appears twice");
        }
        let keys: std::collections::HashSet<SheetKey> = snap.keys().into_iter().collect();
        assert_eq!(keys.len(), snap.n_sheets(), "a sheet appears twice");
        let queries: Vec<_> = query_targets(&corpus, 0).into_iter().take(8).collect();
        assert_snapshots_agree(&plain.snapshot(), &snap, &queries, "after the dropped plan");
    }

    /// Two writers and the compactor on real threads: every sheet lands
    /// exactly once, whatever order the writer lock serves them in.
    #[test]
    fn two_writers_and_the_compactor_lose_no_sheet() {
        let cfg = AutoFormulaConfig { delta_max_sheets: 2, ..AutoFormulaConfig::test_tiny() };
        let (handle, corpus) = handle_over_with(cfg, 2);
        let base = handle.n_sheets();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for share in [&corpus.workbooks[2..8], &corpus.workbooks[8..14]] {
                let (handle, start) = (&handle, &start);
                scope.spawn(move || {
                    start.wait();
                    for wb in share {
                        handle.add_workbook(wb);
                    }
                });
            }
        });
        let added: usize = corpus.workbooks[2..14].iter().map(|wb| wb.sheets.len()).sum();
        let snap = handle.snapshot();
        assert_coherent(&snap);
        assert_eq!(snap.epoch, 12);
        assert_eq!(snap.n_sheets(), base + added, "a sheet was lost");
        let keys: std::collections::HashSet<SheetKey> = snap.keys().into_iter().collect();
        assert_eq!(keys.len(), base + added, "a sheet appears twice");
    }

    /// Impositions racing from many threads: exactly one wins, its epoch
    /// is the one recorded (and, with `obs`, the one event), a later one
    /// changes nothing, and recovery clears it.
    #[test]
    fn concurrent_quarantines_have_one_winner() {
        const N: u64 = 8;
        // Epochs no other test imposes at, to pick this test's events out.
        const FIRST: u64 = 1000;
        let (handle, _) = handle_over(2);
        let health = &handle.shared.health;
        #[cfg(feature = "obs")]
        let mark = af_obs::event_watermark();
        let start = std::sync::Barrier::new(N as usize);
        let wins: Vec<u64> = std::thread::scope(|scope| {
            let imposers: Vec<_> = (FIRST..FIRST + N)
                .map(|epoch| {
                    let start = &start;
                    scope.spawn(move || {
                        start.wait();
                        health.impose(epoch).then_some(epoch)
                    })
                })
                .collect();
            imposers.into_iter().filter_map(|t| t.join().expect("imposer")).collect()
        });
        assert_eq!(wins.len(), 1, "exactly one imposition wins: {wins:?}");
        assert_eq!(handle.quarantined_since(), Some(wins[0]));
        #[cfg(feature = "obs")]
        {
            let events: Vec<u64> = af_obs::events_since(mark)
                .into_iter()
                .filter(|e| e.site == "serve::quarantine" && (FIRST..FIRST + N).contains(&e.value))
                .map(|e| e.value)
                .collect();
            assert_eq!(events, wins, "one event, naming the winner's epoch");
        }
        assert!(!health.impose(FIRST + N));
        assert_eq!(handle.quarantined_since(), Some(wins[0]), "quarantine is sticky");
        handle.recover();
        assert_eq!(handle.quarantined_since(), None);
    }

    #[test]
    fn background_compaction_folds_deltas_without_changing_results() {
        // delta_max_sheets = 1: every added sheet fills the delta and
        // signals the compactor. Backpressure is off, so however far the
        // compactor falls behind, every seal and merge is its own.
        let compacting = AutoFormulaConfig {
            delta_max_sheets: 1,
            backpressure_factor: 0,
            ..AutoFormulaConfig::test_tiny()
        };
        // Reference: deltas disabled (synchronous base growth).
        let synchronous =
            AutoFormulaConfig { delta_max_sheets: 0, ..AutoFormulaConfig::test_tiny() };
        let (handle, corpus) = handle_over_with(compacting, 3);
        let (reference, _) = handle_over_with(synchronous, 3);
        let sheets_before = handle.n_sheets();
        // More than four deltas' worth of sheets.
        let mut adds = 0u64;
        for wb in &corpus.workbooks[3..15] {
            handle.add_workbook(wb);
            reference.add_workbook(wb);
            adds += 1;
            // Whatever the compactor is in the middle of, a reader sees a
            // coherent state.
            assert_coherent(&handle.snapshot());
        }
        let added: usize = corpus.workbooks[3..15].iter().map(|wb| wb.sheets.len()).sum();
        assert!(added > 4 * 2, "only {added} sheets added");
        // Compaction is asynchronous; wait for it to come to rest: the
        // delta sealed, and the merge rule satisfied.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let snap = handle.snapshot();
            assert_coherent(&snap);
            if snap.state.delta.n_sheets() == 0 && snap.state.merge_due().is_none() {
                break;
            }
            assert!(Instant::now() < deadline, "compactor never came to rest");
            std::thread::yield_now();
        }
        // Compaction republishes the state but is epoch-neutral.
        assert_eq!(handle.epoch(), adds);
        // Nothing was lost or duplicated on the way up the tiers.
        let stats = handle.stats();
        assert_eq!(stats.inline_compactions, 0);
        assert_eq!(stats.layout.base_sheets, sheets_before + added);
        let sizes = run_sizes(&handle.snapshot());
        assert!(sizes.windows(2).all(|w| w[0] > w[1]), "merge rule holds at rest: {sizes:?}");
        // And content-neutral: the compacted server answers exactly like
        // the synchronously-grown one, as does its artifact reloaded.
        let queries: Vec<_> = query_targets(&corpus, 0).into_iter().take(8).collect();
        let b = reference.snapshot();
        assert_snapshots_agree(&b, &handle.snapshot(), &queries, "compacted");
        let reloaded = ServeHandle::from_artifact(&handle.to_artifact()).expect("artifact loads");
        assert_snapshots_agree(&b, &reloaded.snapshot(), &queries, "compacted, reloaded");
    }

    /// A served prediction against the direct pipeline's for the same
    /// query: formula, `s2_distance` bits, and the reference it came from.
    fn assert_same_prediction(direct: Option<&Prediction>, served: Option<&Prediction>, ctx: &str) {
        match (direct, served) {
            (Some(x), Some(y)) => {
                assert_eq!(x.formula, y.formula, "{ctx}");
                assert_eq!(x.s2_distance.to_bits(), y.s2_distance.to_bits(), "{ctx}");
                assert_eq!(x.reference_sheet, y.reference_sheet, "{ctx}");
                assert_eq!(x.reference_sheet_idx, y.reference_sheet_idx, "{ctx}");
                assert_eq!(x.reference_cell, y.reference_cell, "{ctx}");
            }
            (None, None) => {}
            (x, y) => panic!("{ctx}: {x:?} vs {y:?}"),
        }
    }

    #[test]
    fn batch_prediction_is_bit_identical_to_sequential() {
        // A burst and a single predict run the same funnel, so the oracle
        // is the direct pipeline: `AutoFormula::predict_with` on the index
        // the handle serves, one target at a time. The index carries the
        // fine-only signatures and the coarse-only region vectors, so each
        // variant takes its own S1 or S2 path.
        let corpus = OrgSpec::pge(Scale::Tiny).generate();
        let af = system_with(AutoFormulaConfig::test_tiny());
        let opts = IndexOptions { fine_sheet_signatures: true, coarse_regions: true };
        let members: Vec<usize> = (0..4).collect();
        let index = af.build_index(&corpus.workbooks, &members, opts);
        let queries: Vec<_> = [0, 4, 5].iter().flat_map(|&wb| query_targets(&corpus, wb)).collect();
        // The same targets dealt round-robin across their sheets: the burst
        // is cut into one funnel pass per sheet and answered in query order.
        let mut by_sheet: Vec<Vec<(&Sheet, CellRef)>> = Vec::new();
        for &q in &queries {
            match by_sheet.last_mut() {
                Some(group) if std::ptr::eq(group[0].0, q.0) => group.push(q),
                _ => by_sheet.push(vec![q]),
            }
        }
        assert!(
            by_sheet.len() > 1 && queries.len() > by_sheet.len(),
            "several multi-target passes"
        );
        let longest = by_sheet.iter().map(Vec::len).max().unwrap_or(0);
        let interleaved: Vec<(&Sheet, CellRef)> = (0..longest)
            .flat_map(|i| by_sheet.iter().filter_map(move |g| g.get(i).copied()))
            .collect();
        let handle = ServeHandle::new(system_with(AutoFormulaConfig::test_tiny()), index.clone());
        for variant in
            [PipelineVariant::Full, PipelineVariant::CoarseOnly, PipelineVariant::FineOnly]
        {
            for burst in [&queries, &interleaved] {
                let batched = handle.query(burst, PredictOptions::with_variant(variant));
                assert_eq!(batched.len(), burst.len());
                for (&(sheet, target), b) in burst.iter().zip(&batched) {
                    let ctx = format!("{variant:?}, {target:?}");
                    assert!(!b.degraded, "{ctx}: healthy batch must not degrade");
                    let direct = af.predict_with(&index, sheet, target, variant);
                    assert_same_prediction(direct.as_ref(), b.prediction.as_ref(), &ctx);
                }
            }
        }
        // Thresholded batch applies θ.
        let theta = handle.snapshot().system.cfg().theta_region;
        for p in handle.predict_batch(&queries).into_iter().flatten() {
            assert!(p.s2_distance <= theta);
        }
    }

    #[test]
    fn add_workbook_swaps_epochs_without_disturbing_held_snapshots() {
        let (handle, corpus) = handle_over(3);
        let before = handle.snapshot();
        assert_eq!(before.epoch, 0);
        let n_before = before.n_sheets();

        let epoch = handle.add_workbook(&corpus.workbooks[3]);
        assert_eq!(epoch, 1);
        assert_eq!(handle.epoch(), 1);
        assert!(handle.n_sheets() > n_before);
        // The held snapshot still serves its old epoch, untouched.
        assert_eq!(before.epoch, 0);
        assert_eq!(before.n_sheets(), n_before);

        // The new epoch finds the new workbook's sheets as references.
        let after = handle.snapshot();
        let sheet = &corpus.workbooks[3].sheets[0];
        let emb = after.system.embedder().embed_sheet(sheet, false);
        let hit = after.similar_sheets(&emb.coarse, 1)[0];
        assert!(hit.dist < 1e-6, "new sheet must be indexed in the new epoch");
        // Provenance ids keep growing.
        assert_eq!(handle.add_workbook(&corpus.workbooks[4]), 2);
        let keys = handle.snapshot().keys();
        assert!(keys.iter().any(|k| k.workbook == 4));
        // A workbook without sheets is still one add.
        let empty = Workbook { name: "empty".into(), sheets: Vec::new(), timestamp: 0 };
        assert_eq!(handle.add_workbook(&empty), 3);
        assert_eq!((handle.epoch(), handle.n_sheets()), (3, keys.len()));
    }

    #[test]
    fn artifact_round_trip_through_the_server() {
        let (handle, corpus) = handle_over(3);
        handle.add_workbook(&corpus.workbooks[3]);
        let bytes = handle.to_artifact();
        // A live server persists what every other save does — each sheet's
        // cells once. Ceiling: the whole artifact, model and vocabulary
        // included, stays under half of what one stored window per region
        // would take on its own.
        let per_sheet = bytes.len() / handle.n_sheets();
        let fine_dim = handle.snapshot().system.cfg().fine_dim();
        let windows_per_sheet = handle.n_regions() * fine_dim * 4 / handle.n_sheets();
        assert!(
            per_sheet * 2 < windows_per_sheet,
            "{per_sheet} bytes a sheet; a window per region alone is {windows_per_sheet}"
        );
        let reloaded = ServeHandle::from_artifact(&bytes).expect("artifact loads");
        assert_eq!(reloaded.n_sheets(), handle.n_sheets());
        assert_eq!(reloaded.n_regions(), handle.n_regions());
        for (sheet, target) in query_targets(&corpus, 0).into_iter().take(8) {
            let a = one(&handle, sheet, target);
            let b = one(&reloaded, sheet, target);
            assert_eq!(a.prediction.map(|p| p.formula), b.prediction.map(|p| p.formula));
        }
        assert!(ServeHandle::from_artifact(b"garbage").is_err());
    }

    /// An artifact a 2-shard server of an earlier version saved (it
    /// carries the legacy `SHARDS` section; see af-core's
    /// `tests/artifact_legacy_layouts.rs` for its provenance) serves as one
    /// partition in its saved order: exactly what the library loads from
    /// the same bytes, on every query of the corpus it was built from.
    #[test]
    fn legacy_sharded_artifact_serves_like_the_library_load() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../core/tests/data/artifact_v3_sharded_tiny.afar"
        );
        let bytes = std::fs::read(path).expect("fixture");
        let handle = ServeHandle::from_artifact(&bytes).expect("the server loads it");
        let (af, index) = AutoFormula::load_bytes_artifact(Bytes::from(bytes)).expect("loads");
        assert_eq!(handle.n_sheets(), index.n_sheets());
        assert_eq!(handle.snapshot().keys(), index.keys);
        let corpus = OrgSpec::pge(Scale::Tiny).generate();
        let mut predicted = 0usize;
        for wb in 0..corpus.workbooks.len() {
            for (sheet, target) in query_targets(&corpus, wb) {
                let direct = af.predict_with(&index, sheet, target, PipelineVariant::Full);
                let served = one(&handle, sheet, target);
                assert!(!served.degraded);
                assert_same_prediction(direct.as_ref(), served.prediction.as_ref(), "fixture");
                predicted += usize::from(direct.is_some());
            }
        }
        assert!(predicted > 0);
    }

    #[test]
    fn stats_expose_epoch_age_and_traffic_counters() {
        let (handle, corpus) = handle_over(3);
        let s0 = handle.stats();
        assert_eq!(s0.epoch, 0);
        assert_eq!(s0.queries_served, 0);
        assert_eq!(s0.workbooks_added, 0);
        assert!(s0.snapshots_acquired >= 1, "stats itself pins a snapshot");

        // Serve some traffic: singles and a batch, each counted per query.
        let queries = query_targets(&corpus, 0);
        assert!(queries.len() >= 2);
        for &(sheet, at) in queries.iter().take(2) {
            let _ = handle.predict(sheet, at);
            let _ = one(&handle, sheet, at);
        }
        let _ = handle.predict_batch(&queries);
        let s1 = handle.stats();
        assert_eq!(s1.queries_served, 4 + queries.len() as u64);
        assert!(s1.snapshots_acquired > s0.snapshots_acquired);
        assert!(s1.snapshot_age >= s0.snapshot_age, "same epoch only ages");

        // A publish bumps the epoch, the add counter, and resets the age.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let aged = handle.stats().snapshot_age;
        assert!(aged.as_millis() >= 20);
        handle.add_workbook(&corpus.workbooks[3]);
        let s2 = handle.stats();
        assert_eq!(s2.epoch, 1);
        assert_eq!(s2.workbooks_added, 1);
        assert!(s2.snapshot_age < aged, "new epoch must be younger than the old one");
        // Queries served is monotone across the swap.
        assert!(s2.queries_served >= s1.queries_served);
    }

    #[test]
    fn stats_report_the_run_layout_and_quarantine() {
        let (handle, corpus) = handle_over(3);
        let s0 = handle.stats();
        let loaded = RunLayout { base_sheets: handle.n_sheets(), sealed_runs: 1, delta_sheets: 0 };
        assert_eq!((s0.layout, s0.shards), (loaded, [loaded]));
        assert_eq!(s0.quarantined_since, None);

        // One write lands in the delta.
        let single = Workbook {
            name: "one-sheet".into(),
            sheets: vec![corpus.workbooks[3].sheets[0].clone()],
            timestamp: 0,
        };
        handle.add_workbook(&single);
        let s1 = handle.stats();
        assert_eq!(s1.layout, RunLayout { delta_sheets: 1, ..loaded });
        assert_eq!(s1.shards, [s1.layout]);

        // A quarantine reports the epoch it was imposed at until recovery.
        handle.quarantine();
        assert_eq!(handle.stats().quarantined_since, Some(1));
        assert_eq!(handle.quarantined_since(), Some(1));
        handle.recover();
        assert_eq!(handle.stats().quarantined_since, None);
    }

    #[test]
    fn serves_from_an_artifact_file_via_mmap() {
        let (handle, corpus) = handle_over(3);
        let bytes = handle.to_artifact();
        let mut path = std::env::temp_dir();
        path.push(format!("af_serve_mmap_{}.afar", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let mapped = ServeHandle::from_artifact_path(&path).expect("mmap serve");
        assert_eq!(mapped.n_sheets(), handle.n_sheets());
        for (sheet, target) in query_targets(&corpus, 0).into_iter().take(6) {
            let a = one(&handle, sheet, target);
            let b = one(&mapped, sheet, target);
            assert_eq!(a.prediction.map(|p| p.formula), b.prediction.map(|p| p.formula));
        }
        // The mapped handle can still grow (tables convert to owned on
        // write) and re-serialize.
        mapped.add_workbook(&corpus.workbooks[3]);
        assert!(mapped.n_sheets() > handle.n_sheets());
        drop(mapped);
        std::fs::remove_file(&path).unwrap();
        assert!(ServeHandle::from_artifact_path(Path::new("/no/such.afar")).is_err());
    }

    #[test]
    fn serves_from_a_quantized_artifact() {
        // The f16 codec end to end through serving: an f16 artifact
        // written with the streaming save is mapped into a handle,
        // predicts, and keeps growing.
        let (af, corpus) = system_and_corpus();
        let members: Vec<usize> = (0..3).collect();
        let index = af.build_index(&corpus.workbooks, &members, IndexOptions::default());
        let mut path = std::env::temp_dir();
        path.push(format!("af_serve_f16_{}.afar", std::process::id()));
        let opts = StoreOptions { codec: af_core::Codec::F16, ..StoreOptions::default() };
        af.save_to_path_with(&index, opts, None, &path).expect("f16 save");
        let handle = ServeHandle::from_artifact_path(&path).expect("f16 serve");
        assert_eq!(handle.n_sheets(), index.n_sheets());
        let mut predicted = 0usize;
        for (sheet, target) in query_targets(&corpus, 0).into_iter().take(6) {
            if let Some(p) = one(&handle, sheet, target).prediction {
                assert!(p.s2_distance.is_finite());
                predicted += 1;
            }
        }
        assert!(predicted > 0, "an f16 artifact must serve predictions");
        handle.add_workbook(&corpus.workbooks[3]);
        assert!(handle.n_sheets() > index.n_sheets());
        drop(handle);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn concurrent_readers_and_writer_stress() {
        // Tiny deltas so the stress run exercises writes, reads, and
        // background compaction all racing.
        let cfg = AutoFormulaConfig { delta_max_sheets: 2, ..AutoFormulaConfig::test_tiny() };
        let (handle, corpus) = handle_over_with(cfg, 2);
        let queries: Vec<(usize, usize, CellRef)> = corpus.workbooks[0]
            .sheets
            .iter()
            .enumerate()
            .flat_map(|(si, s)| s.formulas().map(move |(at, _)| (0usize, si, at)))
            .collect();
        assert!(!queries.is_empty());
        let stop = std::sync::atomic::AtomicBool::new(false);
        // The writer's workbooks, and the sheet count once the first `e`
        // of them have landed.
        let writes: Vec<&Workbook> = (0..6).map(|round| &corpus.workbooks[2 + round % 3]).collect();
        let mut after = vec![handle.n_sheets()];
        for wb in &writes {
            after.push(after[after.len() - 1] + wb.sheets.len());
        }

        std::thread::scope(|scope| {
            // Readers hammer predict + snapshot invariants.
            for t in 0..3 {
                let handle = handle.clone();
                let corpus = &corpus;
                let queries = &queries;
                let stop = &stop;
                let after = &after;
                scope.spawn(move || {
                    let mut served = 0usize;
                    let mut last_epoch = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let snap = handle.snapshot();
                        // Epochs are monotone per reader.
                        assert!(snap.epoch >= last_epoch, "epoch went backwards");
                        last_epoch = snap.epoch;
                        // The epoch names the data: every sheet of the
                        // first `epoch` workbooks, and not all of the next.
                        let (n, e) = (snap.n_sheets(), snap.epoch as usize);
                        assert!(n >= after[e], "epoch {e} with {n} sheets, not {}", after[e]);
                        if let Some(&next) = after.get(e + 1) {
                            assert!(n < next, "epoch {e} already holds workbook {e}");
                        }
                        // Internal consistency of whatever state we got:
                        // no torn state — segments tile the ids, no
                        // duplicated or missing sheets.
                        assert_coherent(&snap);
                        let (wb, si, at) = queries[(served + t) % queries.len()];
                        let sheet = &corpus.workbooks[wb].sheets[si];
                        let _ = snap
                            .query(&[(sheet, at)], PredictOptions::default())
                            .remove(0)
                            .prediction;
                        served += 1;
                    }
                    assert!(served > 0);
                });
            }
            // One writer keeps publishing new epochs while the compactor
            // folds deltas behind it.
            let writer = handle.clone();
            let writes = &writes;
            let stop_ref = &stop;
            scope.spawn(move || {
                for wb in writes {
                    writer.add_workbook(wb);
                }
                stop_ref.store(true, Ordering::Relaxed);
            });
        });
        // The epoch counts writes alone — compaction publishes don't bump it.
        assert_eq!(handle.epoch(), 6);
        assert_coherent(&handle.snapshot());
    }

    fn assert_bitwise_eq(a: &ServeOutcome, b: &ServeOutcome) {
        match (&a.prediction, &b.prediction) {
            (Some(x), Some(y)) => {
                assert_eq!(x.formula, y.formula);
                assert_eq!(x.s2_distance.to_bits(), y.s2_distance.to_bits());
                assert_eq!(x.reference_sheet_idx, y.reference_sheet_idx);
                assert_eq!(x.reference_cell, y.reference_cell);
            }
            (None, None) => {}
            (x, y) => panic!("{x:?} vs {y:?}"),
        }
    }

    #[test]
    fn manual_quarantine_excludes_the_index_until_recovery() {
        let (handle, corpus) = handle_over(4);
        let queries: Vec<_> = query_targets(&corpus, 0).into_iter().take(6).collect();
        assert!(!queries.is_empty());
        assert_eq!(handle.quarantined_since(), None);

        let baseline: Vec<ServeOutcome> =
            queries.iter().map(|&(s, at)| one(&handle, s, at)).collect();
        assert!(baseline.iter().all(|o| !o.degraded && !o.index_skipped));

        handle.quarantine();
        assert_eq!(handle.quarantined_since(), Some(0));
        let degraded_before = handle.stats().degraded_queries;
        for &(sheet, at) in &queries {
            let o = one(&handle, sheet, at);
            assert!(o.degraded && o.index_skipped, "quarantine must mark queries degraded");
            assert!(o.prediction.is_none(), "a quarantined index answers nothing");
        }
        assert_eq!(handle.stats().degraded_queries, degraded_before + queries.len() as u64);
        // Quarantine is monotone until the explicit recovery below —
        // serving traffic never clears it.
        assert_eq!(handle.quarantined_since(), Some(0));

        // Quarantine excludes the index from queries but not from
        // persistence: the artifact still carries every sheet.
        let reloaded = ServeHandle::from_artifact(&handle.to_artifact()).unwrap();
        assert_eq!(reloaded.n_sheets(), handle.n_sheets());

        handle.recover();
        assert_eq!(handle.quarantined_since(), None);
        for (&(sheet, at), before) in queries.iter().zip(&baseline) {
            let after = one(&handle, sheet, at);
            assert!(!after.degraded);
            assert_bitwise_eq(&after, before);
        }
    }

    #[test]
    fn deadlines_cut_the_pipeline_and_report_it() {
        let (handle, corpus) = handle_over(3);
        let (sheet, at) = query_targets(&corpus, 0)[0];

        // An already-expired deadline: nothing completes, the outcome says
        // so, and nothing panics.
        let expired = PredictOptions::with_variant(PipelineVariant::Full).deadline_in_ms(0);
        let o = handle.query(&[(sheet, at)], expired).remove(0);
        assert!(o.deadline_exceeded && o.degraded);
        assert!(o.prediction.is_none(), "no stage ran before the deadline");
        assert!(handle.stats().deadline_exceeded >= 1);

        // A generous deadline degrades nothing and is bit-identical to the
        // deadline-free call.
        let generous = PredictOptions::with_variant(PipelineVariant::Full).deadline_in_ms(60_000);
        let relaxed = handle.query(&[(sheet, at)], generous).remove(0);
        assert!(!relaxed.degraded && !relaxed.deadline_exceeded);
        assert_bitwise_eq(&relaxed, &one(&handle, sheet, at));

        // Batch: one expired deadline covers every query in the burst.
        let queries: Vec<_> = query_targets(&corpus, 0).into_iter().take(3).collect();
        for o in handle.query(&queries, expired) {
            assert!(o.deadline_exceeded && o.prediction.is_none());
        }
    }

    #[test]
    fn disabled_deltas_grow_the_last_run_and_serve_identically() {
        // Deltas disabled: a write grows the one run synchronously, and
        // serves exactly like a server whose write waits in the delta.
        let cfg = AutoFormulaConfig { delta_max_sheets: 0, ..AutoFormulaConfig::test_tiny() };
        let (handle, corpus) = handle_over_with(cfg, 3);
        let (reference, _) = handle_over(3);
        handle.add_workbook(&corpus.workbooks[3]);
        reference.add_workbook(&corpus.workbooks[3]);
        let layout = handle.stats().layout;
        assert_eq!((layout.sealed_runs, layout.delta_sheets), (1, 0));
        assert_eq!(layout.base_sheets, handle.n_sheets());
        assert!(reference.stats().layout.delta_sheets > 0);
        let queries: Vec<_> = query_targets(&corpus, 0).into_iter().take(6).collect();
        assert_snapshots_agree(&reference.snapshot(), &handle.snapshot(), &queries, "no delta");
    }

    #[test]
    fn backpressure_folds_deltas_inline_when_the_threshold_hits() {
        // delta_max 1 × factor 1 ⇒ every write reaches the backpressure
        // threshold immediately and compacts inline — deterministic, no
        // background-compactor timing in the picture.
        let pressured = AutoFormulaConfig {
            delta_max_sheets: 1,
            backpressure_factor: 1,
            ..AutoFormulaConfig::test_tiny()
        };
        let synchronous =
            AutoFormulaConfig { delta_max_sheets: 0, ..AutoFormulaConfig::test_tiny() };
        let (handle, corpus) = handle_over_with(pressured, 3);
        let (reference, _) = handle_over_with(synchronous, 3);
        for wb in 3..6 {
            handle.add_workbook(&corpus.workbooks[wb]);
            reference.add_workbook(&corpus.workbooks[wb]);
        }
        // Every write folded its delta inline; nothing is left pending.
        let snap = handle.snapshot();
        assert_eq!(snap.n_delta_sheets(), 0);
        let stats = handle.stats();
        assert!(stats.inline_compactions > 0, "threshold of 1 must trigger inline folds");
        // And the inline-compacted server answers exactly like the
        // synchronously-grown one.
        let queries: Vec<_> = query_targets(&corpus, 0).into_iter().take(8).collect();
        assert_snapshots_agree(&reference.snapshot(), &snap, &queries, "compacted inline");
    }

    #[test]
    fn atomic_artifact_save_to_path_round_trips_and_overwrites() {
        let (handle, corpus) = handle_over(3);
        let mut path = std::env::temp_dir();
        path.push(format!("af_serve_atomic_{}.afar", std::process::id()));
        handle.to_artifact_path(&path).expect("atomic save");
        let reloaded = ServeHandle::from_artifact_path(&path).expect("load saved artifact");
        assert_eq!(reloaded.n_sheets(), handle.n_sheets());
        // Overwriting an existing artifact goes through the same temp +
        // rename dance and lands the new state.
        handle.add_workbook(&corpus.workbooks[3]);
        handle.to_artifact_path(&path).expect("atomic overwrite");
        let newer = ServeHandle::from_artifact_path(&path).expect("load overwritten artifact");
        assert_eq!(newer.n_sheets(), handle.n_sheets());
        assert!(newer.n_sheets() > reloaded.n_sheets());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn sheet_meta_returns_none_for_unknown_globals() {
        let (handle, _) = handle_over(2);
        let snap = handle.snapshot();
        assert!(snap.sheet_meta(0).is_some());
        assert!(snap.sheet_meta(snap.n_sheets() + 100).is_none());
    }
}
