//! `af-serve` — sharded, lock-free concurrent serving of self-contained
//! recommendation artifacts.
//!
//! The paper's online pipeline (Algorithm 2) is train-once / predict-many;
//! this crate is the predict-many half as a production component:
//!
//! * **Sharded scatter-gather.** The reference index is partitioned into
//!   `N` shards ([`AutoFormulaConfig::n_shards`]) by a deterministic hash
//!   of each sheet's provenance key ([`shard_of`]). A query scatters S1
//!   across every shard, merges the per-shard top-k by `(distance, global
//!   sheet id)`, and runs S2/S3 against the owning shards — on the exact
//!   `Flat` backend the merged result is **bit-identical** to the
//!   unsharded scan, ties included, because sheets keep their global
//!   order inside each shard.
//! * **Sealed runs and a delta.** Each shard is an ascending list of
//!   immutable sealed *runs* (the loaded base is run 0) plus a small
//!   mutable *delta* (always `Flat`-backed, so it stays exact).
//!   [`ServeHandle::add_workbook`] clones and grows only the delta —
//!   O(delta), not O(corpus/N). Once the delta reaches
//!   [`AutoFormulaConfig::delta_max_sheets`] a background compactor
//!   *seals* it — moves it onto the end of the list, no table copy — and
//!   then merges the last two runs while the newer has at least as many
//!   sheets as the older (size-tiered: a sheet is re-copied O(log n)
//!   times, the base only once additions rival it). Merges are built off
//!   the writer lock. Queries scan every run plus the delta and merge,
//!   so writes are cheap and reads never miss fresh sheets.
//! * **Per-shard left-right epochs, lock-free readers.** Every shard's
//!   state sits in a two-slot left-right structure: readers acquire it
//!   with two atomic counter operations and *never block* — not on other
//!   readers, not on writers, not on the compactor. A write republishes
//!   one shard; the other `N − 1` are untouched. Readers holding a
//!   [`Snapshot`] keep serving that exact state until they drop it.
//! * **One funnel, one entry point.** [`ServeHandle::query`] embeds a
//!   burst's distinct query sheets through the representation model in
//!   one tensor pass, then answers all targets of a sheet in one pass of
//!   af-core's `AutoFormula::funnel` over every sealed run and delta of
//!   every shard: one S1, one ranking of each candidate sheet scoring
//!   every target at once, then S3 per target — bit-identical to issuing
//!   the queries one at a time, which is the one-target case of the same
//!   funnel. The direct pipeline is its one-segment case, so the two
//!   paths share every S2 and S3 step by construction.
//! * **Artifacts in, artifacts out.** [`ServeHandle::from_artifact`]
//!   cold-starts a server from bytes produced by `AutoFormula::save`
//!   (re-splitting by the artifact's stored shard layout when present);
//!   [`ServeHandle::to_artifact`] merges the current serving state —
//!   including workbooks added since load — back into one global-order
//!   artifact plus its shard layout (format v3).
//! * **Graceful degradation.** Every per-segment scan runs under
//!   `catch_unwind`: a shard that panics is quarantined (skipped by
//!   queries until [`ServeHandle::recover_shard`]) while the healthy
//!   shards keep answering. [`ServeHandle::query`] returns a
//!   [`ServeOutcome`] — the prediction plus `degraded` /
//!   `shards_skipped` / `deadline_exceeded` flags — so callers can tell a
//!   full answer from a partial one. Per-query deadlines
//!   ([`PredictOptions::deadline`]) are checked between shard scans and
//!   between the S1/S2/S3 stages and return best-effort results from
//!   whatever completed. The background compactor is supervised: after a
//!   panic or injected error it restarts with capped exponential backoff
//!   ([`ServeStats::compactor_restarts`] counts incidents), and if a
//!   wedged compactor lets a delta reach `delta_max_sheets ×
//!   backpressure_factor`, the write path seals and merges inline
//!   instead of letting the delta grow without bound. Fault injection
//!   for all of this lives behind the `failpoints` cargo feature
//!   (`af_core::failpoint`).
//!
//! See `ARCHITECTURE.md` at the repository root for the full design,
//! including the epoch-swap protocol, the bit-identity argument, and the
//! failure model (quarantine state machine, deadline semantics, compactor
//! backoff).
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
//! let cfg = AutoFormulaConfig { n_shards: 4, ..AutoFormulaConfig::test_tiny() };
//! let af = AutoFormula::from_model(RepresentationModel::new(featurizer.dim(), cfg), featurizer);
//! let index = af.build_index(&corpus.workbooks, &[0, 1, 2], IndexOptions::default());
//!
//! let handle = ServeHandle::new(af, index); // 4 shards, hash-routed
//! let sheet = &corpus.workbooks[3].sheets[0];
//! let (target, _) = sheet.formulas().next().unwrap();
//! let prediction = handle.predict(sheet, target); // scatter-gather, lock-free
//! handle.add_workbook(&corpus.workbooks[3]); // grows one shard's delta
//! let bytes = handle.to_artifact(); // merged index + shard layout (v3)
//! # let _ = (prediction, bytes);
//! ```
#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod protocol;

use crate::protocol::{
    compact_warranted, delta_disposition, should_merge, should_signal_compactor, DeltaDisposition,
    EpochCore, HealthCore, LeftRightCore,
};
use af_ann::{merge_neighbors, Neighbor};
use af_check::StdFamily;
use af_core::artifact::{write_atomic, ArtifactError, ShardLayout, StoreOptions};
use af_core::config::{AnnBackend, AutoFormulaConfig};
use af_core::fail_point;
use af_core::index::{ReferenceIndex, SheetKey, SheetMeta};
use af_core::pipeline::{
    AutoFormula, FunnelResult, PipelineVariant, PredictOptions, Prediction, Segment,
};
use af_core::SheetEmbedder;
use af_grid::{CellRef, Sheet, Workbook};
use bytes::Bytes;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// Memory-ordering discipline: the left-right publish/acquire choreography
// lives in [`protocol`], model-checked by `af-check` (tests/model.rs) with
// SeqCst kept only on the four store-buffering-critical operations; see
// the proof sketch in the module docs and ARCHITECTURE.md §Verification.
// Every atomic access in this file carries its own `// ordering:` note.

/// Which shard owns a sheet: a deterministic (splitmix64-style) hash of
/// the sheet's provenance key, modulo the shard count. Part of the
/// artifact contract — a v3 artifact without a stored layout is re-split
/// with exactly this function, so routing stays stable across processes.
pub fn shard_of(key: SheetKey, n_shards: usize) -> usize {
    if n_shards <= 1 {
        return 0;
    }
    let mut x = (key.workbook as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((key.sheet as u64).wrapping_mul(0xD1B5_4A32_D192_ED03));
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x % n_shards as u64) as usize
}

// ------------------------------------------------------- left-right cell

/// A two-slot left-right cell: lock-free wait-free-in-practice reads, and
/// epoch-style publishes that wait out stragglers instead of blocking
/// readers. Each serving shard owns one.
///
/// The choreography — slots, announce/confirm, drain-then-swap — lives in
/// [`protocol::LeftRightCore`], model-checked over `af-check`'s shims;
/// this wrapper instantiates it with [`StdFamily`] (plain `std` atomics,
/// zero cost) and raw `Arc<T>` pointers as the payload tokens.
struct LeftRight<T> {
    core: LeftRightCore<StdFamily>,
    /// The cell owns one `Arc<T>` strong count per slot token.
    _owns: PhantomData<Arc<T>>,
}

impl<T> LeftRight<T> {
    fn new(v: Arc<T>) -> LeftRight<T> {
        let slot0 = Arc::into_raw(Arc::clone(&v)) as usize;
        let slot1 = Arc::into_raw(v) as usize;
        LeftRight { core: LeftRightCore::new(slot0, slot1), _owns: PhantomData }
    }

    /// Acquire the current value. Lock-free; at most a couple of retries
    /// when a publish races past.
    fn read(&self) -> Arc<T> {
        self.core.read(|token| {
            let p = token as *const T;
            // SAFETY: `token` round-trips a pointer minted by
            // `Arc::into_raw` (in `new` or `publish`), and the core's
            // announce/confirm protocol pins the slot until the `pin`
            // closure returns: the publisher drains this slot's reader
            // count to zero before swapping out and retiring the token,
            // so the slot's strong count is alive for the whole closure.
            // Incrementing before `from_raw` keeps the slot's own count
            // intact while handing the caller an owned clone.
            unsafe {
                Arc::increment_strong_count(p);
                Arc::from_raw(p)
            }
        })
    }

    /// Take the publisher lock; `publish` must be called under it.
    fn write_lock(&self) -> impl Drop + '_ {
        self.core.write_lock()
    }

    /// Replace both slots with `new`. The caller must hold
    /// [`Self::write_lock`].
    fn publish(&self, new: Arc<T>) {
        self.core.publish(
            || Arc::into_raw(Arc::clone(&new)) as usize,
            |old| {
                // SAFETY: every retired token is a pointer this cell
                // minted via `Arc::into_raw` with its own strong count,
                // displaced from its slot after the core drained the
                // slot's readers — nothing observes it after this drop.
                unsafe { drop(Arc::from_raw(old as *const T)) }
            },
        );
    }
}

impl<T> Drop for LeftRight<T> {
    fn drop(&mut self) {
        for token in self.core.payloads_mut() {
            // SAFETY: `&mut self` means no readers or publishers are
            // live; each slot still owns the strong count its token was
            // minted with, released exactly once here.
            unsafe { drop(Arc::from_raw(token as *const T)) };
        }
    }
}

// ----------------------------------------------------------- shard state

/// One segment of a shard: an index paired with the *global* sheet id of
/// each of its local sheet ids (strictly ascending — the property the
/// bit-identical merge rests on). Immutable once published.
#[derive(Clone)]
struct Run {
    index: ReferenceIndex,
    globals: Vec<usize>,
}

impl Run {
    fn n_sheets(&self) -> usize {
        self.globals.len()
    }

    /// Index one more sheet under `global` (greater than every global
    /// already here).
    fn push(&mut self, embedder: &SheetEmbedder<'_>, sheet: &Sheet, key: SheetKey, global: usize) {
        self.index.add_sheet(embedder, sheet, key);
        self.globals.push(global);
    }

    /// `older` followed by `newer` as one run — the only table copy
    /// compaction ever makes, and it copies nothing but the two runs
    /// being merged. The result keeps `older`'s ANN backend.
    fn merged(older: &Run, newer: &Run) -> Run {
        let mut run = older.clone();
        run.index.absorb(&newer.index);
        run.globals.extend_from_slice(&newer.globals);
        run
    }
}

/// The immutable published state of one shard: sealed runs plus a small
/// delta. Across `runs` and then `delta`, globals are strictly ascending
/// and never overlap — every sheet of a later segment was added after
/// every sheet of an earlier one.
struct ShardState {
    /// Sealed runs, oldest first; never empty. Run 0 is the loaded base
    /// (possibly HNSW/IVF) until the merge rule folds it. `Arc`-shared
    /// across publishes: a write or a merge never copies a run it does
    /// not touch.
    runs: Vec<Arc<Run>>,
    /// Mutable segment, always `Flat`-backed (exact). Cloned — O(delta) —
    /// on every write to this shard; sealing moves the `Arc` onto `runs`.
    delta: Arc<Run>,
    /// When this state was published (drives the
    /// [`ServeStats::youngest_snapshot_age`] /
    /// [`ServeStats::oldest_snapshot_age`] pair).
    published_at: Instant,
}

impl ShardState {
    /// Every non-empty segment, oldest first: the runs, then the delta.
    fn segments(&self) -> impl Iterator<Item = &Run> {
        let all = self.runs.iter().chain(std::iter::once(&self.delta));
        all.map(|run| &**run).filter(|run| run.n_sheets() > 0)
    }

    fn sealed_sheets(&self) -> usize {
        self.runs.iter().map(|r| r.n_sheets()).sum()
    }

    /// This state with the delta moved onto the end of the run list and
    /// `empty_delta` in its place. No table is copied.
    fn sealed(&self, empty_delta: &Arc<Run>) -> ShardState {
        let mut runs = self.runs.clone();
        runs.push(Arc::clone(&self.delta));
        ShardState { runs, delta: Arc::clone(empty_delta), published_at: Instant::now() }
    }

    /// Where the merge rule ([`should_merge`]) wants the next merge: the
    /// position of the older of the last two runs, `None` once the rule
    /// holds.
    fn merge_due(&self) -> Option<usize> {
        let [.., prev, last] = self.runs.as_slice() else { return None };
        should_merge(last.n_sheets(), prev.n_sheets()).then(|| self.runs.len() - 2)
    }

    /// This state with runs `at` and `at + 1` replaced by `merged`.
    fn with_merged(&self, at: usize, merged: Run) -> ShardState {
        let mut runs = self.runs.clone();
        runs.splice(at..at + 2, [Arc::new(merged)]);
        ShardState { runs, delta: Arc::clone(&self.delta), published_at: Instant::now() }
    }

    /// Seal the delta and merge until the rule holds, synchronously — the
    /// whole compaction in one step, for a caller that already holds the
    /// writer lock (the backpressure path).
    fn compacted(&self, empty_delta: &Arc<Run>) -> ShardState {
        let mut state = self.sealed(empty_delta);
        while let Some(at) = state.merge_due() {
            state = state.with_merged(at, Run::merged(&state.runs[at], &state.runs[at + 1]));
        }
        state
    }
}

/// Mutable health of one serving shard, shared between the handle and
/// every snapshot that references the shard. The flag is sticky: once a
/// query (or an operator) quarantines a shard, it stays excluded from the
/// read path until an explicit [`ServeHandle::recover_shard`] — automatic
/// un-quarantine would re-expose readers to a shard that just proved it
/// can panic. Quarantined shards are skipped by `predict*` (reported in
/// [`ServeOutcome::shards_skipped`]); writes and compaction still proceed
/// — the data is intact, it is the *scan* that misbehaved.
///
/// The flag/epoch choreography lives in [`protocol::HealthCore`]
/// (model-checked sticky-quarantine invariant).
type ShardHealth = HealthCore<StdFamily>;

struct Shard {
    state: LeftRight<ShardState>,
    health: Arc<ShardHealth>,
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
    /// Shard quarantine impositions (recoveries do not decrement).
    quarantine_events: AtomicU64,
    /// Compactor supervision incidents: each panic or injected error that
    /// forced a backoff-and-restart of the compaction loop.
    compactor_restarts: AtomicU64,
    /// Writes that sealed and merged inline because the delta hit the
    /// backpressure threshold.
    inline_compactions: AtomicU64,
    /// Per-shard queries that actually scanned the shard (sized to
    /// `n_shards` at construction; quarantined/skipped shards don't
    /// count).
    shard_queries: Vec<AtomicU64>,
}

impl Counters {
    fn new(n_shards: usize) -> Counters {
        Counters {
            shard_queries: (0..n_shards).map(|_| AtomicU64::new(0)).collect(),
            ..Counters::default()
        }
    }
}

/// A point-in-time view of a [`ServeHandle`]'s health: which epoch is
/// serving, how stale it is, and how much traffic the handle has seen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeStats {
    /// Epoch of the currently-active snapshot (bumped per
    /// [`ServeHandle::add_workbook`]).
    pub epoch: u64,
    /// Time since the youngest (most recently published) shard state —
    /// the **min** of `published_at.elapsed()` across shards. A write or
    /// a compaction resets one shard's age, so a large value here on a
    /// write-heavy deployment means the writers are starving.
    pub youngest_snapshot_age: Duration,
    /// Time since the oldest (least recently published) shard state —
    /// the **max** across shards. The gap to
    /// [`ServeStats::youngest_snapshot_age`] shows how unevenly writes
    /// are landing across shards.
    pub oldest_snapshot_age: Duration,
    /// Queries served since startup, across every `predict*` entry point
    /// (batch calls count each query).
    pub queries_served: u64,
    /// Reader snapshot acquisitions since startup (includes the one this
    /// `stats()` call performed).
    pub snapshots_acquired: u64,
    /// Workbooks incrementally indexed since startup.
    pub workbooks_added: u64,
    /// Shards currently quarantined (a gauge: [`ServeHandle::recover_shard`]
    /// brings it back down; every other new counter here is monotonic).
    pub quarantined_shards: u64,
    /// Queries answered degraded — a shard skipped, a candidate dropped,
    /// or a deadline cut the pipeline short.
    pub degraded_queries: u64,
    /// Queries whose [`PredictOptions::deadline`] expired mid-pipeline.
    pub deadline_exceeded: u64,
    /// Compactor supervision incidents (panic or injected error, each
    /// followed by a capped-exponential-backoff restart of the loop).
    pub compactor_restarts: u64,
    /// Writes that sealed and merged inline because the shard's delta
    /// reached the backpressure threshold (`delta_max_sheets ×
    /// backpressure_factor`).
    pub inline_compactions: u64,
    /// Per-shard detail, indexed by shard id (`len() == n_shards`).
    pub shards: Vec<ShardStats>,
}

/// Per-shard detail inside [`ServeStats`]: layout, staleness, and traffic
/// for one serving shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index (0-based, `< n_shards`).
    pub shard: usize,
    /// Sheets in sealed runs (the loaded base and everything compacted
    /// since).
    pub base_sheets: usize,
    /// Sealed runs those sheets are spread over — O(log) of the sheets
    /// added since load under the size-tiered merge rule.
    pub sealed_runs: usize,
    /// Sheets waiting in the delta segment (not yet sealed).
    pub delta_sheets: usize,
    /// Epoch at which the shard was quarantined; `None` when healthy.
    pub quarantined_since: Option<u64>,
    /// Queries that scanned this shard (skipped/quarantined queries
    /// don't count).
    pub queries_served: u64,
}

/// A shard currently excluded from the read path, as reported by
/// [`ServeHandle::quarantined`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantinedShard {
    /// Index of the shard (0-based, `< n_shards`).
    pub shard: usize,
    /// Epoch at the moment the quarantine was imposed.
    pub since_epoch: u64,
}

/// The result of one deadline-aware, degradation-aware query: what
/// [`ServeHandle::query`] returns per query. A non-degraded outcome is
/// bit-identical to the direct pipeline (`AutoFormula::predict_with` on
/// the unsharded index, on the exact `Flat` backend); a degraded one is the best effort of whatever completed — the flags
/// say what was missing so callers can retry, alert, or serve partial.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// The prediction, if any segment produced an adaptable reference.
    /// `None` on a degraded outcome means "nothing survived", not
    /// "confidently no recommendation".
    pub prediction: Option<Prediction>,
    /// True when anything was skipped: a quarantined shard, a dropped
    /// candidate, or a deadline cut. `false` guarantees the full
    /// scatter-gather ran over every shard.
    pub degraded: bool,
    /// Shards excluded from this query (already quarantined at the start,
    /// plus any quarantined mid-query by a caught panic).
    pub shards_skipped: usize,
    /// S1 candidates dropped without S2 ranking (their segment vanished
    /// mid-query or their id failed to resolve — the torn-id path that
    /// used to panic).
    pub candidates_dropped: usize,
    /// The query's deadline expired before the pipeline finished; the
    /// prediction (if any) came from the stages that completed in time.
    pub deadline_exceeded: bool,
}

struct Shared {
    system: Arc<AutoFormula>,
    shards: Vec<Shard>,
    /// Monotonic epoch: the number of `add_workbook` publishes. Compaction
    /// republishes shard states but does not bump the epoch — it changes
    /// layout, not content.
    epoch: EpochCore<StdFamily>,
    /// Provenance id the next added workbook receives.
    next_workbook_id: AtomicUsize,
    /// Next global sheet id. Allocated under the owning shard's writer
    /// lock, so globals are strictly ascending *within* every shard.
    next_global: AtomicUsize,
    /// Shared with every snapshot so degradation/deadline accounting
    /// happens where the outcome is computed.
    counters: Arc<Counters>,
    /// Delta capacity before compaction is signalled; `0` disables deltas
    /// (writes grow the base synchronously — the pre-shard behavior).
    delta_max: usize,
    /// Inline-compaction threshold: when a delta reaches
    /// `delta_max × backpressure_factor` sheets the write path stops
    /// waiting for the (evidently wedged) compactor and seals the delta
    /// itself. `None` disables the fallback.
    backpressure_at: Option<usize>,
    /// The delta every shard starts from and returns to when its delta is
    /// sealed: no sheets, `Flat` backend (exact), the index's optional
    /// structures and codecs.
    empty_delta: Arc<Run>,
    /// Wakes the compactor with the index of a shard whose delta is full.
    /// `None` when `delta_max == 0` (no compactor thread).
    compact_tx: Option<mpsc::Sender<usize>>,
}

impl Shared {
    /// Seal `shard`'s delta if it is full, then merge runs until the rule
    /// holds. Runs on the compactor thread. An `Err` is only ever an
    /// injected fault (the `serve::compact` failpoint); the supervisor
    /// treats it like a panic.
    fn compact(&self, shard: usize) -> Result<(), af_core::failpoint::Injected> {
        // The failpoint sits before any build so an injected panic or
        // error leaves the published state untouched; so does a panic
        // mid-merge, which unwinds before the swap (parking_lot mutexes
        // unlock on unwind without poisoning).
        fail_point!("serve::compact", Err);
        self.seal_full_delta(shard);
        while self.merge_once(shard) {}
        Ok(())
    }

    /// Move `shard`'s delta onto the end of its run list if it has reached
    /// `delta_max`. Copies nothing; holds the writer lock for one publish.
    fn seal_full_delta(&self, shard: usize) {
        let cell = &self.shards[shard].state;
        let _guard = cell.write_lock();
        let cur = cell.read();
        // Re-check under the lock: a racing signal or an inline
        // compaction may already have sealed this delta.
        if compact_warranted(cur.delta.n_sheets(), self.delta_max) {
            // How deep the delta got before it was sealed — the backlog
            // gauge a wedged compactor shows up in first.
            af_obs::observe!("serve::compact_backlog", cur.delta.n_sheets());
            cell.publish(Arc::new(cur.sealed(&self.empty_delta)));
        }
    }

    /// One step of the merge rule on `shard`: `false` once the rule holds.
    /// The merge is built off the writer lock from the immutable `Arc`s
    /// and swapped in under it, so an `add_workbook` targeting this shard
    /// never waits on a table copy.
    fn merge_once(&self, shard: usize) -> bool {
        let cell = &self.shards[shard].state;
        let cur = cell.read();
        let Some(at) = cur.merge_due() else { return false };
        let _merging = af_obs::span!("serve::compact", shard = shard);
        let (older, newer) = (&cur.runs[at], &cur.runs[at + 1]);
        let merged = Run::merged(older, newer);
        let _guard = cell.write_lock();
        let now = cell.read();
        // Writers only replace the delta, so the runs read off the lock
        // are normally still in place; an inline compaction may have
        // merged them itself, in which case this build is dropped and the
        // caller evaluates the rule afresh.
        let in_place = matches!(
            now.runs.get(at..at + 2),
            Some([a, b]) if Arc::ptr_eq(a, older) && Arc::ptr_eq(b, newer)
        );
        if in_place {
            cell.publish(Arc::new(now.with_merged(at, merged)));
        }
        true
    }

    fn quarantine(&self, shard: usize) {
        quarantine(&self.shards[shard].health, self.epoch.current(), &self.counters, shard);
    }
}

/// Impose quarantine on one shard (idempotent; only the first imposition
/// counts an event).
fn quarantine(health: &ShardHealth, epoch: u64, counters: &Counters, shard: usize) {
    if health.quarantine(epoch) {
        // ordering: Relaxed — observability counter, not synchronization.
        counters.quarantine_events.fetch_add(1, Ordering::Relaxed);
        af_obs::event!("serve::quarantine", "imposed", shard);
    }
}

// ------------------------------------------------------------- snapshot

/// One immutable serving state: the trained system plus a consistent set
/// of per-shard states. Everything needed to answer predictions; holding
/// one pins every segment it references for as long as the caller likes.
pub struct Snapshot {
    /// The trained system (model + featurizer), shared across epochs —
    /// incremental indexing never retrains.
    pub system: Arc<AutoFormula>,
    /// Epoch at acquisition (the number of `add_workbook` publishes).
    pub epoch: u64,
    shards: Vec<Arc<ShardState>>,
    /// Live health flags, shared with the handle: a quarantine imposed
    /// through one snapshot is immediately visible to every other reader.
    health: Vec<Arc<ShardHealth>>,
    /// Shared serving counters — query/degradation accounting happens
    /// where the outcome is computed.
    counters: Arc<Counters>,
}

impl Snapshot {
    /// Every sealed run and delta, owned by its shard, quarantined shards
    /// included — persistence ([`Snapshot::keys`], [`Snapshot::merged`])
    /// must never lose a quarantined shard's data; only the query path
    /// excludes them.
    fn segments(&self) -> impl Iterator<Item = Segment<'_>> {
        self.shards.iter().enumerate().flat_map(|(shard, st)| {
            st.segments().map(move |run| Segment {
                index: &run.index,
                globals: Some(&run.globals),
                owner: shard,
            })
        })
    }

    /// The segment owning `global`, plus the segment-local sheet id.
    fn locate(&self, global: usize) -> Option<(Segment<'_>, usize)> {
        self.segments().find_map(|seg| seg.local(global).map(|local| (seg, local)))
    }

    /// Quarantine `shard` (sticky; cleared only by
    /// [`ServeHandle::recover_shard`]). Shared with the handle, so every
    /// subsequent query — through any snapshot — skips the shard.
    fn quarantine(&self, shard: usize) {
        quarantine(&self.health[shard], self.epoch, &self.counters, shard);
    }

    /// Sheets indexed in this snapshot, across every shard and segment.
    pub fn n_sheets(&self) -> usize {
        self.segments().map(|seg| seg.index.n_sheets()).sum()
    }

    /// Formula regions indexed in this snapshot.
    pub fn n_regions(&self) -> usize {
        self.segments().map(|seg| seg.index.n_regions()).sum()
    }

    /// Sheets currently sitting in delta segments (not yet sealed),
    /// across every shard. Observability for the backpressure path.
    pub fn n_delta_sheets(&self) -> usize {
        self.shards.iter().map(|s| s.delta.n_sheets()).sum()
    }

    /// Provenance keys of every indexed sheet, in global sheet-id order.
    pub fn keys(&self) -> Vec<SheetKey> {
        let mut pairs: Vec<(usize, SheetKey)> = Vec::with_capacity(self.n_sheets());
        for seg in self.segments() {
            for (local, &key) in seg.index.keys.iter().enumerate() {
                pairs.push((seg.global(local), key));
            }
        }
        pairs.sort_by_key(|&(g, _)| g);
        pairs.into_iter().map(|(_, k)| k).collect()
    }

    /// Name and dimensions of an indexed sheet, by *global* sheet id (as
    /// returned in [`Prediction::reference_sheet_idx`] and by
    /// [`Snapshot::similar_sheets`]). `None` when the id is not indexed in
    /// this snapshot — a stale or corrupt id degrades the caller's one
    /// lookup, never the whole process.
    pub fn sheet_meta(&self, global: usize) -> Option<&SheetMeta> {
        let (seg, local) = self.locate(global)?;
        Some(seg.index.sheet_meta(local))
    }

    /// S1 across every shard: per-segment top-k, globalized and merged by
    /// `(distance, global id)`. On the exact `Flat` backend this is
    /// bit-identical — ids and score bits, ties included — to the
    /// unsharded scan, because every segment scans its sheets in ascending
    /// global order.
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
        let shards_skipped = excluded.iter().filter(|&&x| x).count();
        let degraded = shards_skipped > 0 || candidates_dropped > 0 || deadline_exceeded;
        // ordering: Relaxed — independent monotonic counters; stats()
        // tolerates observing them at slightly different instants.
        self.counters.queries.fetch_add(1, Ordering::Relaxed);
        for (shard, _) in excluded.iter().enumerate().filter(|&(_, &x)| !x) {
            if let Some(c) = self.counters.shard_queries.get(shard) {
                c.fetch_add(1, Ordering::Relaxed);
            }
        }
        if degraded {
            self.counters.degraded_queries.fetch_add(1, Ordering::Relaxed);
        }
        if deadline_exceeded {
            self.counters.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
        }
        ServeOutcome { prediction, degraded, shards_skipped, candidates_dropped, deadline_exceeded }
    }

    /// Answer queries against this snapshot, without thresholding: the
    /// serving entry point, for a lone query (a one-element slice) and a
    /// burst alike. Distinct query sheets (deduplicated by identity — a
    /// burst is naturally many targets on few sheets) go through the
    /// representation model in one tensor pass, then each sheet's targets
    /// share one [`AutoFormula::funnel`] pass over every sealed run and
    /// delta of every shard: one S1, one ranking of each candidate sheet.
    /// Outcomes come back in query order, each bit-identical to querying
    /// it alone. One deadline ([`PredictOptions::deadline`]) covers the
    /// whole call; queries reached after it expires return immediately
    /// with `deadline_exceeded` set.
    ///
    /// Quarantined shards are skipped; a panic inside a shard's scan,
    /// rank or adapt quarantines that shard at once — visible to every
    /// other reader — and the pass continues over the survivors.
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
            // Per-pass shard exclusion, seeded from the sticky quarantine
            // flags; a mid-pass panic adds to it (and to the shared flags).
            let mut excluded: Vec<bool> = self.health.iter().map(|h| h.is_quarantined()).collect();
            let results = self.system.funnel(
                &segments,
                emb,
                sheet,
                &targets,
                opts,
                &mut excluded,
                &mut |shard, _| self.quarantine(shard),
            );
            for (&qi, result) in members.iter().zip(results) {
                outcomes[qi] = Some(self.outcome(result));
            }
        }
        // Every query is in one group, and the funnel answers every target.
        outcomes.into_iter().flatten().collect()
    }

    /// Merge every segment back into one index in global sheet order,
    /// together with the per-sheet shard assignment — what
    /// [`ServeHandle::to_artifact`] persists.
    fn merged(&self) -> (ReferenceIndex, ShardLayout) {
        let cfg = self.system.cfg();
        // (global, shard, segment-ref, local) for every sheet, then sort
        // by global id so the merged index is the canonical ordering.
        let mut rows: Vec<(usize, u32, &ReferenceIndex, usize)> =
            Vec::with_capacity(self.n_sheets());
        for seg in self.segments() {
            for local in 0..seg.index.n_sheets() {
                rows.push((seg.global(local), seg.owner as u32, seg.index, local));
            }
        }
        rows.sort_by_key(|&(g, _, _, _)| g);
        let proto = &self.shards[0].delta.index;
        let mut merged = proto.empty_like(cfg);
        let mut assignment = Vec::with_capacity(rows.len());
        for &(_, shard, index, local) in &rows {
            merged.append_sheet_from(index, local);
            assignment.push(shard);
        }
        (merged, ShardLayout { n_shards: self.shards.len(), assignment })
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
    /// Serve an in-memory system and its built index, sharded per the
    /// system's [`AutoFormulaConfig::n_shards`] (hash-routed by
    /// [`shard_of`]).
    pub fn new(system: AutoFormula, index: ReferenceIndex) -> ServeHandle {
        let n_shards = system.cfg().n_shards.max(1);
        let assignment: Vec<u32> =
            index.keys.iter().map(|&k| shard_of(k, n_shards) as u32).collect();
        ServeHandle::with_layout(system, index, ShardLayout { n_shards, assignment })
    }

    fn with_layout(system: AutoFormula, index: ReferenceIndex, layout: ShardLayout) -> ServeHandle {
        let cfg = *system.cfg();
        let delta_cfg = AutoFormulaConfig { ann_backend: AnnBackend::Flat, ..cfg };
        let n_shards = layout.n_shards.max(1);
        let n_sheets = index.n_sheets();
        let next_workbook_id = index.keys.iter().map(|k| k.workbook + 1).max().unwrap_or(0);

        let mut globals: Vec<Vec<usize>> = vec![Vec::new(); n_shards];
        for (si, &s) in layout.assignment.iter().enumerate() {
            globals[s as usize].push(si);
        }
        let bases: Vec<ReferenceIndex> = if n_shards == 1 {
            // Unsharded: serve the index exactly as built — no ANN rebuild
            // (an approximate backend's graph is preserved bit-for-bit).
            vec![index]
        } else {
            let assignment: Vec<usize> = layout.assignment.iter().map(|&s| s as usize).collect();
            index.split(&cfg, &assignment, n_shards)
        };
        let empty_delta =
            Arc::new(Run { index: bases[0].empty_like(&delta_cfg), globals: Vec::new() });
        let shards: Vec<Shard> = bases
            .into_iter()
            .zip(globals)
            .map(|(index, globals)| Shard {
                state: LeftRight::new(Arc::new(ShardState {
                    runs: vec![Arc::new(Run { index, globals })],
                    delta: Arc::clone(&empty_delta),
                    published_at: Instant::now(),
                })),
                health: Arc::new(ShardHealth::new()),
            })
            .collect();

        let (compact_tx, compact_rx) = if cfg.delta_max_sheets > 0 {
            let (tx, rx) = mpsc::channel::<usize>();
            (Some(tx), Some(rx))
        } else {
            (None, None)
        };
        let shared = Arc::new(Shared {
            system: Arc::new(system),
            shards,
            epoch: EpochCore::new(0),
            next_workbook_id: AtomicUsize::new(next_workbook_id),
            next_global: AtomicUsize::new(n_sheets),
            counters: Arc::new(Counters::new(n_shards)),
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
                while let Ok(shard) = rx.recv() {
                    let mut backoff = Duration::from_millis(5);
                    loop {
                        let outcome = {
                            let Some(shared) = weak.upgrade() else { return };
                            catch_unwind(AssertUnwindSafe(|| shared.compact(shard)))
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

    /// Cold-start a server from artifact bytes (`AutoFormula::save`). A v3
    /// artifact carrying a shard layout is re-split into exactly that
    /// layout; otherwise sheets are hash-routed per the artifact's config.
    pub fn from_artifact(data: &[u8]) -> Result<ServeHandle, ArtifactError> {
        let (system, index, layout) = AutoFormula::load_bytes_sharded(Bytes::from(data.to_vec()))?;
        Ok(match layout {
            Some(layout) => ServeHandle::with_layout(system, index, layout),
            None => ServeHandle::new(system, index),
        })
    }

    /// Cold-start a server straight from an artifact file via `mmap(2)`
    /// (`AutoFormula::load_mmap`): embedding tables serve page-on-demand
    /// from the page cache, so artifacts larger than RAM are servable.
    /// The mapping lives as long as any snapshot still views it.
    pub fn from_artifact_path(path: &Path) -> Result<ServeHandle, ArtifactError> {
        let (system, index, layout) = AutoFormula::load_mmap_sharded(path)?;
        Ok(match layout {
            Some(layout) => ServeHandle::with_layout(system, index, layout),
            None => ServeHandle::new(system, index),
        })
    }

    /// Serialize the *current* serving state — including workbooks added
    /// since startup — into a self-contained artifact: every segment
    /// merged back into one global-order index, plus the shard layout
    /// (v3 `SHARDS` section) when serving sharded.
    pub fn to_artifact(&self) -> Bytes {
        let snap = self.snapshot();
        // Unsharded and fully merged: save the one run as-is (no merge
        // copy, and an approximate ANN graph round-trips bit-for-bit).
        if let [only] = snap.shards.as_slice() {
            if let ([run], 0) = (only.runs.as_slice(), only.delta.n_sheets()) {
                return snap.system.save(&run.index);
            }
        }
        let (merged, layout) = snap.merged();
        let layout = (layout.n_shards > 1).then_some(layout);
        snap.system
            .save_sharded(&merged, StoreOptions::default(), layout.as_ref())
            // lint: allow(no_panic) — write path (artifact export), not a
            // serve read; the default layout is statically valid.
            .expect("default layout cannot fail")
    }

    /// [`ServeHandle::to_artifact`] straight to disk, atomically: bytes go
    /// to a temporary file in the target's directory and are `rename(2)`d
    /// into place, so a crash (or an injected `core::artifact_save` fault)
    /// mid-write leaves any previous artifact at `path` intact.
    pub fn to_artifact_path(&self, path: &Path) -> Result<(), ArtifactError> {
        write_atomic(path, &self.to_artifact())
    }

    /// Acquire the current snapshot: the epoch counter plus every shard's
    /// current state, each pinned. Lock-free — a couple of atomic ops per
    /// shard; the returned snapshot stays valid (and immutable) for as
    /// long as the caller holds it, regardless of concurrent writes.
    pub fn snapshot(&self) -> Snapshot {
        // ordering: Relaxed — independent stats counter, publishes nothing.
        self.shared.counters.snapshots.fetch_add(1, Ordering::Relaxed);
        // Epoch first: concurrent publishes can only make the data *newer*
        // than the reported epoch, keeping per-reader epochs monotone.
        let epoch = self.shared.epoch.current();
        let shards = self.shared.shards.iter().map(|s| s.state.read()).collect();
        Snapshot {
            system: Arc::clone(&self.shared.system),
            epoch,
            shards,
            health: self.shared.shards.iter().map(|s| Arc::clone(&s.health)).collect(),
            counters: Arc::clone(&self.shared.counters),
        }
    }

    /// Current epoch (0 until the first [`ServeHandle::add_workbook`]).
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.current()
    }

    /// Serving counters and snapshot age — the numbers an operator (or a
    /// metrics scraper) wants on one line. Cheap: one snapshot
    /// acquisition plus relaxed counter loads.
    pub fn stats(&self) -> ServeStats {
        let snap = self.snapshot();
        let ages: Vec<Duration> = snap.shards.iter().map(|s| s.published_at.elapsed()).collect();
        let c = &self.shared.counters;
        let shards = snap
            .shards
            .iter()
            .enumerate()
            .map(|(shard, st)| {
                let health = &self.shared.shards[shard].health;
                ShardStats {
                    shard,
                    base_sheets: st.sealed_sheets(),
                    sealed_runs: st.runs.len(),
                    delta_sheets: st.delta.n_sheets(),
                    quarantined_since: health.is_quarantined().then(|| health.since_epoch()),
                    // ordering: Relaxed — stats reads are independent
                    // monotonic counters (see below).
                    queries_served: c
                        .shard_queries
                        .get(shard)
                        .map(|q| q.load(Ordering::Relaxed))
                        .unwrap_or_default(),
                }
            })
            .collect();
        ServeStats {
            epoch: snap.epoch,
            youngest_snapshot_age: ages.iter().min().copied().unwrap_or_default(),
            oldest_snapshot_age: ages.iter().max().copied().unwrap_or_default(),
            // ordering: Relaxed — stats reads are independent monotonic
            // counters; a snapshot of them need not be mutually consistent.
            queries_served: c.queries.load(Ordering::Relaxed),
            snapshots_acquired: c.snapshots.load(Ordering::Relaxed),
            workbooks_added: c.adds.load(Ordering::Relaxed),
            quarantined_shards: self
                .shared
                .shards
                .iter()
                .filter(|s| s.health.is_quarantined())
                .count() as u64,
            degraded_queries: c.degraded_queries.load(Ordering::Relaxed),
            deadline_exceeded: c.deadline_exceeded.load(Ordering::Relaxed),
            compactor_restarts: c.compactor_restarts.load(Ordering::Relaxed),
            inline_compactions: c.inline_compactions.load(Ordering::Relaxed),
            shards,
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

    /// Number of serving shards.
    pub fn n_shards(&self) -> usize {
        self.shared.shards.len()
    }

    /// Manually quarantine `shard`: queries skip it (and report it in
    /// [`ServeOutcome::shards_skipped`]) until [`ServeHandle::recover_shard`].
    /// The same imposition a caught panic performs — useful for operator
    /// drills and for draining a shard suspected of bad data.
    ///
    /// # Panics
    /// If `shard >= n_shards`.
    pub fn quarantine_shard(&self, shard: usize) {
        self.shared.quarantine(shard);
    }

    /// Lift the quarantine on `shard`, returning it to the scatter-gather
    /// read path. Quarantine is sticky by design — only this explicit call
    /// (an operator or an orchestrator deciding the shard is trustworthy
    /// again) clears it; queries never un-quarantine automatically.
    ///
    /// # Panics
    /// If `shard >= n_shards`.
    pub fn recover_shard(&self, shard: usize) {
        self.shared.shards[shard].health.recover();
    }

    /// Shards currently quarantined, with the epoch each was quarantined
    /// at. Empty on a healthy server.
    pub fn quarantined(&self) -> Vec<QuarantinedShard> {
        self.shared
            .shards
            .iter()
            .enumerate()
            .filter(|(_, s)| s.health.is_quarantined())
            .map(|(shard, s)| QuarantinedShard { shard, since_epoch: s.health.since_epoch() })
            .collect()
    }

    /// Sheets currently indexed, across every shard.
    pub fn n_sheets(&self) -> usize {
        self.snapshot().n_sheets()
    }

    /// Formula regions currently indexed, across every shard.
    pub fn n_regions(&self) -> usize {
        self.snapshot().n_regions()
    }

    /// Predict with the confidence threshold applied (the serving
    /// entry point). Lock-free: runs entirely against one snapshot.
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
    /// // out.degraded           : any shard skipped, candidate dropped, or deadline hit
    /// // out.shards_skipped     : shards excluded (quarantined or faulted this query)
    /// // out.candidates_dropped : S2 candidates lost to per-candidate faults
    /// // out.deadline_exceeded  : the deadline cut the pipeline short
    /// # let _ = out;
    /// ```
    pub fn query(&self, queries: &[(&Sheet, CellRef)], opts: PredictOptions) -> Vec<ServeOutcome> {
        self.snapshot().query(queries, opts)
    }

    /// Incrementally index one more workbook: each sheet is hash-routed to
    /// its shard and appended to that shard's delta segment — the write
    /// clones O(delta), not O(corpus) — and the shard's new state is
    /// published left-right. Readers never block; queries in flight keep
    /// their snapshot, new queries see the new sheets. Full deltas are
    /// handed to the background compactor. Returns the new epoch.
    pub fn add_workbook(&self, workbook: &Workbook) -> u64 {
        let shared = &*self.shared;
        // ordering: Relaxed — a unique-id allocator; nothing is published
        // through it (the sheets become visible via the shard publish).
        let id = shared.next_workbook_id.fetch_add(1, Ordering::Relaxed);
        let embedder = shared.system.embedder();
        for (si, sheet) in workbook.sheets.iter().enumerate() {
            let key = SheetKey { workbook: id, sheet: si };
            let shard = shard_of(key, shared.shards.len());
            let cell = &shared.shards[shard].state;
            // Time spent queued behind another writer or a compactor swap
            // is its own site, so `serve::delta_publish` is the work only.
            let waiting = af_obs::span!("serve::write_lock_wait", shard = shard);
            let guard = cell.write_lock();
            waiting.end();
            let publish = af_obs::span!("serve::delta_publish", shard = shard);
            // Allocate the global id under the shard lock so globals stay
            // strictly ascending along the shard's segments.
            // ordering: Relaxed — uniqueness comes from RMW atomicity;
            // strict per-shard ascent comes from allocating under the
            // shard's writer lock, whose edges order the allocations.
            let global = shared.next_global.fetch_add(1, Ordering::Relaxed);
            let cur = cell.read();
            let mut runs = cur.runs.clone();
            let mut delta = Arc::clone(&cur.delta);
            match runs.last_mut() {
                // Deltas disabled: grow the (only) run synchronously —
                // O(shard) per write.
                Some(last) if shared.delta_max == 0 => {
                    let mut run = (**last).clone();
                    run.push(&embedder, sheet, key, global);
                    *last = Arc::new(run);
                }
                _ => {
                    let mut run = (*delta).clone();
                    run.push(&embedder, sheet, key, global);
                    delta = Arc::new(run);
                }
            }
            let mut new = ShardState { runs, delta, published_at: Instant::now() };
            if delta_disposition(new.delta.n_sheets(), shared.backpressure_at)
                == DeltaDisposition::CompactInline
            {
                // Backpressure: the delta has outgrown the compactor
                // (wedged, or simply outpaced). Seal and merge it here —
                // one synchronous compaction beats every query on this
                // shard degrading toward O(corpus).
                // ordering: Relaxed — observability counter.
                shared.counters.inline_compactions.fetch_add(1, Ordering::Relaxed);
                let _stall = af_obs::span!("serve::inline_compact", shard = shard);
                new = new.compacted(&shared.empty_delta);
            }
            let signal = should_signal_compactor(new.delta.n_sheets(), shared.delta_max);
            // An injected panic here aborts the write *before* the publish:
            // the writer lock unwinds clean and readers keep the previous
            // state — no torn shard.
            fail_point!("serve::delta_publish");
            cell.publish(Arc::new(new));
            drop(guard);
            publish.end();
            if signal {
                if let Some(tx) = &shared.compact_tx {
                    let _ = tx.send(shard);
                }
            }
        }
        // ordering: Relaxed — independent stats counter, publishes nothing.
        shared.counters.adds.fetch_add(1, Ordering::Relaxed);
        shared.epoch.advance()
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

    /// Every segment's globals strictly ascending and no global id
    /// appearing in two segments — the invariants the bit-identical merge
    /// and `locate` rest on, checked on a live snapshot.
    fn assert_coherent(snap: &Snapshot) {
        let mut all: Vec<usize> = Vec::new();
        for seg in snap.segments() {
            let globals = seg.globals.expect("a served segment maps its sheets");
            assert_eq!(globals.len(), seg.index.n_sheets(), "globals/sheets out of sync");
            assert!(globals.windows(2).all(|w| w[0] < w[1]), "globals not ascending");
            all.extend_from_slice(globals);
        }
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "global sheet id owned by two segments");
        assert_eq!(snap.n_sheets(), n);
        assert_eq!(snap.keys().len(), n);
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
        // The same queries as one burst on `b`: a pass spans every segment
        // of every shard, whatever the layout.
        let burst = b.query(queries, PredictOptions::default());
        assert_eq!(burst.len(), queries.len(), "{ctx}");
        for (&(sheet, target), o) in queries.iter().zip(&burst) {
            assert!(!o.degraded, "{ctx}");
            let pa = a.query(&[(sheet, target)], PredictOptions::default()).remove(0).prediction;
            assert_same_prediction(pa.as_ref(), o.prediction.as_ref(), &format!("{ctx}, burst"));
        }
    }

    /// Sheet counts of every shard's sealed runs, oldest first.
    fn run_sizes(snap: &Snapshot) -> Vec<Vec<usize>> {
        snap.shards.iter().map(|st| st.runs.iter().map(|r| r.n_sheets()).collect()).collect()
    }

    #[test]
    fn sharded_serving_is_bit_identical_to_unsharded() {
        // The test plays compactor itself, one step at a time, so every
        // intermediate layout a reader could catch — sealed but not yet
        // merged, half-way up a merge cascade — is compared, and the run
        // lists are the same on every run of the test.
        const SEAL_AT: usize = 2;
        let corpus = OrgSpec::pge(Scale::Tiny).generate();
        // A delta capacity the test never reaches: no compactor signal,
        // no backpressure.
        let base_cfg =
            AutoFormulaConfig { delta_max_sheets: 1 << 20, ..AutoFormulaConfig::test_tiny() };
        let af = system_with(base_cfg);
        let members: Vec<usize> = (0..4).collect();
        let index = af.build_index(&corpus.workbooks, &members, IndexOptions::default());
        let queries = query_targets(&corpus, 0);
        assert!(queries.len() >= 3);

        for n_shards in [1usize, 2, 4, 7] {
            let cfg = AutoFormulaConfig { n_shards, ..base_cfg };
            let plain = ServeHandle::new(system_with(base_cfg), index.clone());
            let sharded = ServeHandle::new(system_with(cfg), index.clone());
            let ctx = |what: &str| format!("{n_shards} shards, {what}");
            assert_snapshots_agree(
                &plain.snapshot(),
                &sharded.snapshot(),
                &queries,
                &ctx("as loaded"),
            );

            let loaded: Vec<usize> = run_sizes(&sharded.snapshot()).iter().map(|r| r[0]).collect();
            let added = |snap: &Snapshot| -> Vec<usize> {
                snap.shards
                    .iter()
                    .zip(&loaded)
                    .map(|(st, l)| st.sealed_sheets() + st.delta.n_sheets() - l)
                    .collect()
            };
            // How many merges deep each run of each shard is (the test's
            // own book-keeping: a seal is 0, a merge one more than the
            // deeper of its inputs).
            let mut depths: Vec<Vec<usize>> = vec![vec![0]; n_shards];
            let mut most_runs = 0usize;
            let mut deepest_merge = 0usize;
            let mut reloaded_multi_run = false;
            let mut steps = 0usize;
            // Grow until every shard has taken more than four deltas'
            // worth of sheets, cycling through the unindexed workbooks
            // (a repeat is a new workbook with byte-identical sheets:
            // distance ties, broken by global id).
            let arrivals = corpus.workbooks[4..].iter().cycle().take(400);
            for wb in arrivals {
                if added(&sharded.snapshot()).iter().all(|&n| n > 4 * SEAL_AT) {
                    break;
                }
                plain.add_workbook(wb);
                sharded.add_workbook(wb);
                for shard in 0..n_shards {
                    let cell = &sharded.shared.shards[shard].state;
                    if cell.read().delta.n_sheets() < SEAL_AT {
                        continue;
                    }
                    {
                        let _guard = cell.write_lock();
                        cell.publish(Arc::new(cell.read().sealed(&sharded.shared.empty_delta)));
                    }
                    depths[shard].push(0);
                    loop {
                        // A few queries per layout, all of them in turn.
                        let some: Vec<_> =
                            (0..3).map(|i| queries[(steps * 3 + i) % queries.len()]).collect();
                        steps += 1;
                        let snap = sharded.snapshot();
                        let sizes = run_sizes(&snap);
                        assert_snapshots_agree(
                            &plain.snapshot(),
                            &snap,
                            &some,
                            &ctx(&format!("{sizes:?}")),
                        );
                        assert_eq!(sizes[shard].len(), depths[shard].len());
                        most_runs = most_runs.max(sizes[shard].len());
                        if !sharded.shared.merge_once(shard) {
                            break;
                        }
                        // Nobody else compacts: it merged the last two.
                        let inputs = depths[shard].split_off(sizes[shard].len() - 2);
                        depths[shard].push(inputs[0].max(inputs[1]) + 1);
                        deepest_merge = deepest_merge.max(inputs[0].max(inputs[1]) + 1);
                    }
                }
                // Once, from a state with several runs in a shard: the
                // artifact of a multi-run state reloads to the same
                // global order and the same answers.
                let snap = sharded.snapshot();
                if !reloaded_multi_run && snap.shards.iter().any(|st| st.runs.len() >= 3) {
                    reloaded_multi_run = true;
                    let reloaded = ServeHandle::from_artifact(&sharded.to_artifact()).unwrap();
                    assert_eq!(reloaded.n_shards(), n_shards);
                    let what = ctx(&format!("reloaded from {:?}", run_sizes(&snap)));
                    assert_snapshots_agree(
                        &plain.snapshot(),
                        &reloaded.snapshot(),
                        &queries,
                        &what,
                    );
                }
            }
            let (a, b) = (plain.snapshot(), sharded.snapshot());
            assert!(
                added(&b).iter().all(|&n| n > 4 * SEAL_AT),
                "{n_shards} shards: {:?}",
                added(&b)
            );
            assert!(most_runs >= 3, "{n_shards} shards: never more than {most_runs} runs");
            assert!(deepest_merge >= 2, "{n_shards} shards: no merge of an already merged run");
            assert!(reloaded_multi_run, "{n_shards} shards: no multi-run state was saved");
            for sizes in run_sizes(&b) {
                assert!(
                    sizes.windows(2).all(|w| w[0] > w[1]),
                    "merge rule holds at rest: {sizes:?}"
                );
            }
            assert_snapshots_agree(&a, &b, &queries, &ctx("at rest"));
        }
    }

    #[test]
    fn background_compaction_folds_deltas_without_changing_results() {
        // delta_max_sheets = 1: every added sheet fills its shard's delta
        // and signals the compactor. Backpressure is off, so however far
        // the compactor falls behind, every seal and merge is its own.
        let compacting = AutoFormulaConfig {
            n_shards: 2,
            delta_max_sheets: 1,
            backpressure_factor: 0,
            ..AutoFormulaConfig::test_tiny()
        };
        // Reference: same shards, deltas disabled (synchronous base growth).
        let synchronous = AutoFormulaConfig {
            n_shards: 2,
            delta_max_sheets: 0,
            ..AutoFormulaConfig::test_tiny()
        };
        let (handle, corpus) = handle_over_with(compacting, 3);
        let (reference, _) = handle_over_with(synchronous, 3);
        let sheets_before = handle.n_sheets();
        // More than four deltas' worth of sheets for each shard.
        let mut adds = 0u64;
        for wb in &corpus.workbooks[3..15] {
            handle.add_workbook(wb);
            reference.add_workbook(wb);
            adds += 1;
            // Whatever the compactor is in the middle of, a reader sees a
            // coherent shard.
            assert_coherent(&handle.snapshot());
        }
        let added: usize = corpus.workbooks[3..15].iter().map(|wb| wb.sheets.len()).sum();
        assert!(added > 2 * 4 * 2, "only {added} sheets added");
        // Compaction is asynchronous; wait for it to come to rest: every
        // delta sealed, and the merge rule satisfied on every shard.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let snap = handle.snapshot();
            assert_coherent(&snap);
            if snap.shards.iter().all(|s| s.delta.n_sheets() == 0 && s.merge_due().is_none()) {
                break;
            }
            assert!(Instant::now() < deadline, "compactor never came to rest");
            std::thread::yield_now();
        }
        // Compaction republishes shard states but is epoch-neutral.
        assert_eq!(handle.epoch(), adds);
        // Nothing was lost or duplicated on the way up the tiers.
        let stats = handle.stats();
        assert_eq!(stats.inline_compactions, 0);
        assert_eq!(
            stats.shards.iter().map(|s| s.base_sheets).sum::<usize>(),
            sheets_before + added
        );
        for sizes in run_sizes(&handle.snapshot()) {
            assert!(sizes.windows(2).all(|w| w[0] > w[1]), "merge rule holds at rest: {sizes:?}");
        }
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
        for n_shards in [1, 3] {
            let cfg = AutoFormulaConfig { n_shards, ..AutoFormulaConfig::test_tiny() };
            let handle = ServeHandle::new(system_with(cfg), index.clone());
            for variant in
                [PipelineVariant::Full, PipelineVariant::CoarseOnly, PipelineVariant::FineOnly]
            {
                for burst in [&queries, &interleaved] {
                    let batched = handle.query(burst, PredictOptions::with_variant(variant));
                    assert_eq!(batched.len(), burst.len());
                    for (&(sheet, target), b) in burst.iter().zip(&batched) {
                        let ctx = format!("{n_shards} shards, {variant:?}, {target:?}");
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

    #[test]
    fn sharded_artifact_round_trip_preserves_the_layout() {
        let cfg = AutoFormulaConfig { n_shards: 3, ..AutoFormulaConfig::test_tiny() };
        let (handle, corpus) = handle_over_with(cfg, 3);
        handle.add_workbook(&corpus.workbooks[3]);
        let bytes = handle.to_artifact();
        let reloaded = ServeHandle::from_artifact(&bytes).expect("sharded artifact loads");
        // The stored layout re-splits into the same shards.
        assert_eq!(reloaded.shared.shards.len(), 3);
        let queries: Vec<_> = query_targets(&corpus, 0).into_iter().take(8).collect();
        assert_snapshots_agree(&handle.snapshot(), &reloaded.snapshot(), &queries, "reloaded");
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
        assert!(s1.youngest_snapshot_age >= s0.youngest_snapshot_age, "same epoch only ages");

        // A publish bumps the epoch, the add counter, and resets the age.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let aged = handle.stats().youngest_snapshot_age;
        assert!(aged.as_millis() >= 20);
        handle.add_workbook(&corpus.workbooks[3]);
        let s2 = handle.stats();
        assert_eq!(s2.epoch, 1);
        assert_eq!(s2.workbooks_added, 1);
        assert!(s2.youngest_snapshot_age < aged, "new epoch must be younger than the old one");
        // Queries served is monotone across the swap.
        assert!(s2.queries_served >= s1.queries_served);
    }

    /// Regression for the `snapshot_age` rename: with several shards the
    /// youngest age is the min and the oldest the max of the per-shard
    /// publish times — a write to one shard rejuvenates `youngest` while
    /// `oldest` keeps aging.
    #[test]
    fn stats_report_youngest_and_oldest_ages_and_per_shard_detail() {
        let mut cfg = AutoFormulaConfig::test_tiny();
        cfg.n_shards = 3;
        let (handle, corpus) = handle_over_with(cfg, 3);
        let s0 = handle.stats();
        assert_eq!(s0.shards.len(), 3);
        assert!(s0.youngest_snapshot_age <= s0.oldest_snapshot_age);
        // Per-shard layout covers every indexed sheet, no traffic yet.
        assert_eq!(
            s0.shards.iter().map(|s| s.base_sheets + s.delta_sheets).sum::<usize>(),
            handle.n_sheets()
        );
        for (i, sh) in s0.shards.iter().enumerate() {
            assert_eq!(sh.shard, i);
            assert_eq!(sh.queries_served, 0);
            assert_eq!(sh.quarantined_since, None);
        }

        // One write lands on one shard: youngest resets, oldest keeps its
        // age (the other two shards were not republished).
        std::thread::sleep(std::time::Duration::from_millis(20));
        let aged = handle.stats();
        assert!(aged.oldest_snapshot_age.as_millis() >= 20);
        let single = Workbook {
            name: "one-sheet".into(),
            sheets: vec![corpus.workbooks[3].sheets[0].clone()],
            timestamp: 0,
        };
        handle.add_workbook(&single);
        let s1 = handle.stats();
        assert!(
            s1.youngest_snapshot_age < s1.oldest_snapshot_age,
            "one-shard write must split youngest ({:?}) from oldest ({:?})",
            s1.youngest_snapshot_age,
            s1.oldest_snapshot_age,
        );
        assert!(s1.oldest_snapshot_age >= aged.oldest_snapshot_age);
        assert_eq!(
            s1.shards.iter().map(|s| s.delta_sheets).sum::<usize>(),
            1,
            "the new sheet sits in exactly one shard's delta"
        );

        // A healthy query scans every shard; a quarantined shard is
        // excluded from the count and reports its epoch.
        let (sheet, at) = query_targets(&corpus, 0)[0];
        let _ = handle.predict(sheet, at);
        let s2 = handle.stats();
        assert!(s2.shards.iter().all(|sh| sh.queries_served == 1));
        handle.quarantine_shard(1);
        let _ = handle.predict(sheet, at);
        let s3 = handle.stats();
        assert_eq!(s3.shards[1].quarantined_since, Some(s3.epoch));
        assert_eq!(s3.shards[1].queries_served, 1, "quarantined shard not scanned");
        assert_eq!(s3.shards[0].queries_served, 2);
        assert_eq!(s3.shards[2].queries_served, 2);
        handle.recover_shard(1);
        assert_eq!(handle.stats().shards[1].quarantined_since, None);
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
        // Sharded with tiny deltas so the stress run exercises writes,
        // reads, and background compaction all racing.
        let cfg = AutoFormulaConfig {
            n_shards: 3,
            delta_max_sheets: 2,
            ..AutoFormulaConfig::test_tiny()
        };
        let (handle, corpus) = handle_over_with(cfg, 2);
        let queries: Vec<(usize, usize, CellRef)> = corpus.workbooks[0]
            .sheets
            .iter()
            .enumerate()
            .flat_map(|(si, s)| s.formulas().map(move |(at, _)| (0usize, si, at)))
            .collect();
        assert!(!queries.is_empty());
        let stop = std::sync::atomic::AtomicBool::new(false);

        std::thread::scope(|scope| {
            // Readers hammer predict + snapshot invariants.
            for t in 0..3 {
                let handle = handle.clone();
                let corpus = &corpus;
                let queries = &queries;
                let stop = &stop;
                scope.spawn(move || {
                    let mut served = 0usize;
                    let mut last_epoch = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let snap = handle.snapshot();
                        // Epochs are monotone per reader.
                        assert!(snap.epoch >= last_epoch, "epoch went backwards");
                        last_epoch = snap.epoch;
                        // Internal consistency of whatever state we got:
                        // no torn shard — every segment coherent, no
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
            let corpus_ref = &corpus;
            let stop_ref = &stop;
            scope.spawn(move || {
                for round in 0..6 {
                    let wb = &corpus_ref.workbooks[2 + (round % 3)];
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
    fn manual_quarantine_excludes_shards_until_recovery() {
        let cfg = AutoFormulaConfig { n_shards: 4, ..AutoFormulaConfig::test_tiny() };
        let (handle, corpus) = handle_over_with(cfg, 4);
        let queries: Vec<_> = query_targets(&corpus, 0).into_iter().take(6).collect();
        assert!(!queries.is_empty());
        assert!(handle.quarantined().is_empty());

        let baseline: Vec<ServeOutcome> =
            queries.iter().map(|&(s, at)| one(&handle, s, at)).collect();
        assert!(baseline.iter().all(|o| !o.degraded && o.shards_skipped == 0));

        handle.quarantine_shard(1);
        assert_eq!(handle.quarantined(), vec![QuarantinedShard { shard: 1, since_epoch: 0 }]);
        assert_eq!(handle.stats().quarantined_shards, 1);
        let degraded_before = handle.stats().degraded_queries;
        for &(sheet, at) in &queries {
            let o = one(&handle, sheet, at);
            assert!(o.degraded, "quarantined shard must mark queries degraded");
            assert_eq!(o.shards_skipped, 1);
        }
        assert_eq!(handle.stats().degraded_queries, degraded_before + queries.len() as u64);
        // Quarantine is monotone until the explicit recovery below —
        // serving traffic never clears it.
        assert_eq!(handle.quarantined().len(), 1);

        // Quarantine excludes the shard from queries but not from
        // persistence: the artifact still carries every sheet.
        let reloaded = ServeHandle::from_artifact(&handle.to_artifact()).unwrap();
        assert_eq!(reloaded.n_sheets(), handle.n_sheets());

        handle.recover_shard(1);
        assert!(handle.quarantined().is_empty());
        assert_eq!(handle.stats().quarantined_shards, 0);
        for (&(sheet, at), before) in queries.iter().zip(&baseline) {
            let after = one(&handle, sheet, at);
            assert!(!after.degraded);
            assert_bitwise_eq(&after, before);
        }
    }

    #[test]
    fn deadlines_cut_the_pipeline_and_report_it() {
        let cfg = AutoFormulaConfig { n_shards: 2, ..AutoFormulaConfig::test_tiny() };
        let (handle, corpus) = handle_over_with(cfg, 3);
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
    fn single_shard_and_disabled_deltas_degradation_is_noop() {
        // The PR-6 shapes — one shard, and deltas disabled — must serve
        // exactly as before: no degradation, bit-identical predictions.
        let cfg = AutoFormulaConfig {
            n_shards: 1,
            delta_max_sheets: 0,
            ..AutoFormulaConfig::test_tiny()
        };
        let (handle, corpus) = handle_over_with(cfg, 3);
        handle.add_workbook(&corpus.workbooks[3]);
        let queries: Vec<_> = query_targets(&corpus, 0).into_iter().take(6).collect();
        let baseline: Vec<ServeOutcome> =
            queries.iter().map(|&(s, at)| one(&handle, s, at)).collect();
        for o in &baseline {
            assert!(!o.degraded && o.shards_skipped == 0 && o.candidates_dropped == 0);
        }
        // Quarantining the only shard leaves nothing to serve from…
        handle.quarantine_shard(0);
        for &(sheet, at) in &queries {
            let o = one(&handle, sheet, at);
            assert!(o.degraded && o.prediction.is_none() && o.shards_skipped == 1);
        }
        // …and recovery restores bit-identical service.
        handle.recover_shard(0);
        for (&(sheet, at), before) in queries.iter().zip(&baseline) {
            assert_bitwise_eq(&one(&handle, sheet, at), before);
        }
    }

    #[test]
    fn backpressure_folds_deltas_inline_when_the_threshold_hits() {
        // delta_max 1 × factor 1 ⇒ every write reaches the backpressure
        // threshold immediately and compacts inline — deterministic, no
        // background-compactor timing in the picture.
        let pressured = AutoFormulaConfig {
            n_shards: 2,
            delta_max_sheets: 1,
            backpressure_factor: 1,
            ..AutoFormulaConfig::test_tiny()
        };
        let synchronous = AutoFormulaConfig {
            n_shards: 2,
            delta_max_sheets: 0,
            ..AutoFormulaConfig::test_tiny()
        };
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
