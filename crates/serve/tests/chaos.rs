//! Chaos suite: drive the serving layer through injected faults (panics,
//! typed errors, latency) and assert the degradation contract:
//!
//! * every query returns a [`ServeOutcome`] or a typed error — a panic
//!   never propagates to the caller;
//! * an index whose scan panics is quarantined and stays quarantined
//!   until an explicit `recover`;
//! * snapshots stay coherent (no torn states, no spent sheet ids) and
//!   epochs monotone under faults racing concurrent writes;
//! * a wedged compactor is restarted with backoff and the write path falls
//!   back to sealing its delta inline instead of unbounded delta growth; a
//!   compactor that panics leaves the published run list untouched;
//! * artifact saves are atomic — a fault mid-write leaves the previous
//!   artifact loadable.
//!
//! Requires `--features failpoints`; without it this file compiles empty.
#![cfg(feature = "failpoints")]

use af_core::config::AutoFormulaConfig;
use af_core::failpoint::{self, FailAction};
use af_core::index::IndexOptions;
use af_core::model::RepresentationModel;
use af_core::pipeline::{AutoFormula, PipelineVariant, PredictOptions};
use af_corpus::organization::{OrgSpec, Scale};
use af_embed::{CellFeaturizer, FeatureMask, SbertSim};
use af_grid::{CellRef, Sheet};
use af_serve::{ServeHandle, ServeOutcome};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The failpoint registry is process-global and the test harness runs
/// tests on threads; every test takes this lock for its whole body so
/// armed sites never leak into a neighbor.
fn chaos_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // A poisoned lock just means a previous chaos test failed; the guard
    // below cleared its failpoints on unwind, so continuing is safe.
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

type PanicHook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send>;

/// Clears every failpoint and restores the panic hook when dropped — even
/// when the test itself panics.
struct ChaosGuard {
    hook: Option<PanicHook>,
}

impl ChaosGuard {
    /// Silence the panic hook for tests that inject panics on purpose
    /// (otherwise every injected fault prints a backtrace).
    fn quiet() -> ChaosGuard {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        ChaosGuard { hook: Some(hook) }
    }

    fn loud() -> ChaosGuard {
        ChaosGuard { hook: None }
    }
}

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        failpoint::clear_all();
        if let Some(hook) = self.hook.take() {
            std::panic::set_hook(hook);
        }
    }
}

fn system_with(cfg: AutoFormulaConfig) -> AutoFormula {
    let featurizer = CellFeaturizer::new(Arc::new(SbertSim::new(16)), FeatureMask::FULL);
    AutoFormula::from_model(RepresentationModel::new(featurizer.dim(), cfg), featurizer)
}

fn handle_over(cfg: AutoFormulaConfig, n_workbooks: usize) -> (ServeHandle, af_corpus::OrgCorpus) {
    let corpus = OrgSpec::pge(Scale::Tiny).generate();
    let af = system_with(cfg);
    let members: Vec<usize> = (0..n_workbooks).collect();
    let index = af.build_index(&corpus.workbooks, &members, IndexOptions::default());
    (ServeHandle::new(af, index), corpus)
}

fn query_targets(corpus: &af_corpus::OrgCorpus, wb: usize) -> Vec<(&Sheet, CellRef)> {
    corpus.workbooks[wb]
        .sheets
        .iter()
        .flat_map(|s| s.formulas().map(move |(at, _)| (s, at)))
        .collect()
}

/// Every formula of three workbooks as one burst: several sheets, each
/// with several targets (listed together, so one funnel pass each).
fn burst_over(corpus: &af_corpus::OrgCorpus) -> Vec<(&Sheet, CellRef)> {
    [0, 4, 5].iter().flat_map(|&wb| query_targets(corpus, wb)).collect()
}

/// A handle over three workbooks plus one added: a sealed run and a
/// delta, so a pass scans two segments.
fn two_segments() -> (ServeHandle, af_corpus::OrgCorpus) {
    let (handle, corpus) = handle_over(AutoFormulaConfig::test_tiny(), 3);
    handle.add_workbook(&corpus.workbooks[3]);
    assert_eq!(handle.stats().layout.delta_sheets, corpus.workbooks[3].sheets.len());
    (handle, corpus)
}

/// One query through [`ServeHandle::query`], no deadline.
fn one(handle: &ServeHandle, sheet: &Sheet, at: CellRef) -> ServeOutcome {
    handle.query(&[(sheet, at)], PredictOptions::default()).remove(0)
}

fn assert_bitwise_eq(a: &ServeOutcome, b: &ServeOutcome) {
    match (&a.prediction, &b.prediction) {
        (Some(x), Some(y)) => {
            assert_eq!(x.formula, y.formula);
            assert_eq!(x.s2_distance.to_bits(), y.s2_distance.to_bits());
            assert_eq!(x.reference_sheet_idx, y.reference_sheet_idx);
        }
        (None, None) => {}
        (x, y) => panic!("{x:?} vs {y:?}"),
    }
}

#[test]
fn scan_panics_quarantine_the_index_and_recovery_restores_service() {
    let _l = chaos_lock();
    let _g = ChaosGuard::quiet();
    let (handle, corpus) = handle_over(AutoFormulaConfig::test_tiny(), 4);
    let queries: Vec<_> = query_targets(&corpus, 0).into_iter().take(4).collect();
    let baseline: Vec<ServeOutcome> = queries.iter().map(|&(s, at)| one(&handle, s, at)).collect();
    assert!(baseline.iter().all(|o| !o.degraded));

    // The scan panics: the query must still *return* — the index
    // quarantined, no prediction, no propagated panic.
    failpoint::arm("serve::shard_scan", FailAction::Panic);
    let o = one(&handle, queries[0].0, queries[0].1);
    assert!(o.degraded && o.prediction.is_none() && o.index_skipped);
    assert_eq!(handle.quarantined_since(), Some(0));
    assert_eq!(handle.stats().quarantined_since, Some(0));

    // Disarming the fault does NOT lift quarantine — it is sticky until an
    // explicit recovery.
    failpoint::clear("serve::shard_scan");
    let still = one(&handle, queries[0].0, queries[0].1);
    assert!(still.degraded && still.prediction.is_none() && still.index_skipped);
    assert_eq!(handle.quarantined_since(), Some(0));

    handle.recover();
    assert_eq!(handle.quarantined_since(), None);
    for (&(sheet, at), before) in queries.iter().zip(&baseline) {
        let after = one(&handle, sheet, at);
        assert!(!after.degraded, "recovered server must serve full fidelity");
        assert_bitwise_eq(&after, before);
    }
}

#[test]
fn injected_scan_errors_skip_without_quarantine() {
    let _l = chaos_lock();
    let _g = ChaosGuard::loud();
    let (handle, corpus) = handle_over(AutoFormulaConfig::test_tiny(), 3);
    let (sheet, at) = query_targets(&corpus, 0)[0];

    // A typed error is transient: the index is skipped for this query
    // only and is NOT quarantined.
    failpoint::arm("serve::shard_scan", FailAction::Error);
    let o = one(&handle, sheet, at);
    assert!(o.degraded && o.prediction.is_none() && o.index_skipped);
    assert_eq!(handle.quarantined_since(), None, "errors must not quarantine");
    failpoint::clear("serve::shard_scan");
    assert!(!one(&handle, sheet, at).degraded);

    // Same for per-candidate S2 errors: candidates drop, the query lives.
    failpoint::arm("serve::region_rank", FailAction::Error);
    let o = one(&handle, sheet, at);
    assert!(o.degraded && o.candidates_dropped > 0 && !o.index_skipped);
    assert_eq!(handle.quarantined_since(), None);
    failpoint::clear("serve::region_rank");
}

#[test]
fn injected_latency_trips_deadlines_without_degrading_results_otherwise() {
    let _l = chaos_lock();
    let _g = ChaosGuard::loud();
    let (handle, corpus) = two_segments();
    let (sheet, at) = query_targets(&corpus, 0)[0];

    // 40 ms per segment scan against a 10 ms budget: S1 gets through the
    // first segment and the deadline check before the next one trips.
    failpoint::arm("serve::shard_scan", FailAction::Sleep(Duration::from_millis(40)));
    let opts = PredictOptions::with_variant(PipelineVariant::Full).deadline_in_ms(10);
    let o = handle.query(&[(sheet, at)], opts).remove(0);
    assert!(o.deadline_exceeded && o.degraded, "latency must trip the deadline");
    assert_eq!(handle.quarantined_since(), None, "slowness is not a quarantine offense");

    // Without a deadline the same latency just makes the full answer slow.
    let slow = one(&handle, sheet, at);
    assert!(!slow.degraded);
    failpoint::clear("serve::shard_scan");
    let fast = one(&handle, sheet, at);
    assert_bitwise_eq(&slow, &fast);
}

#[test]
fn wedged_compactor_restarts_and_backpressure_bounds_deltas() {
    let _l = chaos_lock();
    let _g = ChaosGuard::loud();
    let cfg = AutoFormulaConfig {
        delta_max_sheets: 1,
        backpressure_factor: 3,
        ..AutoFormulaConfig::test_tiny()
    };
    let (handle, corpus) = handle_over(cfg, 2);

    // Wedge the compactor: every attempt fails with a typed error.
    failpoint::arm("serve::compact", FailAction::Error);
    for wb in 2..6 {
        handle.add_workbook(&corpus.workbooks[wb]);
    }
    // Writes kept landing, and with nobody else to do it the writer that
    // brought the delta to the backpressure threshold (1 × 3) sealed it
    // inline: the delta stays under the threshold instead of growing
    // with every add, and no sheet went missing on the way into the runs.
    assert_eq!(handle.epoch(), 4);
    let stats = handle.stats();
    assert!(stats.inline_compactions > 0, "the wedge must end in an inline seal");
    let layout = stats.layout;
    assert!(layout.delta_sheets < 3, "delta over the backpressure threshold: {layout:?}");
    assert_eq!(layout.base_sheets + layout.delta_sheets, handle.n_sheets());
    // The supervisor counted at least one failed attempt (the compactor
    // may still be inside its first backoff, so don't demand more).
    let deadline = Instant::now() + Duration::from_secs(30);
    while handle.stats().compactor_restarts == 0 {
        assert!(Instant::now() < deadline, "supervisor never recorded the wedge");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Un-wedge: the supervised loop's retry (or the next signal) drains
    // the backlog without any new writes.
    failpoint::clear("serve::compact");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let snap = handle.snapshot();
        if snap.n_delta_sheets() == 0 {
            break;
        }
        assert!(Instant::now() < deadline, "compactor never drained after un-wedging");
        std::thread::sleep(Duration::from_millis(5));
    }
    // Served content is intact after the whole ordeal.
    let queries = query_targets(&corpus, 0);
    assert!(!queries.is_empty());
    for &(sheet, at) in queries.iter().take(4) {
        assert!(!one(&handle, sheet, at).degraded);
    }
}

#[test]
fn publish_panic_aborts_the_write_without_tearing_state() {
    let _l = chaos_lock();
    let _g = ChaosGuard::quiet();
    // Every write fills its delta and signals the compactor; with the
    // backpressure path off, only the compactor can change a run list.
    let cfg = AutoFormulaConfig {
        delta_max_sheets: 1,
        backpressure_factor: 0,
        ..AutoFormulaConfig::test_tiny()
    };
    let (handle, corpus) = handle_over(cfg, 2);
    let sheets_before = handle.n_sheets();
    let epoch_before = handle.epoch();
    let layout_before = handle.stats().layout;

    failpoint::arm("serve::delta_publish", FailAction::Panic);
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        handle.add_workbook(&corpus.workbooks[2])
    }));
    assert!(r.is_err(), "the injected publish panic surfaces to the writer");
    failpoint::clear("serve::delta_publish");

    // The failed write published nothing and poisoned nothing: state is
    // unchanged, and both reads and writes still work.
    assert_eq!(handle.epoch(), epoch_before);
    assert_eq!(handle.n_sheets(), sheets_before);
    let (sheet, at) = query_targets(&corpus, 0)[0];
    assert!(!one(&handle, sheet, at).degraded);

    // The same holds one step later. The compactor panics at its fail
    // point, before it seals or builds anything (a panic further in, mid-
    // merge, unwinds before the swap just the same): the published run
    // list stays exactly as loaded and the new sheets stay served from
    // the delta.
    failpoint::arm("serve::compact", FailAction::Panic);
    handle.add_workbook(&corpus.workbooks[2]);
    let added = handle.n_sheets() - sheets_before;
    assert_eq!(added, corpus.workbooks[2].sheets.len());
    let deadline = Instant::now() + Duration::from_secs(30);
    while handle.stats().compactor_restarts == 0 {
        assert!(Instant::now() < deadline, "the compactor never hit its fail point");
        std::thread::sleep(Duration::from_millis(5));
    }
    let now = handle.stats().layout;
    assert_eq!((now.sealed_runs, now.base_sheets), (1, layout_before.base_sheets), "{now:?}");
    assert_eq!(now.delta_sheets, added);
    assert!(!one(&handle, sheet, at).degraded);

    // Disarmed, the supervised retry seals what the panics left behind.
    failpoint::clear("serve::compact");
    while handle.snapshot().n_delta_sheets() > 0 {
        assert!(Instant::now() < deadline, "compactor never sealed the delta");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(handle.stats().layout.base_sheets, sheets_before + added);
}

/// A sheet's global id is its position in the run list, so a write that
/// fails before its publish spends no id: after a failed publish and a
/// successful add, every id below `n_sheets` names a sheet, and the new
/// sheets took the next ids in order.
#[test]
fn a_failed_publish_spends_no_sheet_id() {
    let _l = chaos_lock();
    let _g = ChaosGuard::quiet();
    let (handle, corpus) = handle_over(AutoFormulaConfig::test_tiny(), 2);
    let sheets_before = handle.n_sheets();

    failpoint::arm("serve::delta_publish", FailAction::Panic);
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        handle.add_workbook(&corpus.workbooks[2])
    }));
    assert!(r.is_err(), "the injected publish panic surfaces to the writer");
    failpoint::clear("serve::delta_publish");
    handle.add_workbook(&corpus.workbooks[3]);

    let snap = handle.snapshot();
    let added = &corpus.workbooks[3].sheets;
    assert_eq!(snap.n_sheets(), sheets_before + added.len());
    for g in 0..snap.n_sheets() {
        assert!(snap.sheet_meta(g).is_some(), "sheet id {g} of {} names no sheet", snap.n_sheets());
    }
    assert!(snap.sheet_meta(snap.n_sheets()).is_none());
    for (si, sheet) in added.iter().enumerate() {
        assert_eq!(
            snap.sheet_meta(sheets_before + si).map(|m| m.name.as_str()),
            Some(sheet.name())
        );
    }
}

#[test]
fn interrupted_artifact_save_leaves_the_previous_artifact_loadable() {
    let _l = chaos_lock();
    let _g = ChaosGuard::loud();
    let (handle, corpus) = handle_over(AutoFormulaConfig::test_tiny(), 2);
    let mut path = std::env::temp_dir();
    path.push(format!("af_chaos_atomic_{}.afar", std::process::id()));

    handle.to_artifact_path(&path).expect("initial save");
    let n_before = ServeHandle::from_artifact_path(&path).expect("loads").n_sheets();

    // Kill the next save halfway: the write to the temp file errors after
    // the first half of the bytes.
    handle.add_workbook(&corpus.workbooks[2]);
    failpoint::arm("core::artifact_save", FailAction::Error);
    let r = handle.to_artifact_path(&path);
    assert!(r.is_err(), "interrupted save must report a typed error");
    failpoint::clear("core::artifact_save");

    // The artifact at `path` is still the previous, complete one.
    let reloaded = ServeHandle::from_artifact_path(&path).expect("old artifact intact");
    assert_eq!(reloaded.n_sheets(), n_before);
    // And no temp litter in the directory.
    let dir = path.parent().unwrap();
    let stem = path.file_name().unwrap().to_string_lossy().into_owned();
    for entry in std::fs::read_dir(dir).unwrap() {
        let name = entry.unwrap().file_name().to_string_lossy().into_owned();
        assert!(!name.contains(&format!(".{stem}.tmp")), "temp file left behind: {name}");
    }

    // A healthy retry overwrites atomically and lands the new state.
    handle.to_artifact_path(&path).expect("retry save");
    assert!(ServeHandle::from_artifact_path(&path).expect("loads").n_sheets() > n_before);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn artifact_load_faults_surface_as_typed_errors() {
    let _l = chaos_lock();
    let _g = ChaosGuard::loud();
    let (handle, _) = handle_over(AutoFormulaConfig::test_tiny(), 2);
    let mut path = std::env::temp_dir();
    path.push(format!("af_chaos_load_{}.afar", std::process::id()));
    handle.to_artifact_path(&path).expect("save");

    failpoint::arm("core::artifact_load", FailAction::Error);
    assert!(ServeHandle::from_artifact_path(&path).is_err(), "typed error, not a panic");
    failpoint::clear("core::artifact_load");
    assert!(ServeHandle::from_artifact_path(&path).is_ok());
    std::fs::remove_file(&path).unwrap();
}

/// A burst answers all targets of one sheet in one funnel pass, so a fault
/// lands on every target of the pass at once. A panicking region rank
/// quarantines the index once — later passes of the burst start from the
/// sticky flag instead of tripping it again — every outcome after it
/// reports the index skipped, and after recovery the burst is what it was.
#[test]
fn a_rank_panic_mid_burst_quarantines_once_and_recovery_restores_the_burst() {
    let _l = chaos_lock();
    let _g = ChaosGuard::quiet();
    let (handle, corpus) = handle_over(AutoFormulaConfig::test_tiny(), 4);
    let burst = burst_over(&corpus);
    let mut sheets: Vec<&Sheet> = burst.iter().map(|&(sheet, _)| sheet).collect();
    sheets.dedup_by(|a, b| std::ptr::eq(*a, *b));
    assert!(burst.len() > sheets.len() && sheets.len() > 1, "a burst of several passes");
    let opts = PredictOptions::with_variant(PipelineVariant::Full);
    let baseline = handle.query(&burst, opts);
    assert!(baseline.iter().all(|o| !o.degraded));

    #[cfg(feature = "obs")]
    let mark = af_obs::event_watermark();
    failpoint::arm("serve::region_rank", FailAction::Panic);
    let faulted = handle.query(&burst, opts);
    failpoint::clear("serve::region_rank");
    assert_eq!(faulted.len(), burst.len(), "no panic escapes; every query is answered");
    assert_eq!(handle.quarantined_since(), Some(0));
    for o in &faulted {
        assert!(o.degraded && o.index_skipped && o.prediction.is_none(), "{o:?}");
    }
    #[cfg(feature = "obs")]
    {
        let tripped = af_obs::events_since(mark)
            .into_iter()
            .filter(|e| e.site == "serve::quarantine")
            .count();
        assert_eq!(tripped, 1, "one quarantine event for the whole burst");
    }

    handle.recover();
    let recovered = handle.query(&burst, opts);
    for (after, before) in recovered.iter().zip(&baseline) {
        assert!(!after.degraded, "recovered server must serve full fidelity");
        assert_bitwise_eq(after, before);
    }
}

#[test]
fn injected_scan_errors_skip_the_index_for_one_burst_without_quarantine() {
    let _l = chaos_lock();
    let _g = ChaosGuard::loud();
    let (handle, corpus) = handle_over(AutoFormulaConfig::test_tiny(), 3);
    let burst = burst_over(&corpus);
    let opts = PredictOptions::with_variant(PipelineVariant::Full);
    let baseline = handle.query(&burst, opts);

    failpoint::arm("serve::shard_scan", FailAction::Error);
    let skipped = handle.query(&burst, opts);
    failpoint::clear("serve::shard_scan");
    for o in &skipped {
        assert!(o.degraded && o.prediction.is_none() && o.index_skipped, "{o:?}");
    }
    assert_eq!(handle.quarantined_since(), None, "errors must not quarantine");
    // The next burst scans the index again.
    for (after, before) in handle.query(&burst, opts).iter().zip(&baseline) {
        assert!(!after.degraded);
        assert_bitwise_eq(after, before);
    }
}

#[test]
fn an_expired_deadline_answers_every_query_of_a_burst_at_once() {
    let _l = chaos_lock();
    let _g = ChaosGuard::loud();
    let (handle, corpus) = handle_over(AutoFormulaConfig::test_tiny(), 3);
    let burst = burst_over(&corpus);
    let before = handle.stats().deadline_exceeded;
    let expired = PredictOptions::with_variant(PipelineVariant::Full).deadline_in_ms(0);
    let outcomes = handle.query(&burst, expired);
    assert_eq!(outcomes.len(), burst.len());
    for o in &outcomes {
        assert!(o.deadline_exceeded && o.degraded && o.prediction.is_none(), "{o:?}");
    }
    assert_eq!(handle.stats().deadline_exceeded, before + burst.len() as u64);
}

/// With `--features "failpoints obs"`, faults must leave a structured
/// trace: a panicking scan's quarantine emits one `serve::quarantine`
/// event carrying the epoch it was imposed at.
#[cfg(feature = "obs")]
#[test]
fn a_quarantine_emits_one_event_naming_its_epoch() {
    let _l = chaos_lock();
    let _g = ChaosGuard::quiet();
    let (handle, corpus) = two_segments();
    let (sheet, at) = query_targets(&corpus, 0)[0];

    let mark = af_obs::event_watermark();
    failpoint::arm("serve::shard_scan", FailAction::Panic);
    let o = one(&handle, sheet, at);
    failpoint::clear("serve::shard_scan");
    assert!(o.degraded);

    let tripped: Vec<u64> = af_obs::events_since(mark)
        .into_iter()
        .filter(|e| e.site == "serve::quarantine")
        .map(|e| {
            assert_eq!(e.detail, "imposed");
            e.value
        })
        .collect();
    assert_eq!(tripped, [1], "one event, naming the epoch of the imposition");
    assert_eq!(handle.quarantined_since(), Some(1));

    // Repeated degraded queries against the quarantined index must NOT
    // re-emit: the event marks the transition, not the state.
    let mark = af_obs::event_watermark();
    let _ = one(&handle, sheet, at);
    assert!(af_obs::events_since(mark).iter().all(|e| e.site != "serve::quarantine"));
}

/// A deadline-exceeded query emits a `serve::deadline` event whose
/// detail names the stage that tripped.
#[cfg(feature = "obs")]
#[test]
fn deadline_trips_emit_an_event_naming_the_stage() {
    let _l = chaos_lock();
    let _g = ChaosGuard::loud();
    let (handle, corpus) = two_segments();
    let (sheet, at) = query_targets(&corpus, 0)[0];

    // Same recipe as the latency test above: 40 ms per segment scan
    // against a 10 ms budget trips the S1 deadline check.
    let mark = af_obs::event_watermark();
    failpoint::arm("serve::shard_scan", FailAction::Sleep(Duration::from_millis(40)));
    let opts = PredictOptions::with_variant(PipelineVariant::Full).deadline_in_ms(10);
    let o = handle.query(&[(sheet, at)], opts).remove(0);
    failpoint::clear("serve::shard_scan");
    assert!(o.deadline_exceeded);

    let trips: Vec<_> =
        af_obs::events_since(mark).into_iter().filter(|e| e.site == "serve::deadline").collect();
    assert!(!trips.is_empty(), "a deadline-exceeded query must leave a trace");
    assert_eq!(trips[0].detail, "s1_scan", "the event names the stage that tripped");

    // A comfortably-met deadline emits nothing.
    let mark = af_obs::event_watermark();
    let generous = PredictOptions::with_variant(PipelineVariant::Full).deadline_in_ms(60_000);
    let o = handle.query(&[(sheet, at)], generous).remove(0);
    assert!(!o.deadline_exceeded);
    assert!(af_obs::events_since(mark).iter().all(|e| e.site != "serve::deadline"));
}

#[test]
fn randomized_faults_under_concurrent_load_never_break_the_contract() {
    let _l = chaos_lock();
    let _g = ChaosGuard::quiet();
    let cfg = AutoFormulaConfig { delta_max_sheets: 2, ..AutoFormulaConfig::test_tiny() };
    let (handle, corpus) = handle_over(cfg, 2);
    let queries: Vec<(usize, usize, CellRef)> = corpus.workbooks[0]
        .sheets
        .iter()
        .enumerate()
        .flat_map(|(si, s)| s.formulas().map(move |(at, _)| (0usize, si, at)))
        .collect();
    assert!(!queries.is_empty());
    let baseline: Vec<ServeOutcome> = queries
        .iter()
        .map(|&(wb, si, at)| one(&handle, &corpus.workbooks[wb].sheets[si], at))
        .collect();

    // A reproducible storm: occasional scan panics, rank errors, and
    // compaction faults, all while a writer publishes new epochs.
    failpoint::seed(0xDEAD_BEEF);
    failpoint::configure("serve::shard_scan", FailAction::Panic, 0.05);
    failpoint::configure("serve::region_rank", FailAction::Error, 0.10);
    failpoint::configure("serve::compact", FailAction::Error, 0.25);
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        for t in 0..3 {
            let handle = handle.clone();
            let corpus = &corpus;
            let queries = &queries;
            let baseline = &baseline;
            let stop = &stop;
            scope.spawn(move || {
                let mut served = 0usize;
                let mut last_epoch = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let snap = handle.snapshot();
                    assert!(snap.epoch >= last_epoch, "epoch went backwards");
                    last_epoch = snap.epoch;
                    let (wb, si, at) = queries[(served + t) % queries.len()];
                    let sheet = &corpus.workbooks[wb].sheets[si];
                    // The contract: the call RETURNS — a ServeOutcome,
                    // never an unwind (a panic here would fail the test).
                    let o = snap.query(&[(sheet, at)], PredictOptions::default()).remove(0);
                    // And a non-degraded outcome on the original epoch is
                    // the full-fidelity answer, faults notwithstanding.
                    if !o.degraded && snap.epoch == 0 && served < queries.len() {
                        assert_bitwise_eq(&o, &baseline[(served + t) % queries.len()]);
                    }
                    served += 1;
                }
                assert!(served > 0);
            });
        }
        let writer = handle.clone();
        let corpus_ref = &corpus;
        let stop_ref = &stop;
        scope.spawn(move || {
            for round in 0..4 {
                writer.add_workbook(&corpus_ref.workbooks[2 + (round % 3)]);
            }
            stop_ref.store(true, Ordering::Relaxed);
        });
    });

    failpoint::clear_all();
    assert_eq!(handle.epoch(), 4, "every write landed despite the storm");
    // A quarantine is sticky; recover whatever tripped and verify full
    // service resumes.
    handle.recover();
    for &(wb, si, at) in queries.iter().take(4) {
        let o = one(&handle, &corpus.workbooks[wb].sheets[si], at);
        assert!(!o.degraded);
    }
}
