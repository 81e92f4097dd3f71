//! Observability probe (`--features obs` only): self-measures the cost
//! of the af-obs instrumentation and dumps every histogram site to
//! `BENCH_obs.json`.
//!
//! The overhead gate works in-process via the runtime kill-switch
//! ([`af_obs::set_enabled`]): the same obs-enabled binary runs the mixed
//! add-while-query workload with recording disabled (cheap branch per
//! site) and enabled (full span + histogram work) — order-balanced
//! off/on pairs, each run on a fresh warmed-up handle, with the
//! raw per-operation latencies pooled per configuration (three pairs
//! minimum, up to five while the pooled p99s disagree). The enabled
//! pooled mixed p99 must stay within 5% (plus a 0.5 ms absolute
//! allowance for residual jitter) of the disabled one — falling back to
//! the same bound on the pooled read p99 when only the add tail blows
//! the mixed budget (see `gate_passes` for why) — and CI fails the
//! serve bin otherwise. The compile-time zero-cost claim (feature off ⇒
//! no-op macros) is covered separately by the obs-off bench-smoke runs.
//!
//! The gate handles use a delta capacity the workload can never fill,
//! so background folds can't randomly perturb either side of the
//! comparison; a second, ungated probe with `delta_max_sheets = 2` runs
//! afterwards so the committed `BENCH_obs.json` still carries real
//! `serve::compact` samples, not an empty site.

use crate::serve_bench::{
    mixed_load, mixed_load_samples, mixed_report, MixedLoadReport, ServeBenchRun,
};
use af_core::pipeline::AutoFormula;
use af_serve::ServeHandle;
use std::path::Path;

/// Mixed-workload p99 with instrumentation on may exceed the off run by
/// at most this factor...
const OVERHEAD_FACTOR: f64 = 1.05;
/// ...plus this absolute allowance (ms) so a sub-millisecond p99 doesn't
/// fail the gate on scheduler noise.
const OVERHEAD_SLACK_MS: f64 = 0.5;

/// What the obs probe measured.
pub struct ObsBenchReport {
    /// Mixed workload with recording disabled at runtime.
    pub off: MixedLoadReport,
    /// Mixed workload with recording enabled.
    pub on: MixedLoadReport,
    /// `on.mixed_p99_ms / off.mixed_p99_ms`.
    pub overhead_ratio: f64,
    /// Whether the overhead gate passed: `on ≤ off × 1.05 + 0.5 ms` on
    /// the pooled mixed p99, falling back to the pooled read p99 when
    /// the add tail alone blows the mixed budget (see `gate_passes`).
    pub gate_ok: bool,
    /// Structured events (quarantines, deadline trips) in the ring at
    /// capture time.
    pub events_seen: usize,
    /// Every histogram site in the process at the end of the run —
    /// training, artifact I/O, embedding, and serving stages included.
    pub snapshot: af_obs::MetricsSnapshot,
}

/// One side of the overhead budget: `on` must stay within 5% of `off`,
/// plus the absolute allowance.
fn within_budget(off_ms: f64, on_ms: f64) -> bool {
    on_ms <= off_ms * OVERHEAD_FACTOR + OVERHEAD_SLACK_MS
}

/// The overhead gate: the pooled mixed p99 must stay within budget —
/// or, failing that, the pooled read p99 must. The mixed p99 sits right
/// at the add tail (the ~12 slowest publishes per run), an order
/// statistic whose intrinsic run-to-run swing exceeds the 5% budget
/// even pooled; the read p99 is a ~1000-sample statistic over the most
/// heavily instrumented path (S1/S2/S3 spans, per-segment scan, histogram
/// records on every op), so a real instrumentation regression cannot
/// hide from it. A lucky add tail can't pass a broken build; an unlucky
/// one can't fail a good build.
fn gate_passes(off: &MixedLoadReport, on: &MixedLoadReport) -> bool {
    within_budget(off.mixed_p99_ms, on.mixed_p99_ms)
        || within_budget(off.read_p99_ms, on.read_p99_ms)
}

/// Build the probe handle: the artifact `measure_full()` saved, served
/// with the given delta capacity.
fn probe_handle(run: &ServeBenchRun, delta_max_sheets: usize) -> ServeHandle {
    let (mut af, index) =
        AutoFormula::load_bytes_artifact(run.artifact.clone()).expect("artifact loads");
    af.model.cfg.delta_max_sheets = delta_max_sheets;
    ServeHandle::new(af, index)
}

/// Run the overhead measurement against the artifact `measure_full()`
/// produced, then capture the full metrics snapshot.
pub fn measure(run: &ServeBenchRun) -> ObsBenchReport {
    // Each measured run gets a fresh handle whose delta capacity is far
    // beyond what the workload writes, so adds stay on the cheap delta
    // path but no fold ever fires: every run starts from the identical
    // artifact state and no background compaction can land on either
    // side of the comparison. The mixed tail on a compacting handle is
    // fold-collision luck with ~2× run-to-run swing, which swamps any
    // instrumentation signal. (`0` would disable deltas — O(corpus)
    // synchronous adds — which is the wrong workload entirely.)
    //
    // Off/on pairs with the order alternating between them, pooling the
    // raw per-operation latencies per configuration: the reported p99 is
    // a deep order statistic over ~900+ pooled ops instead of the
    // 3rd-worst op of a single 300-op run (which carries few-ms sampling
    // jitter, far more than the 5% budget). Alternating the order means
    // both pools sample the same machine epochs, so drift (CPU
    // frequency, page-cache state) cancels. Each handle gets its own
    // warmup pass under the same toggle state so neither measured run
    // pays first-use costs (lazy registration, allocator growth).
    //
    // After the minimum three pairs, the loop adds up to two more only
    // while the pooled p99s still disagree by more than the budget: one
    // unlucky tail can't fail CI, while a real instrumentation
    // regression persists through every extension.
    let (mut off_read, mut off_add) = (Vec::new(), Vec::new());
    let (mut on_read, mut on_add) = (Vec::new(), Vec::new());
    let mut off = None;
    let mut on = None;
    for pair in 0..5 {
        let order = if pair % 2 == 0 { [false, true] } else { [true, false] };
        for enabled in order {
            let handle = probe_handle(run, 1_000_000);
            af_obs::set_enabled(enabled);
            let _ = mixed_load(&handle, &run.org, &run.targets);
            let (r, a) = mixed_load_samples(&handle, &run.org, &run.targets);
            if enabled {
                on_read.extend(r);
                on_add.extend(a);
            } else {
                off_read.extend(r);
                off_add.extend(a);
            }
        }
        off = Some(mixed_report(off_read.clone(), off_add.clone()));
        on = Some(mixed_report(on_read.clone(), on_add.clone()));
        if pair >= 2 && gate_passes(off.as_ref().unwrap(), on.as_ref().unwrap()) {
            break;
        }
    }
    af_obs::set_enabled(true);
    let (off, on) = (off.expect("off pool"), on.expect("on pool"));

    // A second handle with tiny deltas exists purely to populate the
    // compaction sites in the committed snapshot: every add overflows the
    // 2-sheet delta, so `serve::compact` (and the backlog gauge) get real
    // samples. Recording stays on; its latencies are not gated.
    let compact_probe = probe_handle(run, 2);
    let _ = mixed_load(&compact_probe, &run.org, &run.targets);
    let drain_deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while compact_probe.snapshot().n_delta_sheets() > 0
        && std::time::Instant::now() < drain_deadline
    {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    let overhead_ratio = on.mixed_p99_ms / off.mixed_p99_ms.max(1e-9);
    let gate_ok = gate_passes(&off, &on);
    let snapshot = compact_probe.metrics();
    let events_seen = af_obs::events_since(0).len();
    ObsBenchReport { off, on, overhead_ratio, gate_ok, events_seen, snapshot }
}

/// Render `BENCH_obs.json`: the overhead measurement plus the full
/// per-site metrics snapshot.
pub fn to_json(r: &ObsBenchReport, scale: &str) -> String {
    format!(
        concat!(
            "{{\n",
            "  \"scale\": \"{}\",\n",
            "  \"obs_off_mixed_p99_ms\": {:.3},\n",
            "  \"obs_on_mixed_p99_ms\": {:.3},\n",
            "  \"obs_off_read_p99_ms\": {:.3},\n",
            "  \"obs_on_read_p99_ms\": {:.3},\n",
            "  \"overhead_ratio\": {:.3},\n",
            "  \"gate_ok\": {},\n",
            "  \"events_seen\": {},\n",
            "  \"metrics\": {}\n",
            "}}\n",
        ),
        scale,
        r.off.mixed_p99_ms,
        r.on.mixed_p99_ms,
        r.off.read_p99_ms,
        r.on.read_p99_ms,
        r.overhead_ratio,
        r.gate_ok,
        r.events_seen,
        r.snapshot.to_json(),
    )
}

/// Write `BENCH_obs.json`.
pub fn write_json(r: &ObsBenchReport, scale: &str, path: &Path) {
    std::fs::write(path, to_json(r, scale)).expect("write BENCH_obs.json");
}

#[cfg(test)]
mod tests {
    use super::*;
    use af_obs::{MetricsSnapshot, Unit};

    #[test]
    fn json_embeds_the_snapshot() {
        let h = af_obs::histogram("obs_bench::test_site", Unit::Nanos);
        h.record(1_000_000);
        let mixed = MixedLoadReport {
            read_p50_ms: 1.0,
            read_p99_ms: 2.0,
            add_p50_ms: 3.0,
            add_p99_ms: 4.0,
            mixed_p99_ms: 3.5,
            reads: 10,
            adds: 2,
        };
        let r = ObsBenchReport {
            off: mixed.clone(),
            on: mixed,
            overhead_ratio: 1.0,
            gate_ok: true,
            events_seen: 0,
            snapshot: MetricsSnapshot::capture(),
        };
        let json = to_json(&r, "tiny");
        assert!(json.contains("\"gate_ok\": true"));
        assert!(json.contains("\"obs_on_mixed_p99_ms\": 3.500"));
        assert!(json.contains("\"site\":\"obs_bench::test_site\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
