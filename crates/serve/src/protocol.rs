//! The serving layer's concurrency protocols, extracted from the serving
//! plumbing and parameterized over [`af_check::Family`] so the exact
//! choreography that serves production traffic can run under the
//! `af-check` model checker.
//!
//! Three cores live here:
//!
//! * [`LeftRightCore`] — the two-slot left-right cell's publish/acquire
//!   choreography, over opaque `usize` payload tokens. The serving
//!   wrapper (`LeftRight<T>` in this crate) instantiates it with
//!   [`StdFamily`](af_check::StdFamily) and raw `Arc` pointers as
//!   tokens; the model suite (`tests/model.rs`) instantiates it with
//!   `CheckFamily` and shadow-table indices.
//! * [`EpochCore`] — the handle-wide publish epoch (monotone counter).
//! * [`HealthCore`] — the sticky quarantine flag plus the epoch it
//!   was imposed at.
//!
//! # Ordering discipline (the relaxation proof sketch)
//!
//! PR 6 shipped the left-right cell with blanket `SeqCst`. The danger
//! that actually demands `SeqCst` is one store-buffering (SB) shape
//! between a reader and a publisher:
//!
//! ```text
//! reader                          publisher
//! W announce: readers[a] += 1     W redirect: active = b
//! R confirm:  active == a?        R drain:    readers[a] == 0?
//! ```
//!
//! If both threads could order their read before the other's write —
//! which `Release`/`Acquire` permits, `SeqCst` forbids — the reader
//! confirms the *old* active slot while the publisher sees a drained
//! reader count, swaps the slot's payload, and retires a value the
//! reader is still pinning: a lost guard, then use-after-free. So the
//! four SB-critical operations (announce, confirm, redirect, drain)
//! stay `SeqCst`. Everything else carries exactly the edge it needs:
//!
//! * slot payload load (reader) `Acquire` / payload swap (publisher)
//!   `AcqRel` — the reader must see the pointee the publisher built,
//!   and the publisher's *retire* of the old payload must be ordered
//!   after every prior pin;
//! * reader's exit decrement `Release` — pairs with the drain load
//!   (`SeqCst` is an acquire load) so a publisher that observes zero
//!   readers also observes those readers' completed pins;
//! * publisher's initial `active` load `Relaxed` — only publishers
//!   store `active`, and publishers serialize on the writer lock, so
//!   there is nothing to race;
//! * the reader's initial `active` hint `Relaxed` — it is confirmed
//!   (`SeqCst`) after the announce before any use.
//!
//! The checker backs the sketch both ways: the model suite passes with
//! these orderings (`SOUND = true`), and the committed negative control
//! (`SOUND = false`, which demotes the SB quartet to `Release`/
//! `Acquire`) is *failed* by the checker with a replayable schedule —
//! evidence the checker can see exactly the race this sketch worries
//! about, and therefore that its green run means something.

use af_check::{AtomicBoolShim, AtomicU64Shim, AtomicUsizeShim, Family, MutexShim};
use std::sync::atomic::Ordering;

// -------------------------------------------------------- left-right core

struct CoreSlot<F: Family> {
    /// Opaque payload token (the wrapper stores raw `Arc` pointers here;
    /// model tests store shadow-table indices).
    payload: F::AtomicUsize,
    /// Readers currently pinning this slot's payload.
    readers: F::AtomicUsize,
}

/// The left-right publish/acquire choreography over two payload slots.
///
/// `SOUND = false` demotes the four SB-critical orderings to
/// `Release`/`Acquire` — the committed negative control the model
/// checker must fail. Production code always uses the default
/// `SOUND = true`; the parameter is `const`, so the orderings fold at
/// compile time and the sound instantiation pays nothing for the
/// switch's existence.
pub struct LeftRightCore<F: Family, const SOUND: bool = true> {
    slots: [CoreSlot<F>; 2],
    /// Which slot readers should use. Invariant: a slot's payload is only
    /// replaced while `active` names the *other* slot and the slot's
    /// reader count has been observed at zero after the redirect.
    active: F::AtomicUsize,
    /// Serializes publishers (the write path and the compactor). Readers
    /// never touch it.
    writer: F::Mutex<()>,
}

impl<F: Family, const SOUND: bool> LeftRightCore<F, SOUND> {
    // ordering: SeqCst — the SB-critical quartet (module docs): each of
    // these four accesses is one side of the store-buffering pattern, and
    // only SeqCst's single total order forbids the both-read-stale outcome.
    // `SOUND = false` is the mutated protocol: the checker finds the
    // lost-guard interleaving.
    const ANNOUNCE: Ordering = if SOUND { Ordering::SeqCst } else { Ordering::AcqRel };
    const CONFIRM: Ordering = if SOUND { Ordering::SeqCst } else { Ordering::Acquire };
    const REDIRECT: Ordering = if SOUND { Ordering::SeqCst } else { Ordering::Release };
    const DRAIN: Ordering = if SOUND { Ordering::SeqCst } else { Ordering::Acquire };

    /// A new cell whose two slots hold `slot0` and `slot1` (typically two
    /// tokens for the same logical value); slot 0 starts active.
    pub fn new(slot0: usize, slot1: usize) -> Self {
        LeftRightCore {
            slots: [
                CoreSlot { payload: F::AtomicUsize::new(slot0), readers: F::AtomicUsize::new(0) },
                CoreSlot { payload: F::AtomicUsize::new(slot1), readers: F::AtomicUsize::new(0) },
            ],
            active: F::AtomicUsize::new(0),
            writer: F::Mutex::new(()),
        }
    }

    /// Acquire the active payload: announce on the active slot, confirm
    /// the slot is still active, run `pin` on the payload token while the
    /// announce pins it, then withdraw. Lock-free; at most a couple of
    /// retries when a publish races past.
    ///
    /// `pin` must capture whatever it needs from the token (the serving
    /// wrapper bumps the `Arc` strong count) — the token itself is only
    /// protected until the withdraw.
    pub fn read<R>(&self, pin: impl FnOnce(usize) -> R) -> R {
        // ordering: Relaxed — a routing hint only; it is confirmed below
        // (SeqCst) after the announce before any payload access.
        let mut a = self.active.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[a];
            // ordering: SB-critical announce (see module docs) — must be
            // ordered before the confirm in the single SeqCst total order
            // so it cannot be missed by a publisher's drain.
            slot.readers.fetch_add(1, Self::ANNOUNCE);
            // ordering: SB-critical confirm — paired against the
            // publisher's redirect store in the SeqCst total order.
            let now = self.active.load(Self::CONFIRM);
            if now == a {
                // ordering: Acquire — pairs with the publisher's AcqRel
                // payload swap; makes the pointee built before the swap
                // visible to this reader.
                let token = slot.payload.load(Ordering::Acquire);
                let out = pin(token);
                // ordering: Release — pairs with the drain load; a
                // publisher that observes the decrement also observes the
                // completed pin, so retiring the payload cannot race it.
                slot.readers.fetch_sub(1, Ordering::Release);
                return out;
            }
            // A publish redirected between our two loads; withdraw the
            // announce and retry on the slot it pointed us at.
            // ordering: Release — same pairing as the fast-path exit.
            slot.readers.fetch_sub(1, Ordering::Release);
            a = now;
        }
    }

    /// Spin until no reader holds slot `idx`. Publisher-only, and only
    /// for a slot `active` does not name.
    fn drain(&self, idx: usize) {
        let mut iter = 0u32;
        // ordering: SB-critical drain (see module docs) — must not be
        // orderable before the redirect store, or a concurrent reader's
        // announce could be missed while it confirms the stale slot.
        while self.slots[idx].readers.load(Self::DRAIN) != 0 {
            F::spin(iter);
            iter = iter.saturating_add(1);
        }
    }

    /// Take the publisher lock. Every `publish` call must happen while
    /// the caller holds this guard — it is what makes the read-check-
    /// build-publish sequence of the write path and the compactor's
    /// delta handoff atomic.
    pub fn write_lock(&self) -> <F::Mutex<()> as MutexShim<()>>::Guard<'_> {
        self.writer.lock()
    }

    /// Replace both slots' payloads. `mint` is called twice to produce
    /// the two new tokens; `retire` receives each displaced token after
    /// its slot has drained. The caller must hold [`Self::write_lock`].
    pub fn publish(&self, mut mint: impl FnMut() -> usize, mut retire: impl FnMut(usize)) {
        // ordering: Relaxed — only publishers store `active`, and
        // publishers serialize on the writer lock; the lock's own
        // acquire/release edges order this load after the previous
        // publisher's store.
        let a = self.active.load(Ordering::Relaxed);
        let b = 1 - a;
        // Slot b is inactive: wait out stragglers, install the new value,
        // then direct readers at it.
        self.drain(b);
        // ordering: AcqRel — Release publishes the minted payload to the
        // readers' Acquire load; Acquire orders the retire below after
        // the drained readers' pins.
        let old = self.slots[b].payload.swap(mint(), Ordering::AcqRel);
        retire(old);
        // ordering: SB-critical redirect (see module docs) — paired
        // against the readers' announce/confirm in the SeqCst total
        // order.
        self.active.store(b, Self::REDIRECT);
        // Now slot a is inactive; once its readers drain, bring it to the
        // same value so the next publish has a clean inactive slot.
        self.drain(a);
        // ordering: AcqRel — as above.
        let old = self.slots[a].payload.swap(mint(), Ordering::AcqRel);
        retire(old);
    }

    /// The two payload tokens, unsynchronized. Only sound with exclusive
    /// access (`&mut self`) — the wrapper's `Drop` uses it to retire both
    /// slots.
    pub fn payloads_mut(&mut self) -> [usize; 2] {
        [
            // ordering: Relaxed — `&mut self` proves no concurrent access.
            self.slots[0].payload.load(Ordering::Relaxed),
            self.slots[1].payload.load(Ordering::Relaxed),
        ]
    }
}

// -------------------------------------------------------------- epoch core

/// The handle-wide publish epoch: a monotone counter bumped once per
/// successful `add_workbook`, observed by stats, snapshots, and
/// quarantine records.
pub struct EpochCore<F: Family> {
    epoch: F::AtomicU64,
}

impl<F: Family> EpochCore<F> {
    /// A new epoch counter starting at `start`.
    pub fn new(start: u64) -> Self {
        EpochCore { epoch: F::AtomicU64::new(start) }
    }

    /// The current epoch.
    pub fn current(&self) -> u64 {
        // ordering: Acquire — an observer that sees epoch N also sees
        // the state published by the advance that produced N (the
        // advance is AcqRel).
        self.epoch.load(Ordering::Acquire)
    }

    /// Advance the epoch by one; returns the new value. Monotone by RMW
    /// atomicity — concurrent advances serialize in the location's
    /// modification order.
    pub fn advance(&self) -> u64 {
        // ordering: AcqRel — the release half publishes the writer's
        // prior stores to `current()` observers; the acquire half chains
        // release sequences across concurrent advances.
        self.epoch.fetch_add(1, Ordering::AcqRel) + 1
    }
}

// ------------------------------------------------------------- health core

/// Sticky quarantine: once imposed it stays until an explicit
/// recover, and an observer that sees the flag also sees the epoch it
/// was imposed at.
pub struct HealthCore<F: Family> {
    quarantined: F::AtomicBool,
    /// Epoch current when quarantine was imposed; meaningful only while
    /// `quarantined` is observed `true` (its store is ordered before the
    /// flag's release).
    since_epoch: F::AtomicU64,
}

impl<F: Family> HealthCore<F> {
    /// A new, healthy record.
    pub fn new() -> Self {
        HealthCore { quarantined: F::AtomicBool::new(false), since_epoch: F::AtomicU64::new(0) }
    }

    /// Impose quarantine at `epoch`. Idempotent: returns `true` only for
    /// the imposition that flipped the flag (callers count events off
    /// that). Concurrent impositions may each store their epoch first —
    /// either is a true quarantine moment, and the flag's release edge
    /// makes whichever value won visible to any observer of the flag.
    pub fn quarantine(&self, epoch: u64) -> bool {
        // ordering: Relaxed — sequenced before the flag swap below, whose
        // release half carries this store to acquiring observers.
        self.since_epoch.store(epoch, Ordering::Relaxed);
        // ordering: AcqRel — release publishes `since_epoch`; acquire
        // orders a losing imposition after the winning one so the flag is
        // sticky in every observer's view.
        !self.quarantined.swap(true, Ordering::AcqRel)
    }

    /// Is the index currently quarantined?
    pub fn is_quarantined(&self) -> bool {
        // ordering: Acquire — pairs with the imposition's release so
        // `since_epoch` is visible whenever the flag is.
        self.quarantined.load(Ordering::Acquire)
    }

    /// The epoch recorded by the imposition. Read after observing
    /// [`Self::is_quarantined`] `== true`.
    pub fn since_epoch(&self) -> u64 {
        // ordering: Relaxed — carried by the flag's release/acquire pair;
        // callers sequence this load after an acquiring flag load.
        self.since_epoch.load(Ordering::Relaxed)
    }

    /// Lift the quarantine (operator action; never automatic).
    pub fn recover(&self) {
        // ordering: Release — a reader that observes the recovery also
        // observes whatever repair preceded it.
        self.quarantined.store(false, Ordering::Release);
    }
}

impl<F: Family> Default for HealthCore<F> {
    fn default() -> Self {
        Self::new()
    }
}

// ---------------------------------------------------- delta-handoff policy

/// What a write that grew the delta should do next. Pure decision
/// logic shared by `add_workbook` and modeled by the handoff suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaDisposition {
    /// Publish the grown delta as-is.
    Grow,
    /// The delta reached the backpressure threshold: seal it and merge
    /// runs inline before publishing (one synchronous compaction beats
    /// every query degrading toward O(corpus)).
    CompactInline,
}

/// Decide a grown delta's fate against the backpressure threshold.
pub fn delta_disposition(delta_sheets: usize, backpressure_at: Option<usize>) -> DeltaDisposition {
    match backpressure_at {
        Some(at) if delta_sheets >= at => DeltaDisposition::CompactInline,
        _ => DeltaDisposition::Grow,
    }
}

/// The compactor's re-check under the writer lock: a racing compaction
/// (inline or a previous signal) may already have sealed the delta, in
/// which case the seal is a no-op. `delta_max` of zero behaves as one
/// (a compactor signaled at all means deltas are enabled).
pub fn compact_warranted(delta_sheets: usize, delta_max: usize) -> bool {
    delta_sheets >= delta_max.max(1)
}

/// After a publish: should the compactor be signaled?
pub fn should_signal_compactor(delta_sheets: usize, delta_max: usize) -> bool {
    delta_max > 0 && delta_sheets >= delta_max.max(1)
}

/// The merge rule, applied to the last two sealed runs until
/// it no longer holds: merge them while the newer (`last`) has at least
/// as many sheets as the older (`prev`). This is the logarithmic method —
/// run sizes end up strictly decreasing, so the list holds O(log n) runs,
/// each sheet is re-copied O(log n) times, and a large base is copied
/// only once the sheets added since rival it. A fixed function on
/// purpose, not a knob.
pub fn should_merge(last_sheets: usize, prev_sheets: usize) -> bool {
    last_sheets >= prev_sheets
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Seal a run of `sealed` sheets onto `runs` and merge until the rule
    /// holds, exactly as the compactor does.
    fn seal(mut runs: Vec<usize>, sealed: usize) -> Vec<usize> {
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
        assert_eq!(seal(vec![16], 16), [32]);
        assert_eq!(seal(vec![284, 32, 16], 16), [284, 64]);
        assert_eq!(seal(vec![284, 64], 16), [284, 64, 16]);
    }

    #[test]
    fn an_empty_base_is_merged_away_by_the_first_seal() {
        assert_eq!(seal(vec![0], 16), [16]);
    }

    #[test]
    fn the_base_is_copied_only_once_additions_rival_it() {
        let mut runs = vec![284];
        for added in (16..=512).step_by(16) {
            runs = seal(runs, 16);
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
}
