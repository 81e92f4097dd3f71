//! Model-checked invariants of the serving protocols.
//!
//! These tests run the *exact* choreography production serves with —
//! `af_serve::protocol`'s cores, instantiated with `CheckFamily` instead
//! of `StdFamily` — under the `af-check` scheduler, which enumerates
//! thread interleavings and (for non-`SeqCst` atomics) stale-value
//! outcomes. The invariants checked:
//!
//! * readers never observe a torn snapshot (payload visibility rides the
//!   publish's release edge);
//! * publish never loses an acquired guard (a pinned payload is never
//!   retired — checked with shadow-refcounted `CheckArc` payloads);
//! * epochs are monotone;
//! * quarantine is sticky, and its epoch is visible with its flag;
//! * a run merge built off the writer lock and swapped in under it after
//!   an identity re-check loses no concurrent append or seal.
//!
//! Three committed negative controls prove the checker has teeth:
//! `LeftRightCore<_, false>` demotes the four store-buffering-critical
//! orderings to `Release`/`Acquire` (the relaxation the proof sketch in
//! `protocol`'s docs says is unsound), an undisciplined writer skips
//! the writer lock, and a compactor swaps in a state derived from its
//! off-lock read without re-reading under the lock. The checker must
//! *fail* all three with a replayable schedule — a green run on the real
//! protocol therefore means the checker looked where these bugs live.

use af_check::{model, model_expect_failure, thread, CheckArc, CheckFamily, Model};
use af_serve::protocol::{should_merge, EpochCore, HealthCore, LeftRightCore};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ------------------------------------------------------------ arc table
//
// Payload tokens for the left-right tests are indices into a small table
// of shadow-refcounted `CheckArc`s — the model-world analogue of the raw
// `Arc` pointers the serving wrapper stores in its slots. The table's own
// locks are plain std mutexes (pure storage, never held across a modeled
// operation, so they cannot interact with the scheduler).

struct ArcTable {
    slots: Vec<Mutex<Option<CheckArc<u64>>>>,
    next: AtomicUsize,
}

impl ArcTable {
    fn with_capacity(n: usize) -> ArcTable {
        ArcTable { slots: (0..n).map(|_| Mutex::new(None)).collect(), next: AtomicUsize::new(0) }
    }

    /// Mint a token owning a fresh shadow-counted payload.
    fn mint(&self, val: u64) -> usize {
        let arc = CheckArc::new(val);
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        *self.slots[i].lock().unwrap() = Some(arc);
        i
    }

    /// Pin a token the way the serving wrapper pins an `Arc`: take an
    /// uncounted alias (instant), then a *counted* clone through the
    /// model (`CheckArc::clone` fails the run if the payload was already
    /// freed — the lost-guard detector), read, and release the clone.
    fn pin(&self, token: usize) -> u64 {
        let alias = {
            let slot = self.slots[token].lock().unwrap();
            slot.as_ref().map(|a| a.leak_alias())
        };
        let alias = alias.unwrap_or_else(|| panic!("lost guard: pinned token {token} was retired"));
        let counted = alias.clone();
        std::mem::forget(alias); // uncounted alias must not run Drop
        let v = *counted;
        drop(counted);
        v
    }

    /// Retire a token: drop its payload's strong count (through the
    /// model, after releasing the storage lock).
    fn retire(&self, token: usize) {
        let arc = self.slots[token].lock().unwrap().take();
        drop(arc);
    }

    /// Drop every remaining payload (end-of-execution cleanup so the
    /// shadow counts balance).
    fn clear(&self) {
        for s in &self.slots {
            let arc = s.lock().unwrap().take();
            drop(arc);
        }
    }
}

/// One publisher, one reader over the production-ordering core: the
/// reader's pinned payload is never retired, and the value it reads is
/// never torn (the checker also explores stale-value outcomes for every
/// non-SeqCst access).
#[test]
fn left_right_publish_never_loses_a_guard() {
    model(|| {
        let table = Arc::new(ArcTable::with_capacity(8));
        let lr = Arc::new(LeftRightCore::<CheckFamily>::new(table.mint(100), table.mint(100)));
        let (lr2, t2) = (Arc::clone(&lr), Arc::clone(&table));
        let reader = thread::spawn(move || {
            let v = lr2.read(|tok| t2.pin(tok));
            assert!(v == 100 || v == 200, "torn or stale snapshot: {v}");
        });
        {
            let _guard = lr.write_lock();
            lr.publish(|| table.mint(200), |old| table.retire(old));
        }
        reader.join();
        table.clear();
    });
}

/// The committed mutated-protocol negative control: `SOUND = false`
/// demotes announce/confirm/redirect/drain from `SeqCst` to
/// `Release`/`Acquire`. The store-buffering outcome the proof sketch
/// forbids becomes reachable — the reader confirms a stale active slot
/// while the publisher reads a stale (drained) reader count — and the
/// checker must find the resulting lost guard.
#[test]
fn left_right_unsound_orderings_lose_a_guard() {
    let v = model_expect_failure(|| {
        let table = Arc::new(ArcTable::with_capacity(8));
        let lr =
            Arc::new(LeftRightCore::<CheckFamily, false>::new(table.mint(100), table.mint(100)));
        let (lr2, t2) = (Arc::clone(&lr), Arc::clone(&table));
        let reader = thread::spawn(move || {
            let v = lr2.read(|tok| t2.pin(tok));
            assert!(v == 100 || v == 200, "torn or stale snapshot: {v}");
        });
        {
            let _guard = lr.write_lock();
            lr.publish(|| table.mint(200), |old| table.retire(old));
        }
        reader.join();
        table.clear();
    });
    assert!(
        v.message.contains("lost guard")
            || v.message.contains("resurrected")
            || v.message.contains("use-after-free")
            || v.message.contains("over-release"),
        "expected a lost-guard violation, got: {v}"
    );
}

/// Two readers, two sequential publishes: the interleaving space the
/// acceptance bar measures (≥ 1k distinct interleavings in < 60 s), all
/// holding the no-lost-guard and no-torn-snapshot invariants.
#[test]
fn left_right_two_readers_two_publishes_explores_1k_interleavings() {
    let start = Instant::now();
    // The full decision tree for this scenario runs past 200k
    // interleavings; 10k (a few seconds) is an order of magnitude over
    // the acceptance bar while keeping the default test job snappy.
    let report = Model::new()
        .max_interleavings(10_000)
        .check(|| {
            let table = Arc::new(ArcTable::with_capacity(16));
            let lr = Arc::new(LeftRightCore::<CheckFamily>::new(table.mint(100), table.mint(100)));
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    let (lr2, t2) = (Arc::clone(&lr), Arc::clone(&table));
                    thread::spawn(move || {
                        let v = lr2.read(|tok| t2.pin(tok));
                        assert!(v == 100 || v == 200 || v == 300, "torn or stale snapshot: {v}");
                    })
                })
                .collect();
            for gen in [200u64, 300] {
                let _guard = lr.write_lock();
                lr.publish(|| table.mint(gen), |old| table.retire(old));
            }
            for r in readers {
                r.join();
            }
            table.clear();
        })
        .expect("left-right invariants must hold on every interleaving");
    let elapsed = start.elapsed();
    assert!(
        report.interleavings >= 1_000,
        "acceptance bar: explored only {} interleavings",
        report.interleavings
    );
    assert!(
        elapsed < Duration::from_secs(60),
        "acceptance bar: {} interleavings took {elapsed:?}",
        report.interleavings
    );
}

/// Writer-lock discipline: concurrent read-modify-publish transactions
/// under the lock never lose an update. Tokens here encode the serving
/// state's (base, delta) pair directly; mint/retire are value-only.
#[test]
fn handoff_under_writer_lock_loses_no_write() {
    model(|| {
        // token = base * 64 + delta; start: base 3, delta 0.
        let lr = Arc::new(LeftRightCore::<CheckFamily>::new(3 * 64, 3 * 64));
        // Two writers each append one sheet to the delta.
        let writers: Vec<_> = (0..2)
            .map(|_| {
                let lr2 = Arc::clone(&lr);
                thread::spawn(move || {
                    let guard = lr2.write_lock();
                    let cur = lr2.read(|tok| tok);
                    let grown = cur + 1; // delta += 1
                    lr2.publish(|| grown, |_| {});
                    drop(guard);
                })
            })
            .collect();
        // The compactor seals whatever delta it finds: base += delta.
        {
            let guard = lr.write_lock();
            let cur = lr.read(|tok| tok);
            let (base, delta) = (cur / 64, cur % 64);
            if delta > 0 {
                lr.publish(|| (base + delta) * 64, |_| {});
            }
            drop(guard);
        }
        for w in writers {
            w.join();
        }
        let fin = lr.read(|tok| tok);
        assert_eq!(fin / 64 + fin % 64, 5, "a write was lost in the handoff: {fin:#x}");
    });
}

/// Negative control for the lock discipline: a writer that publishes
/// outside the writer lock races the other's read-modify-publish, and
/// the checker finds the lost update.
#[test]
fn handoff_without_writer_lock_loses_writes() {
    let v = model_expect_failure(|| {
        let lr = Arc::new(LeftRightCore::<CheckFamily>::new(0, 0));
        let writers: Vec<_> = (0..2)
            .map(|_| {
                let lr2 = Arc::clone(&lr);
                thread::spawn(move || {
                    // BUG under test: no write_lock around the txn.
                    let cur = lr2.read(|tok| tok);
                    lr2.publish(|| cur + 1, |_| {});
                })
            })
            .collect();
        for w in writers {
            w.join();
        }
        let fin = lr.read(|tok| tok);
        assert_eq!(fin, 2, "lost update: {fin}");
    });
    assert!(v.message.contains("lost update"), "unexpected violation: {v}");
}

// ------------------------------------------------------------ run lists
//
// The compactor's off-lock merge (`Shared::compact`) over model-world
// serving states: a published state is a list of sealed runs — each an
// identity (what `Arc::ptr_eq` compares in production) and a sheet
// count — plus the delta's sheet count. Tokens index an append-only
// table of such states (pure storage behind a std mutex, never held
// across a modeled operation).

#[derive(Clone, Debug)]
struct RunList {
    runs: Vec<(u32, usize)>,
    delta: usize,
}

impl RunList {
    fn sheets(&self) -> usize {
        self.runs.iter().map(|&(_, n)| n).sum::<usize>() + self.delta
    }

    /// Position of the older of the last two runs when the merge rule
    /// wants them merged.
    fn merge_due(&self) -> Option<usize> {
        let [.., (_, prev), (_, last)] = self.runs[..] else { return None };
        should_merge(last, prev).then(|| self.runs.len() - 2)
    }

    fn with_merged(&self, at: usize, merged: (u32, usize)) -> RunList {
        let mut next = self.clone();
        next.runs.splice(at..at + 2, [merged]);
        next
    }
}

struct RunTable {
    states: Mutex<Vec<RunList>>,
    next_run: AtomicU32,
}

/// The delta capacity of the model writers: the second append seals.
const MODEL_DELTA_MAX: usize = 2;

impl RunTable {
    /// A table whose token 0 is a base of 8 sheets, two sealed runs of 2
    /// — a merge of the last two is due — and `delta` sheets in the delta.
    fn with_a_merge_due(delta: usize) -> RunTable {
        let start = RunList { runs: vec![(0, 8), (1, 2), (2, 2)], delta };
        RunTable { states: Mutex::new(vec![start]), next_run: AtomicU32::new(3) }
    }

    fn mint(&self, st: RunList) -> usize {
        let mut states = self.states.lock().unwrap();
        states.push(st);
        states.len() - 1
    }

    fn get(&self, token: usize) -> RunList {
        self.states.lock().unwrap()[token].clone()
    }

    /// A new run of `sheets` sheets, with an identity no other run has.
    fn run(&self, sheets: usize) -> (u32, usize) {
        (self.next_run.fetch_add(1, Ordering::Relaxed), sheets)
    }

    /// `add_workbook` for one sheet: under the writer lock, append to the
    /// delta; a full delta is sealed and merged inline (the backpressure
    /// path — the one writer-side transition that changes the run list).
    fn write(&self, lr: &LeftRightCore<CheckFamily>) {
        let guard = lr.write_lock();
        let mut st = self.get(lr.read(|tok| tok));
        st.delta += 1;
        if st.delta >= MODEL_DELTA_MAX {
            st.runs.push(self.run(st.delta));
            st.delta = 0;
            while let Some(at) = st.merge_due() {
                let merged = self.run(st.runs[at].1 + st.runs[at + 1].1);
                st = st.with_merged(at, merged);
            }
        }
        lr.publish(|| self.mint(st.clone()), |_| {});
        drop(guard);
    }

    /// The compactor's off-lock half: read the published state and, when
    /// a merge is due, build it. Returns what it read, where the merge
    /// goes, and the merged run.
    fn plan_merge(
        &self,
        lr: &LeftRightCore<CheckFamily>,
    ) -> Option<(RunList, usize, (u32, usize))> {
        let cur = self.get(lr.read(|tok| tok));
        let at = cur.merge_due()?;
        let merged = self.run(cur.runs[at].1 + cur.runs[at + 1].1);
        Some((cur, at, merged))
    }

    /// The compactor's locked half: re-read, re-check that the two runs
    /// it merged are still in place, swap. `recheck = false` is the
    /// negative control: it swaps in the state derived from the off-lock
    /// read instead.
    fn swap_merged(
        &self,
        lr: &LeftRightCore<CheckFamily>,
        (cur, at, merged): (RunList, usize, (u32, usize)),
        recheck: bool,
    ) {
        let guard = lr.write_lock();
        let now = if recheck { self.get(lr.read(|tok| tok)) } else { cur.clone() };
        if now.runs.get(at..at + 2) == Some(&cur.runs[at..at + 2]) {
            lr.publish(|| self.mint(now.with_merged(at, merged)), |_| {});
        }
        drop(guard);
    }
}

/// One compactor merge against `writers` one-sheet writes; the delta
/// starts just empty enough that the write landing last fills and seals
/// it. The compactor's off-lock read and build run before the writers
/// start, so every write falls in the window the re-check guards —
/// between that read and the swap — or after the swap. (A write *before*
/// the read needs no guarding: the compactor then plans from the newer
/// state. The read itself racing a publish is the left-right tests'.)
fn merge_swap_scenario(writers: usize, recheck: bool) {
    let table = Arc::new(RunTable::with_a_merge_due(MODEL_DELTA_MAX - writers));
    let lr = Arc::new(LeftRightCore::<CheckFamily>::new(0, 0));
    let before = table.get(0).sheets();
    let plan = table.plan_merge(&lr).expect("a merge is due at the start");
    let writers: Vec<_> = (0..writers)
        .map(|_| {
            let (lr2, t2) = (Arc::clone(&lr), Arc::clone(&table));
            thread::spawn(move || t2.write(&lr2))
        })
        .collect();
    table.swap_merged(&lr, plan, recheck);
    let written = writers.len();
    for w in writers {
        w.join();
    }
    let fin = table.get(lr.read(|tok| tok));
    assert_eq!(fin.sheets(), before + written, "a write was lost in the merge swap: {fin:?}");
    let mut ids: Vec<u32> = fin.runs.iter().map(|&(id, _)| id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), fin.runs.len(), "a run appears twice: {fin:?}");
}

/// The compactor reads two runs off the writer lock and builds their
/// merge; writers then append to the delta and seal it (merging inline,
/// possibly the very runs the compactor read); the compactor re-reads
/// under the lock, re-checks that its two runs are still in place, and
/// only then swaps. No interleaving loses a sheet.
#[test]
fn merge_swap_off_lock_loses_no_write() {
    // One sealing writer against the compactor: small enough to exhaust.
    let report = Model::new().check(|| merge_swap_scenario(1, true)).expect("no write lost");
    assert!(report.exhausted, "only {} interleavings explored", report.interleavings);
    // An appending writer as well: bounded exploration of the larger tree.
    model(|| merge_swap_scenario(2, true));
}

/// Negative control: the same compactor without the re-read under the
/// lock publishes a state derived from its stale off-lock read, and the
/// checker finds the seal it overwrote.
#[test]
fn merge_swap_without_recheck_loses_a_seal() {
    let v = model_expect_failure(|| merge_swap_scenario(1, false));
    assert!(v.message.contains("lost in the merge swap"), "unexpected violation: {v}");
}

/// Epochs are monotone: any observer that reads the epoch twice sees a
/// non-decreasing pair, across concurrent advances.
#[test]
fn epoch_is_monotone() {
    model(|| {
        let ep = Arc::new(EpochCore::<CheckFamily>::new(0));
        let advancers: Vec<_> = (0..2)
            .map(|_| {
                let ep2 = Arc::clone(&ep);
                thread::spawn(move || ep2.advance())
            })
            .collect();
        let first = ep.current();
        let second = ep.current();
        assert!(second >= first, "epoch went backwards: {first} -> {second}");
        let returned: Vec<u64> = advancers.into_iter().map(|a| a.join()).collect();
        assert_ne!(returned[0], returned[1], "two advances returned the same epoch");
        assert_eq!(ep.current(), 2);
    });
}

/// Quarantine is sticky (no interleaving un-sets it short of an explicit
/// recover), exactly one concurrent imposition wins, and an observer of
/// the flag also observes a real imposition epoch.
#[test]
fn quarantine_is_sticky_and_epoch_is_visible() {
    model(|| {
        let h = Arc::new(HealthCore::<CheckFamily>::new());
        let imposers: Vec<_> = [7u64, 9]
            .into_iter()
            .map(|epoch| {
                let h2 = Arc::clone(&h);
                thread::spawn(move || h2.quarantine(epoch))
            })
            .collect();
        if h.is_quarantined() {
            let e = h.since_epoch();
            assert!(e == 7 || e == 9, "flag visible but epoch stale: {e}");
            assert!(h.is_quarantined(), "quarantine must be sticky");
        }
        let wins: Vec<bool> = imposers.into_iter().map(|i| i.join()).collect();
        assert_eq!(
            wins.iter().filter(|&&w| w).count(),
            1,
            "exactly one imposition must win: {wins:?}"
        );
        assert!(h.is_quarantined());
        h.recover();
        assert!(!h.is_quarantined(), "recover must lift the flag");
    });
}
