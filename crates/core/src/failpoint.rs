//! Hand-rolled failpoint injection for chaos testing the serving stack.
//!
//! A *failpoint* is a named site in production code where a test (or a
//! chaos harness) can inject a fault: a panic, a typed error, or extra
//! latency. Sites are compiled in only under the `failpoints` cargo
//! feature — without it every [`fail_point!`](crate::fail_point) expands to a call to an
//! `#[inline(always)]` function that returns `None` unconditionally, so
//! release serving binaries pay nothing.
//!
//! The registry is process-global (chaos tests drive a handful of named
//! sites, not thousands), keyed by site name. Each armed site carries a
//! [`FailAction`] and a trigger probability; probabilistic arms draw from
//! a seeded splitmix64 stream so chaos runs are reproducible.
//!
//! ```
//! use af_core::fail_point;
//! use af_core::failpoint::Injected;
//!
//! fn publish() -> Result<(), String> {
//!     // Panics/latency are handled inside `eval`; an injected error is
//!     // handed to the closure, which must produce this fn's return type.
//!     fail_point!("serve::delta_publish", |e: Injected| Err(e.to_string()));
//!     Ok(())
//! }
//! # assert_eq!(publish(), Ok(()));
//! ```
//!
//! | Site | Crate | Faults exercised |
//! |------|-------|------------------|
//! | `serve::shard_scan` | af-core (`AutoFormula::funnel`) | panic/error/latency inside a per-segment S1 scan |
//! | `serve::region_rank` | af-core (`AutoFormula::funnel`) | panic/error/latency inside per-candidate S2 ranking |
//! | `serve::delta_publish` | af-serve | panic/latency before a serving state publish |
//! | `serve::compact` | af-serve | panic/error/latency at compaction start |
//! | `core::artifact_load` | af-core | injected error loading an artifact |
//! | `core::artifact_save` | af-core | error halfway through an atomic save |

use std::fmt;
use std::time::Duration;

/// What an armed failpoint does when its site is evaluated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailAction {
    /// Panic with a message naming the site (exercises `catch_unwind`
    /// paths: quarantine, compactor supervision).
    Panic,
    /// Hand an [`Injected`] error to the call site (exercises typed-error
    /// returns: compaction failure, artifact load/save).
    Error,
    /// Sleep for the given duration, then continue normally (exercises
    /// deadline paths).
    Sleep(Duration),
}

/// The typed error an [`FailAction::Error`]-armed failpoint injects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Injected {
    /// The site that fired.
    pub site: String,
}

impl fmt::Display for Injected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected failpoint error at {}", self.site)
    }
}

impl std::error::Error for Injected {}

/// Evaluate a named failpoint site.
///
/// The bare form handles panic and latency actions internally and ignores
/// injected errors (for sites whose callers cannot return one). The
/// two-argument form passes an injected [`Injected`] error to the given
/// closure and `return`s its value from the enclosing function.
#[macro_export]
macro_rules! fail_point {
    ($site:expr) => {
        let _ = $crate::failpoint::eval($site);
    };
    ($site:expr, $on_err:expr) => {
        if let Some(injected) = $crate::failpoint::eval($site) {
            #[allow(clippy::redundant_closure_call)]
            return ($on_err)(injected);
        }
    };
}

#[cfg(feature = "failpoints")]
mod imp {
    use super::{FailAction, Injected};
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Mutex, OnceLock};

    struct Armed {
        action: FailAction,
        probability: f64,
    }

    fn registry() -> &'static Mutex<HashMap<String, Armed>> {
        static REGISTRY: OnceLock<Mutex<HashMap<String, Armed>>> = OnceLock::new();
        REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
    }

    /// Splitmix64 state for probabilistic arms. Seedable so chaos runs
    /// replay; the default seed is arbitrary but fixed.
    static RNG: AtomicU64 = AtomicU64::new(0x5EED_F417_0000_0001);

    /// Re-seed the probabilistic-trigger stream (call once at the start of
    /// a chaos scenario for reproducible fault schedules).
    pub fn seed(seed: u64) {
        // ordering: Relaxed — the RNG stream is self-contained state; no
        // other memory is published through it.
        RNG.store(seed, Ordering::Relaxed);
    }

    fn next_unit() -> f64 {
        // ordering: Relaxed — fetch_add's RMW atomicity alone keeps the
        // stream collision-free across threads; no ordering is needed.
        let mut x = RNG.fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        (x >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Arm `site` with `action`, firing on each evaluation with the given
    /// probability (clamped to `[0, 1]`; `1.0` fires every time).
    pub fn configure(site: &str, action: FailAction, probability: f64) {
        registry()
            .lock()
            .unwrap()
            .insert(site.to_string(), Armed { action, probability: probability.clamp(0.0, 1.0) });
    }

    /// Arm `site` to fire on every evaluation.
    pub fn arm(site: &str, action: FailAction) {
        configure(site, action, 1.0);
    }

    /// Disarm one site.
    pub fn clear(site: &str) {
        registry().lock().unwrap().remove(site);
    }

    /// Disarm every site (chaos tests call this on teardown).
    pub fn clear_all() {
        registry().lock().unwrap().clear();
    }

    /// Evaluate `site`: `None` when disarmed or the probability roll
    /// misses. Panic and sleep actions happen *inside* this call; an
    /// error action returns `Some` for the call site to convert.
    pub fn eval(site: &str) -> Option<Injected> {
        let (action, probability) = {
            let reg = registry().lock().unwrap();
            let armed = reg.get(site)?;
            (armed.action.clone(), armed.probability)
        };
        if probability < 1.0 && next_unit() >= probability {
            return None;
        }
        match action {
            FailAction::Panic => panic!("injected failpoint panic at {site}"),
            FailAction::Sleep(d) => {
                std::thread::sleep(d);
                None
            }
            FailAction::Error => Some(Injected { site: site.to_string() }),
        }
    }
}

#[cfg(not(feature = "failpoints"))]
mod imp {
    use super::{FailAction, Injected};

    /// No-op without the `failpoints` feature.
    #[inline(always)]
    pub fn seed(_seed: u64) {}

    /// No-op without the `failpoints` feature.
    #[inline(always)]
    pub fn configure(_site: &str, _action: FailAction, _probability: f64) {}

    /// No-op without the `failpoints` feature.
    #[inline(always)]
    pub fn arm(_site: &str, _action: FailAction) {}

    /// No-op without the `failpoints` feature.
    #[inline(always)]
    pub fn clear(_site: &str) {}

    /// No-op without the `failpoints` feature.
    #[inline(always)]
    pub fn clear_all() {}

    /// Always `None` without the `failpoints` feature; `#[inline(always)]`
    /// so every `fail_point!` site folds to nothing in release builds.
    #[inline(always)]
    pub fn eval(_site: &str) -> Option<Injected> {
        None
    }
}

pub use imp::{arm, clear, clear_all, configure, eval, seed};

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;

    // The registry is process-global and `cargo test` runs tests in
    // threads; every test here uses its own site names so they can run
    // concurrently.

    #[test]
    fn disarmed_site_is_silent() {
        assert_eq!(eval("test::never_armed"), None);
    }

    #[test]
    fn error_action_injects_and_clear_disarms() {
        arm("test::err", FailAction::Error);
        assert_eq!(eval("test::err"), Some(Injected { site: "test::err".into() }));
        clear("test::err");
        assert_eq!(eval("test::err"), None);
    }

    #[test]
    fn panic_action_panics_with_site_name() {
        arm("test::panic", FailAction::Panic);
        let r = std::panic::catch_unwind(|| eval("test::panic"));
        clear("test::panic");
        let payload = r.expect_err("must panic");
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("test::panic"), "{msg}");
    }

    #[test]
    fn sleep_action_delays_then_continues() {
        arm("test::sleep", FailAction::Sleep(Duration::from_millis(20)));
        let t = std::time::Instant::now();
        assert_eq!(eval("test::sleep"), None);
        clear("test::sleep");
        assert!(t.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn probability_zero_never_fires_and_one_always_does() {
        configure("test::p0", FailAction::Error, 0.0);
        configure("test::p1", FailAction::Error, 1.0);
        for _ in 0..64 {
            assert_eq!(eval("test::p0"), None);
            assert!(eval("test::p1").is_some());
        }
        clear("test::p0");
        clear("test::p1");
    }

    #[test]
    fn probabilistic_arm_fires_roughly_at_rate() {
        seed(0xC0FFEE);
        configure("test::phalf", FailAction::Error, 0.5);
        let fired = (0..400).filter(|_| eval("test::phalf").is_some()).count();
        clear("test::phalf");
        assert!((100..300).contains(&fired), "p=0.5 fired {fired}/400");
    }

    #[test]
    fn macro_error_form_returns_through_closure() {
        fn guarded() -> Result<u32, String> {
            fail_point!("test::macro_err", |e: Injected| Err(e.to_string()));
            Ok(7)
        }
        assert_eq!(guarded(), Ok(7));
        arm("test::macro_err", FailAction::Error);
        let err = guarded().expect_err("injected");
        clear("test::macro_err");
        assert!(err.contains("test::macro_err"), "{err}");
    }
}
