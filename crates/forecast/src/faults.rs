//! Deterministic fault injection for chaos-testing the serving stack.
//!
//! Production forecast serving must survive latency spikes, worker
//! panics and clients that vanish mid-response. Reproducing those
//! conditions with real nondeterminism makes failures unreproducible, so
//! this module derives every fault decision from a *seed*: the k-th
//! injection point of a run (`seq = k`) always receives the same fault
//! for the same [`FaultPlan`], no matter how threads interleave. A chaos
//! test that fails can be re-run bit-identically from its seed.
//!
//! Two layers use it:
//!
//! * the engine's simulation entry point asks the installed
//!   [`FaultInjector`] for a fault before each leader computation
//!   ([`crate::ForecastEngine::set_fault_injector`]) — exercising
//!   singleflight leader panics and slow computations under followers;
//! * HTTP-level tests wrap handlers with [`FaultInjector::step`] directly
//!   to inject delays/panics between parse and respond.
//!
//! Faults are *observable*: the injector counts what it actually
//! injected, so tests can assert "exactly the injected panics were
//! absorbed" against the server's handler-panic counter.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// One injected fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// No fault at this injection point.
    None,
    /// Sleep this long before proceeding (latency spike / slow leader).
    Delay(Duration),
    /// Sleep `after`, then panic (mid-computation worker death).
    Panic {
        /// Delay before the panic — lets a test park followers on the
        /// in-flight computation before the leader dies.
        after: Duration,
    },
    /// Fire the installed flap hook (a serving-time platform event —
    /// typically a link capacity change or down/up toggle delivered
    /// through `ForecastEngine::link_event`), then proceed normally.
    /// With no hook installed this is [`Fault::None`].
    Flap,
}

fn mix(seed: u64, seq: u64) -> u64 {
    // splitmix64 over seed ⊕ golden-ratio-spread seq: one well-mixed
    // word per injection point, independent of thread interleaving.
    let mut z = seed ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A pure, seed-derived schedule of faults: injection point `seq` →
/// [`Fault`]. Probabilities are per-mille; explicit [`FaultPlan::force`]
/// entries override the derived decision (for pinpoint scenarios like
/// "the first simulation's leader panics").
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    delay_permille: u32,
    delay: Duration,
    panic_permille: u32,
    panic_after: Duration,
    flap_permille: u32,
    forced: Vec<(u64, Fault)>,
}

impl FaultPlan {
    /// A plan with no faults (builder starting point).
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan { seed, ..FaultPlan::default() }
    }

    /// Injects `delay` at roughly `permille`/1000 of injection points.
    pub fn with_delays(mut self, permille: u32, delay: Duration) -> FaultPlan {
        self.delay_permille = permille.min(1000);
        self.delay = delay;
        self
    }

    /// Injects a panic (after `after`) at roughly `permille`/1000 of the
    /// points left fault-free by the delay rate.
    pub fn with_panics(mut self, permille: u32, after: Duration) -> FaultPlan {
        self.panic_permille = permille.min(1000);
        self.panic_after = after;
        self
    }

    /// Fires the flap hook at roughly `permille`/1000 of the points left
    /// fault-free by the panic and delay rates.
    pub fn with_flaps(mut self, permille: u32) -> FaultPlan {
        self.flap_permille = permille.min(1000);
        self
    }

    /// Pins injection point `seq` to `fault`, overriding the derived
    /// decision.
    pub fn force(mut self, seq: u64, fault: Fault) -> FaultPlan {
        self.forced.retain(|(s, _)| *s != seq);
        self.forced.push((seq, fault));
        self
    }

    /// The fault scheduled at injection point `seq` (pure).
    pub fn fault_for(&self, seq: u64) -> Fault {
        if let Some((_, f)) = self.forced.iter().find(|(s, _)| *s == seq) {
            return f.clone();
        }
        let roll = (mix(self.seed, seq) % 1000) as u32;
        if roll < self.panic_permille {
            Fault::Panic { after: self.panic_after }
        } else if roll < self.panic_permille + self.delay_permille {
            Fault::Delay(self.delay)
        } else if roll < self.panic_permille + self.delay_permille + self.flap_permille {
            Fault::Flap
        } else {
            Fault::None
        }
    }
}

/// A flap action: receives the ordinal of the flap (0 for the first
/// flap injected, 1 for the second, …) so a test can script a
/// deterministic event sequence (degrade, restore, degrade harder, …).
type FlapHook = Box<dyn Fn(u64) + Send + Sync>;

/// Interior cell for the installed flap hook (closures have no `Debug`).
#[derive(Default)]
struct HookCell(Mutex<Option<FlapHook>>);

impl std::fmt::Debug for HookCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let installed = self.0.lock().unwrap_or_else(PoisonError::into_inner).is_some();
        f.write_str(if installed { "FlapHook(installed)" } else { "FlapHook(none)" })
    }
}

/// Hands out injection points in arrival order and applies the plan's
/// fault at each one, counting what it injected.
#[derive(Debug, Default)]
pub struct FaultInjector {
    plan: FaultPlan,
    seq: AtomicU64,
    delays: AtomicU64,
    panics: AtomicU64,
    flaps: AtomicU64,
    flap_hook: HookCell,
}

impl FaultInjector {
    /// An injector executing `plan`.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector { plan, ..FaultInjector::default() }
    }

    /// Installs (or clears) the action fired by [`Fault::Flap`] points.
    /// The hook receives the flap ordinal; chaos tests use it to apply
    /// a scripted `link_event` sequence mid-serving.
    pub fn set_flap_hook(&self, hook: Option<FlapHook>) {
        *self.flap_hook.0.lock().unwrap_or_else(PoisonError::into_inner) = hook;
    }

    /// Claims the next injection point and applies its fault: sleeps for
    /// delays, panics for panics (after their `after` sleep), fires the
    /// flap hook for flaps. Counters are updated *before* the effect, so
    /// a panic is counted even though `step` never returns from it.
    pub fn step(&self) {
        let seq = self.seq.fetch_add(1, Ordering::SeqCst);
        match self.plan.fault_for(seq) {
            Fault::None => {}
            Fault::Delay(d) => {
                self.delays.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(d);
            }
            Fault::Panic { after } => {
                self.panics.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(after);
                panic!("injected fault at injection point {seq}");
            }
            Fault::Flap => {
                let ordinal = self.flaps.fetch_add(1, Ordering::SeqCst);
                let hook = self.flap_hook.0.lock().unwrap_or_else(PoisonError::into_inner);
                if let Some(h) = hook.as_ref() {
                    h(ordinal);
                }
            }
        }
    }

    /// Injection points claimed so far.
    pub fn steps(&self) -> u64 {
        self.seq.load(Ordering::SeqCst)
    }

    /// Delays injected so far.
    pub fn delays_injected(&self) -> u64 {
        self.delays.load(Ordering::SeqCst)
    }

    /// Panics injected so far.
    pub fn panics_injected(&self) -> u64 {
        self.panics.load(Ordering::SeqCst)
    }

    /// Flap points hit so far (counted whether or not a hook was
    /// installed).
    pub fn flaps_injected(&self) -> u64 {
        self.flaps.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Instant;

    #[test]
    fn schedule_is_deterministic_in_seq_not_arrival() {
        let plan = FaultPlan::new(42)
            .with_delays(300, Duration::from_millis(1))
            .with_panics(100, Duration::ZERO);
        let again = plan.clone();
        for seq in 0..256 {
            assert_eq!(plan.fault_for(seq), again.fault_for(seq));
        }
        // different seeds disagree somewhere in a reasonable window
        let other = FaultPlan::new(43)
            .with_delays(300, Duration::from_millis(1))
            .with_panics(100, Duration::ZERO);
        assert!((0..256).any(|s| plan.fault_for(s) != other.fault_for(s)));
    }

    #[test]
    fn rates_are_roughly_respected() {
        let plan = FaultPlan::new(7).with_delays(500, Duration::ZERO);
        let delays = (0..2000).filter(|&s| plan.fault_for(s) != Fault::None).count();
        assert!((700..1300).contains(&delays), "≈50% expected, got {delays}/2000");
        let quiet = FaultPlan::new(7);
        assert!((0..2000).all(|s| quiet.fault_for(s) == Fault::None));
    }

    #[test]
    fn force_overrides_and_injector_counts() {
        let plan = FaultPlan::new(0)
            .force(0, Fault::Delay(Duration::from_millis(30)))
            .force(1, Fault::Panic { after: Duration::ZERO })
            .force(1, Fault::None); // later force wins
        let inj = FaultInjector::new(plan);
        let t0 = Instant::now();
        inj.step(); // forced delay
        assert!(t0.elapsed() >= Duration::from_millis(25));
        inj.step(); // forced back to None
        assert_eq!(inj.steps(), 2);
        assert_eq!(inj.delays_injected(), 1);
        assert_eq!(inj.panics_injected(), 0);
    }

    #[test]
    fn flap_points_fire_the_hook_in_ordinal_order() {
        let inj = FaultInjector::new(
            FaultPlan::new(0).force(1, Fault::Flap).force(3, Fault::Flap),
        );
        inj.step(); // None — no flap, no hook needed yet
        let seen = std::sync::Arc::new(Mutex::new(Vec::new()));
        let sink = std::sync::Arc::clone(&seen);
        inj.set_flap_hook(Some(Box::new(move |o| sink.lock().unwrap().push(o))));
        inj.step(); // flap #0
        inj.step(); // None
        inj.step(); // flap #1
        assert_eq!(inj.flaps_injected(), 2);
        assert_eq!(*seen.lock().unwrap(), vec![0, 1]);
        inj.set_flap_hook(None);
    }

    #[test]
    fn panic_faults_panic_and_are_counted_first() {
        let inj = FaultInjector::new(
            FaultPlan::new(0).force(0, Fault::Panic { after: Duration::ZERO }),
        );
        let r = catch_unwind(AssertUnwindSafe(|| inj.step()));
        assert!(r.is_err());
        assert_eq!(inj.panics_injected(), 1);
    }
}
