//! The property-test runner: strategies, the choices they draw, and the
//! shrinker that edits those choices.

use std::cell::Cell;
use std::collections::BTreeSet;
use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Once};

use crate::{SmallRng, Uniform};

/// Where a strategy's choices come from: `prefix` replayed, then `rng`,
/// or zeros when there is none (a shrink candidate). All are recorded.
pub struct Source {
    prefix: Vec<u64>,
    rng: Option<SmallRng>,
    record: Vec<u64>,
}

impl Source {
    /// The next choice, in `0..=max`. Zero is the simplest: a range's
    /// start, a collection's end, the first arm. A replayed choice above
    /// `max` reads as `max`.
    pub(crate) fn choose(&mut self, max: u64) -> u64 {
        let v = match (self.prefix.get(self.record.len()), &mut self.rng) {
            (Some(&v), _) => v.min(max),
            (None, Some(rng)) => (rng.next_u64() as u128 % (max as u128 + 1)) as u64,
            (None, None) => 0,
        };
        self.record.push(v);
        v
    }

    /// Whether a collection of `len` elements, sized `min..=max`, takes
    /// another: past `min`, a choice in `0..=max - len` that stops at zero,
    /// so generated lengths are uniform and shrinking shortens.
    fn another(&mut self, len: usize, (min, max): (usize, usize)) -> bool {
        len < min || (len < max && self.choose((max - len) as u64) != 0)
    }
}

/// How many cases a property runs (64 unless configured).
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// A generator of values drawn from a [`Source`]; every
/// `Fn(&mut Source) -> T` is one.
pub trait Strategy: Sized {
    type Value;
    fn draw(&self, src: &mut Source) -> Self::Value;

    fn prop_map<T>(self, f: impl Fn(Self::Value) -> T) -> impl Strategy<Value = T> {
        move |src: &mut Source| f(self.draw(src))
    }

    fn prop_flat_map<S: Strategy>(
        self,
        f: impl Fn(Self::Value) -> S,
    ) -> impl Strategy<Value = S::Value> {
        move |src: &mut Source| f(self.draw(src)).draw(src)
    }

    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: 'static,
    {
        Arc::new(move |src: &mut Source| self.draw(src))
    }

    /// `depth` levels, each the base strategy (first, so shrinking heads
    /// for it) or `branch` of the level below; the size hints are ignored.
    fn prop_recursive<R, F>(
        self,
        depth: u32,
        _: u32,
        _: u32,
        branch: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: 'static,
        R: Strategy<Value = Self::Value> + 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> R,
    {
        let leaf = self.boxed();
        (0..depth).fold(leaf.clone(), |below, _| {
            one_of(vec![leaf.clone(), branch(below).boxed()]).boxed()
        })
    }
}

impl<T, F: Fn(&mut Source) -> T> Strategy for F {
    type Value = T;
    fn draw(&self, src: &mut Source) -> T {
        self(src)
    }
}

pub type BoxedStrategy<T> = Arc<dyn Fn(&mut Source) -> T>;

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn draw(&self, src: &mut Source) -> T {
        self(src)
    }
}

#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn draw(&self, _: &mut Source) -> T {
        self.0.clone()
    }
}

/// One of `arms` (`prop_oneof!`), the first the simplest.
pub fn one_of<T>(arms: Vec<BoxedStrategy<T>>) -> impl Strategy<Value = T> {
    move |src: &mut Source| arms[src.choose(arms.len() as u64 - 1) as usize].draw(src)
}

macro_rules! range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn draw(&self, src: &mut Source) -> $t {
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + src.choose(span.checked_sub(1).expect("empty range")) as i128) as $t
            }
        }
    )*};
}

range_strategy!(u8, u32, u64, usize, i64);

impl Strategy for Range<f64> {
    type Value = f64;
    fn draw(&self, src: &mut Source) -> f64 {
        assert!(self.start < self.end, "empty range");
        f64::sample(self.clone(), src.choose((1 << 53) - 1) << 11)
    }
}

/// A pattern: one character class, `[...]` with escapes and ranges or
/// `\PC` (printable), then an optional `{min,max}`.
impl Strategy for &'static str {
    type Value = String;
    fn draw(&self, src: &mut Source) -> String {
        let (class, reps) = self.split_at(self.rfind('{').unwrap_or(self.len()));
        let reps = if reps.is_empty() { "1" } else { reps.trim_matches(['{', '}']) };
        let (min, max) = reps.split_once(',').unwrap_or((reps, reps));
        let mut pool: Vec<char> = Vec::new();
        if class == r"\PC" {
            pool.extend((' '..='~').chain("éπñ日本語мир😀🚀«»".chars()));
        }
        let class = class.strip_prefix('[').and_then(|c| c.strip_suffix(']')).unwrap_or("");
        let mut chars = class.chars().peekable();
        while let Some(c) = chars.next() {
            let c = if c == '\\' { chars.next().expect("dangling escape") } else { c };
            match chars.next_if_eq(&'-').and_then(|_| chars.next()) {
                Some(hi) => pool.extend(c..=hi),
                None => pool.push(c),
            }
        }
        assert!(!pool.is_empty(), "unsupported pattern {self:?}");
        let char = |src: &mut Source| pool[src.choose(pool.len() as u64 - 1) as usize];
        let size = min.parse().expect("repetition")..=max.parse().expect("repetition");
        let chars = collection::vec(char, size).draw(src);
        chars.into_iter().collect()
    }
}

macro_rules! tuple_strategy {
    () => {};
    ($head:ident $($tail:ident)*) => {
        #[allow(non_snake_case)]
        impl<$head: Strategy, $($tail: Strategy),*> Strategy for ($head, $($tail,)*) {
            type Value = ($head::Value, $($tail::Value,)*);
            fn draw(&self, src: &mut Source) -> Self::Value {
                let ($head, $($tail,)*) = self;
                ($head.draw(src), $($tail.draw(src),)*)
            }
        }
        tuple_strategy!($($tail)*);
    };
}

tuple_strategy!(A B C D E F);

/// The full-domain strategy of `bool` or `u64`.
pub fn any<T: Arbitrary>() -> impl Strategy<Value = T> {
    T::arbitrary
}

pub trait Arbitrary {
    fn arbitrary(src: &mut Source) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(src: &mut Source) -> bool {
        src.choose(1) == 1
    }
}

impl Arbitrary for u64 {
    fn arbitrary(src: &mut Source) -> u64 {
        src.choose(u64::MAX)
    }
}

pub mod collection {
    use super::{BTreeSet, Range, RangeInclusive, Source, Strategy};

    /// A collection's size: `n`, `min..max` or `min..=max`.
    pub trait Size {
        fn bounds(self) -> (usize, usize);
    }

    impl Size for usize {
        fn bounds(self) -> (usize, usize) {
            (self, self)
        }
    }

    impl Size for Range<usize> {
        fn bounds(self) -> (usize, usize) {
            (self.start, self.end - 1)
        }
    }

    impl Size for RangeInclusive<usize> {
        fn bounds(self) -> (usize, usize) {
            self.into_inner()
        }
    }

    pub fn vec<S: Strategy>(elem: S, size: impl Size) -> impl Strategy<Value = Vec<S::Value>> {
        let size = size.bounds();
        move |src: &mut Source| {
            let mut out = Vec::new();
            while src.another(out.len(), size) {
                out.push(elem.draw(src));
            }
            out
        }
    }

    /// A vec's worth of elements: duplicates collapse, so a set can come
    /// out smaller than `size`.
    pub fn btree_set<S>(elem: S, size: impl Size) -> impl Strategy<Value = BTreeSet<S::Value>>
    where
        S: Strategy<Value: Ord>,
    {
        vec(elem, size).prop_map(BTreeSet::from_iter)
    }
}

/// `strategy` drawn with `prefix` replayed and zeros after it: the value
/// and the choices it made.
fn replay<S: Strategy>(strategy: &S, prefix: &[u64]) -> (S::Value, Vec<u64>) {
    let mut src = Source { prefix: prefix.to_vec(), rng: None, record: Vec::new() };
    (strategy.draw(&mut src), src.record)
}

/// Shrinks the failing choices `best`. `fails` replays a candidate and,
/// if the test still fails, returns the choices the replay made; they
/// replace `best` when shortlex-smaller (shorter, or as long and
/// lexicographically smaller), so the passes end. A budget of 4096 runs
/// bounds the work.
fn shrink(mut best: Vec<u64>, mut fails: impl FnMut(&[u64]) -> Option<Vec<u64>>) -> Vec<u64> {
    let mut runs = 0;
    let mut keep = |best: &mut Vec<u64>, cand: Vec<u64>| {
        runs += 1;
        let rec = (runs <= 4096).then(|| fails(&cand)).flatten();
        let Some(rec) = rec.filter(|rec| (rec.len(), rec) < (best.len(), &*best)) else {
            return false;
        };
        *best = rec;
        true
    };
    loop {
        let before = best.clone();
        for k in [8, 4, 2, 1] {
            // Delete each block of `k`, last first. If that passes, also
            // lower one of the two choices before it: counts drawn ahead of
            // what they count (`prop_flat_map`) shrink with it.
            for i in (0..best.len().saturating_sub(k - 1)).rev() {
                let Some(after) = best.get(i + k..) else {
                    continue;
                };
                let cand = [&best[..i], after].concat();
                if keep(&mut best, cand.clone()) {
                    continue;
                }
                for j in (i.saturating_sub(2)..i).rev().filter(|&j| cand[j] > 0) {
                    let mut lowered = cand.clone();
                    lowered[j] -= 1;
                    if keep(&mut best, lowered) {
                        break;
                    }
                }
            }
            for i in 0..best.len().saturating_sub(k - 1) {
                if best.get(i..i + k).is_some_and(|b| b.iter().any(|&c| c != 0)) {
                    let mut cand = best.clone();
                    cand[i..i + k].fill(0);
                    keep(&mut best, cand);
                }
            }
        }
        // Binary-search each choice down to the least that still fails.
        for i in 0..best.len() {
            let mut lo = 0;
            while i < best.len() && lo < best[i] {
                let mid = lo + (best[i] - lo) / 2;
                let mut cand = best.clone();
                cand[i] = mid;
                if !keep(&mut best, cand) {
                    lo = mid + 1;
                }
            }
        }
        if best == before {
            return best;
        }
    }
}

thread_local!(static QUIET: Cell<bool> = const { Cell::new(false) });

/// Draws `config.cases` cases from the seed of `test_path` and shrinks
/// the first on which `fails` holds: its number and minimal choices.
/// Meanwhile this thread's panics go unreported: each failing replay
/// would print one.
fn search<S, F>(
    test_path: &str,
    config: ProptestConfig,
    strategy: &S,
    fails: F,
) -> Option<(u32, Vec<u64>)>
where
    S: Strategy,
    F: Fn(S::Value) -> bool,
{
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let report = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !QUIET.get() {
                report(info)
            }
        }));
    });
    let quiet = QUIET.replace(true);
    let seed = test_path
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3));
    let found = (0..config.cases).find_map(|case| {
        let rng = SmallRng::seed_from_u64(seed ^ (case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut src = Source { prefix: Vec::new(), rng: Some(rng), record: Vec::new() };
        fails(strategy.draw(&mut src)).then(|| {
            let replay_fails = |cand: &[u64]| {
                let (value, record) = replay(strategy, cand);
                fails(value).then_some(record)
            };
            (case, shrink(src.record, replay_fails))
        })
    });
    QUIET.set(quiet);
    found
}

/// The shrunk input on which `fails` holds, or `None` if it holds on none
/// of the cases: a failure a test can inspect instead of a panic.
pub fn minimal_failure<S, F>(
    test_path: &str,
    config: ProptestConfig,
    strategy: &S,
    fails: F,
) -> Option<S::Value>
where
    S: Strategy,
    F: Fn(&S::Value) -> bool,
{
    let (_, choices) = search(test_path, config, strategy, |value| fails(&value))?;
    Some(replay(strategy, &choices).0)
}

/// The `proptest!` runner: a case fails when `run` errs or panics. The
/// first failure is shrunk, printed and run again unprotected, so the
/// panic carries the real assertion message.
pub fn run_cases<S, F>(test_path: &str, config: ProptestConfig, strategy: &S, run: F)
where
    S: Strategy<Value: Debug>,
    F: Fn(S::Value) -> Result<(), String>,
{
    let fails = |value| !matches!(catch_unwind(AssertUnwindSafe(|| run(value))), Ok(Ok(())));
    let Some((case, choices)) = search(test_path, config, strategy, fails) else {
        return;
    };
    let shrunk = replay(strategy, &choices).0;
    eprintln!("proptest case {case} of {test_path} failed; shrunk input: {shrunk:?}");
    if let Err(e) = run(replay(strategy, &choices).0) {
        panic!("property failed on case {case} (shrunk input above): {e}");
    }
    panic!("property failed on case {case}, but not on its shrunk input run again: the body is nondeterministic");
}

#[macro_export]
macro_rules! prop_assert { ($($t:tt)*) => { assert!($($t)*) }; }

#[macro_export]
macro_rules! prop_assert_eq { ($($t:tt)*) => { assert_eq!($($t)*) }; }

#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => { $crate::one_of(vec![$($crate::Strategy::boxed($arm)),+]) };
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => { $crate::__proptest_impl! { ($cfg) $($rest)* } };
    ($($rest:tt)*) => { $crate::__proptest_impl! { ($crate::ProptestConfig::with_cases(64)) $($rest)* } };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr) $($(#[$meta:meta])* fn $name:ident($($pat:pat in $strat:expr),* $(,)?) $body:block)*) => {$(
        $(#[$meta])*
        fn $name() {
            let path = concat!(module_path!(), "::", stringify!($name));
            // the inner closure lets a body return `Ok(())` early
            #[allow(clippy::redundant_closure_call)]
            $crate::run_cases(path, $cfg, &($($strat,)*), |($($pat,)*)| (|| { $body Ok(()) })());
        }
    )*};
}

/// Everything the property tests import.
pub mod prelude {
    pub use crate::{any, collection, prop_assert, prop_assert_eq, prop_oneof, proptest};
    pub use crate::{Just, ProptestConfig, Strategy};
}
