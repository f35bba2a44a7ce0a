//! Offline stand-in for the `proptest` crate.
//!
//! Implements the subset of proptest this workspace's property tests use:
//! the [`Strategy`] trait with `prop_map` / `prop_flat_map` /
//! `prop_recursive` / `boxed`, range and regex-character-class strategies,
//! [`collection::vec`] / [`collection::btree_set`], tuple strategies,
//! `prop_oneof!`, `Just`, `any::<T>()`, and the `proptest!` test macro
//! with optional `#![proptest_config(...)]`.
//!
//! Differences from the real crate, by design:
//! * *basic* shrinking only: integer-range strategies shrink toward the
//!   range start, `collection::vec` strategies drop elements and shrink
//!   the survivors, and tuple/boxed strategies delegate componentwise
//!   ([`Strategy::shrink`] proposes candidates; the runner greedily keeps
//!   any candidate that still fails, bounded by [`MAX_SHRINK_ITERS`]).
//!   Mapped/flat-mapped strategies do not shrink — there is no value tree
//!   to walk back through — so properties that want minimal
//!   counterexamples should bind raw integer/`Vec` inputs;
//! * inputs are generated from a fixed per-test seed, so runs are fully
//!   reproducible without a persistence file;
//! * string strategies support only single character classes (`[...]` or
//!   `\PC`) with an optional `{m,n}` repetition — which is all the tests
//!   here use.

#![forbid(unsafe_code)]

use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// RNG

/// Deterministic generator handed to strategies (splitmix64).
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    pub fn new(seed: u64) -> Self {
        TestRng { state: seed ^ 0x5851_f42d_4c95_7f2d }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }
}

/// FNV-1a hash of a test path, used as the per-test base seed.
pub fn fnv(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Config

/// Runner configuration (only `cases` is honored).
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // The real default is 256; 64 keeps simulation-heavy properties
        // fast while still exploring a meaningful input space.
        ProptestConfig { cases: 64 }
    }
}

// ---------------------------------------------------------------------------
// Strategy

/// Cap on total shrink attempts per failing case.
pub const MAX_SHRINK_ITERS: usize = 256;

/// A generator of random values of one type.
pub trait Strategy {
    type Value;

    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Candidate simplifications of `value`, most aggressive first. The
    /// default is no shrinking; integer ranges, `collection::vec` and
    /// tuples override it.
    fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }

    fn prop_map<T, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> T,
    {
        Map { inner: self, f }
    }

    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }

    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Arc::new(self))
    }

    /// Bounded recursive strategies: at each of `depth` levels the result
    /// is either the base strategy or one application of `branch` to the
    /// previous level (the `_desired_size` / `_expected_branch` tuning
    /// knobs of the real crate are accepted and ignored).
    fn prop_recursive<F, R>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch: u32,
        branch: F,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        F: Fn(BoxedStrategy<Self::Value>) -> R,
        R: Strategy<Value = Self::Value> + 'static,
    {
        let leaf = self.boxed();
        let mut strat = leaf.clone();
        for _ in 0..depth {
            let deeper = branch(strat).boxed();
            strat = Union::new(vec![leaf.clone(), deeper]).boxed();
        }
        strat
    }
}

/// A clonable type-erased strategy.
pub struct BoxedStrategy<T>(Arc<dyn Strategy<Value = T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Arc::clone(&self.0))
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.generate(rng)
    }
    fn shrink(&self, value: &T) -> Vec<T> {
        self.0.shrink(value)
    }
}

/// Always produces a clone of its value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// `prop_map` adapter.
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, T, F: Fn(S::Value) -> T> Strategy for Map<S, F> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.f)(self.inner.generate(rng))
    }
}

/// `prop_flat_map` adapter.
pub struct FlatMap<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, S2: Strategy, F: Fn(S::Value) -> S2> Strategy for FlatMap<S, F> {
    type Value = S2::Value;
    fn generate(&self, rng: &mut TestRng) -> S2::Value {
        (self.f)(self.inner.generate(rng)).generate(rng)
    }
}

/// Uniform choice between boxed alternatives (`prop_oneof!`).
pub struct Union<T> {
    arms: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let k = rng.below(self.arms.len());
        self.arms[k].generate(rng)
    }
}

// Ranges --------------------------------------------------------------------

macro_rules! impl_range_strategy_int {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u128;
                let v = (rng.next_u64() as u128) % span;
                (self.start as i128 + v as i128) as $t
            }
            /// Shrinks toward the range start: the start itself, the
            /// midpoint, and one step down — enough for the greedy
            /// runner to bisect to a minimal failing value.
            fn shrink(&self, value: &$t) -> Vec<$t> {
                let (lo, v) = (self.start as i128, *value as i128);
                let mut out = Vec::new();
                if v <= lo {
                    return out;
                }
                out.push(self.start);
                let mid = lo + (v - lo) / 2;
                if mid > lo && mid < v {
                    out.push(mid as $t);
                }
                if v - 1 > lo && v - 1 != mid {
                    out.push((v - 1) as $t);
                }
                out
            }
        }
    )*};
}

impl_range_strategy_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_range_strategy_float {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let (a, b) = (self.start as f64, self.end as f64);
                let v = a + rng.unit() * (b - a);
                if v >= b { self.start } else { v as $t }
            }
        }
    )*};
}

impl_range_strategy_float!(f32, f64);

// Strings -------------------------------------------------------------------

/// `&str` strategies are regex patterns. Supported grammar: one character
/// class (`[...]` with escapes and ranges, or `\PC` for "any printable")
/// followed by an optional `{min,max}` repetition.
impl Strategy for &'static str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let (pool, min, max) = parse_pattern(self);
        let len = min + rng.below(max - min + 1);
        (0..len).map(|_| pool[rng.below(pool.len())]).collect()
    }
}

fn parse_pattern(pattern: &str) -> (Vec<char>, usize, usize) {
    let mut chars = pattern.chars().peekable();
    let pool: Vec<char> = match chars.peek() {
        Some('[') => {
            chars.next();
            let mut pool = Vec::new();
            let mut pending: Option<char> = None;
            loop {
                let c = chars.next().unwrap_or_else(|| {
                    panic!("unterminated character class in pattern {pattern:?}")
                });
                match c {
                    ']' => {
                        pool.extend(pending.take());
                        break;
                    }
                    '\\' => {
                        pool.extend(pending.take());
                        pending = Some(chars.next().expect("dangling escape"));
                    }
                    '-' if pending.is_some() && chars.peek() != Some(&']') => {
                        let lo = pending.take().unwrap();
                        let hi = chars.next().unwrap();
                        assert!(lo <= hi, "bad range {lo}-{hi} in pattern {pattern:?}");
                        pool.extend((lo as u32..=hi as u32).filter_map(char::from_u32));
                    }
                    c => {
                        pool.extend(pending.take());
                        pending = Some(c);
                    }
                }
            }
            pool
        }
        Some('\\') => {
            // \PC ("not a control character"): a representative mixed pool
            // of ASCII, multi-byte and astral characters.
            chars.next();
            assert_eq!(chars.next(), Some('P'), "unsupported escape in {pattern:?}");
            assert_eq!(chars.next(), Some('C'), "unsupported escape in {pattern:?}");
            let mut pool: Vec<char> = (' '..='~').collect();
            pool.extend("éπñ日本語мир😀🚀«»".chars());
            pool
        }
        _ => panic!("unsupported pattern {pattern:?}"),
    };
    assert!(!pool.is_empty(), "empty character class in pattern {pattern:?}");

    let rest: String = chars.collect();
    if rest.is_empty() {
        return (pool, 1, 1);
    }
    let inner = rest
        .strip_prefix('{')
        .and_then(|r| r.strip_suffix('}'))
        .unwrap_or_else(|| panic!("unsupported quantifier {rest:?} in {pattern:?}"));
    let (lo, hi) = inner.split_once(',').unwrap_or((inner, inner));
    let min: usize = lo.trim().parse().expect("bad repetition bound");
    let max: usize = hi.trim().parse().expect("bad repetition bound");
    assert!(min <= max, "bad repetition {{{inner}}} in {pattern:?}");
    (pool, min, max)
}

// Tuples --------------------------------------------------------------------

macro_rules! impl_tuple_strategy {
    ($($name:ident $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+)
        where
            $($name::Value: Clone),+
        {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
            /// Componentwise shrinking: each position's candidates with
            /// the sibling values held fixed.
            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink(&value.$idx) {
                        let mut c = value.clone();
                        c.$idx = cand;
                        out.push(c);
                    }
                )+
                out
            }
        }
    };
}

impl_tuple_strategy!(A 0);
impl_tuple_strategy!(A 0, B 1);
impl_tuple_strategy!(A 0, B 1, C 2);
impl_tuple_strategy!(A 0, B 1, C 2, D 3);
impl_tuple_strategy!(A 0, B 1, C 2, D 3, E 4);
impl_tuple_strategy!(A 0, B 1, C 2, D 3, E 4, F 5);

// any -----------------------------------------------------------------------

/// Types with a canonical full-domain strategy.
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // finite, sign-symmetric, wide dynamic range
        let m = rng.unit() * 2.0 - 1.0;
        let e = rng.below(61) as i32 - 30;
        m * (2f64).powi(e)
    }
}

/// Full-domain strategy for `T`.
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

// Collections ---------------------------------------------------------------

pub mod collection {
    use super::{BTreeSet, Strategy, TestRng};
    use std::ops::{Range, RangeInclusive};

    /// Size specification for collection strategies.
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        pub min: usize,
        pub max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange { min: r.start, max: r.end - 1 }
        }
    }

    impl From<RangeInclusive<usize>> for SizeRange {
        fn from(r: RangeInclusive<usize>) -> Self {
            SizeRange { min: *r.start(), max: *r.end() }
        }
    }

    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy { elem, size: size.into() }
    }

    impl<S: Strategy> Strategy for VecStrategy<S>
    where
        S::Value: Clone,
    {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.min + rng.below(self.size.max - self.size.min + 1);
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
        /// Shorter vectors first (drop the tail half, then single
        /// elements), then elementwise shrinks — so a failing 200-step
        /// history collapses to the few steps that matter.
        fn shrink(&self, value: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
            let n = value.len();
            let min = self.size.min;
            let mut out = Vec::new();
            if n > min {
                let keep = (n / 2).max(min);
                if keep < n {
                    out.push(value[..keep].to_vec());
                }
                for i in (0..n).rev().take(16) {
                    let mut c = value.clone();
                    c.remove(i);
                    out.push(c);
                }
            }
            for (i, v) in value.iter().enumerate().take(16) {
                for cand in self.elem.shrink(v).into_iter().take(3) {
                    let mut c = value.clone();
                    c[i] = cand;
                    out.push(c);
                }
            }
            out
        }
    }

    pub struct BTreeSetStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    pub fn btree_set<S>(elem: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
    where
        S: Strategy,
        S::Value: Ord,
    {
        BTreeSetStrategy { elem, size: size.into() }
    }

    impl<S: Strategy> Strategy for BTreeSetStrategy<S>
    where
        S::Value: Ord,
    {
        type Value = BTreeSet<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
            let target = self.size.min + rng.below(self.size.max - self.size.min + 1);
            let mut set = BTreeSet::new();
            // The element domain may be smaller than `target`; cap the
            // attempts so exhausted domains return a best-effort set.
            let mut attempts = 0;
            while set.len() < target && attempts < 50 * (target + 1) {
                set.insert(self.elem.generate(rng));
                attempts += 1;
            }
            set
        }
    }
}

// Shrinking runner ----------------------------------------------------------

/// Greedily minimizes a failing input: repeatedly asks the strategy for
/// candidates and keeps the first one that still fails, until no
/// candidate fails or the attempt budget runs out. `failing` must return
/// `true` for `input` (and for whatever it returns). The default panic
/// hook is silenced for the duration — every probed candidate that still
/// fails would otherwise spray a panic report.
pub fn shrink_to_minimal<S: Strategy>(
    strategy: &S,
    mut input: S::Value,
    failing: impl Fn(&S::Value) -> bool,
) -> S::Value {
    // The panic hook is process-global and the default test harness runs
    // tests on several threads: serialize the swap/restore so two
    // concurrently shrinking properties can't capture each other's
    // silent hook and leave it installed forever.
    static HOOK_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _guard = HOOK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut budget = MAX_SHRINK_ITERS;
    'outer: while budget > 0 {
        for cand in strategy.shrink(&input) {
            if budget == 0 {
                break;
            }
            budget -= 1;
            if failing(&cand) {
                input = cand;
                continue 'outer;
            }
        }
        break;
    }
    std::panic::set_hook(prev_hook);
    input
}

/// The `proptest!` runner: generates `config.cases` inputs from the
/// per-test seed, and on the first failing case shrinks it to a minimal
/// failing input before re-running it unprotected — so the panic that
/// surfaces carries the real assertion message *and* the minimal input
/// has been printed to stderr.
pub fn run_cases<S: Strategy>(
    test_path: &str,
    config: ProptestConfig,
    strategy: &S,
    run: impl Fn(&S::Value) -> Result<(), String>,
) where
    S::Value: Clone + std::fmt::Debug,
{
    let base = fnv(test_path);
    let fails = |vals: &S::Value| -> bool {
        !matches!(
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(vals))),
            Ok(Ok(()))
        )
    };
    for case in 0..config.cases {
        let mut rng =
            TestRng::new(base ^ (case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let input = strategy.generate(&mut rng);
        if !fails(&input) {
            continue;
        }
        let minimal = shrink_to_minimal(strategy, input, fails);
        eprintln!("proptest case {case} of {test_path} failed; shrunk input: {minimal:?}");
        if let Err(e) = run(&minimal) {
            panic!("property failed on case {case} (shrunk input above): {e}");
        }
        panic!(
            "property failed on case {case} but its shrunk input passed on rerun — \
             the body is nondeterministic"
        );
    }
}

// Macros --------------------------------------------------------------------

#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($arm)),+])
    };
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($cfg:expr)
      $( $(#[$meta:meta])*
         fn $name:ident( $($pat:pat in $strat:expr),* $(,)? ) $body:block
      )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                // One tuple strategy over all bindings, so failing cases
                // can shrink componentwise.
                let strategy = ($($strat,)*);
                $crate::run_cases(
                    concat!(module_path!(), "::", stringify!($name)),
                    $cfg,
                    &strategy,
                    // The inner closure lets a test body bail early with
                    // `return Ok(());` as real proptest allows.
                    |__vals| {
                        let ($($pat,)*) = ::std::clone::Clone::clone(__vals);
                        #[allow(clippy::redundant_closure_call)]
                        (|| { $body Ok(()) })()
                    },
                );
            }
        )*
    };
}

/// Everything the tests import.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest,
        shrink_to_minimal, Arbitrary, BoxedStrategy, Just, ProptestConfig, Strategy, TestRng,
        Union, MAX_SHRINK_ITERS,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_and_tuples_generate_in_bounds() {
        let mut rng = TestRng::new(1);
        let s = (1usize..6, 0.5f64..2.0);
        for _ in 0..200 {
            let (n, x) = s.generate(&mut rng);
            assert!((1..6).contains(&n));
            assert!((0.5..2.0).contains(&x));
        }
    }

    #[test]
    fn char_class_patterns_generate_members() {
        let mut rng = TestRng::new(2);
        for _ in 0..100 {
            let s = "[a-c]{1,6}".generate(&mut rng);
            assert!((1..=6).contains(&s.chars().count()), "{s:?}");
            assert!(s.chars().all(|c| ('a'..='c').contains(&c)), "{s:?}");
        }
        let escaped = r#"[a\-\.\"\\/]{0,12}"#.generate(&mut rng);
        assert!(escaped.chars().all(|c| "a-.\"\\/".contains(c)), "{escaped:?}");
        let any = r"\PC{0,64}".generate(&mut rng);
        assert!(any.chars().count() <= 64);
    }

    #[test]
    fn int_range_shrinks_toward_start() {
        let s = 3u32..100;
        assert!(s.shrink(&3).is_empty(), "start value is already minimal");
        let cands = s.shrink(&80);
        assert_eq!(cands[0], 3, "range start first");
        assert!(cands.contains(&41), "midpoint: {cands:?}");
        assert!(cands.contains(&79), "one step down: {cands:?}");
        let signed = (-10i64..10).shrink(&-10);
        assert!(signed.is_empty());
    }

    #[test]
    fn vec_strategy_shrinks_shorter_and_elementwise() {
        let s = collection::vec(0u32..100, 1..10);
        let v = vec![5u32, 80, 7];
        let cands = s.shrink(&v);
        assert!(cands.contains(&vec![5]), "tail-half drop: {cands:?}");
        assert!(cands.contains(&vec![5, 80]), "single-element drop: {cands:?}");
        assert!(cands.contains(&vec![0, 80, 7]), "elementwise shrink: {cands:?}");
        // min size is respected
        let s1 = collection::vec(0u32..100, 3..=3);
        assert!(s1.shrink(&v).iter().all(|c| c.len() == 3));
    }

    #[test]
    fn shrink_to_minimal_finds_small_counterexample() {
        // "Fails" when any element reaches 10: the unique minimal failing
        // input under this strategy is the one-element vector [10].
        let strat = (collection::vec(0u32..100, 0..20),);
        let failing = |v: &(Vec<u32>,)| v.0.iter().any(|&x| x >= 10);
        let input = (vec![3u32, 50, 7, 99, 2],);
        assert!(failing(&input));
        let minimal = shrink_to_minimal(&strat, input, failing);
        assert!(failing(&minimal), "shrinking must preserve failure");
        assert_eq!(minimal.0, vec![10], "greedy shrink should reach the minimum");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        #[test]
        #[should_panic(expected = "property failed")]
        fn failing_property_panics_after_shrinking(v in collection::vec(0u32..100, 0..30)) {
            // Most generated cases contain an element ≥ 50, so this fails
            // fast, shrinks, and re-raises through the runner.
            if v.iter().any(|&x| x >= 50) {
                return Err("element out of tolerance".to_string());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_binds_patterns((a, b) in (0u32..10, 0u32..10), v in collection::vec(0i64..5, 1..4)) {
            prop_assert!(a < 10 && b < 10);
            prop_assert!(!v.is_empty() && v.len() < 4);
            if v.len() == 1 {
                return Ok(());
            }
            prop_assert!(v.iter().all(|x| (0..5).contains(x)));
        }

        #[test]
        fn oneof_and_recursive_terminate(x in prop_oneof![Just(-1i64), 0i64..10]) {
            prop_assert!(x == -1 || (0..10).contains(&x));
        }
    }
}
