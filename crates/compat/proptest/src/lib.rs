//! Offline stand-in for the parts of `proptest` this workspace uses.
//!
//! It keeps the call-site syntax of real proptest — the `proptest!` macro
//! with `arg in strategy` bindings, `prop_assert!`/`prop_assert_eq!`,
//! `prop_oneof!`, `Just`, `any::<T>()`, `proptest::collection::vec` and
//! `ProptestConfig::with_cases` — but runs each property as a fixed number
//! of deterministically seeded random cases, without shrinking. Seeds
//! derive from the property name, so failures reproduce across runs.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::fmt;
use std::marker::PhantomData;
use std::ops::Range;

/// The RNG driving case generation.
pub type TestRng = StdRng;

/// Creates the deterministic RNG for one property, seeded from its name.
pub fn test_rng(name: &str) -> TestRng {
    // FNV-1a over the property name: stable across runs and builds.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    StdRng::seed_from_u64(h)
}

/// Per-property configuration. Only the case count is honoured.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases to run.
    pub cases: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 256 }
    }
}

impl ProptestConfig {
    /// A configuration running `cases` random cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// A failed (or rejected) test case.
#[derive(Clone, Debug)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// A test-case failure with the given message.
    pub fn fail<M: Into<String>>(message: M) -> Self {
        TestCaseError(message.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A source of random values of one type.
///
/// Unlike real proptest this is sampling-only (no shrink trees); the
/// generic parameter is the concrete [`TestRng`] so strategies stay
/// object-safe for [`prop_oneof!`].
pub trait Strategy {
    /// The type of value this strategy produces.
    type Value;
    /// Draws one random value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (**self).sample(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;
    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        (**self).sample(rng)
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(u8, u16, u32, u64, usize);

/// Uniform values of a type, with occasional corner values for integers.
pub struct Any<T>(PhantomData<T>);

/// `any::<T>()` — the strategy of all values of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

/// Types [`any`] can produce.
pub trait Arbitrary {
    /// Draws one value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty => [$($corner:expr),*]);* $(;)?) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                // One case in eight is a corner value, where carry and
                // sign bugs live.
                const CORNERS: &[$t] = &[$($corner),*];
                if rng.gen_ratio(1, 8) {
                    CORNERS[rng.gen_range(0..CORNERS.len())]
                } else {
                    rng.next_u64() as $t
                }
            }
        }
    )*};
}
impl_arbitrary_int! {
    u8  => [0, 1, u8::MAX];
    u16 => [0, 1, u16::MAX];
    u32 => [0, 1, u32::MAX];
    u64 => [0, 1, u64::MAX, u64::MAX - 1, 1 << 63];
    i32 => [0, 1, -1, i32::MIN, i32::MAX];
    i64 => [0, 1, -1, i64::MIN, i64::MAX];
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.gen()
    }
}

/// String strategies: a `&str` pattern is treated as a (very small) regex
/// subset. `.{lo,hi}` — the only form the workspace uses — yields strings
/// of `lo..=hi` random chars; anything else falls back to short random
/// ASCII strings.
impl Strategy for &str {
    type Value = String;
    fn sample(&self, rng: &mut TestRng) -> String {
        let (lo, hi) = parse_dot_repeat(self).unwrap_or((0, 32));
        let len = rng.gen_range(lo..=hi);
        let mut out = String::new();
        for _ in 0..len {
            // Mostly printable ASCII (what a DSL lexer actually sees),
            // with occasional arbitrary unicode to probe char handling.
            let c = if rng.gen_ratio(1, 16) {
                char::from_u32(rng.gen_range(0u32..=0x10FFFF)).unwrap_or('\u{FFFD}')
            } else {
                char::from_u32(rng.gen_range(0x09u32..0x7F)).unwrap_or(' ')
            };
            out.push(c);
        }
        out
    }
}

fn parse_dot_repeat(pattern: &str) -> Option<(usize, usize)> {
    let rest = pattern.strip_prefix(".{")?;
    let rest = rest.strip_suffix('}')?;
    let (lo, hi) = rest.split_once(',')?;
    Some((lo.trim().parse().ok()?, hi.trim().parse().ok()?))
}

/// Uniform choice between boxed strategies — the target of [`prop_oneof!`].
pub struct OneOf<V> {
    strategies: Vec<Box<dyn Strategy<Value = V>>>,
}

impl<V> OneOf<V> {
    /// A strategy drawing uniformly from `strategies`.
    ///
    /// # Panics
    ///
    /// Panics if `strategies` is empty.
    pub fn new(strategies: Vec<Box<dyn Strategy<Value = V>>>) -> Self {
        assert!(!strategies.is_empty(), "prop_oneof! needs at least one arm");
        OneOf { strategies }
    }
}

impl<V> Strategy for OneOf<V> {
    type Value = V;
    fn sample(&self, rng: &mut TestRng) -> V {
        let i = rng.gen_range(0..self.strategies.len());
        self.strategies[i].sample(rng)
    }
}

/// Collection strategies, mirroring `proptest::collection`.
pub mod collection {
    use super::{Strategy, TestRng};
    use rand::Rng;
    use std::ops::Range;

    /// Vectors of `size` elements drawn from `element`.
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, size }
    }

    /// The strategy returned by [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = rng.gen_range(self.size.clone());
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `config.cases` deterministic random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = ($crate::ProptestConfig::default()); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = ($cfg:expr); $(
        $(#[$meta:meta])*
        fn $name:ident ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::test_rng(stringify!($name));
            for __case in 0..__config.cases {
                $(let $arg = $crate::Strategy::sample(&($strat), &mut __rng);)+
                let __outcome: ::core::result::Result<(), $crate::TestCaseError> = (|| {
                    $body
                    ::core::result::Result::Ok(())
                })();
                if let ::core::result::Result::Err(__e) = __outcome {
                    ::core::panic!(
                        "proptest {} failed at case {}/{}: {}",
                        stringify!($name),
                        __case + 1,
                        __config.cases,
                        __e
                    );
                }
            }
        }
    )*};
}

/// `assert!` that reports through proptest's error channel.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// `assert_eq!` that reports through proptest's error channel.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l == *__r,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($left),
            stringify!($right),
            __l,
            __r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(*__l == *__r, $($fmt)+);
    }};
}

/// `assert_ne!` that reports through proptest's error channel.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (__l, __r) = (&$left, &$right);
        $crate::prop_assert!(
            *__l != *__r,
            "assertion failed: {} != {}\n  both: {:?}",
            stringify!($left),
            stringify!($right),
            __l
        );
    }};
}

/// Uniform choice between strategies yielding the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {{
        let __arms: ::std::vec::Vec<::std::boxed::Box<dyn $crate::Strategy<Value = _>>> =
            vec![$(::std::boxed::Box::new($strat)),+];
        $crate::OneOf::new(__arms)
    }};
}

/// The commonly used re-exports, mirroring `proptest::prelude`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest, Arbitrary, Just,
        ProptestConfig, Strategy, TestCaseError,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_sample_in_bounds(x in 3u32..9, y in 1usize..4) {
            prop_assert!((3..9).contains(&x));
            prop_assert!((1..4).contains(&y));
        }

        #[test]
        fn oneof_and_vec_compose(
            items in crate::collection::vec(
                prop_oneof![Just("a".to_string()), Just("b".to_string())],
                0..10,
            )
        ) {
            prop_assert!(items.len() < 10);
            for item in &items {
                prop_assert!(item == "a" || item == "b");
            }
        }

        #[test]
        fn string_pattern_respects_bounds(s in ".{0,20}") {
            prop_assert!(s.chars().count() <= 20);
        }
    }

    #[test]
    fn deterministic_across_reseeds() {
        let mut a = crate::test_rng("k");
        let mut b = crate::test_rng("k");
        let s = crate::any::<u64>();
        for _ in 0..32 {
            assert_eq!(s.sample(&mut a), s.sample(&mut b));
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failures_panic_with_case_number() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2))]
            #[allow(unused)]
            fn always_fails(x in 0u32..4) {
                prop_assert!(false, "x = {x}");
            }
        }
        always_fails();
    }
}
