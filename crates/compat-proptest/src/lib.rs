//! Offline drop-in subset of `proptest`.
//!
//! crates.io is unreachable in this build environment, so this
//! workspace-local crate supplies the exact API surface the workspace's
//! property tests use: the [`proptest!`] macro with an optional
//! `#![proptest_config(...)]` header, `prop_assert!`/`prop_assert_eq!`,
//! the [`strategy::Strategy`] trait with `prop_map`/`prop_filter_map`,
//! range and tuple strategies, `collection::vec`, and `any::<T>()`.
//!
//! Unlike real proptest there is no shrinking: a failing case panics
//! directly with the assertion message. Generation is deterministic per
//! test (seeded from the test's module path), so failures reproduce.

#![forbid(unsafe_code)]

pub mod test_runner {
    /// Execution knobs (subset of `proptest::test_runner::Config`).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases each test runs.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` random cases per test.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 32 }
        }
    }

    /// Deterministic per-test entropy source (SplitMix64).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds the stream from a test's name, so each test draws a
        /// stable but distinct sequence across runs.
        pub fn for_test(name: &str) -> Self {
            // FNV-1a over the name.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.as_bytes() {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng { state: h }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw in `[0, n)`; `n` must be nonzero.
        pub fn below(&mut self, n: u64) -> u64 {
            self.next_u64() % n
        }

        /// Uniform draw in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }
}

pub mod strategy {
    use super::test_runner::TestRng;
    use std::marker::PhantomData;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating values (subset of `proptest::strategy::Strategy`).
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Maps through `f`, retrying when it returns `None`. `whence`
        /// names the rejection reason in the give-up panic.
        fn prop_filter_map<O, F>(self, whence: &'static str, f: F) -> FilterMap<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> Option<O>,
        {
            FilterMap {
                inner: self,
                whence,
                f,
            }
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_filter_map`].
    #[derive(Debug, Clone)]
    pub struct FilterMap<S, F> {
        inner: S,
        whence: &'static str,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> Option<O>> Strategy for FilterMap<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            for _ in 0..10_000 {
                if let Some(v) = (self.f)(self.inner.generate(rng)) {
                    return v;
                }
            }
            panic!(
                "prop_filter_map gave up after 10000 rejections: {}",
                self.whence
            );
        }
    }

    macro_rules! impl_int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start + rng.below(span) as $t
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi - lo) as u64;
                    // Wrap-safe for full-width ranges: span+1 may overflow
                    // only when the range covers every value, where any
                    // draw is in range.
                    if span == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    lo + rng.below(span + 1) as $t
                }
            }
        )*};
    }

    impl_int_range_strategy!(u8, u16, u32, u64, usize);

    impl Strategy for Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty range strategy");
            self.start + rng.unit_f64() * (self.end - self.start)
        }
    }

    impl Strategy for RangeInclusive<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            let (lo, hi) = (*self.start(), *self.end());
            assert!(lo <= hi, "empty range strategy");
            let unit = (rng.next_u64() >> 11) as f64 / ((1u64 << 53) - 1) as f64;
            lo + unit * (hi - lo)
        }
    }

    /// Always produces a clone of one value (proptest's `Just`).
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident . $idx:tt),+)),*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy!(
        (A.0),
        (A.0, B.1),
        (A.0, B.1, C.2),
        (A.0, B.1, C.2, D.3),
        (A.0, B.1, C.2, D.3, E.4),
        (A.0, B.1, C.2, D.3, E.4, F.5)
    );

    /// Types with a canonical whole-domain strategy (`any::<T>()`).
    pub trait Arbitrary: Sized {
        /// Draws one arbitrary value.
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

    /// Strategy for the whole domain of `T`.
    #[derive(Debug, Clone)]
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy for `T` (subset of `proptest::arbitrary::any`).
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    use super::strategy::Strategy;
    use super::test_runner::TestRng;
    use std::ops::Range;

    /// Strategy producing `Vec`s of `element` with a length drawn from
    /// `size` (subset of `proptest::collection::vec`).
    pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty size range");
        VecStrategy { element, size }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.end - self.size.start) as u64;
            let len = self.size.start + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Everything a property test needs in scope.
pub mod prelude {
    pub use crate::collection;
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, proptest};
}

/// Assertion inside a property test (panics like `assert!`; no shrinking).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Equality assertion inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Declares property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running the body over random cases.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_body! { config = $cfg; $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_body! {
            config = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_body {
    (
        config = $cfg:expr;
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                let mut rng = $crate::test_runner::TestRng::for_test(concat!(
                    module_path!(),
                    "::",
                    stringify!($name)
                ));
                for _case in 0..config.cases {
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)+
                    $body
                }
            }
        )*
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u32..10, y in 0usize..=4, f in 0.25f64..=0.75) {
            prop_assert!((3..10).contains(&x));
            prop_assert!(y <= 4);
            prop_assert!((0.25..=0.75).contains(&f));
        }

        #[test]
        fn combinators_compose(v in collection::vec((0usize..5, any::<bool>()), 1..9)) {
            prop_assert!(!v.is_empty() && v.len() < 9);
            for (n, _) in v {
                prop_assert!(n < 5);
            }
        }

        #[test]
        fn filter_map_retries(x in (0u32..100).prop_filter_map("even", |x| (x % 2 == 0).then_some(x))) {
            prop_assert_eq!(x % 2, 0);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;
        let s = (0u64..1000, 0.0f64..=1.0).prop_map(|(a, b)| (a, b));
        let mut r1 = TestRng::for_test("t");
        let mut r2 = TestRng::for_test("t");
        for _ in 0..50 {
            assert_eq!(s.generate(&mut r1), s.generate(&mut r2));
        }
    }
}
