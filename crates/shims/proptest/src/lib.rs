//! Offline drop-in subset of the `proptest` crate.
//!
//! The build environment cannot reach crates.io, so this workspace
//! vendors the slice of proptest's API that the repository's property
//! tests use: the [`proptest!`] macro with `proptest_config`, strategies
//! for numeric ranges, simple `[class]{lo,hi}` string patterns,
//! [`Just`], `prop_oneof!`, `collection::vec`, tuples, and the
//! `prop_assert*` family.
//!
//! Cases are generated from a deterministic per-test RNG (FNV hash of
//! the test path seeds xoshiro256**), so failures are reproducible
//! run-to-run. There is no shrinking: the failing case index and the
//! assertion message are reported instead.

use std::fmt;
use std::ops::Range;

/// Per-test configuration (subset of upstream `ProptestConfig`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of cases to run.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases per test.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        ProptestConfig { cases: 64 }
    }
}

/// Why a generated case did not pass.
#[derive(Debug)]
pub enum TestCaseError {
    /// `prop_assume!` rejected the inputs; the case is skipped.
    Reject,
    /// `prop_assert*` failed with this message.
    Fail(String),
}

impl TestCaseError {
    /// Builds the failure variant.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestCaseError::Reject => write!(f, "input rejected by prop_assume!"),
            TestCaseError::Fail(m) => write!(f, "{m}"),
        }
    }
}

/// Deterministic test RNG (xoshiro256** seeded via SplitMix64).
pub mod test_runner {
    /// The RNG handed to strategies.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        s: [u64; 4],
    }

    impl TestRng {
        /// Seeds from an arbitrary label (e.g. the test path).
        pub fn for_test(label: &str) -> Self {
            let mut h: u64 = 0xCBF29CE484222325;
            for b in label.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100000001B3);
            }
            Self::from_seed(h)
        }

        /// Seeds from a 64-bit value.
        pub fn from_seed(seed: u64) -> Self {
            let mut sm = seed;
            let mut next = || {
                sm = sm.wrapping_add(0x9E3779B97F4A7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
                z ^ (z >> 31)
            };
            TestRng {
                s: [next(), next(), next(), next()],
            }
        }

        /// Next raw 64-bit output.
        pub fn next_u64(&mut self) -> u64 {
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }

        /// Uniform value in `[0, n)`; `n` must be non-zero.
        pub fn below(&mut self, n: u64) -> u64 {
            self.next_u64() % n
        }

        /// Uniform value in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }
}

use test_runner::TestRng;

/// A value generator (subset of upstream `Strategy`: generation only,
/// no shrinking).
pub trait Strategy {
    /// The type of generated values.
    type Value;
    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! impl_strategy_int_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let width = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + i128::from(rng.below(width))) as $t
            }
        }
    )*};
}
impl_strategy_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for Range<f32> {
    type Value = f32;
    fn generate(&self, rng: &mut TestRng) -> f32 {
        (self.start as f64 + rng.unit_f64() * (self.end - self.start) as f64) as f32
    }
}

/// Always produces a clone of the wrapped value.
#[derive(Debug, Clone, Copy)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

impl<S: Strategy + ?Sized> Strategy for Box<S> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
}

macro_rules! impl_strategy_tuple {
    ($(($($s:ident $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}
impl_strategy_tuple! {
    (A 0, B 1)
    (A 0, B 1, C 2)
    (A 0, B 1, C 2, D 3)
    (A 0, B 1, C 2, D 3, E 4)
    (A 0, B 1, C 2, D 3, E 4, F 5)
}

/// `&str` patterns of the shape `[class]{lo,hi}` generate strings drawn
/// from the character class (ranges like `a-z` or ` -~` and escapes
/// `\n`, `\t`, `\\`, `\-`, `\]` are understood).
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        let (class, lo, hi) =
            parse_pattern(self).unwrap_or_else(|| panic!("unsupported string pattern `{self}`"));
        let len = lo + rng.below((hi - lo + 1) as u64) as usize;
        (0..len)
            .map(|_| class[rng.below(class.len() as u64) as usize])
            .collect()
    }
}

fn parse_pattern(pat: &str) -> Option<(Vec<char>, usize, usize)> {
    let rest = pat.strip_prefix('[')?;
    let close = {
        // Find the unescaped closing bracket.
        let mut idx = None;
        let mut escaped = false;
        for (i, c) in rest.char_indices() {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == ']' {
                idx = Some(i);
                break;
            }
        }
        idx?
    };
    let class_src: Vec<char> = rest[..close].chars().collect();
    let mut class = Vec::new();
    let mut i = 0;
    while i < class_src.len() {
        let c = match class_src[i] {
            '\\' => {
                i += 1;
                match *class_src.get(i)? {
                    'n' => '\n',
                    't' => '\t',
                    'r' => '\r',
                    other => other,
                }
            }
            other => other,
        };
        // Range `c-d`?
        if class_src.get(i + 1) == Some(&'-') && i + 2 < class_src.len() {
            let hi = class_src[i + 2];
            for v in (c as u32)..=(hi as u32) {
                class.push(char::from_u32(v)?);
            }
            i += 3;
        } else {
            class.push(c);
            i += 1;
        }
    }
    let counts = rest[close + 1..].strip_prefix('{')?.strip_suffix('}')?;
    let (lo, hi) = counts.split_once(',')?;
    let lo: usize = lo.trim().parse().ok()?;
    let hi: usize = hi.trim().parse().ok()?;
    if class.is_empty() || hi < lo {
        return None;
    }
    Some((class, lo, hi))
}

/// Picks uniformly among homogeneous sub-strategies (`prop_oneof!`).
#[derive(Debug, Clone)]
pub struct Union<S> {
    options: Vec<S>,
}

impl<S> Union<S> {
    /// Builds a union over `options` (must be non-empty).
    pub fn new(options: Vec<S>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
        Union { options }
    }
}

impl<S: Strategy> Strategy for Union<S> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        let i = rng.below(self.options.len() as u64) as usize;
        self.options[i].generate(rng)
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy producing `Vec`s of `element` with a length in `len`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// `Vec` strategy over a length range.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty length range");
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let width = (self.len.end - self.len.start) as u64;
            let n = self.len.start + rng.below(width) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Everything a test module needs.
pub mod prelude {
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest, Just,
        ProptestConfig, Strategy, TestCaseError, Union,
    };
}

/// Defines property tests: each `fn name(arg in strategy, ...) { body }`
/// becomes a `#[test]` running `cases` generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()); $($rest)* }
    };
}

/// Implementation detail of [`proptest!`].
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr); $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __cfg: $crate::ProptestConfig = $cfg;
            let mut __rng = $crate::test_runner::TestRng::for_test(concat!(
                module_path!(), "::", stringify!($name)
            ));
            for __case in 0..__cfg.cases {
                $(let $arg = $crate::Strategy::generate(&($strat), &mut __rng);)*
                let __result: ::std::result::Result<(), $crate::TestCaseError> =
                    (|| { $body ::std::result::Result::Ok(()) })();
                match __result {
                    ::std::result::Result::Ok(()) => {}
                    ::std::result::Result::Err($crate::TestCaseError::Reject) => {}
                    ::std::result::Result::Err($crate::TestCaseError::Fail(msg)) => {
                        panic!("proptest `{}` case {}/{} failed: {}",
                               stringify!($name), __case + 1, __cfg.cases, msg);
                    }
                }
            }
        }
    )*};
}

/// Asserts a condition inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr) => {{
        let (__l, __r) = (&$lhs, &$rhs);
        if !(__l == __r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} == {} ({:?} vs {:?})",
                stringify!($lhs), stringify!($rhs), __l, __r,
            )));
        }
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$lhs, &$rhs);
        if !(__l == __r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "{} ({:?} vs {:?})", format!($($fmt)+), __l, __r,
            )));
        }
    }};
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($lhs:expr, $rhs:expr) => {{
        let (__l, __r) = (&$lhs, &$rhs);
        if __l == __r {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} != {} (both {:?})",
                stringify!($lhs),
                stringify!($rhs),
                __l,
            )));
        }
    }};
}

/// Skips the case unless the assumption holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::Reject);
        }
    };
}

/// Uniform choice among homogeneous strategies.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($s),+])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(a in 0usize..10, b in -5i64..5) {
            prop_assert!(a < 10);
            prop_assert!((-5..5).contains(&b));
        }

        #[test]
        fn string_pattern_respects_class_and_len(s in "[a-c]{2,6}") {
            prop_assert!((2..=6).contains(&s.len()), "len {}", s.len());
            prop_assert!(s.chars().all(|c| ('a'..='c').contains(&c)));
        }

        #[test]
        fn oneof_and_vec_compose(
            toks in crate::collection::vec(prop_oneof![Just("x"), Just("y")], 1..5)
        ) {
            prop_assert!(!toks.is_empty());
            prop_assert!(toks.iter().all(|t| *t == "x" || *t == "y"));
        }

        #[test]
        fn assume_rejects_without_failing(n in 0u32..100) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }
    }

    #[test]
    fn pattern_parser_handles_escapes_and_ranges() {
        let (class, lo, hi) = super::parse_pattern("[ -~\n\t]{0,200}").unwrap();
        assert_eq!((lo, hi), (0, 200));
        assert!(class.contains(&' '));
        assert!(class.contains(&'~'));
        assert!(class.contains(&'\n'));
        assert!(class.contains(&'\t'));
        // Full printable-ASCII range is expanded.
        assert!(class.contains(&'A') && class.contains(&'}'));
    }

    #[test]
    fn deterministic_per_test_name() {
        let mut a = super::test_runner::TestRng::for_test("t::x");
        let mut b = super::test_runner::TestRng::for_test("t::x");
        let mut c = super::test_runner::TestRng::for_test("t::y");
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), c.next_u64());
    }
}
