//! Offline drop-in subset of the `criterion` crate.
//!
//! The build environment cannot reach crates.io, so this workspace
//! vendors the slice of criterion's API the `adsafe-bench` targets use:
//! [`Criterion::benchmark_group`], `bench_function` /
//! `bench_with_input`, [`Bencher::iter`] / `iter_batched`,
//! [`Throughput`], [`BenchmarkId`], and the `criterion_group!` /
//! `criterion_main!` macros.
//!
//! Measurement is deliberately simple: a short warm-up, then a fixed
//! number of timed iterations, reported as mean wall-clock time per
//! iteration on stdout. There are no statistics, baselines, or HTML
//! reports — the benches exist to regenerate the paper's tables and
//! figures, and their `println!` output is the artefact.

use std::fmt;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Top-level benchmark driver.
#[derive(Debug)]
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 20 }
    }
}

impl Criterion {
    /// Opens a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: self.sample_size,
            _parent: self,
        }
    }

    /// Runs a single benchmark outside a group.
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one("", &id.to_string(), self.sample_size, f);
        self
    }
}

/// Throughput annotation for a group (printed alongside timings).
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
}

/// Identifier for a parameterised benchmark.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// `name/parameter` identifier.
    pub fn new(name: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            name: format!("{name}/{parameter}"),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

/// How per-iteration setup cost relates to the routine (accepted for
/// compatibility; the shim always times only the routine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small setup output.
    SmallInput,
    /// Large setup output.
    LargeInput,
    /// One batch per iteration.
    PerIteration,
}

/// A named set of related benchmarks.
#[derive(Debug)]
pub struct BenchmarkGroup<'c> {
    name: String,
    sample_size: usize,
    _parent: &'c mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Overrides the number of timed iterations.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Annotates the group's throughput (printed, not used for stats).
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        match t {
            Throughput::Bytes(b) => println!("{}: throughput {} bytes/iter", self.name, b),
            Throughput::Elements(e) => println!("{}: throughput {} elems/iter", self.name, e),
        }
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F>(&mut self, id: impl fmt::Display, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(&self.name, &id.to_string(), self.sample_size, f);
        self
    }

    /// Runs one parameterised benchmark in the group.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        run_one(&self.name, &id.to_string(), self.sample_size, |b| {
            f(b, input)
        });
        self
    }

    /// Ends the group (no-op; for API compatibility).
    pub fn finish(self) {}
}

fn run_one<F: FnMut(&mut Bencher)>(group: &str, id: &str, samples: usize, mut f: F) {
    let mut b = Bencher {
        iters: 1,
        elapsed: Duration::ZERO,
    };
    // Warm-up pass (also lets closures do one-off allocation).
    f(&mut b);
    b.iters = samples as u64;
    b.elapsed = Duration::ZERO;
    f(&mut b);
    let per_iter = b
        .elapsed
        .checked_div(b.iters as u32)
        .unwrap_or(Duration::ZERO);
    let label = if group.is_empty() {
        id.to_string()
    } else {
        format!("{group}/{id}")
    };
    println!("{label}: {per_iter:?}/iter over {samples} iters");
}

/// Times closures for one benchmark.
#[derive(Debug)]
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `routine`, called `iters` times.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed += start.elapsed();
    }

    /// Times `routine` over inputs built by `setup` (setup untimed).
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            self.elapsed += start.elapsed();
        }
    }
}

/// Declares a benchmark group runner function.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the bench `main` that runs the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_api_round_trips() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shim");
        g.sample_size(3);
        g.throughput(Throughput::Bytes(128));
        let mut hits = 0u64;
        g.bench_function("iter", |b| b.iter(|| hits += 1));
        g.bench_with_input(BenchmarkId::new("batched", 7), &7usize, |b, &n| {
            b.iter_batched(|| vec![0u8; n], |v| v.len(), BatchSize::LargeInput)
        });
        g.finish();
        // Warm-up (1) + samples (3).
        assert_eq!(hits, 4);
    }
}
