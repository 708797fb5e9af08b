//! Host-speed probes: a fixed integer and memory kernel owned by the
//! benchmark. The program under test never runs it, so its time moves
//! when the host slows down or speeds up, never with the code.

use crate::stats;
use std::time::Instant;

/// Kernel steps in one probe run (about 1 ms on a 2-vCPU VM).
const PROBE_STEPS: u64 = 400_000;

/// What a probe takes on the host the reference figures were measured
/// on. Timings scaled by `REFERENCE_PROBE_MS / probe` read as on that
/// host at its usual speed.
pub const REFERENCE_PROBE_MS: f64 = 1.0;

/// A kernel buffer, allocated once so that probes time the kernel and
/// not the page faults of a fresh buffer.
pub struct Probe {
    buf: Vec<u64>,
}

impl Probe {
    pub fn new() -> Probe {
        Probe {
            buf: vec![0u64; 1 << 16],
        }
    }

    /// Runs `steps` steps of the kernel and returns its time in ms.
    fn kernel_ms(&mut self, steps: u64) -> f64 {
        let mask = self.buf.len() - 1;
        let t0 = Instant::now();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for i in 0..steps {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = (x as usize) & mask;
            self.buf[j] = self.buf[j].wrapping_add(i);
        }
        std::hint::black_box(&self.buf);
        t0.elapsed().as_secs_f64() * 1000.0
    }

    /// One probe: the fastest of three short kernel runs, so a
    /// preemption inside one of them does not read as a slow host.
    pub fn sample(&mut self) -> f64 {
        (0..3)
            .map(|_| self.kernel_ms(PROBE_STEPS))
            .fold(f64::INFINITY, f64::min)
    }
}

/// `host.calib_ms`: ten probe runs' worth of the kernel, median of
/// five, timed at the start and end of every run.
pub fn calibrate() -> f64 {
    let mut probe = Probe::new();
    let times: Vec<f64> = (0..5)
        .map(|_| probe.kernel_ms(10 * PROBE_STEPS))
        .collect();
    stats::median(&times)
}
