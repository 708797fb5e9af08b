//! Per-connection read discipline for the `adsafe serve` daemon.
//!
//! A keep-alive server holds sockets open between requests, which
//! turns every connection into a liability with three distinct failure
//! budgets: how long a *quiet* connection may sit between requests
//! (idle timeout), how long one request may take end to end (request
//! deadline), and how slowly a client may feed bytes once it has
//! started talking (the slow-loris floor). [`DeadlineReader`] wraps a
//! [`TcpStream`] and enforces all three *below* the `BufReader` the
//! HTTP codec parses from, so the codec itself stays timing-free.
//!
//! Mechanically the reader never blocks for long: each `read` slices
//! the remaining budget into short socket timeouts
//! ([`POLL_SLICE`]-sized) and re-checks a shared stop flag between
//! slices, so a draining daemon reclaims even idle keep-alive
//! connections within one slice rather than one idle timeout.
//!
//! When a budget is exhausted the reader records *which one* as a
//! [`Trip`] and surfaces a `TimedOut` I/O error to the codec; the
//! connection loop maps the trip onto the right wire behaviour (idle
//! expiry → clean close, mid-request stall → `408`).

use std::io::Read;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How finely budgets are sliced into socket timeouts. Bounds both
/// stop-flag latency and the cost of a spurious wakeup.
pub const POLL_SLICE: Duration = Duration::from_millis(250);

/// Grace period before the slow-loris floor is enforced: a legitimate
/// client gets this long to ramp up before its byte rate is judged.
pub const SLOW_LORIS_GRACE: Duration = Duration::from_millis(500);

/// Which budget a [`DeadlineReader`] exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trip {
    /// No request bytes arrived within the idle timeout — the normal
    /// end of a keep-alive connection; answered with a clean close.
    Idle,
    /// A request started but did not complete within the request
    /// deadline; answered with `408`.
    Deadline,
    /// A request's byte rate fell below the slow-loris floor after the
    /// grace period; answered with `408`.
    SlowLoris,
}

/// Budget configuration for a [`DeadlineReader`]; zero durations or a
/// zero rate disable the corresponding check.
#[derive(Debug, Clone, Copy)]
pub struct ReadBudget {
    /// Max quiet time between requests before [`Trip::Idle`].
    pub idle_timeout: Duration,
    /// Max wall time from a request's first byte to its last before
    /// [`Trip::Deadline`].
    pub request_timeout: Duration,
    /// Minimum sustained bytes/second once a request has started (and
    /// [`SLOW_LORIS_GRACE`] has passed) before [`Trip::SlowLoris`].
    pub min_byte_rate: u64,
}

/// A [`TcpStream`] read wrapper enforcing idle, deadline, and byte-rate
/// budgets; sits under the codec's `BufReader`.
#[derive(Debug)]
pub struct DeadlineReader {
    stream: TcpStream,
    stop: Arc<AtomicBool>,
    budget: ReadBudget,
    /// When the current between-requests wait began.
    wait_since: Instant,
    /// First-byte instant of the in-flight request, if one started.
    started: Option<Instant>,
    /// Bytes read for the in-flight request.
    bytes: u64,
    tripped: Option<Trip>,
}

fn timed_out(what: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::TimedOut, what.to_string())
}

impl DeadlineReader {
    /// Wraps `stream`; `stop` is the daemon's drain flag — once set,
    /// reads return EOF (a clean close) within one [`POLL_SLICE`].
    pub fn new(stream: TcpStream, stop: Arc<AtomicBool>, budget: ReadBudget) -> DeadlineReader {
        DeadlineReader {
            stream,
            stop,
            budget,
            wait_since: Instant::now(),
            started: None,
            bytes: 0,
            tripped: None,
        }
    }

    /// Resets the per-request state; the connection loop calls this
    /// after each response so the next request gets fresh budgets.
    pub fn begin_request(&mut self) {
        self.wait_since = Instant::now();
        self.started = None;
        self.bytes = 0;
    }

    /// Which budget (if any) was exhausted; set once, never cleared by
    /// [`begin_request`](Self::begin_request) — a tripped connection
    /// is done.
    pub fn trip(&self) -> Option<Trip> {
        self.tripped
    }

    /// Remaining budget right now, or the trip that just exhausted it.
    fn remaining(&mut self) -> Result<Duration, Trip> {
        match self.started {
            None => {
                if self.budget.idle_timeout.is_zero() {
                    return Ok(POLL_SLICE);
                }
                let waited = self.wait_since.elapsed();
                if waited >= self.budget.idle_timeout {
                    return Err(Trip::Idle);
                }
                Ok(self.budget.idle_timeout - waited)
            }
            Some(started) => {
                let elapsed = started.elapsed();
                if !self.budget.request_timeout.is_zero() && elapsed >= self.budget.request_timeout
                {
                    return Err(Trip::Deadline);
                }
                if self.budget.min_byte_rate > 0 && elapsed > SLOW_LORIS_GRACE {
                    let required = self
                        .budget
                        .min_byte_rate
                        .saturating_mul(elapsed.as_millis() as u64)
                        / 1000;
                    if self.bytes < required {
                        return Err(Trip::SlowLoris);
                    }
                }
                if self.budget.request_timeout.is_zero() {
                    Ok(POLL_SLICE)
                } else {
                    Ok(self.budget.request_timeout - elapsed)
                }
            }
        }
    }
}

impl Read for DeadlineReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.tripped.is_some() {
            return Err(timed_out("connection budget already exhausted"));
        }
        loop {
            if self.stop.load(Ordering::Relaxed) {
                // Drain: present EOF so the codec sees a clean close.
                return Ok(0);
            }
            let remaining = match self.remaining() {
                Ok(d) => d,
                Err(trip) => {
                    self.tripped = Some(trip);
                    return Err(timed_out("connection budget exhausted"));
                }
            };
            let slice = remaining.min(POLL_SLICE).max(Duration::from_millis(1));
            self.stream.set_read_timeout(Some(slice))?;
            match self.stream.read(buf) {
                Ok(0) => return Ok(0),
                Ok(n) => {
                    if self.started.is_none() {
                        self.started = Some(Instant::now());
                    }
                    self.bytes += n as u64;
                    return Ok(n);
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    fn budget(idle_ms: u64, req_ms: u64, rate: u64) -> ReadBudget {
        ReadBudget {
            idle_timeout: Duration::from_millis(idle_ms),
            request_timeout: Duration::from_millis(req_ms),
            min_byte_rate: rate,
        }
    }

    #[test]
    fn quiet_connection_trips_idle() {
        let (_client, server) = pair();
        let stop = Arc::new(AtomicBool::new(false));
        let mut r = DeadlineReader::new(server, stop, budget(100, 5_000, 0));
        let mut buf = [0u8; 16];
        let err = r.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
        assert_eq!(r.trip(), Some(Trip::Idle));
    }

    #[test]
    fn stalled_request_trips_deadline_not_idle() {
        let (mut client, server) = pair();
        let stop = Arc::new(AtomicBool::new(false));
        let mut r = DeadlineReader::new(server, stop, budget(5_000, 200, 0));
        client.write_all(b"GET ").unwrap();
        client.flush().unwrap();
        let mut buf = [0u8; 16];
        let n = r.read(&mut buf).unwrap();
        assert!(n > 0, "first bytes arrive");
        // Client now stalls; the *request* deadline should trip.
        let err = r.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
        assert_eq!(r.trip(), Some(Trip::Deadline));
    }

    #[test]
    fn slow_drip_below_the_rate_floor_trips_slow_loris() {
        let (client, server) = pair();
        let stop = Arc::new(AtomicBool::new(false));
        // 10 KiB/s floor, generous deadline: only the rate can trip.
        let mut r = DeadlineReader::new(server, stop, budget(5_000, 30_000, 10 * 1024));
        let writer = std::thread::spawn(move || {
            let mut client = client;
            // One byte every 150ms is far below 10 KiB/s.
            for _ in 0..40 {
                if client.write_all(b"x").is_err() {
                    return;
                }
                let _ = client.flush();
                std::thread::sleep(Duration::from_millis(150));
            }
        });
        let mut buf = [0u8; 16];
        let tripped = loop {
            match r.read(&mut buf) {
                Ok(0) => panic!("unexpected EOF"),
                Ok(_) => continue,
                Err(_) => break r.trip(),
            }
        };
        assert_eq!(tripped, Some(Trip::SlowLoris));
        drop(r);
        writer.join().unwrap();
    }

    #[test]
    fn stop_flag_turns_idle_wait_into_clean_eof() {
        let (_client, server) = pair();
        let stop = Arc::new(AtomicBool::new(false));
        let mut r = DeadlineReader::new(server, Arc::clone(&stop), budget(60_000, 60_000, 0));
        let flipper = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(100));
                stop.store(true, Ordering::Relaxed);
            })
        };
        let started = Instant::now();
        let mut buf = [0u8; 16];
        let n = r.read(&mut buf).unwrap();
        assert_eq!(n, 0, "drain presents EOF");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "EOF within a slice or two, not the idle timeout"
        );
        flipper.join().unwrap();
    }

    #[test]
    fn begin_request_resets_budgets_between_requests() {
        let (mut client, server) = pair();
        let stop = Arc::new(AtomicBool::new(false));
        let mut r = DeadlineReader::new(server, stop, budget(2_000, 2_000, 0));
        client.write_all(b"first\nsecond\n").unwrap();
        client.flush().unwrap();
        let mut lines = BufReader::new(&mut r);
        let mut line = String::new();
        lines.read_line(&mut line).unwrap();
        assert_eq!(line, "first\n");
        // A fresh request sees fresh budgets; bytes the BufReader
        // already holds are served without touching the socket again —
        // exactly how pipelined keep-alive requests behave.
        lines.get_mut().begin_request();
        line.clear();
        lines.read_line(&mut line).unwrap();
        assert_eq!(line, "second\n");
        assert_eq!(lines.get_mut().trip(), None);
    }
}
