//! # adsafe-chaos — a seeded, in-process TCP fault proxy
//!
//! The serving layer's robustness claims ("no panic escapes, every
//! accepted request gets a well-formed response or a clean close") are
//! only as good as the hostile traffic they were tested against. This
//! crate generates that traffic *deterministically*: a [`ChaosProxy`]
//! sits between a test client and the daemon, forwarding bytes while
//! injecting one socket-level fault per connection — partial writes,
//! mid-stream aborts, garbage prefixes, connection resets, slow drips
//! — chosen by a seeded RNG so a failing scenario replays exactly from
//! its seed.
//!
//! Determinism contract: a [`ChaosPlan`] maps `(seed, connection
//! index)` to a [`FaultSpec`] as a pure function — two plans with the
//! same seed assign byte-identical faults (including generated garbage
//! bytes) to the same accept order. The proxy's *timing* is of course
//! not reproducible, but which fault hits which connection is, which
//! is what a regression needs ("seed 17, connection 4" is a complete
//! bug report).
//!
//! Every injected fault is also counted in the global
//! [`adsafe_trace`] registry under `chaos.*`, so a test that shares a
//! process with the daemon can assert the faults it injected are
//! visible right next to the server-side counters they provoked.
//!
//! Std-only, like the rest of the workspace; the RNG is the vendored
//! `rand` shim.

#![warn(missing_docs)]

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// The socket-level fault a connection is subjected to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// Forward everything faithfully (the control group — a chaos run
    /// must also prove normal traffic still works).
    Clean,
    /// Split the request into `chunk`-byte writes separated by short
    /// pauses: exercises the codec's handling of reads that return
    /// fewer bytes than a protocol element.
    PartialWrites {
        /// Bytes per write.
        chunk: usize,
        /// Pause between writes.
        delay_ms: u64,
    },
    /// Forward only the first `bytes` of the request, then close the
    /// upstream write half: a request torn mid-head, mid-body, or —
    /// when the client speaks chunked encoding — mid-chunk-frame.
    AbortAfter {
        /// Request bytes forwarded before the tear.
        bytes: usize,
    },
    /// Prefix the request with deterministic garbage: the server must
    /// answer `400` (or close) without panicking, never `200`.
    SoupPrefix {
        /// The garbage bytes (derived from the plan's seed).
        bytes: Vec<u8>,
    },
    /// Forward `bytes`, then hard-reset the upstream socket (RST via
    /// zero-linger close, where the platform allows): the server reads
    /// `ECONNRESET`, not EOF.
    ResetAfter {
        /// Request bytes forwarded before the reset.
        bytes: usize,
    },
    /// Feed the request one byte per `delay_ms`: a slow-loris client;
    /// the server's byte-rate floor should eventually drop it.
    SlowDrip {
        /// Pause between single-byte writes.
        delay_ms: u64,
    },
}

impl FaultKind {
    /// The `chaos.*` counter this fault increments when injected.
    pub fn counter_name(&self) -> &'static str {
        match self {
            FaultKind::Clean => "chaos.fault.clean",
            FaultKind::PartialWrites { .. } => "chaos.fault.partial_writes",
            FaultKind::AbortAfter { .. } => "chaos.fault.abort",
            FaultKind::SoupPrefix { .. } => "chaos.fault.soup",
            FaultKind::ResetAfter { .. } => "chaos.fault.reset",
            FaultKind::SlowDrip { .. } => "chaos.fault.slow_drip",
        }
    }
}

/// The fault assigned to one proxied connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// Accept-order index of the connection (0-based).
    pub conn: u64,
    /// What happens to it.
    pub kind: FaultKind,
}

enum Mode {
    Seeded(u64),
    Fixed(FaultKind),
}

/// A pure `(seed, connection index) → fault` mapping.
pub struct ChaosPlan {
    mode: Mode,
}

impl ChaosPlan {
    /// A seeded plan: each connection draws its fault from an RNG
    /// keyed on `(seed, index)`, so plans replay exactly.
    pub fn new(seed: u64) -> ChaosPlan {
        ChaosPlan {
            mode: Mode::Seeded(seed),
        }
    }

    /// A plan that assigns `kind` to every connection — for targeted
    /// scenarios ("tear every chunked body mid-frame") and for the
    /// crate's own tests.
    pub fn fixed(kind: FaultKind) -> ChaosPlan {
        ChaosPlan {
            mode: Mode::Fixed(kind),
        }
    }

    /// The fault for connection `conn` (accept order, 0-based).
    pub fn spec_for(&self, conn: u64) -> FaultSpec {
        let kind = match &self.mode {
            Mode::Fixed(kind) => kind.clone(),
            Mode::Seeded(seed) => {
                // Golden-ratio multiply decorrelates consecutive
                // indices before they key the per-connection RNG.
                let mut rng = SmallRng::seed_from_u64(
                    seed ^ (conn.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                );
                match rng.gen_range(0..8u32) {
                    // Clean is over-weighted: most traffic should
                    // survive so invariants get checked on both paths.
                    0..=2 => FaultKind::Clean,
                    3 => FaultKind::PartialWrites {
                        chunk: rng.gen_range(1..8usize),
                        delay_ms: rng.gen_range(0..3u64),
                    },
                    4 => FaultKind::AbortAfter {
                        bytes: rng.gen_range(1..200usize),
                    },
                    5 => {
                        let n = rng.gen_range(1..64usize);
                        let bytes = (0..n).map(|_| rng.gen::<u8>()).collect();
                        FaultKind::SoupPrefix { bytes }
                    }
                    6 => FaultKind::ResetAfter {
                        bytes: rng.gen_range(0..120usize),
                    },
                    _ => FaultKind::SlowDrip {
                        delay_ms: rng.gen_range(5..25u64),
                    },
                }
            }
        };
        FaultSpec { conn, kind }
    }
}

/// A running fault proxy: accepts on its own ephemeral port and
/// forwards each connection to `upstream` through its assigned fault.
/// Dropping (or [`stop`](ChaosProxy::stop)ping) it closes the listener
/// and joins every connection worker.
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accepted: Arc<AtomicU64>,
    accept: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Binds `127.0.0.1:0` and starts proxying to `upstream` under
    /// `plan`. Fails only on bind errors.
    pub fn start(upstream: SocketAddr, plan: ChaosPlan) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let accepted = Arc::new(AtomicU64::new(0));
        let accept = {
            let (stop, accepted) = (Arc::clone(&stop), Arc::clone(&accepted));
            std::thread::Builder::new()
                .name("chaos-accept".into())
                .spawn(move || accept_loop(&listener, upstream, &plan, &stop, &accepted))
                .expect("spawning the chaos accept thread")
        };
        Ok(ChaosProxy {
            addr,
            stop,
            accepted,
            accept: Some(accept),
        })
    }

    /// Address test clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections this proxy has accepted so far. Unlike the
    /// process-wide `chaos.connections` counter, it is not moved by
    /// other proxies running at the same time.
    pub fn connections(&self) -> u64 {
        self.accepted.load(Ordering::SeqCst)
    }

    /// Stops accepting and joins all connection workers.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: &TcpListener,
    upstream: SocketAddr,
    plan: &ChaosPlan,
    stop: &Arc<AtomicBool>,
    accepted: &AtomicU64,
) {
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((client, _)) => {
                let spec = plan.spec_for(accepted.fetch_add(1, Ordering::SeqCst));
                adsafe_trace::counter("chaos.connections").incr();
                adsafe_trace::counter(spec.kind.counter_name()).incr();
                let stop = Arc::clone(stop);
                workers.push(
                    std::thread::Builder::new()
                        .name(format!("chaos-conn-{}", spec.conn))
                        .spawn(move || run_connection(client, upstream, &spec, &stop))
                        .expect("spawning a chaos connection worker"),
                );
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    for w in workers {
        let _ = w.join();
    }
}

/// Read slice used on the client side so workers notice `stop` and a
/// vanished client promptly.
const READ_SLICE: Duration = Duration::from_millis(100);

/// One proxied connection: a response pump copies upstream→client
/// unmodified while the request path applies the fault client→upstream.
fn run_connection(client: TcpStream, upstream: SocketAddr, spec: &FaultSpec, stop: &AtomicBool) {
    let Ok(server) = TcpStream::connect(upstream) else {
        // Upstream refused: reset the client so the failure is loud.
        arm_reset(&client);
        return;
    };
    let _ = client.set_nodelay(true);
    let _ = server.set_nodelay(true);
    let _ = client.set_read_timeout(Some(READ_SLICE));
    let pump = {
        let (Ok(mut from), Ok(mut to)) = (server.try_clone(), client.try_clone()) else {
            return;
        };
        std::thread::spawn(move || {
            let mut buf = [0u8; 4096];
            loop {
                match from.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => {
                        if to.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                }
            }
            let _ = to.shutdown(Shutdown::Write);
        })
    };
    apply_fault(&client, &server, spec, stop);
    let _ = pump.join();
}

/// Copies up to `limit` request bytes (`None` = until EOF) from
/// `client` to `server`, `chunk` bytes per write with `delay` pauses.
/// Returns false on a write error (upstream gone).
fn forward(
    client: &TcpStream,
    server: &TcpStream,
    limit: Option<usize>,
    chunk: usize,
    delay: Duration,
    stop: &AtomicBool,
) -> bool {
    let mut client = client;
    let mut server = server;
    let mut remaining = limit;
    let mut buf = [0u8; 4096];
    loop {
        if stop.load(Ordering::SeqCst) || remaining == Some(0) {
            return true;
        }
        let want = buf.len().min(remaining.unwrap_or(buf.len()));
        let n = match client.read(&mut buf[..want]) {
            Ok(0) => return true,
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return true,
        };
        if let Some(r) = remaining.as_mut() {
            *r -= n;
        }
        for piece in buf[..n].chunks(chunk.max(1)) {
            if server.write_all(piece).is_err() || server.flush().is_err() {
                return false;
            }
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
        }
    }
}

fn apply_fault(client: &TcpStream, server: &TcpStream, spec: &FaultSpec, stop: &AtomicBool) {
    match &spec.kind {
        FaultKind::Clean => {
            forward(client, server, None, 4096, Duration::ZERO, stop);
            let _ = server.shutdown(Shutdown::Write);
        }
        FaultKind::PartialWrites { chunk, delay_ms } => {
            forward(
                client,
                server,
                None,
                *chunk,
                Duration::from_millis(*delay_ms),
                stop,
            );
            let _ = server.shutdown(Shutdown::Write);
        }
        FaultKind::AbortAfter { bytes } => {
            forward(client, server, Some(*bytes), 4096, Duration::ZERO, stop);
            // Tear the request but keep the response pump alive: if the
            // server answers the truncated request, the client sees it.
            let _ = server.shutdown(Shutdown::Write);
        }
        FaultKind::SoupPrefix { bytes } => {
            let mut server_w = server;
            if server_w.write_all(bytes).is_ok() {
                forward(client, server, None, 4096, Duration::ZERO, stop);
            }
            let _ = server.shutdown(Shutdown::Write);
        }
        FaultKind::ResetAfter { bytes } => {
            forward(client, server, Some(*bytes), 4096, Duration::ZERO, stop);
            // Zero-linger close: the server reads ECONNRESET, the
            // harshest way a peer can vanish.
            arm_reset(server);
            let _ = server.shutdown(Shutdown::Both);
        }
        FaultKind::SlowDrip { delay_ms } => {
            forward(
                client,
                server,
                None,
                1,
                Duration::from_millis(*delay_ms),
                stop,
            );
            let _ = server.shutdown(Shutdown::Write);
        }
    }
}

/// Arms a zero-linger close so dropping (or shutting down) `sock`
/// sends RST instead of FIN. Best-effort; a no-op off Linux.
#[cfg(target_os = "linux")]
fn arm_reset(sock: &TcpStream) {
    use std::os::unix::io::AsRawFd;
    #[repr(C)]
    struct Linger {
        l_onoff: i32,
        l_linger: i32,
    }
    extern "C" {
        fn setsockopt(
            fd: i32,
            level: i32,
            name: i32,
            value: *const std::ffi::c_void,
            len: u32,
        ) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_LINGER: i32 = 13;
    let linger = Linger {
        l_onoff: 1,
        l_linger: 0,
    };
    unsafe {
        setsockopt(
            sock.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            std::ptr::addr_of!(linger).cast(),
            std::mem::size_of::<Linger>() as u32,
        );
    }
}

#[cfg(not(target_os = "linux"))]
fn arm_reset(_sock: &TcpStream) {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn plans_replay_byte_identically_by_seed() {
        let a = ChaosPlan::new(17);
        let b = ChaosPlan::new(17);
        let c = ChaosPlan::new(18);
        let specs = |p: &ChaosPlan| (0..64).map(|i| p.spec_for(i)).collect::<Vec<_>>();
        assert_eq!(specs(&a), specs(&b), "same seed, same plan");
        assert_ne!(specs(&a), specs(&c), "different seeds diverge");
        // The full fault space gets exercised within a small window.
        let names: std::collections::BTreeSet<&str> =
            specs(&a).iter().map(|s| s.kind.counter_name()).collect();
        assert!(
            names.len() >= 5,
            "seed 17 covers most fault kinds: {names:?}"
        );
    }

    /// A one-connection upstream that records what it received and
    /// answers with a fixed banner.
    fn upstream_once() -> (SocketAddr, std::thread::JoinHandle<Vec<u8>>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut got = Vec::new();
            let _ = s.read_to_end(&mut got);
            let _ = s.write_all(b"pong");
            got
        });
        (addr, handle)
    }

    #[test]
    fn clean_connections_forward_both_directions() {
        let (addr, upstream) = upstream_once();
        let proxy = ChaosProxy::start(addr, ChaosPlan::fixed(FaultKind::Clean)).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.write_all(b"ping").unwrap();
        c.shutdown(Shutdown::Write).unwrap();
        let mut back = Vec::new();
        c.read_to_end(&mut back).unwrap();
        assert_eq!(back, b"pong");
        assert_eq!(upstream.join().unwrap(), b"ping");
        assert_eq!(proxy.connections(), 1);
        proxy.stop();
    }

    #[test]
    fn abort_after_tears_the_request_at_the_exact_byte() {
        let (addr, upstream) = upstream_once();
        let proxy =
            ChaosProxy::start(addr, ChaosPlan::fixed(FaultKind::AbortAfter { bytes: 3 })).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.write_all(b"abcdefgh").unwrap();
        c.shutdown(Shutdown::Write).unwrap();
        // The upstream sees exactly the first 3 bytes, then EOF.
        assert_eq!(upstream.join().unwrap(), b"abc");
        proxy.stop();
    }

    #[test]
    fn soup_prefix_arrives_before_the_payload() {
        let (addr, upstream) = upstream_once();
        let soup = vec![0xde, 0xad, 0xbe, 0xef];
        let proxy = ChaosProxy::start(
            addr,
            ChaosPlan::fixed(FaultKind::SoupPrefix { bytes: soup }),
        )
        .unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.write_all(b"GET").unwrap();
        c.shutdown(Shutdown::Write).unwrap();
        assert_eq!(upstream.join().unwrap(), b"\xde\xad\xbe\xefGET");
        proxy.stop();
    }
}
