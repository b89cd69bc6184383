//! Load generation: a closed loop over keep-alive connections, with every
//! response checked as it arrives.
//!
//! Each connection takes the stream's next session when its previous one
//! finishes, and sends the session's requests back to back. A request's
//! latency runs from sending it to its reply, so the client's own checks
//! are not counted.

use crate::client::{Conn, Reply};
use crate::stream::{Class, Req, Session};
use maprat_server::Json;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Connections, one client thread each: as many as the 2-vCPU VM the
/// benchmark was built on has cores.
const CONNS: usize = 2;

/// Builds session `i` of a stream (`None` ends a finite stream).
pub type MakeSession = Arc<dyn Fn(u64) -> Option<Session> + Send + Sync>;

/// One completed (or failed) request.
#[derive(Debug, Clone)]
pub struct Sample {
    pub tag: u64,
    pub class: Class,
    /// Send to reply.
    pub latency_ms: f64,
    /// Sent inside the timed window (warm-up requests are not).
    pub measured: bool,
    /// Seconds from the window start to when the request was sent.
    pub at_s: f64,
    pub ok: bool,
    pub cache: Option<String>,
}

/// What a drive produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub samples: Vec<Sample>,
    pub window_s: f64,
    /// Seconds the untimed warm-up took.
    pub warmup_s: f64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Ratings in every commit sent, and in every receipt.
    pub ratings_sent: u64,
    pub ratings_accepted: u64,
    pub last_seq: u64,
    /// Explain responses whose byte identity could be checked.
    pub identity_checked: u64,
}

impl Outcome {
    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64
    }

    pub fn measured_count(&self) -> usize {
        self.samples.iter().filter(|s| s.measured).count()
    }

    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(message);
        }
    }
}

/// Shared response checks.
#[derive(Default)]
struct Checker {
    /// First explain body per (request, commit epoch).
    first: Mutex<HashMap<(String, u64), Vec<u8>>>,
    /// Commits sent and commits acknowledged, for the epoch of a read.
    commits_sent: AtomicU64,
    commits_done: AtomicU64,
    ratings_sent: AtomicU64,
    identity_checked: AtomicU64,
    outcome: Mutex<Outcome>,
}

impl Checker {
    /// Checks one reply; `Err` names what was wrong.
    fn check(&self, req: &Req, reply: &Reply, epoch: Option<u64>) -> Result<(), String> {
        if reply.status != 200 {
            return Err(format!(
                "{} {} answered {}: {}",
                req.method,
                req.target,
                reply.status,
                String::from_utf8_lossy(&reply.body)
            ));
        }
        match req.class {
            Class::Interact("/map.svg") => {
                if !reply.body.starts_with(b"<svg") {
                    return Err(format!("{} is not an SVG", req.target));
                }
            }
            Class::Interact(_) => {
                json(&reply.body)?;
            }
            Class::Explain => {
                let body = json(&reply.body)?;
                if body.get("similarity").is_none() || body.get("diversity").is_none() {
                    return Err(format!("{} lacks similarity/diversity", req.target));
                }
                if let Some(epoch) = epoch {
                    let key = (format!("{}{}", req.target, req.body), epoch);
                    let mut first = self.first.lock().expect("checker lock");
                    match first.get(&key) {
                        Some(prev) if prev != &reply.body => {
                            return Err(format!("{} answered differently on repeat", req.target));
                        }
                        Some(_) => {}
                        None => {
                            first.insert(key, reply.body.clone());
                        }
                    }
                    self.identity_checked.fetch_add(1, Ordering::Relaxed);
                }
            }
            Class::Commit => {
                let receipt = json(&reply.body)?;
                let num = |k: &str| receipt.get(k).and_then(Json::as_f64).unwrap_or(-1.0);
                let accepted = num("accepted");
                if accepted != req.ratings as f64 {
                    return Err(format!("commit accepted {accepted} of {}", req.ratings));
                }
                let mut out = self.outcome.lock().expect("outcome lock");
                out.ratings_accepted += accepted as u64;
                out.last_seq = out.last_seq.max(num("seq") as u64);
            }
        }
        Ok(())
    }
}

fn json(body: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    Json::parse(text).map_err(|e| format!("body is not JSON: {e}"))
}

/// Where a drive's connections take their sessions from.
struct Source {
    make: MakeSession,
    /// Next session index.
    next: Mutex<u64>,
}

impl Source {
    fn new(make: MakeSession) -> Source {
        Source {
            make,
            next: Mutex::new(0),
        }
    }

    /// The next session, or `None` once `end` has passed or the stream is
    /// done.
    fn take(&self, end: Instant) -> Option<Session> {
        let index = {
            let mut next = self.next.lock().expect("source lock");
            if Instant::now() >= end {
                return None;
            }
            *next += 1;
            *next - 1
        };
        (self.make)(index)
    }
}

static TAGS: AtomicU64 = AtomicU64::new(1);

/// Runs `warmup`, then `make`'s stream for `seconds`, each on [`CONNS`]
/// connections, and returns all samples with their checks.
pub fn drive(addr: SocketAddr, warmup: Vec<Session>, make: MakeSession, seconds: f64) -> Outcome {
    let checker = Checker::default();
    let warm = Arc::new(warmup);
    let warm_source = Source::new(Arc::new(move |i| warm.get(i as usize).cloned()));
    let warm_start = Instant::now();
    let far = warm_start + Duration::from_secs(3600);
    std::thread::scope(|scope| {
        for _ in 0..CONNS {
            scope.spawn(|| run_worker(addr, &warm_source, far, None, &checker));
        }
    });
    let warmup_s = warm_start.elapsed().as_secs_f64();
    let source = Source::new(make);
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        for _ in 0..CONNS {
            scope.spawn(|| run_worker(addr, &source, end, Some(start), &checker));
        }
    });
    let mut out = checker.outcome.into_inner().expect("outcome lock");
    out.window_s = seconds;
    out.warmup_s = warmup_s;
    out.identity_checked = checker.identity_checked.load(Ordering::Relaxed);
    out.ratings_sent = checker.ratings_sent.load(Ordering::Relaxed);
    out
}

fn run_worker(
    addr: SocketAddr,
    source: &Source,
    end: Instant,
    window: Option<Instant>,
    checker: &Checker,
) {
    let mut conn = Conn::new(addr);
    let mut samples = Vec::new();
    let mut failures = Vec::new();
    while let Some(session) = source.take(end) {
        for req in &session {
            let tag = TAGS.fetch_add(1, Ordering::Relaxed);
            let commit = req.class == Class::Commit;
            let before = if commit {
                checker.commits_sent.fetch_add(1, Ordering::SeqCst);
                checker
                    .ratings_sent
                    .fetch_add(req.ratings as u64, Ordering::Relaxed);
                None
            } else {
                Some((
                    checker.commits_sent.load(Ordering::SeqCst),
                    checker.commits_done.load(Ordering::SeqCst),
                ))
            };
            let sent = Instant::now();
            let reply = conn.send(req.method, &req.target, &req.body, tag);
            let done = Instant::now();
            if commit {
                checker.commits_done.fetch_add(1, Ordering::SeqCst);
            }
            // A read's answer is pinned to a commit epoch only if no commit
            // was in flight at any point while it ran.
            let epoch = before.and_then(|(sent, acked)| {
                let stable = sent == acked && checker.commits_sent.load(Ordering::SeqCst) == sent;
                stable.then_some(acked)
            });
            let (ok, cache) = match &reply {
                Ok(r) => match checker.check(req, r, epoch) {
                    Ok(()) => (true, r.cache.clone()),
                    Err(e) => {
                        failures.push(e);
                        (false, r.cache.clone())
                    }
                },
                Err(e) => {
                    failures.push(format!("{} {}: {e}", req.method, req.target));
                    (false, None)
                }
            };
            samples.push(Sample {
                tag,
                class: req.class,
                latency_ms: done.duration_since(sent).as_secs_f64() * 1e3,
                measured: window.is_some_and(|w| sent >= w),
                at_s: window.map_or(0.0, |w| sent.saturating_duration_since(w).as_secs_f64()),
                ok,
                cache,
            });
        }
    }
    let mut out = checker.outcome.lock().expect("outcome lock");
    out.samples.extend(samples);
    for f in failures {
        out.fail(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::AtomicUsize;

    /// A stub server answering `{}` at once, one thread per connection,
    /// except that its `stall_at`-th request sleeps for `stall` first.
    fn stub(stall_at: usize, stall: Duration) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let served = Arc::new(AtomicUsize::new(0));
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(stream) = stream else { return };
                let served = Arc::clone(&served);
                std::thread::spawn(move || serve(stream, stall_at, stall, &served));
            }
        });
        addr
    }

    fn serve(stream: TcpStream, stall_at: usize, stall: Duration, served: &AtomicUsize) {
        let mut reader = BufReader::new(stream);
        loop {
            let mut length = 0;
            let mut line = String::new();
            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                return;
            }
            loop {
                line.clear();
                reader.read_line(&mut line).unwrap();
                if line.trim().is_empty() {
                    break;
                }
                if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                    length = v.trim().parse().unwrap();
                }
            }
            let mut body = vec![0; length];
            reader.read_exact(&mut body).unwrap();
            if served.fetch_add(1, Ordering::SeqCst) + 1 == stall_at {
                std::thread::sleep(stall);
            }
            let _ = reader
                .get_mut()
                .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}");
        }
    }

    fn get(route: &'static str) -> MakeSession {
        Arc::new(move |_| {
            Some(vec![Req {
                class: Class::Interact(route),
                method: "GET",
                target: route.into(),
                body: String::new(),
                ratings: 0,
            }])
        })
    }

    #[test]
    fn a_closed_loop_only_charges_the_stalled_request() {
        let addr = stub(5, Duration::from_millis(300));
        let out = drive(addr, Vec::new(), get("/api/v1/drill"), 0.6);
        assert_eq!(out.failed, 0, "{:?}", out.errors);
        let slow = out.samples.iter().filter(|s| s.latency_ms >= 150.0).count();
        assert_eq!(slow, 1);
        // The other connection kept going while one waited.
        assert!(out.samples.iter().filter(|s| s.at_s < 0.3).count() > 10);
    }

    #[test]
    fn wrong_answers_count_as_failed() {
        let addr = stub(0, Duration::ZERO);
        let out = drive(addr, Vec::new(), get("/map.svg"), 0.3);
        assert!(out.attempted() > 0);
        assert_eq!(out.failed, out.attempted());
    }
}
