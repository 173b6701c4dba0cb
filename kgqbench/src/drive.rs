//! Load generation over loopback TCP.
//!
//! Reads run in closed loops, because interactive callers wait for each
//! reply: a client sends its next request only when the previous one
//! has been answered. `mixed-write`'s writer runs an open loop instead:
//! it sends each commit when it is due, whether or not earlier commits
//! have been acknowledged, and each commit is timed from its due time.

use crate::inputs::{Kind, Req, Write};
use kgq_serve::protocol::{read_response, write_request, Caps, Request, Verb};
use std::collections::HashMap;
use std::io::BufReader;
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Expected response bodies of every read, keyed by request.
pub type Oracle = HashMap<Req, String>;

/// One read round trip.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Which stream and which request in it.
    pub stream: usize,
    pub index: usize,
    pub kind: Kind,
    pub sent: Instant,
    pub done: Instant,
    pub ok: bool,
}

impl Sample {
    pub fn ms(&self) -> f64 {
        (self.done - self.sent).as_secs_f64() * 1e3
    }
}

/// What one closed-loop client saw.
#[derive(Default)]
pub struct ReadLog {
    pub samples: Vec<Sample>,
    /// `ERR` responses (the server counts these as errors).
    pub errs: u64,
    /// A first failure, for the report.
    pub first_failure: Option<String>,
}

/// Whether a response is right: `STATS` must parse, every other read
/// must match the oracle byte for byte.
fn check(req: &Req, body: &str, oracle: &Oracle) -> Result<(), String> {
    if req.kind == Kind::Stats {
        return match kgq_serve::stat(body, "requests") {
            Some(_) => Ok(()),
            None => Err("STATS body without a requests counter".into()),
        };
    }
    match oracle.get(req) {
        Some(expected) if expected == body => Ok(()),
        Some(expected) => Err(format!(
            "{:?} `{}`: {} bytes differ from the oracle's {}",
            req.kind,
            req.payload.lines().last().unwrap_or(""),
            body.len(),
            expected.len()
        )),
        None => Err(format!("no oracle answer for `{}`", req.payload)),
    }
}

/// Closed loop on one connection: sends `stream[from..]`, cycling, until
/// `until` passes (or, with `count`, exactly `count` requests).
pub fn closed_loop(
    addr: &str,
    stream_id: usize,
    stream: &[Req],
    from: usize,
    stop: Stop,
    oracle: &Oracle,
) -> ReadLog {
    let mut log = ReadLog::default();
    let mut client = match kgq_serve::Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            log.first_failure = Some(format!("connect: {e}"));
            return log;
        }
    };
    let _ = client.set_timeout(Some(Duration::from_secs(120)));
    let mut i = from;
    loop {
        let sent = Instant::now();
        if stop.reached(i - from, sent) {
            break;
        }
        let req = &stream[i % stream.len()];
        let resp = client.request(req.kind.verb(), &Caps::none(), &req.payload);
        let done = Instant::now();
        let fatal = resp.is_err();
        let (ok, failure) = match resp {
            Ok(r) if r.ok => match check(req, &r.body, oracle) {
                Ok(()) => (true, None),
                Err(e) => (false, Some(e)),
            },
            Ok(r) => {
                log.errs += 1;
                (false, Some(format!("ERR {}", r.body.trim())))
            }
            Err(e) => (false, Some(format!("transport: {e}"))),
        };
        if log.first_failure.is_none() {
            log.first_failure = failure;
        }
        log.samples.push(Sample {
            stream: stream_id,
            index: i,
            kind: req.kind,
            sent,
            done,
            ok,
        });
        i += 1;
        // A transport error leaves the connection unusable.
        if fatal {
            break;
        }
    }
    log
}

/// When a loop stops: after a number of requests, or at a time.
#[derive(Clone, Copy)]
pub enum Stop {
    Count(usize),
    At(Instant),
}

impl Stop {
    fn reached(self, sent: usize, now: Instant) -> bool {
        match self {
            Stop::Count(n) => sent >= n,
            Stop::At(t) => now >= t,
        }
    }
}

/// One commit of the open-loop writer.
#[derive(Clone, Debug)]
pub struct Commit {
    pub index: usize,
    pub due: Instant,
    pub sent: Instant,
    /// Acknowledgement time and response, once it arrives.
    pub ack: Option<(Instant, bool, String)>,
}

impl Commit {
    /// How late the generator sent it, against its schedule.
    pub fn lag_ms(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }

    /// Latency measured from the due time, so a stall also counts
    /// against the commits queued behind it.
    pub fn latency_ms(&self) -> Option<f64> {
        self.ack
            .as_ref()
            .map(|(t, _, _)| t.saturating_duration_since(self.due).as_secs_f64() * 1e3)
    }
}

/// Due time of commit `k` when the schedule starts at `start` and runs
/// at `per_sec` commits per second.
pub fn due(start: Instant, k: usize, per_sec: u64) -> Instant {
    start + Duration::from_nanos(k as u64 * 1_000_000_000 / per_sec)
}

/// The open-loop writer: sends `writes[k]` at `due(start, k)` until
/// `until`, on one connection, while a second thread collects the
/// acknowledgements. The connection ends with a `PING`, so the
/// collector knows when every response is in. Returns the commits and
/// the number of requests sent (commits plus the `PING`).
pub fn open_loop(
    addr: &str,
    writes: &[Write],
    start: Instant,
    per_sec: u64,
    until: Instant,
) -> Result<(Vec<Commit>, u64), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("writer connect: {e}"))?;
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(|e| e.to_string())?;
    let reader = stream.try_clone().map_err(|e| e.to_string())?;
    let collector = std::thread::spawn(move || {
        let mut reader = BufReader::new(reader);
        let mut acks: HashMap<u64, (Instant, bool, String)> = HashMap::new();
        loop {
            match read_response(&mut reader) {
                Ok(Some(r)) => {
                    let at = Instant::now();
                    // Id 0 is the closing PING; every commit precedes it
                    // in the send order, but a second worker may answer
                    // out of order, so wait for both.
                    acks.insert(r.id, (at, r.ok, r.body));
                    if acks.contains_key(&0) && acks.len() as u64 == acks_needed(&acks) {
                        return Ok(acks);
                    }
                }
                Ok(None) => return Err("writer connection closed early".to_owned()),
                Err(e) => return Err(format!("writer read: {e}")),
            }
        }
    });
    let mut out = stream;
    let mut commits = Vec::new();
    let send = |out: &mut TcpStream, commits: &mut Vec<Commit>| -> std::io::Result<()> {
        for (k, w) in writes.iter().enumerate() {
            let due_at = due(start, k, per_sec);
            if due_at >= until {
                break;
            }
            let now = Instant::now();
            if due_at > now {
                std::thread::sleep(due_at - now);
            }
            let sent = Instant::now();
            let req = Request {
                id: k as u64 + 1,
                verb: if w.insert { Verb::Insert } else { Verb::Delete },
                caps: Caps::none(),
                payload: w.payload(),
            };
            write_request(out, &req)?;
            commits.push(Commit {
                index: k,
                due: due_at,
                sent,
                ack: None,
            });
        }
        // The closing PING names how many commits precede it.
        let close = Request {
            id: 0,
            verb: Verb::Ping,
            caps: Caps::none(),
            payload: commits.len().to_string(),
        };
        write_request(out, &close)
    };
    let sent = send(&mut out, &mut commits);
    if sent.is_err() {
        // Unblock the collector before joining it.
        let _ = out.shutdown(std::net::Shutdown::Both);
    }
    let acks = collector
        .join()
        .map_err(|_| "writer collector panicked".to_owned())?;
    sent.map_err(|e| format!("writer send: {e}"))?;
    let mut acks = acks?;
    for c in &mut commits {
        c.ack = acks.remove(&(c.index as u64 + 1));
    }
    let sent = commits.len() as u64 + 1;
    Ok((commits, sent))
}

/// Responses the collector must hold: the closing `PING` (whose body
/// names the commit count) plus every commit.
fn acks_needed(acks: &HashMap<u64, (Instant, bool, String)>) -> u64 {
    acks.get(&0)
        .and_then(|(_, _, body)| body.trim().parse::<u64>().ok())
        .map_or(u64::MAX, |n| n + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_follow_the_schedule_not_the_acks() {
        let t0 = Instant::now();
        assert_eq!(due(t0, 0, 10), t0);
        assert_eq!(due(t0, 1, 10), t0 + Duration::from_millis(100));
        assert_eq!(due(t0, 25, 10), t0 + Duration::from_millis(2_500));
        // A commit sent 30 ms late and acknowledged 50 ms after sending
        // counts 80 ms: the stall that delayed it is part of its latency.
        let d = due(t0, 3, 10);
        let c = Commit {
            index: 3,
            due: d,
            sent: d + Duration::from_millis(30),
            ack: Some((d + Duration::from_millis(80), true, String::new())),
        };
        assert!((c.lag_ms() - 30.0).abs() < 1e-6);
        assert!((c.latency_ms().unwrap() - 80.0).abs() < 1e-6);
        // Sent early (never happens, but must not go negative).
        let early = Commit {
            index: 0,
            due: d,
            sent: t0,
            ack: None,
        };
        assert_eq!(early.lag_ms(), 0.0);
        assert_eq!(early.latency_ms(), None);
    }
}
