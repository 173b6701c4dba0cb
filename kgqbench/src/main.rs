//! `kgqbench` — the serving benchmark for `kgq`.
//!
//! ```text
//! kgqbench --workload lookup|analytic|mixed-write --seed N --seconds S --trace 0|1
//!          --kgq PATH/TO/kgq --work DIR
//! ```
//!
//! One process generates the workload's inputs from the seed, computes
//! the expected answer of every read with the library (the oracle),
//! boots the real `kgq serve` binary as a child process (`--workers`
//! equal to the CPU count, every `KGQ_*` variable cleared), drives it
//! over loopback TCP with at most two client connections for `S`
//! seconds, checks every answer, and prints every metric by name and
//! unit. The last line of standard output is one JSON object.
//!
//! - `--trace 0` reports the end-to-end metrics: set-up time,
//!   throughput, read latency (overall and per verb), peak server RSS.
//! - `--trace 1` runs the same traffic, then replays the request
//!   sequence the server received on an in-process replica (its own
//!   graph, store, `QueryCache` and durable directory) with a span
//!   around every call into a layer's public functions, and reports
//!   the per-layer metrics. A request cannot be timed both over TCP and
//!   inside the server without instrumenting the program, so each
//!   request's tree is its measured TCP round trip (`request`) with the
//!   replica's `serve.execute` subtree placed inside it; the wire's
//!   share is the round trip minus the replica's execute time.
//!
//! See `inputs.rs` for the workloads and why each exists.

mod drive;
mod inputs;
mod replica;
mod server;
mod stats;
mod trace;

use drive::{Commit, Oracle, ReadLog, Sample, Stop};
use inputs::{Inputs, Kind, Req, Workload, Write, WRITES_PER_SEC};
use replica::Replica;
use server::{ServeArgs, Server};
use stats::{median, percentile, sorted};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::{Recorder, Tree};

/// Set-ups per end-to-end run (`mixed-write`, whose set-up also loads
/// the durable store, fewer); `setup_s` is their median.
const SETUPS: usize = 11;
const SETUPS_WITH_STORE: usize = 5;
/// Reads each connection sends before timing starts (`analytic`: one
/// pass over its request set).
const WARMUP_READS: usize = 30;
/// A traced request's layers must account for its round trip within
/// this share of it.
const ACCOUNTING_BOUND: f64 = 0.10;
/// Share of traced requests that must meet `ACCOUNTING_BOUND`. The
/// replica's execute is a second run of the request, not the server's,
/// so on heavy requests it can run slower than the server did and stick
/// out of the round trip; the report gives the share and the worst miss.
const ACCOUNTED_SHARE: f64 = 0.5;
/// The writer fell behind schedule, and the run is invalid rather than
/// slow, when any commit was sent this much later than due (one period
/// of the 10 commits/s schedule).
const MAX_WRITER_LAG_MS: f64 = 100.0;
/// Labels per `QUERY pairs` request in the write-model check.
const LABELS_PER_CHECK: usize = 40;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    kgq: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let need = |flag: &str| get(flag).ok_or(format!("missing {flag}"));
    let workload = need("--workload")?;
    let num = |flag: &str| -> Result<u64, String> {
        need(flag)?
            .parse()
            .map_err(|_| format!("{flag} needs a whole number"))
    };
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload `{workload}`"))?,
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1),
        trace: match need("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
        },
        kgq: PathBuf::from(need("--kgq")?),
        work: PathBuf::from(need("--work")?),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kgqbench: {e}");
            std::process::exit(2);
        }
    };
    // The replica and the oracle must see the program's defaults too.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("KGQ_") {
            std::env::remove_var(key);
        }
    }
    match run(&args) {
        Ok(out) => {
            print!("{}", out.report);
            println!("{}", out.json());
        }
        Err(e) => {
            eprintln!("kgqbench: {e}");
            std::process::exit(1);
        }
    }
}

/// A metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// The metrics of the JSON line.
    metrics: Vec<Metric>,
    report: String,
}

impl Outcome {
    fn json(&self) -> String {
        let mut m = String::new();
        for (i, x) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// `kgq store init` done with the library: stage every triple, commit,
/// compact. The oracle and the replica get their own directories.
fn library_store_init(dir: &Path, nt: &str) -> Result<(), String> {
    let io = |e: std::io::Error| format!("{}: {e}", dir.display());
    let (mut store, _) = kgq_store::DurableStore::open(dir).map_err(io)?;
    let parsed = kgq_rdf::parse_ntriples(nt).map_err(|e| e.to_string())?;
    for t in parsed.iter() {
        store.stage_insert(
            parsed.term_str(t.s),
            parsed.term_str(t.p),
            parsed.term_str(t.o),
        );
    }
    store.commit().map_err(io)?;
    store.compact().map_err(io)
}

/// Everything one run needs about its files.
struct Files {
    dir: PathBuf,
    graph: PathBuf,
    nt: PathBuf,
    store: PathBuf,
}

impl Files {
    /// A replica loaded the way the server loads: from `--nt` for the
    /// read workloads, from a durable directory of its own (initialized
    /// with the library) for `mixed-write`.
    fn replica(&self, inp: &Inputs, name: &str) -> Result<Replica, String> {
        if inp.workload == Workload::MixedWrite {
            let dir = self.dir.join(name);
            library_store_init(&dir, &inp.ntriples)?;
            Replica::load(&inp.graph, None, Some(&dir))
        } else {
            Replica::load(&inp.graph, Some(&inp.ntriples), None)
        }
    }

    fn serve_args(&self, kgq: &Path, workload: Workload) -> ServeArgs {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut args: Vec<std::ffi::OsString> = vec![self.graph.clone().into()];
        if workload == Workload::MixedWrite {
            args.push("--store".into());
            args.push(self.store.clone().into());
        } else {
            args.push("--nt".into());
            args.push(self.nt.clone().into());
        }
        args.push("--workers".into());
        args.push(workers.to_string().into());
        ServeArgs {
            kgq: kgq.to_path_buf(),
            args,
            log: self.dir.join("serve.log"),
        }
    }
}

/// The expected body of every read the streams hold, computed by the
/// library on the generated inputs (split over two replicas, one per
/// thread, to keep set-up short).
fn build_oracle(inp: &Inputs, files: &Files) -> Result<Oracle, String> {
    let mut distinct: Vec<&Req> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for req in inp.streams.iter().flatten() {
        if req.kind != Kind::Stats && seen.insert(req) {
            distinct.push(req);
        }
    }
    let half = distinct.len().div_ceil(2).max(1);
    let parts: Vec<Result<Oracle, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = distinct
            .chunks(half)
            .enumerate()
            .map(|(i, chunk)| {
                s.spawn(move || {
                    let mut replica = files.replica(inp, &format!("oracle-store-{i}"))?;
                    let mut off = Recorder::off();
                    let mut part = Oracle::new();
                    for req in chunk {
                        let body = replica
                            .read(req, &mut off)
                            .map_err(|e| format!("oracle: `{}`: {e}", req.payload))?;
                        part.insert((*req).clone(), body);
                    }
                    Ok(part)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    });
    let mut oracle = Oracle::new();
    for part in parts {
        oracle.extend(part?);
    }
    Ok(oracle)
}

/// What the clients of one run saw.
struct Traffic {
    warm: Vec<Sample>,
    reads: Vec<Sample>,
    commits: Vec<Commit>,
    start: Instant,
    /// Requests sent (for the `STATS` check) and `ERR`s received.
    sent: u64,
    errs: u64,
    failures: Vec<String>,
    /// Round trip of the `STATS` sent after the run, and the store
    /// operations the acknowledged commits carried.
    stats_check_ms: f64,
    write_ops: usize,
}

fn run_readers(addr: &str, inp: &Inputs, from: usize, stop: Stop, oracle: &Oracle) -> Vec<ReadLog> {
    std::thread::scope(|s| {
        let handles: Vec<_> = inp
            .streams
            .iter()
            .enumerate()
            .map(|(c, stream)| {
                s.spawn(move || drive::closed_loop(addr, c, stream, from, stop, oracle))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect()
    })
}

fn drive_traffic(
    server: &Server,
    inp: &Inputs,
    oracle: &Oracle,
    seconds: u64,
) -> Result<Traffic, String> {
    let warm_n = match inp.workload {
        Workload::Analytic => inputs::analytic_requests().len(),
        _ => WARMUP_READS,
    };
    let mut t = Traffic {
        warm: Vec::new(),
        reads: Vec::new(),
        commits: Vec::new(),
        start: Instant::now(),
        sent: 0,
        errs: 0,
        failures: Vec::new(),
        stats_check_ms: 0.0,
        write_ops: 0,
    };
    let absorb = |t: &mut Traffic, logs: Vec<ReadLog>, warm: bool| {
        for log in logs {
            t.sent += log.samples.len() as u64;
            t.errs += log.errs;
            t.failures.extend(log.first_failure);
            if warm {
                t.warm.extend(log.samples);
            } else {
                t.reads.extend(log.samples);
            }
        }
    };
    let warm = run_readers(&server.addr, inp, 0, Stop::Count(warm_n), oracle);
    absorb(&mut t, warm, true);
    let writes: Vec<Write> = if inp.workload == Workload::MixedWrite {
        inp.writes(seconds as usize * WRITES_PER_SEC as usize + 1)
    } else {
        Vec::new()
    };
    t.start = Instant::now();
    let until = t.start + Duration::from_secs(seconds);
    let addr = server.addr.as_str();
    let (logs, writer) = std::thread::scope(|s| {
        let writer = (!writes.is_empty())
            .then(|| s.spawn(|| drive::open_loop(addr, &writes, t.start, WRITES_PER_SEC, until)));
        let logs = run_readers(addr, inp, warm_n, Stop::At(until), oracle);
        (
            logs,
            writer.map(|h| h.join().expect("writer thread panicked")),
        )
    });
    absorb(&mut t, logs, false);
    if let Some(w) = writer {
        let (commits, sent) = w?;
        t.sent += sent;
        for c in &commits {
            match &c.ack {
                Some((_, true, _)) => {}
                Some((_, false, body)) => {
                    t.errs += 1;
                    t.failures
                        .push(format!("commit {}: ERR {}", c.index, body.trim()));
                }
                None => t
                    .failures
                    .push(format!("commit {}: no acknowledgement", c.index)),
            }
        }
        t.commits = commits;
    }
    Ok(t)
}

/// Whether a commit's acknowledgement says what the batch did.
fn commit_ok(c: &Commit, w: &Write) -> bool {
    let Some((_, true, body)) = &c.ack else {
        return false;
    };
    let first = body.lines().next().unwrap_or("");
    if w.insert {
        first == format!("inserted {} triple(s), 1 edge(s)", w.triples.len())
    } else {
        first == format!("deleted {} triple(s)", w.triples.len())
    }
}

/// The acknowledged state of the write predicate and the fresh edges.
struct Model {
    triples: BTreeSet<String>,
    edges: BTreeSet<String>,
    labels: Vec<String>,
}

fn model(commits: &[Commit], writes: &[Write]) -> Model {
    let mut m = Model {
        triples: BTreeSet::new(),
        edges: BTreeSet::new(),
        labels: Vec::new(),
    };
    for c in commits {
        if !matches!(&c.ack, Some((_, true, _))) {
            continue;
        }
        let w = &writes[c.index];
        for (s, _, o) in &w.triples {
            let row = format!("{s}\t{o}\n");
            if w.insert {
                m.triples.insert(row);
            } else {
                m.triples.remove(&row);
            }
        }
        if let Some((src, label, dst)) = &w.edge {
            m.edges.insert(format!("{src}\t{dst}\n"));
            m.labels.push(label.clone());
        }
    }
    m
}

/// Reads back the write predicate and the fresh-label edges over TCP
/// and compares them with the model.
fn check_model(addr: &str, m: &Model) -> Result<(), String> {
    let mut c = kgq_serve::Client::connect(addr).map_err(|e| e.to_string())?;
    let none = kgq_serve::Caps::none();
    let q = format!("SELECT ?s ?o WHERE {{ ?s <{}> ?o . }}", inputs::WRITE_PRED);
    let r = c.sparql(&q, &none).map_err(|e| e.to_string())?;
    let got: BTreeSet<String> = r.body.lines().map(|l| format!("{l}\n")).collect();
    if !r.ok || got != m.triples {
        return Err(format!(
            "store holds {} write triples, the model {}",
            got.len(),
            m.triples.len()
        ));
    }
    let mut edges = BTreeSet::new();
    for chunk in m.labels.chunks(LABELS_PER_CHECK) {
        let r = c
            .rpq("pairs", &format!("({})", chunk.join("+")), &none)
            .map_err(|e| e.to_string())?;
        if !r.ok {
            return Err(format!("edge check: ERR {}", r.body.trim()));
        }
        edges.extend(r.body.lines().map(|l| format!("{l}\n")));
    }
    if edges != m.edges {
        return Err(format!(
            "graph holds {} fresh-label edges, the model {}",
            edges.len(),
            m.edges.len()
        ));
    }
    Ok(())
}

/// Milliseconds of each sample matching `keep`, ascending.
fn latencies(samples: &[Sample], keep: impl Fn(&Sample) -> bool) -> Vec<f64> {
    sorted(samples.iter().filter(|s| keep(s)).map(Sample::ms).collect())
}

struct Report {
    text: String,
    metrics: Vec<Metric>,
    /// Metrics a workload needs but could not report.
    missing: Vec<String>,
}

impl Report {
    fn new() -> Report {
        Report {
            text: String::new(),
            metrics: Vec::new(),
            missing: Vec::new(),
        }
    }

    fn line(&mut self, s: impl AsRef<str>) {
        self.text.push_str(s.as_ref());
        self.text.push('\n');
    }

    /// Prints a metric; `json` puts it on the result line too.
    fn put(
        &mut self,
        name: &'static str,
        value: Option<f64>,
        unit: &'static str,
        n: usize,
        json: bool,
    ) {
        match value {
            Some(v) => {
                self.line(format!("{name} = {v:.4} {unit} (n={n})"));
                if json {
                    self.metrics.push(Metric {
                        name,
                        value: v,
                        unit,
                    });
                }
            }
            None => {
                self.line(format!("{name} = - {unit} (n={n}: too few samples)"));
                if json {
                    self.missing.push(name.to_owned());
                }
            }
        }
    }

    /// The median of a per-request count.
    fn counted(&mut self, name: &'static str, v: &[f64]) {
        self.put(name, percentile(v, 0.5), "count", v.len(), true);
    }

    /// The p50 (and p90, when ten samples lie beyond it) of `v`; with
    /// fewer than twenty samples, their median, marked as such.
    fn timing(&mut self, name: &'static str, v: &[f64], unit: &'static str, json: bool) {
        if v.len() < 20 && !v.is_empty() {
            self.put(name, median(v), unit, v.len(), json);
            self.line(format!("  {name}: median of only {} samples", v.len()));
            return;
        }
        self.put(name, percentile(v, 0.5), unit, v.len(), json);
        if let Some(p90) = percentile(v, 0.9) {
            self.line(format!("  {name} p90 = {p90:.4} {unit}"));
        }
    }
}

fn run(a: &Args) -> Result<Outcome, String> {
    let w = a.workload;
    let dir = a
        .work
        .join(format!("{}-{}-{}", w.name(), a.seed, std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let _scratch = Scratch(dir.clone());
    if !a.kgq.is_file() {
        return Err(format!("no kgq binary at {}", a.kgq.display()));
    }
    let files = Files {
        graph: dir.join("graph.g"),
        nt: dir.join("data.nt"),
        store: dir.join("store"),
        dir,
    };
    let inp = Inputs::generate(w, a.seed);
    write_file(&files.graph, &inp.graph)?;
    write_file(&files.nt, &inp.ntriples)?;
    let mut r = Report::new();
    r.line(format!(
        "kgqbench workload={} seed={} seconds={} trace={}",
        w.name(),
        a.seed,
        a.seconds,
        u8::from(a.trace)
    ));
    let t = Instant::now();
    let oracle = build_oracle(&inp, &files)?;
    r.line(format!(
        "oracle: {} distinct read answers computed with the library in {:.2} s",
        oracle.len(),
        t.elapsed().as_secs_f64()
    ));

    // Set-up: from spawning `kgq store init` (mixed-write) and
    // `kgq serve` to the first successful PING; the median of several.
    let spec = files.serve_args(&a.kgq, w);
    let reps = match (a.trace, w) {
        (true, _) => 1,
        (false, Workload::MixedWrite) => SETUPS_WITH_STORE,
        (false, _) => SETUPS,
    };
    let mut setups = Vec::new();
    let mut server = None;
    for rep in 0..reps {
        if w == Workload::MixedWrite {
            let _ = std::fs::remove_dir_all(&files.store);
        }
        let t0 = Instant::now();
        if w == Workload::MixedWrite {
            server::store_init(&a.kgq, &files.store, &files.nt, &spec.log)?;
        }
        let s = Server::boot(&spec)?;
        setups.push(t0.elapsed().as_secs_f64());
        if rep + 1 < reps {
            s.shutdown()?;
        } else {
            server = Some(s);
        }
    }
    let mut server = server.expect("at least one set-up");
    let mut traffic = drive_traffic(&server, &inp, &oracle, a.seconds)?;
    let writes = if w == Workload::MixedWrite {
        inp.writes(traffic.commits.len())
    } else {
        Vec::new()
    };
    traffic.write_ops = writes
        .iter()
        .map(|w| w.triples.len() + usize::from(w.edge.is_some()))
        .sum();

    // Correctness of the run: answers, commits, counters, model.
    let mut failures = traffic.failures.clone();
    let bad_reads = traffic
        .warm
        .iter()
        .chain(&traffic.reads)
        .filter(|s| !s.ok)
        .count() as u64;
    let bad_commits = traffic
        .commits
        .iter()
        .filter(|c| !commit_ok(c, &writes[c.index]))
        .count() as u64;
    let attempted = (traffic.warm.len() + traffic.reads.len() + traffic.commits.len()) as u64;
    let failed = bad_reads + bad_commits;
    let mut checks_ok = true;
    let worst_lag = traffic
        .commits
        .iter()
        .map(Commit::lag_ms)
        .fold(0.0, f64::max);
    if worst_lag > MAX_WRITER_LAG_MS {
        checks_ok = false;
        failures.push(format!(
            "the writer fell {worst_lag:.1} ms behind schedule: the run is invalid, not slow"
        ));
    }
    let t0 = Instant::now();
    let stats_body = server.stats()?;
    traffic.stats_check_ms = t0.elapsed().as_secs_f64() * 1e3;
    let requests = kgq_serve::stat(&stats_body, "requests");
    let errors = kgq_serve::stat(&stats_body, "errors");
    let expected_requests = server.sent + traffic.sent;
    if requests != Some(expected_requests) || errors != Some(traffic.errs) {
        checks_ok = false;
        failures.push(format!(
            "STATS says requests {requests:?} errors {errors:?}; the clients counted {expected_requests} and {}",
            traffic.errs
        ));
    } else {
        r.line(format!(
            "stats check: server counted {expected_requests} requests and {} errors, as the clients did",
            traffic.errs
        ));
    }
    let rss = server.peak_rss_mb();
    if w == Workload::MixedWrite {
        let m = model(&traffic.commits, &writes);
        match check_model(&server.addr, &m) {
            Ok(_) => r.line(format!(
                "write check: store and graph equal the model of {} acknowledged commits ({} live triples, {} edges)",
                traffic.commits.len(),
                m.triples.len(),
                m.edges.len()
            )),
            Err(e) => {
                checks_ok = false;
                failures.push(format!("write check: {e}"));
            }
        }
        // Crash and recover: SIGKILL, reboot from the same --store.
        server.kill();
        let t0 = Instant::now();
        server = Server::boot(&spec)?;
        let recovery_s = t0.elapsed().as_secs_f64();
        match check_model(&server.addr, &m) {
            Ok(_) => r.line(format!(
                "recovery check: after SIGKILL and a reboot in {recovery_s:.3} s every acknowledged \
                 INSERT/DELETE is visible (the page cache survives the kill, so this checks \
                 recovery logic, not device flushes)"
            )),
            Err(e) => {
                checks_ok = false;
                failures.push(format!("recovery check: {e}"));
            }
        }
    }
    let stats_after = if a.trace { Some(stats_body) } else { None };
    server.shutdown()?;

    r.line(format!(
        "failed_frac = {} ratio ({failed} of {attempted} requests failed)",
        failed as f64 / attempted.max(1) as f64
    ));
    for f in failures.iter().take(5) {
        r.line(format!("failure: {f}"));
    }
    let window = traffic
        .reads
        .iter()
        .map(|s| s.done)
        .max()
        .map_or(0.0, |end| (end - traffic.start).as_secs_f64());

    let mut correct = failed == 0 && failures.is_empty() && checks_ok;
    if a.trace {
        // The replica runs on a thread of its own, as a server worker does.
        let ok = std::thread::scope(|s| {
            s.spawn(|| {
                traced(
                    &mut r,
                    &inp,
                    &files,
                    &traffic,
                    &writes,
                    &oracle,
                    stats_after.as_deref(),
                    &a.work,
                )
            })
            .join()
            .expect("replay thread panicked")
        })?;
        correct &= ok;
    } else {
        end_to_end(&mut r, &traffic, window, &setups, rss);
        per_request(&mut r, &traffic, &inp, &oracle);
    }
    if !r.missing.is_empty() {
        return Err(format!(
            "{}too few samples for {} in {} s; raise --seconds",
            r.text,
            r.missing.join(", "),
            a.seconds
        ));
    }
    Ok(Outcome {
        correct,
        attempted,
        failed,
        metrics: r.metrics,
        report: r.text,
    })
}

fn end_to_end(r: &mut Report, t: &Traffic, window: f64, setups: &[f64], rss: Option<f64>) {
    let setup_list: Vec<String> = setups.iter().map(|s| format!("{s:.3}")).collect();
    r.put("setup_s", median(setups), "s", setups.len(), true);
    r.line(format!("  set-ups: {}", setup_list.join(" ")));
    let done = t.reads.iter().filter(|s| s.ok).count();
    r.put(
        "throughput_rps",
        (window > 0.0).then(|| done as f64 / window),
        "req/s",
        done,
        true,
    );
    let all = latencies(&t.reads, |_| true);
    r.put(
        "latency_p50_ms",
        percentile(&all, 0.5),
        "ms",
        all.len(),
        true,
    );
    r.put(
        "latency_p90_ms",
        percentile(&all, 0.9),
        "ms",
        all.len(),
        true,
    );
    r.put(
        "latency_p99_ms",
        percentile(&all, 0.99),
        "ms",
        all.len(),
        false,
    );
    for (name, kind) in [
        ("query_p50_ms", Kind::Query),
        ("cypher_p50_ms", Kind::Cypher),
        ("sparql_p50_ms", Kind::Sparql),
    ] {
        let v = latencies(&t.reads, |s| s.kind == kind);
        r.put(name, percentile(&v, 0.5), "ms", v.len(), true);
    }
    r.put("server_rss_mb", rss, "MiB", 1, true);
    if !t.commits.is_empty() {
        write_metrics(r, t);
    }
}

/// The median round trip of each distinct read text with at least five
/// samples, slowest first, with its body size: where the overall and
/// per-verb quantiles fall.
fn per_request(r: &mut Report, t: &Traffic, inp: &Inputs, oracle: &Oracle) {
    let mut by_req: HashMap<&Req, Vec<f64>> = HashMap::new();
    for s in &t.reads {
        let req = &inp.streams[s.stream][s.index % inp.streams[s.stream].len()];
        if req.kind != Kind::Stats {
            by_req.entry(req).or_default().push(s.ms());
        }
    }
    if by_req.len() > 20 {
        return;
    }
    let mut rows: Vec<(f64, usize, &Req)> = by_req
        .into_iter()
        .filter(|(_, v)| v.len() >= 5)
        .filter_map(|(req, v)| Some((median(&v)?, v.len(), req)))
        .collect();
    rows.sort_by(|a, b| b.0.total_cmp(&a.0));
    r.line("per request (median ms, samples, body bytes, verb, text):");
    for (ms, n, req) in rows {
        let text: String = req.payload.replace('\n', " ").chars().take(56).collect();
        let bytes = oracle.get(req).map_or(0, String::len);
        r.line(format!("  {ms:8.2} {n:4} {bytes:8} {:?} {text}", req.kind));
    }
}

/// `mixed-write`'s own end-to-end figures.
fn write_metrics(r: &mut Report, t: &Traffic) {
    let lat = sorted(t.commits.iter().filter_map(Commit::latency_ms).collect());
    r.put(
        "write_p50_ms",
        percentile(&lat, 0.5),
        "ms",
        lat.len(),
        false,
    );
    r.put(
        "write_p90_ms",
        percentile(&lat, 0.9),
        "ms",
        lat.len(),
        false,
    );
    // The first read sent after each acknowledged commit.
    let mut reads: Vec<&Sample> = t.reads.iter().collect();
    reads.sort_by_key(|s| s.sent);
    let raw = sorted(
        t.commits
            .iter()
            .filter_map(|c| c.ack.as_ref().map(|a| a.0))
            .filter_map(|ack| {
                let i = reads.partition_point(|s| s.sent < ack);
                reads.get(i).map(|s| s.ms())
            })
            .collect(),
    );
    r.put(
        "read_after_write_p50_ms",
        percentile(&raw, 0.5),
        "ms",
        raw.len(),
        false,
    );
    let lag = sorted(t.commits.iter().map(Commit::lag_ms).collect());
    r.put(
        "bench.writer_lag_ms",
        percentile(&lag, 0.5),
        "ms",
        lag.len(),
        false,
    );
}

/// One request of the replayed sequence.
enum Step<'a> {
    Read(&'a Sample, &'a Req),
    Commit(&'a Commit, &'a Write),
}

/// Replays the server's request sequence on a replica with spans, and
/// reports the per-layer metrics. Returns whether the replay agreed
/// with the server and the layers accounted for the round trips.
#[allow(clippy::too_many_arguments)]
fn traced(
    r: &mut Report,
    inp: &Inputs,
    files: &Files,
    t: &Traffic,
    writes: &[Write],
    oracle: &Oracle,
    stats: Option<&str>,
    work: &Path,
) -> Result<bool, String> {
    let mut ok = true;
    let mut steps: Vec<(Instant, bool, Step)> = Vec::new();
    for (s, warm) in t
        .warm
        .iter()
        .map(|s| (s, true))
        .chain(t.reads.iter().map(|s| (s, false)))
    {
        let stream = &inp.streams[s.stream];
        steps.push((s.sent, warm, Step::Read(s, &stream[s.index % stream.len()])));
    }
    for c in &t.commits {
        steps.push((c.sent, false, Step::Commit(c, &writes[c.index])));
    }
    // The order the server received them in: by send time.
    steps.sort_by_key(|(at, _, _)| *at);

    let mut replica = files.replica(inp, "replica-store")?;
    let epoch = t.start;
    let mut rec = Recorder::new(epoch);
    let mut trees: Vec<Tree> = Vec::new();
    let mut warm_spans: Vec<trace::Span> = Vec::new();
    let mut cache_at_window = None;
    let mut mismatches = 0;
    for (i, (_, warm, step)) in steps.iter().enumerate() {
        if !warm && cache_at_window.is_none() {
            let c = replica.cache();
            cache_at_window = Some((c.hits(), c.misses(), c.evictions()));
        }
        let (sent, done, body) = match step {
            Step::Read(s, req) => {
                let body = if req.kind == Kind::Stats {
                    String::new()
                } else {
                    let b = replica.read(req, &mut rec)?;
                    if oracle.get(*req) != Some(&b) {
                        mismatches += 1;
                    }
                    b
                };
                (s.sent, s.done, body)
            }
            Step::Commit(c, w) => {
                let b = replica.write(w, &mut rec)?;
                let Some((ack, _, server_body)) = &c.ack else {
                    rec.take();
                    continue;
                };
                if *server_body != b {
                    mismatches += 1;
                }
                (c.sent, *ack, b)
            }
        };
        let (inner, counts) = rec.take();
        let tree = assemble(i, rec.ns(sent), rec.ns(done), inner, counts, &body);
        if *warm {
            warm_spans.extend(tree.spans);
        } else {
            trees.push(tree);
        }
    }
    if mismatches > 0 {
        ok = false;
        r.line(format!(
            "replay: {mismatches} replica answers differ from the oracle or the server's acknowledgements"
        ));
    } else {
        r.line(format!(
            "replay: {} requests replayed on the replica in the order the server received them; every answer agrees",
            steps.len()
        ));
    }

    // Accounting: per request, the layers' self times sum to within
    // ACCOUNTING_BOUND of the request span.
    let errors: Vec<f64> = trees.iter().map(Tree::accounting_error).collect();
    let within = errors.iter().filter(|&&e| e <= ACCOUNTING_BOUND).count();
    let share = within as f64 / errors.len().max(1) as f64;
    let worst = errors.iter().copied().fold(0.0, f64::max);
    r.line(format!(
        "accounting: {within} of {} traced requests have layer self times within {:.0}% of their round trip \
         (worst {:.1}%; {:.0}% required)",
        errors.len(),
        ACCOUNTING_BOUND * 100.0,
        worst * 100.0,
        ACCOUNTED_SHARE * 100.0
    ));
    if share < ACCOUNTED_SHARE {
        ok = false;
    }

    let all_spans: Vec<&trace::Span> = trees
        .iter()
        .flat_map(|t| t.spans.iter())
        .chain(&warm_spans)
        .collect();
    layer_metrics(
        r,
        &trees,
        &all_spans,
        replica.cache(),
        cache_at_window,
        stats,
        t,
    );

    let dump_path = work.join(format!("spans-{}.tsv", inp.workload.name()));
    write_file(&dump_path, &trace::dump(&trees))?;
    r.line(format!("spans written to {}", dump_path.display()));
    Ok(ok)
}

/// One request's tree: the `request` span is the measured round trip;
/// the replica's `serve.execute` subtree is centred inside it, and the
/// `serve.frame` span (framing the same body on an in-memory buffer)
/// closes it.
fn assemble(
    id: usize,
    sent: i64,
    done: i64,
    mut inner: Vec<trace::Span>,
    counts: Vec<(&'static str, f64)>,
    body: &str,
) -> Tree {
    let frame = frame_ns(body);
    let mut spans = vec![trace::Span {
        name: "request",
        parent: None,
        start: sent,
        end: done,
    }];
    if let Some(exec) = inner.first() {
        let room = (done - frame - sent - exec.dur()).max(0);
        let offset = sent + room / 2 - exec.start;
        trace::shift(&mut inner, offset);
        for s in &mut inner {
            s.parent = Some(s.parent.map_or(0, |p| p + 1));
        }
        spans.extend(inner);
    }
    spans.push(trace::Span {
        name: "serve.frame",
        parent: Some(0),
        start: done - frame,
        end: done,
    });
    let mut counts = counts;
    counts.push(("serve.response_bytes", body.len() as f64));
    Tree { id, spans, counts }
}

/// `write_response` + `read_response` of `body` on an in-memory buffer.
fn frame_ns(body: &str) -> i64 {
    use kgq_serve::protocol::{read_response, write_response, Response};
    let resp = Response {
        id: 1,
        ok: true,
        body: body.to_owned(),
    };
    let t = Instant::now();
    let mut buf = Vec::with_capacity(body.len() + 32);
    let _ = write_response(&mut buf, &resp);
    let back = read_response(&mut std::io::BufReader::new(&buf[..]));
    std::hint::black_box(back.ok());
    t.elapsed().as_nanos() as i64
}

fn layer_metrics(
    r: &mut Report,
    trees: &[Tree],
    all_spans: &[&trace::Span],
    cache: &kgq_core::QueryCache,
    cache_at_window: Option<(u64, u64, u64)>,
    stats: Option<&str>,
    t: &Traffic,
) {
    // Per-request sums of each span's duration and self time.
    let mut dur: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut own: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut counts: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut reads_traced = Vec::new();
    for tree in trees {
        let selfs = trace::self_times(&tree.spans);
        let mut d: BTreeMap<&str, f64> = BTreeMap::new();
        let mut o: BTreeMap<&str, f64> = BTreeMap::new();
        for (s, own_ns) in tree.spans.iter().zip(&selfs) {
            *d.entry(s.name).or_default() += s.dur() as f64;
            *o.entry(s.name).or_default() += *own_ns as f64;
        }
        let is_write = d.contains_key("store.commit");
        let is_stats = !d.contains_key("serve.execute");
        if !is_write && !is_stats {
            reads_traced.push(tree.spans[0].dur() as f64 / 1e6);
        }
        for (k, v) in d {
            // The wire and the frame belong to reads; writes have their own.
            if is_write && matches!(k, "request" | "serve.execute" | "serve.frame") {
                continue;
            }
            dur.entry(k).or_default().push(v);
        }
        for (k, v) in o {
            if !is_write && !is_stats {
                own.entry(k).or_default().push(v);
            }
        }
        for (k, v) in &tree.counts {
            if !((is_stats || is_write) && *k == "serve.response_bytes") {
                counts.entry(k).or_default().push(*v);
            }
        }
    }
    let ms = |v: &[f64]| sorted(v.iter().map(|x| x / 1e6).collect());
    let us = |v: &[f64]| sorted(v.iter().map(|x| x / 1e3).collect());
    let empty = Vec::new();
    let d = |k: &str| dur.get(k).unwrap_or(&empty);
    let o = |k: &str| own.get(k).unwrap_or(&empty);
    let c = |k: &str| sorted(counts.get(k).cloned().unwrap_or_default());
    // Spans that happen once per generation or cache miss, wherever
    // they fell (often in the warm-up).
    let rare = |name: &str| -> Vec<f64> {
        sorted(
            all_spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.dur() as f64 / 1e6)
                .collect(),
        )
    };

    r.timing("serve.wire_ms", &ms(o("request")), "ms", true);
    r.timing("serve.execute_ms", &ms(d("serve.execute")), "ms", true);
    r.timing("serve.serialize_ms", &ms(o("serve.execute")), "ms", true);
    r.timing("serve.frame_us", &us(d("serve.frame")), "us", true);
    r.counted("serve.response_bytes", &c("serve.response_bytes"));
    // Every STATS of the run, the one sent after it included.
    let mut stats_rtt: Vec<f64> = t
        .warm
        .iter()
        .chain(&t.reads)
        .filter(|s| s.kind == Kind::Stats)
        .map(Sample::ms)
        .collect();
    stats_rtt.push(t.stats_check_ms);
    r.timing("serve.stats_ms", &sorted(stats_rtt), "ms", true);
    r.timing("core.parse_us", &us(d("core.parse")), "us", true);
    r.timing("core.analyze_us", &us(d("core.analyze")), "us", true);
    r.timing("graph.schema_ms", &rare("graph.schema"), "ms", true);
    let (h0, m0, e0) = cache_at_window.unwrap_or_default();
    let (hits, misses) = (cache.hits() - h0, cache.misses() - m0);
    r.put(
        "core.cache_hit_ratio",
        Some(hits as f64 / (hits + misses).max(1) as f64),
        "ratio",
        (hits + misses) as usize,
        true,
    );
    r.put(
        "core.cache_evictions",
        Some((cache.evictions() - e0) as f64),
        "count",
        1,
        true,
    );
    r.timing("core.compile_ms", &rare("core.compile"), "ms", true);
    r.counted("core.product_states", &c("core.product_states"));
    r.timing("core.kernel_ms", &ms(d("core.kernel")), "ms", true);
    let count = ms(d("core.count"));
    if !count.is_empty() {
        r.timing("core.count_ms", &count, "ms", false);
    }
    r.timing("cypher.parse_us", &us(d("cypher.parse")), "us", true);
    r.timing("cypher.analyze_us", &us(d("cypher.analyze")), "us", true);
    r.timing("cypher.exec_ms", &ms(d("cypher.exec")), "ms", true);
    r.counted("cypher.rows", &c("cypher.rows"));
    r.timing("rdf.parse_us", &us(d("rdf.parse")), "us", true);
    r.timing("rdf.analyze_us", &us(d("rdf.analyze")), "us", true);
    r.timing("rdf.sketch_build_ms", &rare("rdf.sketch_build"), "ms", true);
    r.timing("rdf.plan_us", &us(d("rdf.plan")), "us", true);
    r.timing("rdf.join_ms", &ms(o("rdf.join")), "ms", true);
    r.counted("rdf.rows", &c("rdf.rows"));
    let stat = |k: &str| stats.and_then(|b| kgq_serve::stat(b, k));
    let (sk, gr) = (
        stat("plans_sketch").unwrap_or(0),
        stat("plans_greedy").unwrap_or(0),
    );
    r.put(
        "rdf.sketch_plan_ratio",
        Some(sk as f64 / (sk + gr).max(1) as f64),
        "ratio",
        (sk + gr) as usize,
        true,
    );
    // Means add up where medians do not: each layer's share of the total
    // read round-trip time.
    let total_ms: f64 = reads_traced.iter().sum();
    let mut split: Vec<(f64, &str)> = own
        .iter()
        .map(|(k, v)| (v.iter().sum::<f64>() / 1e6 / total_ms.max(1e-9), *k))
        .collect();
    split.sort_by(|a, b| b.0.total_cmp(&a.0));
    let split: Vec<String> = split
        .iter()
        .filter(|(share, _)| *share >= 0.001)
        .map(|(share, k)| {
            let k = match *k {
                "request" => "serve.wire",
                "serve.execute" => "serve.serialize",
                k => k,
            };
            format!("{k} {:.1}%", share * 100.0)
        })
        .collect();
    r.line(format!(
        "layer split of the read round trip (self time, share of the total): {}",
        split.join(", ")
    ));
    r.timing(
        "bench.traced_latency_p50_ms",
        &sorted(reads_traced),
        "ms",
        true,
    );
    r.line(
        "  (tracing overhead: compare with latency_p50_ms of the --trace 0 run; the replica \
         replays after the TCP phase, so tracing adds no work to the timed requests)",
    );
    if !t.commits.is_empty() {
        r.timing("store.commit_us", &us(d("store.commit")), "us", false);
        // Per call, not per request: a batch inserts eight triples.
        let per_call = |name: &str| -> Vec<f64> {
            trees
                .iter()
                .flat_map(|t| t.spans.iter())
                .filter(|s| s.name == name)
                .map(|s| s.dur() as f64)
                .collect()
        };
        r.timing("rdf.insert_us", &us(&per_call("rdf.insert")), "us", false);
        r.timing(
            "serve.apply_edges_us",
            &us(d("serve.apply_edges")),
            "us",
            false,
        );
        r.put(
            "store.wal_bytes_per_op",
            stat("wal_bytes").map(|b| b as f64 / t.write_ops.max(1) as f64),
            "count",
            t.commits.len(),
            false,
        );
        r.put(
            "store.overlay_entries",
            stat("overlay_added")
                .zip(stat("overlay_tombstoned"))
                .map(|(a, b)| (a + b) as f64),
            "count",
            1,
            false,
        );
        let lag = sorted(t.commits.iter().map(Commit::lag_ms).collect());
        r.timing("bench.writer_lag_ms", &lag, "ms", false);
    }
}
