//! End-to-end tests of `kgq serve`: boot the real binary, drive it over
//! TCP, and hold the server to the satellite's byte-identity bar — N
//! concurrent clients each receive exactly what a solo batch-CLI run of
//! the same query prints.

use kgq_serve::{stat, Caps, Client};
use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::time::Duration;

fn kgq() -> Command {
    Command::new(env!("CARGO_BIN_EXE_kgq"))
}

fn run(args: &[&str]) -> Output {
    kgq().args(args).output().expect("binary runs")
}

fn stdout(out: &Output) -> String {
    assert!(
        out.status.success(),
        "exit {:?}, stderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn temp_file(name: &str, contents: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("kgq-serve-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap();
    path
}

const NT: &str = "<a> <knows> <b> .\n<b> <knows> <c> .\n<c> <knows> <a> .\n\
                  <a> <type> <P> .\n<b> <type> <P> .\n";

/// Boots `kgq serve` over the seeded contact graph on an OS-assigned
/// port; returns the child and the address parsed from its `listening
/// on ...` line.
fn boot(extra: &[&str]) -> (Child, String, PathBuf, PathBuf) {
    boot_on(
        &["generate", "contact", "--people", "30", "--seed", "7"],
        extra,
    )
}

/// [`boot`] over the graph that `kgq GENERATE…` prints.
fn boot_on(generate: &[&str], extra: &[&str]) -> (Child, String, PathBuf, PathBuf) {
    let graph = temp_file(
        &format!("graph-{:?}.kgq", std::thread::current().id()),
        &stdout(&run(generate)),
    );
    let nt = temp_file(&format!("data-{:?}.nt", std::thread::current().id()), NT);
    let mut child = kgq()
        .arg("serve")
        .arg(&graph)
        .args(["--nt", nt.to_str().unwrap(), "--port", "0"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("server boots");
    let mut line = String::new();
    std::io::BufReader::new(child.stdout.take().expect("piped"))
        .read_line(&mut line)
        .expect("banner");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {line:?}"))
        .to_string();
    (child, addr, graph, nt)
}

fn connect(addr: &str) -> Client {
    let c = Client::connect(addr).expect("connect");
    c.set_timeout(Some(Duration::from_secs(60))).unwrap();
    c
}

/// Sends SHUTDOWN and asserts the server process exits cleanly (status
/// 0) — the CLI-level clean-shutdown contract the CI smoke job relies
/// on.
fn stop(mut child: Child, addr: &str) {
    let mut c = connect(addr);
    assert!(c.shutdown().unwrap().ok);
    let status = child.wait().expect("server exits");
    assert!(status.success(), "server exited with {status:?}");
}

#[test]
fn concurrent_server_clients_match_solo_cli_runs_byte_for_byte() {
    let (child, addr, graph, nt) = boot(&[]);
    let g = graph.to_str().unwrap();
    let n = nt.to_str().unwrap();
    // Solo batch-CLI baselines: one process, one query, ungoverned.
    let rpq_expr = "?person/rides/?bus/rides^-/?infected";
    let cy = "MATCH (p:person)-[:rides]->(b:bus) RETURN p, b";
    let sq = "SELECT ?x ?y WHERE { ?x <knows> ?y . ?y <type> <P> . }";
    let cli_rpq = stdout(&run(&["query", g, rpq_expr, "pairs"]));
    let cli_starts = stdout(&run(&["query", g, rpq_expr, "starts"]));
    let cli_cy = stdout(&run(&["cypher", g, cy]));
    let cli_sq = stdout(&run(&["sparql", n, sq]));
    assert!(!cli_rpq.is_empty());

    std::thread::scope(|scope| {
        for t in 0..4 {
            let addr = addr.as_str();
            let (cli_rpq, cli_starts, cli_cy, cli_sq) = (&cli_rpq, &cli_starts, &cli_cy, &cli_sq);
            scope.spawn(move || {
                let mut c = connect(addr);
                for r in 0..5 {
                    match (t + r) % 4 {
                        0 => assert_eq!(
                            &c.rpq("pairs", rpq_expr, &Caps::none()).unwrap().body,
                            cli_rpq
                        ),
                        1 => assert_eq!(
                            &c.rpq("starts", rpq_expr, &Caps::none()).unwrap().body,
                            cli_starts
                        ),
                        2 => assert_eq!(&c.cypher(cy, &Caps::none()).unwrap().body, cli_cy),
                        _ => assert_eq!(&c.sparql(sq, &Caps::none()).unwrap().body, cli_sq),
                    }
                }
            });
        }
    });
    stop(child, &addr);
}

#[test]
fn governed_partials_match_the_cli_trailer_format() {
    let (child, addr, graph, _nt) = boot(&[]);
    let g = graph.to_str().unwrap();
    let expr = "(rides + contact + lives)*";
    // The same budget through the CLI flag and through the wire caps.
    let cli = stdout(&run(&["query", g, expr, "pairs", "--max-results", "7"]));
    assert!(cli.ends_with("# partial: result budget reached\n"));
    let mut c = connect(&addr);
    let srv = c
        .rpq(
            "pairs",
            expr,
            &Caps {
                max_results: Some(7),
                ..Caps::default()
            },
        )
        .unwrap();
    assert!(srv.ok);
    assert_eq!(srv.body, cli, "server partial must equal CLI partial");
    stop(child, &addr);
}

#[test]
fn server_side_caps_flag_applies_to_all_requests() {
    let (child, addr, _graph, _nt) = boot(&["--max-results", "3"]);
    let mut c = connect(&addr);
    let got = c
        .rpq("pairs", "(rides + contact + lives)*", &Caps::none())
        .unwrap();
    assert!(got.ok && got.is_partial(), "{}", got.body);
    assert_eq!(got.body.lines().count(), 4); // 3 rows + trailer
    let stats = c.stats().unwrap();
    assert!(stat(&stats, "partials").unwrap() >= 1);
    stop(child, &addr);
}

#[test]
fn blowup_queries_neither_churn_the_cache_nor_determinize() {
    // No GOVERN flags: the server's caps are unlimited, so only the
    // failed-minimization check keeps this query out of the shared
    // cache and off the exact (determinizing) counting rung.
    let (child, addr, _graph, _nt) = boot_on(
        &[
            "generate", "er", "--nodes", "20", "--edges", "80", "--seed", "3",
        ],
        &[],
    );
    let expr = "(p+q)*/p".to_string() + &"/(p+q)".repeat(13);
    let mut c = connect(&addr);
    let pairs = c.rpq("pairs", &expr, &Caps::none()).unwrap();
    assert!(pairs.ok && !pairs.body.is_empty(), "{}", pairs.body);
    let count = c.rpq("count 16", &expr, &Caps::none()).unwrap();
    assert!(count.ok, "{}", count.body);
    assert!(count.body.contains("# degraded:"), "{}", count.body);
    let stats = c.stats().unwrap();
    assert_eq!(stat(&stats, "cache_len"), Some(0), "{stats}");
    assert!(
        stat(&stats, "cache_short_circuits").unwrap_or(0) > 0,
        "{stats}"
    );
    stop(child, &addr);
}
