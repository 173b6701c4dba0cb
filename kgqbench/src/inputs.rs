//! Seeded inputs: the data files each workload loads and the request
//! streams its clients send.
//!
//! Everything here is a pure function of the workload and the seed, so
//! one seed reproduces byte-identical graph files, N-Triples and
//! request streams (the tests at the bottom check this). The program
//! under test only ever sees the files and the requests.

use kgq_graph::generate::{contact_network, gnm_labeled, ContactParams};
use kgq_graph::io::{write_labeled, write_property};
use kgq_graph::{LabeledGraph, NodeId};
use kgq_rdf::{labeled_to_rdf, write_ntriples, TripleStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The three traffic mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Selective interactive reads on two closed-loop connections.
    /// Server-side work is µs to a few ms, so wire, parse, analyze and
    /// `QueryCache` dominate. There are hundreds of distinct query texts,
    /// more than the cache's 64 entries, so hits, misses and evictions
    /// all occur. A wire fix must show here, and kernel changes should
    /// not.
    Lookup,
    /// Engine-bound reads over a small, fixed query set, on one
    /// closed-loop connection: with two, the heavy requests overlap in
    /// pairs that change from run to run, and every median moves with
    /// them. After warm-up every text hits the cache, and parse/analyze
    /// cost almost nothing. Execute runs up to a few tens of ms per
    /// request, and some bodies are over 100 KB, so the bit-parallel
    /// kernel, LFTJ and the sketch planner, the Cypher executor and
    /// serialization do the server's work. Kernel and planner work must
    /// show here. The sizes are kept small so that execute stays a
    /// minor part of each round trip (see `ANALYTIC_NODES`).
    Analytic,
    /// Fixed-rate durable writes on one connection beside `lookup`
    /// reads on the other. Every commit fsyncs the WAL, splices each
    /// triple into six sorted arrays, and bumps the generation, so the
    /// next read rebuilds the schema summary and the store sketch and
    /// recompiles its automaton. Write and invalidation layers dominate
    /// here and nowhere else.
    MixedWrite,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "lookup" => Some(Workload::Lookup),
            "analytic" => Some(Workload::Analytic),
            "mixed-write" => Some(Workload::MixedWrite),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Lookup => "lookup",
            Workload::Analytic => "analytic",
            Workload::MixedWrite => "mixed-write",
        }
    }
}

/// People in the contact network of `lookup` and `mixed-write` (about
/// 3.1·10⁴ triples), so the two differ only by the writes. At this size
/// a lookup costs the server a few ms, as `lookup` intends; at 10⁴
/// people it costs 8–14 ms, and the lookup tail doubled whenever the
/// shared machine slowed. `kgq store init` and `kgq serve --store`
/// recovery also grow quadratically with the store (about 1 s and 1.5 s
/// here, 13 s and 41 s at 1.3·10⁵ triples), and every run sets up
/// several times.
pub const PEOPLE: usize = 5_000;
/// Nodes and edges of the `analytic` ER graph. On a shared machine the
/// CPU time of a request varies from run to run by far more than the
/// fixed parts of its round trip, so each end-to-end figure can only be
/// as steady as the share of CPU time in it is small. At 10⁴ nodes and
/// 5·10⁴ edges execute took 50–330 ms a request and, with other load on
/// the machine, the spread between runs (quartile distance over median,
/// 10 seeds) reached 0.30 for `throughput_rps` and `cypher_p50_ms` and
/// 0.5 for `latency_p90_ms`. At this size execute takes about 6 ms at
/// the median and 16 ms at the 90th percentile (`--trace 1`).
pub const ANALYTIC_NODES: usize = 2_000;
pub const ANALYTIC_EDGES: usize = 10_000;
/// The ER-shaped BGP store of `analytic` (predicate `e`).
pub const BGP_NODES: usize = 1_000;
pub const BGP_EDGES: usize = 8_000;
/// The skewed `hubpair` store: leaves, hubs, centers.
pub const SKEW: (usize, usize, usize) = (4_000, 8, 100);
/// Zipf exponent for the person a lookup names.
pub const ZIPF_S: f64 = 1.1;
/// One read request in this many is `STATS`.
pub const STATS_EVERY: u64 = 100;
/// Length of each connection's read stream; a client cycles through it.
pub const STREAM_LEN: usize = 600;
/// Open-loop write rate of `mixed-write`, in commits per second. At
/// about 20 reads/s, 10 commits/s would put every other read right
/// after a commit, and each read median would sit on the boundary
/// between reads that rebuild after a commit and reads that do not.
pub const WRITES_PER_SEC: u64 = 5;
/// Triples per `INSERT` batch.
pub const BATCH_TRIPLES: usize = 8;
/// The predicate every write uses; no read names it.
pub const WRITE_PRED: &str = "wtag";

/// A request verb the benchmark sends.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kind {
    Query,
    Cypher,
    Sparql,
    Stats,
}

impl Kind {
    pub fn verb(self) -> kgq_serve::Verb {
        match self {
            Kind::Query => kgq_serve::Verb::Query,
            Kind::Cypher => kgq_serve::Verb::Cypher,
            Kind::Sparql => kgq_serve::Verb::Sparql,
            Kind::Stats => kgq_serve::Verb::Stats,
        }
    }
}

/// One read request: a verb and its payload.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Req {
    pub kind: Kind,
    pub payload: String,
}

impl Req {
    fn new(kind: Kind, payload: String) -> Req {
        Req { kind, payload }
    }
}

/// One durable mutation batch of `mixed-write`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Write {
    /// `true` for `INSERT`, `false` for `DELETE`.
    pub insert: bool,
    pub triples: Vec<(String, String, String)>,
    /// `(src, label, dst)` of the one fresh-label edge an insert adds.
    pub edge: Option<(String, String, String)>,
}

impl Write {
    /// The wire payload: N-Triples lines, then the `edge` line.
    pub fn payload(&self) -> String {
        let mut out = String::new();
        for (s, p, o) in &self.triples {
            out.push_str(&format!("<{s}> <{p}> <{o}> .\n"));
        }
        if let Some((s, l, d)) = &self.edge {
            out.push_str(&format!("edge {s} {l} {d}\n"));
        }
        out
    }
}

/// Everything a workload sends and loads.
pub struct Inputs {
    pub workload: Workload,
    /// The property graph file (`kgq serve GRAPH`).
    pub graph: String,
    /// The N-Triples file (`--nt`, or `kgq store init --nt`).
    pub ntriples: String,
    /// One read stream per read connection, cycled by its client.
    pub streams: Vec<Vec<Req>>,
    seed: u64,
}

/// SplitMix64: derives independent sub-seeds from the workload seed.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Zipf-distributed ranks `0..n` with exponent `s` (rank 0 most likely),
/// sampled by inverting the cumulative distribution.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A seeded permutation of `0..n`, so the hottest Zipf ranks land on
/// arbitrary people rather than on `p0, p1, …`.
fn permutation(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
    v
}

fn contact(people: usize, seed: u64) -> kgq_graph::PropertyGraph {
    contact_network(&ContactParams {
        people,
        buses: people / 50,
        addresses: people / 4,
        seed,
        ..ContactParams::default()
    })
}

/// The three `lookup` templates, filled with person `n`.
fn lookup_req(template: u64, n: usize) -> Req {
    match template {
        0 => Req::new(
            Kind::Query,
            format!("starts\n?[name='person-{n}']/contact/rides"),
        ),
        1 => Req::new(
            Kind::Cypher,
            format!("MATCH (a:person)-[:contact]->(b) WHERE a.name = 'person-{n}' RETURN b"),
        ),
        _ => Req::new(
            Kind::Sparql,
            format!("SELECT ?y ?b WHERE {{ <p{n}> <contact> ?y . ?y <rides> ?b . }}"),
        ),
    }
}

/// A closed-loop stream of `lookup` reads: a template drawn uniformly,
/// a person drawn Zipf-skewed, and about one request in 100 `STATS`.
fn lookup_stream(people: usize, seed: u64) -> Vec<Req> {
    let mut rng = StdRng::seed_from_u64(seed);
    let perm = permutation(people, &mut rng);
    let zipf = Zipf::new(people, ZIPF_S);
    (0..STREAM_LEN)
        .map(|_| {
            if rng.gen_range(0..STATS_EVERY) == 0 {
                Req::new(Kind::Stats, String::new())
            } else {
                let template = rng.gen_range(0..3u64);
                lookup_req(template, perm[zipf.sample(&mut rng)])
            }
        })
        .collect()
}

/// The fixed `analytic` request set: five RPQs, six SPARQL BGPs and the
/// Cypher pattern twice. The mix is chosen so that each verb's median,
/// and the overall median and 90th percentile, fall inside one
/// request's timings rather than on the boundary between two, where
/// they would flip between the two from run to run. The Cypher pattern
/// is a two-hop `p`/`q` path closed by a `p` edge back to its start:
/// the executor expands every two-hop path but returns a few rows. The
/// open two-hop pattern returns a body of hundreds of KB whose round
/// trip is its CPU time alone, and its median followed the machine's
/// load (spread 0.23 over 5 seeds beside a competing CPU-bound load).
pub fn analytic_requests() -> Vec<Req> {
    let q = |p: &str| Req::new(Kind::Query, p.to_owned());
    let s = |p: &str| Req::new(Kind::Sparql, p.to_owned());
    let cypher = Req::new(
        Kind::Cypher,
        "MATCH (a:v)-[:p]->(b:v)-[:q]->(c:v)-[:p]->(a) RETURN a, b, c".into(),
    );
    vec![
        q("starts\n(p+q)*"),
        s("SELECT ?a ?b ?c WHERE { ?a <e> ?b . ?b <e> ?c . ?c <e> ?a . }"),
        q("pairs\np/q"),
        cypher.clone(),
        s(
            "SELECT ?a ?b ?c ?d WHERE { ?a <e> ?b . ?a <e> ?c . ?a <e> ?d . \
           ?b <e> ?c . ?b <e> ?d . ?c <e> ?d . }",
        ),
        q("starts\np/(p+q)*/q"),
        s("SELECT ?a ?b ?h ?c WHERE { ?a <near> ?c . ?b <near> ?c . \
           ?h <spoke> ?a . ?h <spoke> ?b . }"),
        q("count 6\n(p/q)*"),
        cypher,
        s("SELECT (COUNT(*) AS ?n) WHERE { ?a <e> ?b . ?b <e> ?c . ?c <e> ?d . }"),
        q("pairs\nq/p"),
        s("SELECT ?a ?b ?c WHERE { ?a <e> ?b . ?b <e> ?c . ?a <e> ?c . }"),
        s("SELECT ?a ?b ?c WHERE { ?a <e> ?b . ?a <e> ?c . ?b <e> ?c . }"),
    ]
}

/// A closed-loop `analytic` stream: passes over the fixed set, each in
/// a seeded random order (so the two connections overlap their heavy
/// requests in ever-changing pairs, not in one phase-locked pattern),
/// with about one request in 100 `STATS`.
fn analytic_stream(seed: u64) -> Vec<Req> {
    let set = analytic_requests();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pass: Vec<usize> = Vec::new();
    (0..STREAM_LEN)
        .map(|_| {
            if rng.gen_range(0..STATS_EVERY) == 0 {
                return Req::new(Kind::Stats, String::new());
            }
            if pass.is_empty() {
                pass = permutation(set.len(), &mut rng);
            }
            set[pass.pop().expect("refilled above")].clone()
        })
        .collect()
}

/// The `analytic` graphs keep one shape for every seed, so that a
/// request costs the same from seed to seed; the seed relabels them.
const ANALYTIC_SHAPE_SEED: u64 = 17;

/// An isomorphic copy of `g`: nodes added in a seeded order under
/// seeded names. The same shape in another layout and naming.
fn relabel(g: &LabeledGraph, rng: &mut StdRng) -> LabeledGraph {
    let n = g.node_count();
    let mut out = LabeledGraph::new();
    let mut map = vec![NodeId(0); n];
    for (pos, old) in permutation(n, rng).into_iter().enumerate() {
        let label = g.label_name(g.node_label(NodeId(old as u32)));
        map[old] = out
            .add_node(&format!("v{pos}"), label)
            .expect("fresh node names");
    }
    for e in g.base().edges() {
        let (src, dst) = g.base().endpoints(e);
        let label = g.label_name(g.edge_label(e));
        out.add_edge(g.edge_name(e), map[src.index()], map[dst.index()], label)
            .expect("edge names are unique in the source graph");
    }
    out
}

/// The skew-adversarial `hubpair` store of the `exp_bgp` experiment:
/// `hubs` hubs own contiguous ranges of leaves (`spoke`), and leaf `i`
/// is `near` center `i % centers`.
fn skew_triples(st: &mut TripleStore) {
    let (leaves, hubs, centers) = SKEW;
    let per_hub = leaves / hubs;
    let mut batch = Vec::with_capacity(2 * leaves);
    for i in 0..leaves {
        let (h, n, c) = (
            format!("h{}", i / per_hub),
            format!("n{i}"),
            format!("c{}", i % centers),
        );
        batch.push(kgq_rdf::Triple {
            s: st.term(&h),
            p: st.term("spoke"),
            o: st.term(&n),
        });
        batch.push(kgq_rdf::Triple {
            s: st.term(&n),
            p: st.term("near"),
            o: st.term(&c),
        });
    }
    st.extend(batch);
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let data_seed = mix(seed, 1);
        let stream_seed = |c: u64| mix(seed, 10 + c);
        match workload {
            Workload::Lookup | Workload::MixedWrite => {
                let g = contact(PEOPLE, data_seed);
                let ntriples = write_ntriples(&labeled_to_rdf(g.labeled()));
                // `mixed-write` reads on one connection; the other writes.
                let readers = if workload == Workload::Lookup { 2 } else { 1 };
                Inputs {
                    workload,
                    graph: write_property(&g),
                    ntriples,
                    streams: (0..readers)
                        .map(|c| lookup_stream(PEOPLE, stream_seed(c)))
                        .collect(),
                    seed,
                }
            }
            Workload::Analytic => {
                let mut rng = StdRng::seed_from_u64(data_seed);
                let shape = |n, m, labels: &[&str], tag| {
                    gnm_labeled(n, m, &["v"], labels, mix(ANALYTIC_SHAPE_SEED, tag))
                };
                let g = relabel(
                    &shape(ANALYTIC_NODES, ANALYTIC_EDGES, &["p", "q"], 1),
                    &mut rng,
                );
                let er = relabel(&shape(BGP_NODES, BGP_EDGES, &["e"], 2), &mut rng);
                let mut st = labeled_to_rdf(&er);
                skew_triples(&mut st);
                Inputs {
                    workload,
                    graph: write_labeled(&g),
                    ntriples: write_ntriples(&st),
                    streams: (0..1).map(|c| analytic_stream(stream_seed(c))).collect(),
                    seed,
                }
            }
        }
    }

    /// The open-loop write schedule of `mixed-write`: commit `k` is due
    /// `k / WRITES_PER_SEC` seconds after the run starts. Commits
    /// `3, 7, 11, …` delete the oldest insert batch not yet deleted;
    /// every other commit inserts `BATCH_TRIPLES` `wtag` triples plus
    /// one edge with a label no other commit uses.
    pub fn writes(&self, count: usize) -> Vec<Write> {
        let mut rng = StdRng::seed_from_u64(mix(self.seed, 3));
        let mut out: Vec<Write> = Vec::with_capacity(count);
        let mut inserts: Vec<usize> = Vec::new();
        let mut deleted = 0;
        for k in 0..count {
            if k % 4 == 3 {
                let victim = &out[inserts[deleted]];
                out.push(Write {
                    insert: false,
                    triples: victim.triples.clone(),
                    edge: None,
                });
                deleted += 1;
            } else {
                let b = inserts.len();
                let person = |rng: &mut StdRng| format!("p{}", rng.gen_range(0..PEOPLE));
                let triples = (0..BATCH_TRIPLES)
                    .map(|t| (format!("w{b}_{t}"), WRITE_PRED.to_owned(), person(&mut rng)))
                    .collect();
                let edge = Some((person(&mut rng), format!("wl{b}"), person(&mut rng)));
                inserts.push(k);
                out.push(Write {
                    insert: true,
                    triples,
                    edge,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        for w in [Workload::Lookup, Workload::Analytic, Workload::MixedWrite] {
            let a = Inputs::generate(w, 7);
            let b = Inputs::generate(w, 7);
            assert_eq!(a.graph, b.graph, "{w:?} graph");
            assert_eq!(a.ntriples, b.ntriples, "{w:?} N-Triples");
            assert_eq!(a.streams, b.streams, "{w:?} streams");
            if w == Workload::MixedWrite {
                assert_eq!(a.writes(40), b.writes(40), "writes");
            }
            let c = Inputs::generate(w, 8);
            assert_ne!(a.streams, c.streams, "{w:?}: the seed must matter");
        }
    }

    #[test]
    fn zipf_sampler_is_deterministic_and_skewed() {
        let z = Zipf::new(1_000, ZIPF_S);
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..5_000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        let v = draw(3);
        assert!(v.iter().all(|&r| r < 1_000));
        let top = v.iter().filter(|&&r| r == 0).count();
        let tail = v.iter().filter(|&&r| r == 999).count();
        assert!(
            top > 100 * tail.max(1) / 10,
            "rank 0 {top} vs rank 999 {tail}"
        );
    }

    #[test]
    fn lookup_streams_have_hundreds_of_texts_and_some_stats() {
        let inp = Inputs::generate(Workload::Lookup, 1);
        let mut texts = std::collections::HashSet::new();
        let mut stats = 0;
        for r in inp.streams.iter().flatten() {
            if r.kind == Kind::Stats {
                stats += 1;
            } else {
                texts.insert(r.payload.clone());
            }
        }
        assert!(texts.len() > 200, "{} distinct texts", texts.len());
        assert!(stats > 0);
    }

    #[test]
    fn every_fourth_write_deletes_an_earlier_insert() {
        let inp = Inputs::generate(Workload::MixedWrite, 5);
        let w = inp.writes(12);
        assert!(w[0].insert && w[1].insert && w[2].insert && !w[3].insert);
        assert_eq!(w[3].triples, w[0].triples);
        assert_eq!(w[7].triples, w[1].triples);
        let labels: std::collections::HashSet<_> = w
            .iter()
            .filter_map(|x| x.edge.as_ref().map(|e| e.1.clone()))
            .collect();
        assert_eq!(labels.len(), 9, "one fresh label per insert");
    }
}
