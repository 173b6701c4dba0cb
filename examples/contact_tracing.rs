//! Contact tracing at scale — the paper's epidemiological scenario.
//!
//! Builds a synthetic contact network (people, buses, addresses), then:
//! 1. extracts possibly-exposed people with the §4 path expressions,
//! 2. counts and uniformly samples exposure chains (§4.1 toolbox),
//! 3. ranks buses by their role in propagation with `bc_r` (§4.2).
//!
//! ```sh
//! cargo run --release --example contact_tracing
//! ```

use kgq::analytics::{bc_r_exact, BcrParams};
use kgq::core::{
    approx_count, parse_expr, ApproxParams, Evaluator, ExactCounter, Governor, LabeledView,
    UniformSampler,
};
use kgq::graph::generate::{contact_network, ContactParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let params = ContactParams {
        people: 80,
        buses: 6,
        addresses: 30,
        rides_per_person: 2,
        contacts_per_person: 2,
        infected_fraction: 0.1,
        seed: 2024,
    };
    let pg = contact_network(&params);
    let mut g = pg.into_labeled();
    println!(
        "contact network: {} nodes, {} edges ({} infected)",
        g.node_count(),
        g.edge_count(),
        g.nodes_with_label(g.sym("infected").unwrap()).len()
    );

    // Direct exposure: shared a bus with an infected person.
    let direct = parse_expr("?person/rides/?bus/rides^-/?infected", g.consts_mut()).unwrap();
    let view = LabeledView::new(&g);
    let directly_exposed = Evaluator::new_governed(&view, &direct, &Governor::unlimited())
        .unwrap()
        .matching_starts_governed(&Governor::unlimited())
        .unwrap()
        .value;
    println!(
        "\ndirectly exposed (shared a bus): {}",
        directly_exposed.len()
    );

    // Extended exposure: bus contact, then household/contact chains —
    // the paper's r1 read in reverse (starting from the healthy person).
    let extended = parse_expr(
        "?person/(( lives + lives^- + contact + contact^- ))*/?person/rides/?bus/rides^-/?infected",
        g.consts_mut(),
    )
    .unwrap();
    let view = LabeledView::new(&g);
    let extended_exposed = Evaluator::new_governed(&view, &extended, &Governor::unlimited())
        .unwrap()
        .matching_starts_governed(&Governor::unlimited())
        .unwrap()
        .value;
    println!(
        "exposed via household/contact chains: {}",
        extended_exposed.len()
    );

    // Counting exposure chains of each length.
    let counter = ExactCounter::new(&view, &direct);
    println!("\nexposure chains by length:");
    for (k, c) in counter.count_by_length(4).unwrap().iter().enumerate() {
        if *c > 0 {
            println!("  length {k}: {c} chains");
        }
    }
    let k = 2;
    let exact = counter.count(k).unwrap();
    let approx = approx_count(
        &view,
        &direct,
        k,
        &ApproxParams {
            epsilon: 0.2,
            ..ApproxParams::default()
        },
    );
    println!("  exact Count(G, r, {k}) = {exact}, FPRAS estimate = {approx:.1}");

    // Uniformly sample a few chains for case investigation.
    let sampler = UniformSampler::new(&view, &direct, k).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    println!("\nrandomly audited exposure chains:");
    for _ in 0..5 {
        if let Some(p) = sampler.sample(&mut rng) {
            println!("  {}", p.render(&g));
        }
    }

    // Which bus matters most for propagation?
    let transport = parse_expr("?person/rides/?bus/rides^-/?person", g.consts_mut()).unwrap();
    let view = LabeledView::new(&g);
    let bcr = bc_r_exact(&view, &transport);
    let mut buses: Vec<_> = g
        .nodes_with_label(g.sym("bus").unwrap())
        .into_iter()
        .map(|n| (g.node_name(n).to_owned(), bcr[n.index()]))
        .collect();
    buses.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!("\nbuses ranked by transport centrality bc_r:");
    for (name, score) in &buses {
        println!("  {name}: {score:.1}");
    }
    let _ = BcrParams::default(); // see exp_bcr for the sampled variant
}
