//! Experiment `exp_rdf` (E12) — the RDF model in practice (§3).
//!
//! Generates a university-flavored synthetic RDF graph (LUBM-like
//! shape: universities, departments, professors, students, courses),
//! runs basic graph patterns of increasing join depth at several scales,
//! and round-trips the data through the labeled-graph model to run a
//! path query. A closing table ablates the storage layouts: the
//! label-sorted CSR range against a linear label filter, and an
//! index-selected triple scan against a full-scan filter.

use kgq_bench::{fmt_duration, print_table, timed, unlimited_bindings, unlimited_starts};
use kgq_core::{parse_expr, LabeledView};
use kgq_graph::generate::gnm_labeled;
use kgq_graph::{LabelIndex, NodeId};
use kgq_rdf::{
    materialize_rdfs, rdf_to_labeled, Bgp, TripleStore, RDFS_DOMAIN, RDFS_RANGE, RDFS_SUBCLASS,
    RDFS_SUBPROPERTY, RDF_TYPE,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::error::Error;

fn university_graph(unis: usize, seed: u64) -> TripleStore {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut st = TripleStore::new();
    for u in 0..unis {
        let uni = format!("u{u}");
        st.insert_strs(&uni, RDF_TYPE, "University");
        for d in 0..4 {
            let dept = format!("u{u}d{d}");
            st.insert_strs(&dept, RDF_TYPE, "Department");
            st.insert_strs(&dept, "subOrganizationOf", &uni);
            for p in 0..5 {
                let prof = format!("u{u}d{d}p{p}");
                st.insert_strs(&prof, RDF_TYPE, "Professor");
                st.insert_strs(&prof, "worksFor", &dept);
                for c in 0..2 {
                    let course = format!("u{u}d{d}p{p}c{c}");
                    st.insert_strs(&course, RDF_TYPE, "Course");
                    st.insert_strs(&prof, "teaches", &course);
                }
            }
            for s in 0..20 {
                let student = format!("u{u}d{d}s{s}");
                st.insert_strs(&student, RDF_TYPE, "Student");
                st.insert_strs(&student, "memberOf", &dept);
                // Take 3 random courses of the department.
                for _ in 0..3 {
                    let p = rng.gen_range(0..5);
                    let c = rng.gen_range(0..2);
                    st.insert_strs(&student, "takes", &format!("u{u}d{d}p{p}c{c}"));
                }
                // Advised by a random professor.
                let p = rng.gen_range(0..5);
                st.insert_strs(&student, "advisedBy", &format!("u{u}d{d}p{p}"));
            }
        }
    }
    st
}

fn main() -> Result<(), Box<dyn Error>> {
    let mut rows = Vec::new();
    for unis in [2usize, 5, 10, 20] {
        let (mut st, t_load) = timed(|| university_graph(unis, 4));
        // Q1: one pattern — all students.
        let mut q1 = Bgp::new();
        q1.add(&mut st, "?s", RDF_TYPE, "Student");
        let (r1, t1) = timed(|| unlimited_bindings(&st, &q1));
        let r1 = r1?;
        // Q2: two-way join — students and their advisors' departments.
        let mut q2 = Bgp::new();
        q2.add(&mut st, "?s", "advisedBy", "?p");
        q2.add(&mut st, "?p", "worksFor", "?d");
        let (r2, t2) = timed(|| unlimited_bindings(&st, &q2));
        let r2 = r2?;
        // Q3: triangle-ish — student takes a course taught by their advisor.
        let mut q3 = Bgp::new();
        q3.add(&mut st, "?s", "advisedBy", "?p");
        q3.add(&mut st, "?p", "teaches", "?c");
        q3.add(&mut st, "?s", "takes", "?c");
        let (r3, t3) = timed(|| unlimited_bindings(&st, &q3));
        let r3 = r3?;
        rows.push(vec![
            st.len().to_string(),
            fmt_duration(t_load),
            format!("{} ({})", r1.len(), fmt_duration(t1)),
            format!("{} ({})", r2.len(), fmt_duration(t2)),
            format!("{} ({})", r3.len(), fmt_duration(t3)),
        ]);
    }
    print_table(
        "BGP matching on synthetic university RDF",
        &[
            "triples",
            "load",
            "Q1 students",
            "Q2 advisor-dept join",
            "Q3 takes-own-advisor-course",
        ],
        &rows,
    );

    // Path query through the labeled-graph correspondence.
    let st = university_graph(5, 4);
    let (mut g, t_conv) = timed(|| rdf_to_labeled(&st).unwrap());
    let expr = parse_expr(
        "?Student/advisedBy/?Professor/teaches/?Course",
        g.consts_mut(),
    )
    .unwrap();
    let view = LabeledView::new(&g);
    let (starts, t_rpq) = timed(|| unlimited_starts(&view, &expr));
    let starts = starts?;
    println!(
        "\nRDF → labeled graph: {} nodes / {} edges in {}; path query \
         ?Student/advisedBy/?Professor/teaches/?Course matches {} students \
         in {}",
        g.node_count(),
        g.edge_count(),
        fmt_duration(t_conv),
        starts.len(),
        fmt_duration(t_rpq)
    );
    assert!(!starts.is_empty());

    // §2.3: produce new knowledge — RDFS materialization at scale.
    let mut rows = Vec::new();
    for unis in [2usize, 5, 10] {
        let mut st = university_graph(unis, 4);
        st.insert_strs("Professor", RDFS_SUBCLASS, "Faculty");
        st.insert_strs("Faculty", RDFS_SUBCLASS, "Agent");
        st.insert_strs("Student", RDFS_SUBCLASS, "Agent");
        st.insert_strs("advisedBy", RDFS_SUBPROPERTY, "knows");
        st.insert_strs("teaches", RDFS_DOMAIN, "Faculty");
        st.insert_strs("takes", RDFS_RANGE, "Course");
        let before = st.len();
        let (stats, t_inf) = timed(|| materialize_rdfs(&mut st));
        // Derived facts are visible to queries (entities keep all their
        // inferred types in the store).
        let mut qa = Bgp::new();
        qa.add(&mut st, "?x", RDF_TYPE, "Agent");
        let agents = unlimited_bindings(&st, &qa)?;
        rows.push(vec![
            before.to_string(),
            stats.inferred.to_string(),
            stats.rounds.to_string(),
            agents.len().to_string(),
            fmt_duration(t_inf),
        ]);
    }
    print_table(
        "RDFS forward chaining (subclass/subproperty/domain/range)",
        &[
            "triples before",
            "inferred",
            "rounds",
            "derived Agents",
            "time",
        ],
        &rows,
    );
    storage_ablations()
}

/// Data-layout ablations: a binary-searched label range per node vs a
/// linear scan of its out-edges, and an index-selected triple scan vs a
/// full scan with a filter. Both sides of each pair must agree.
fn storage_ablations() -> Result<(), Box<dyn Error>> {
    // 16 labels so per-node label ranges are selective.
    let labels: Vec<String> = (0..16).map(|i| format!("l{i}")).collect();
    let label_refs: Vec<&str> = labels.iter().map(|s| s.as_str()).collect();
    let g = gnm_labeled(500, 20_000, &["v"], &label_refs, 23);
    let idx = LabelIndex::build(&g);
    let l3 = g.sym("l3").ok_or("label l3 missing")?;
    let mut st = TripleStore::new();
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..20_000 {
        let mut term = |t: &str, n: u32| format!("{t}{}", rng.gen_range(0..n));
        let (s, p, o) = (term("s", 2000), term("p", 20), term("o", 2000));
        st.insert_strs(&s, &p, &o);
    }
    let p3 = st.get_term("p3").ok_or("predicate p3 missing")?;
    let nodes = || (0..g.node_count() as u32).map(NodeId);
    let best = |f: &dyn Fn() -> usize| (0..20).map(|_| timed(f)).min_by_key(|r| r.1);
    let cases = [
        (
            "adjacency, label l3",
            best(&|| nodes().map(|v| idx.out_with_label(v, l3).len()).sum()),
            best(&|| {
                let out = |v| g.base().out_edges(v).iter();
                nodes()
                    .map(|v| out(v).filter(|&&e| g.edge_label(e) == l3).count())
                    .sum()
            }),
        ),
        (
            "triples, predicate p3",
            best(&|| st.scan(None, Some(p3), None).count()),
            best(&|| st.iter().filter(|t| t.p == p3).count()),
        ),
    ];
    let mut rows = Vec::new();
    for (name, index, filter) in cases {
        let ((hits, t_index), (hits_filter, t_filter)) = index.zip(filter).ok_or("no reps")?;
        assert_eq!(hits, hits_filter, "{name}: index and filter disagree");
        let speedup = t_filter.as_secs_f64() / t_index.as_secs_f64().max(1e-9);
        let (t_index, t_filter) = (fmt_duration(t_index), fmt_duration(t_filter));
        let speedup = format!("{speedup:.1}x");
        rows.push(vec![
            name.to_owned(),
            hits.to_string(),
            t_index,
            t_filter,
            speedup,
        ]);
    }
    print_table(
        "storage ablations: index-selected access vs filtering, best of 20",
        &["access", "matches", "index", "filter", "speedup"],
        &rows,
    );
    Ok(())
}
