//! An in-process replica of the server's state, driven layer by layer.
//!
//! The replica owns its own graph, triple store, `QueryCache` and
//! durable directory, loads them from the same files the server loads,
//! and runs each request through the same public functions of
//! `kgq_core`, `kgq_graph`, `kgq_cypher`, `kgq_rdf`, `kgq_store` and
//! `kgq_serve` that `kgq serve` calls, in the same order, with a span
//! around each call. It serves twice:
//!
//! - as the answer oracle: before any timing, it computes the expected
//!   body of every read from the generated inputs, without asking the
//!   server under test;
//! - in the traced run: it replays the request sequence the server
//!   received, so cache, generation and store state evolve the same way
//!   the server's did, and its spans give the per-layer split. The
//!   server itself is not instrumented.

use crate::inputs::{Kind, Req, Write};
use crate::trace::Recorder;
use kgq_core::{
    analyze_expr, count_paths_governed, parse_expr, Budget, CancelToken, Completion, EvalError,
    Governed, Governor, PropertyView, QueryCache,
};
use kgq_graph::{PropertyGraph, SchemaSummary};
use kgq_rdf::{StoreSketch, TripleStore};
use kgq_serve::{effective_budget, Caps};
use kgq_store::{DurableStore, EdgeRec};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub struct Replica {
    graph: PropertyGraph,
    store: TripleStore,
    cache: QueryCache,
    schema: Option<(u64, Arc<SchemaSummary>)>,
    sketch: Option<(u64, Arc<StoreSketch>)>,
    durable: Option<DurableStore>,
}

impl Replica {
    /// Loads the data the way `kgq serve GRAPH [--nt FILE] [--store DIR]`
    /// does, so symbols intern in the same order and answers come out
    /// in the same order.
    pub fn load(
        graph: &str,
        nt: Option<&str>,
        store_dir: Option<&Path>,
    ) -> Result<Replica, String> {
        let mut graph = kgq_graph::io::read_property(graph).map_err(|e| e.to_string())?;
        let mut store = match nt {
            Some(text) => kgq_rdf::parse_ntriples(text).map_err(|e| e.to_string())?,
            None => TripleStore::new(),
        };
        let durable = match store_dir {
            Some(dir) => {
                let (d, _) =
                    DurableStore::open(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
                for (s, p, o) in d.scan_all() {
                    store.insert_strs(&s, &p, &o);
                }
                kgq_serve::apply_edges(&mut graph, d.all_edges());
                Some(d)
            }
            None => None,
        };
        Ok(Replica {
            graph,
            store,
            // The server's cache, with every KGQ_* variable cleared.
            cache: QueryCache::from_env(),
            schema: None,
            sketch: None,
            durable,
        })
    }

    pub fn cache(&self) -> &QueryCache {
        &self.cache
    }

    /// Executes one read inside a `serve.execute` span; returns the body
    /// `kgq serve` would send.
    pub fn read(&mut self, req: &Req, tr: &mut Recorder) -> Result<String, String> {
        let budget = effective_budget(&Budget::unlimited(), &Caps::none());
        let exec = tr.begin("serve.execute");
        let mut probe = None;
        let res = match req.kind {
            Kind::Query => self.rpq(&budget, &req.payload, tr),
            Kind::Cypher => self.cypher(&budget, &req.payload, tr),
            Kind::Sparql => self.sparql(&budget, &req.payload, tr, &mut probe),
            Kind::Stats => Err("STATS is answered by the server loop".into()),
        };
        tr.end(exec);
        // The planner ran inside `select_governed_with`; time an
        // identical call now, outside the execute span, and place it as
        // the first child of the join span.
        if let Some((q, sk, join)) = probe {
            let t = Instant::now();
            std::hint::black_box(kgq_rdf::lftj::plan_sketched(&self.store, &sk, &q));
            tr.first_child(join, "rdf.plan", t.elapsed().as_nanos() as i64);
        }
        res
    }

    fn schema(&mut self, tr: &mut Recorder) -> Arc<SchemaSummary> {
        let generation = self.graph.generation();
        if let Some((stamp, s)) = &self.schema {
            if *stamp == generation {
                return Arc::clone(s);
            }
        }
        let sp = tr.begin("graph.schema");
        let s = Arc::new(SchemaSummary::from_property(&self.graph));
        tr.end(sp);
        self.schema = Some((generation, Arc::clone(&s)));
        s
    }

    fn rpq(&mut self, budget: &Budget, payload: &str, tr: &mut Recorder) -> Result<String, String> {
        let (op, text) = payload
            .split_once('\n')
            .ok_or("QUERY payload needs an op line and an expression line")?;
        let sp = tr.begin("core.parse");
        let expr = parse_expr(text, self.graph.labeled_mut().consts_mut());
        tr.end(sp);
        let expr = expr.map_err(|e| e.render(text))?;
        let schema = self.schema(tr);
        let g = &self.graph;
        let sp = tr.begin("core.analyze");
        let report = analyze_expr(&expr, &schema, Some((text, g.labeled().consts())));
        tr.end(sp);
        let op_name = op.split_ascii_whitespace().next().unwrap_or("");
        if report.provably_empty && matches!(op_name, "pairs" | "starts") {
            return Ok(String::new());
        }
        let view = PropertyView::new(g);
        let cancel = CancelToken::new();
        let gov = Governor::with_cancel(budget, cancel.clone());
        let mut out = String::new();
        match op_name {
            "pairs" | "starts" => {
                let misses = self.cache.misses();
                let sp = tr.begin("core.compile");
                let compiled =
                    self.cache
                        .get_or_compile_governed(&view, g.generation(), &expr, &gov);
                tr.end(sp);
                let compiled = match compiled {
                    Ok(c) => c,
                    Err(EvalError::Interrupted(why)) => return Ok(format!("# partial: {why}\n")),
                    Err(e) => return Err(e.to_string()),
                };
                if self.cache.misses() == misses {
                    tr.rename(sp, "core.cache");
                }
                tr.count(
                    "core.product_states",
                    compiled.product().state_count() as f64,
                );
                let sp = tr.begin("core.kernel");
                if op_name == "pairs" {
                    let res = compiled.evaluator().pairs_governed(&gov);
                    tr.end(sp);
                    let res = res.map_err(|e| e.to_string())?;
                    for (a, b) in &res.value {
                        out.push_str(&format!(
                            "{}\t{}\n",
                            g.labeled().node_name(*a),
                            g.labeled().node_name(*b)
                        ));
                    }
                    marker(&mut out, &res);
                } else {
                    let res = compiled.evaluator().matching_starts_governed(&gov);
                    tr.end(sp);
                    let res = res.map_err(|e| e.to_string())?;
                    for n in &res.value {
                        out.push_str(g.labeled().node_name(*n));
                        out.push('\n');
                    }
                    marker(&mut out, &res);
                }
                Ok(out)
            }
            "count" => {
                let k: usize = op
                    .split_ascii_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse().ok())
                    .ok_or("count needs K")?;
                if report.provably_empty {
                    return Ok("0\n".into());
                }
                let sp = tr.begin("core.count");
                let res = count_paths_governed(&view, &expr, k, budget, cancel);
                tr.end(sp);
                let res = res.map_err(|e| e.to_string())?;
                out.push_str(&format!("{}\n", res.value));
                marker(&mut out, &res);
                Ok(out)
            }
            other => Err(format!("unknown query op `{other}`")),
        }
    }

    fn cypher(
        &mut self,
        budget: &Budget,
        payload: &str,
        tr: &mut Recorder,
    ) -> Result<String, String> {
        let sp = tr.begin("cypher.parse");
        let q = kgq_cypher::parse_query(payload);
        tr.end(sp);
        let q = q.map_err(|e| e.render(payload))?;
        let g = &self.graph;
        let sp = tr.begin("cypher.analyze");
        let report = kgq_cypher::analyze_query(g, &q, Some(payload));
        tr.end(sp);
        if report.provably_empty {
            return Ok(String::new());
        }
        let gov = Governor::with_cancel(budget, CancelToken::new());
        let sp = tr.begin("cypher.exec");
        let res = kgq_cypher::execute_governed(g, &q, &self.cache, &gov);
        tr.end(sp);
        let res = res.map_err(|e| e.to_string())?;
        tr.count("cypher.rows", res.value.len() as f64);
        let mut out = String::new();
        for row in &res.value {
            out.push_str(&row.join("\t"));
            out.push('\n');
        }
        marker(&mut out, &res);
        Ok(out)
    }

    #[allow(clippy::type_complexity)]
    fn sparql(
        &mut self,
        budget: &Budget,
        payload: &str,
        tr: &mut Recorder,
        probe: &mut Option<(kgq_rdf::Bgp, Arc<StoreSketch>, usize)>,
    ) -> Result<String, String> {
        let sp = tr.begin("rdf.parse");
        let q = kgq_rdf::parse_select(payload, &mut self.store);
        tr.end(sp);
        let q = q.map_err(|e| e.to_string())?;
        let generation = self.graph.generation();
        let projected = if q.count.is_some() {
            None
        } else {
            Some(q.vars.as_slice())
        };
        let sp = tr.begin("rdf.analyze");
        let report = kgq_rdf::analyze_bgp(&self.store, &q.pattern, projected);
        tr.end(sp);
        if report.provably_empty {
            return Ok(match &q.count {
                Some(_) => "0\n".to_owned(),
                None => String::new(),
            });
        }
        let sk = match &self.sketch {
            Some((stamp, sk)) if *stamp == generation => Arc::clone(sk),
            _ => {
                let sp = tr.begin("rdf.sketch_build");
                let sk = Arc::new(StoreSketch::build(&self.store));
                tr.end(sp);
                self.sketch = Some((generation, Arc::clone(&sk)));
                sk
            }
        };
        let gov = Governor::with_cancel(budget, CancelToken::new());
        let join = tr.begin("rdf.join");
        let res = kgq_rdf::select_governed_with(&self.store, &q, Some(&sk), &gov);
        tr.end(join);
        let res = res.map_err(|e| e.to_string())?;
        tr.count("rdf.rows", res.rows.value.len() as f64);
        tr.count(
            "rdf.sketch_planned",
            f64::from(u8::from(res.sketch_planned)),
        );
        let mut out = String::new();
        for row in &res.rows.value {
            out.push_str(&row.join("\t"));
            out.push('\n');
        }
        marker(&mut out, &res.rows);
        *probe = Some((q.pattern, sk, join));
        Ok(out)
    }

    /// Commits one mutation batch the way `kgq serve` does: WAL commit
    /// (fsynced) first, then the live graph and store, then the
    /// generation bump. Returns the response body.
    pub fn write(&mut self, w: &Write, tr: &mut Recorder) -> Result<String, String> {
        let exec = tr.begin("serve.execute");
        let res = self.commit(w, tr);
        tr.end(exec);
        res
    }

    fn commit(&mut self, w: &Write, tr: &mut Recorder) -> Result<String, String> {
        let mut edges = Vec::new();
        if let Some((src, label, dst)) = &w.edge {
            let next_seq = match &self.durable {
                Some(d) => d.all_edges().count(),
                None => self.graph.edge_count(),
            };
            edges.push(EdgeRec {
                id: format!("srv-e{next_seq}"),
                src: src.clone(),
                src_label: "node".into(),
                label: label.clone(),
                dst: dst.clone(),
                dst_label: "node".into(),
            });
        }
        if let Some(d) = self.durable.as_mut() {
            let sp = tr.begin("store.commit");
            for (s, p, o) in &w.triples {
                if w.insert {
                    d.stage_insert(s, p, o);
                } else {
                    d.stage_delete(s, p, o);
                }
            }
            for e in &edges {
                d.stage_edge(e.clone());
            }
            let done = d.commit();
            tr.end(sp);
            done.map_err(|e| format!("durable commit failed: {e}"))?;
        }
        let body = if w.insert {
            let sp = tr.begin("serve.apply_edges");
            let applied_edges = kgq_serve::apply_edges(&mut self.graph, edges.iter());
            tr.end(sp);
            let mut applied = 0;
            for (s, p, o) in &w.triples {
                let sp = tr.begin("rdf.insert");
                applied += usize::from(self.store.insert_strs(s, p, o));
                tr.end(sp);
            }
            self.graph.touch();
            format!(
                "inserted {applied} triple(s), {applied_edges} edge(s)\ngeneration {}\n",
                self.graph.generation()
            )
        } else {
            let mut removed = 0;
            for (s, p, o) in &w.triples {
                let st = &mut self.store;
                let sp = tr.begin("rdf.remove");
                if let (Some(s), Some(p), Some(o)) =
                    (st.get_term(s), st.get_term(p), st.get_term(o))
                {
                    removed += usize::from(st.remove(kgq_rdf::Triple { s, p, o }));
                }
                tr.end(sp);
            }
            self.graph.touch();
            format!(
                "deleted {removed} triple(s)\ngeneration {}\n",
                self.graph.generation()
            )
        };
        Ok(body)
    }
}

/// The `# partial:` / `# degraded:` trailer lines of a governed result.
fn marker<T>(out: &mut String, res: &Governed<T>) {
    if let Completion::Partial(why) = &res.completion {
        out.push_str(&format!("# partial: {why}\n"));
    }
    if res.degraded {
        out.push_str("# degraded: exact budget exhausted, approximate estimate\n");
    }
}
