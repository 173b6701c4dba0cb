//! # kgq — querying in the age of graph databases and knowledge graphs
//!
//! Facade crate re-exporting the whole workspace. A reproduction of the
//! SIGMOD 2021 tutorial by Arenas, Gutierrez & Sequeda as a working
//! library:
//!
//! * [`graph`] — the three graph data models (labeled, property,
//!   vector-labeled), generators, conversions and I/O;
//! * [`core`] — path regular expressions and the §4.1 algorithm suite:
//!   evaluation, exact and FPRAS-approximate counting, uniform and
//!   approximate generation, polynomial-delay enumeration;
//! * [`analytics`] — classical graph analytics and the knowledge-aware
//!   centrality `bc_r` of §4.2;
//! * [`logic`] — bounded-variable first-order logic over graphs and the
//!   regex→FO² compilation of §4.3;
//! * [`gnn`] — Weisfeiler–Lehman refinement and aggregate-combine graph
//!   neural networks as node classifiers (§4.3);
//! * [`rdf`] — an RDF triple store with basic graph pattern matching
//!   and RDFS inference (§3, §2.3);
//! * [`embed`] — TransE knowledge-graph embeddings for link prediction
//!   and completion (§2.3);
//! * [`cypher`] — a Cypher-style `MATCH`/`WHERE`/`RETURN` pattern
//!   language over property graphs (§3 cites Cypher \[28\] and PGQL
//!   \[67\] as the practical face of the model);
//! * [`relbase`] — a miniature relational engine used as the
//!   "graphs in a relational database" baseline of §2.2;
//! * [`biblio`] — the DBLP-style bibliometric simulation behind the
//!   paper's Figure 1.
//!
//! ```
//! use kgq::graph::figures::figure2_labeled;
//! use kgq::core::{parse_expr, Evaluator, Governor, LabeledView};
//!
//! let mut g = figure2_labeled();
//! let expr = parse_expr("?person/rides/?bus/rides^-/?infected", g.consts_mut()).unwrap();
//! let view = LabeledView::new(&g);
//! // Every query runs under a governor; with no budget, an unlimited one.
//! let gov = Governor::unlimited();
//! let ev = Evaluator::new_governed(&view, &expr, &gov).unwrap();
//! let possibly_exposed = ev.matching_starts_governed(&gov).unwrap().value;
//! assert_eq!(possibly_exposed.len(), 2);
//! ```

pub use kgq_analytics as analytics;
pub use kgq_biblio as biblio;
pub use kgq_core as core;
pub use kgq_cypher as cypher;
pub use kgq_embed as embed;
pub use kgq_gnn as gnn;
pub use kgq_graph as graph;
pub use kgq_logic as logic;
pub use kgq_rdf as rdf;
pub use kgq_relbase as relbase;
pub use kgq_store as store;
