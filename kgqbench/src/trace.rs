//! Spans for the traced run, and the arithmetic on them.
//!
//! A span has a name, a start and an end (nanoseconds from the run's
//! epoch), a parent and the request it belongs to. Spans stay in memory
//! and are written out when the run ends. A layer's self time is its
//! span minus the part of that interval its child spans cover.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the parent within the same request's spans.
    pub parent: Option<usize>,
    pub start: i64,
    pub end: i64,
}

impl Span {
    pub fn dur(&self) -> i64 {
        self.end - self.start
    }
}

/// Records the spans and counts of one request at a time. A disabled
/// recorder (the answer oracle) keeps nothing.
pub struct Recorder {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
    counts: Vec<(&'static str, f64)>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            on: true,
            spans: Vec::new(),
            stack: Vec::new(),
            counts: Vec::new(),
        }
    }

    pub fn off() -> Recorder {
        Recorder {
            on: false,
            ..Recorder::new(Instant::now())
        }
    }

    pub fn ns(&self, t: Instant) -> i64 {
        t.saturating_duration_since(self.epoch).as_nanos() as i64
    }

    /// Opens a span under the innermost open one; returns its index.
    pub fn begin(&mut self, name: &'static str) -> usize {
        if !self.on {
            return 0;
        }
        let i = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            start: self.ns(Instant::now()),
            end: 0,
        });
        self.stack.push(i);
        i
    }

    pub fn end(&mut self, i: usize) {
        if !self.on {
            return;
        }
        self.spans[i].end = self.ns(Instant::now());
        debug_assert_eq!(self.stack.last(), Some(&i), "spans close in order");
        self.stack.pop();
    }

    pub fn rename(&mut self, i: usize, name: &'static str) {
        if self.on {
            self.spans[i].name = name;
        }
    }

    /// A child of `parent` timed by a separate identical call: it is
    /// placed at the parent's start, cut to the parent's length.
    pub fn first_child(&mut self, parent: usize, name: &'static str, dur: i64) {
        if !self.on {
            return;
        }
        let p = &self.spans[parent];
        let span = Span {
            name,
            parent: Some(parent),
            start: p.start,
            end: p.start + dur.min(p.dur()),
        };
        self.spans.push(span);
    }

    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.on {
            self.counts.push((name, value));
        }
    }

    /// Hands over what one request recorded and starts afresh.
    pub fn take(&mut self) -> (Vec<Span>, Vec<(&'static str, f64)>) {
        self.stack.clear();
        (
            std::mem::take(&mut self.spans),
            std::mem::take(&mut self.counts),
        )
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<i64> {
    (0..spans.len())
        .map(|i| {
            let (lo, hi) = (spans[i].start, spans[i].end);
            let mut kids: Vec<(i64, i64)> = spans
                .iter()
                .filter(|s| s.parent == Some(i))
                .map(|s| (s.start.max(lo), s.end.min(hi)))
                .filter(|(a, b)| a < b)
                .collect();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = lo;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            spans[i].dur() - covered
        })
        .collect()
}

/// Moves every span by `offset` nanoseconds.
pub fn shift(spans: &mut [Span], offset: i64) {
    for s in spans {
        s.start += offset;
        s.end += offset;
    }
}

/// One traced request: its span tree (index 0 is the `request` span),
/// the counts its layers reported, and the response size.
pub struct Tree {
    pub id: usize,
    pub spans: Vec<Span>,
    pub counts: Vec<(&'static str, f64)>,
}

impl Tree {
    /// How far the layers' self times miss the `request` span, as a
    /// share of it. Zero when every child fits inside its parent.
    pub fn accounting_error(&self) -> f64 {
        let total: i64 = self_times(&self.spans).iter().sum();
        let req = self.spans[0].dur().max(1);
        (total - req).abs() as f64 / req as f64
    }
}

/// Tab-separated dump of every span: request id, span index, parent
/// index (`-` for the root), name, start and end in nanoseconds.
pub fn dump(trees: &[Tree]) -> String {
    let mut out = String::from("req\tspan\tparent\tname\tstart_ns\tend_ns\n");
    for t in trees {
        for (i, s) in t.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}\t{i}\t{parent}\t{}\t{}\t{}",
                t.id, s.name, s.start, s.end
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: i64, end: i64) -> Span {
        Span {
            name,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("request", None, 0, 100),
            span("serve.execute", Some(0), 20, 80),
            span("core.parse", Some(1), 20, 30),
            span("core.kernel", Some(1), 40, 70),
            span("serve.frame", Some(0), 90, 95),
        ];
        assert_eq!(self_times(&spans), vec![35, 20, 10, 30, 5]);
        let tree = Tree {
            id: 0,
            spans,
            counts: vec![],
        };
        assert_eq!(tree.accounting_error(), 0.0);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_clipped() {
        let spans = vec![
            span("request", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 60),  // overlaps a: union is 10..60
            span("c", Some(0), 90, 130), // overhangs the parent end
        ];
        assert_eq!(self_times(&spans), vec![40, 30, 30, 40]);
        let tree = Tree {
            id: 0,
            spans,
            counts: vec![],
        };
        // 140 of self time against a 100 ns request.
        assert!((tree.accounting_error() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn shifting_keeps_self_times() {
        let mut spans = vec![span("x", None, 5, 50), span("y", Some(0), 10, 20)];
        let before = self_times(&spans);
        shift(&mut spans, 1_000);
        assert_eq!(self_times(&spans), before);
        assert_eq!(spans[1].start, 1_010);
    }

    #[test]
    fn recorder_nests_and_places_probe_children() {
        let mut r = Recorder::new(Instant::now());
        let a = r.begin("serve.execute");
        let b = r.begin("rdf.join");
        std::thread::sleep(std::time::Duration::from_millis(2));
        r.end(b);
        r.end(a);
        r.first_child(b, "rdf.plan", i64::MAX);
        let (spans, _) = r.take();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(
            (spans[2].start, spans[2].end),
            (spans[1].start, spans[1].end)
        );
        let mut off = Recorder::off();
        let i = off.begin("x");
        off.end(i);
        assert!(off.take().0.is_empty());
    }
}
