//! Spans recorded from the benchmark's own code around each call into a
//! layer. Kept in memory; `to_json` writes them out with a per-name
//! roll-up once the traced pass is over.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One call (or one loop of like calls) into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<operation>`; the layer is the crate name.
    pub name: &'static str,
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Duration minus the part covered by child spans.
    pub self_ns: u64,
    /// Units of work inside the span (events, calls, specs).
    pub count: u64,
}

/// A span recorder. A disabled tracer runs the closure and records
/// nothing, so timed passes and the traced pass share one code path.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name` covering `count` units of work.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        count: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            id,
            parent: self.open.last().copied(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            self_ns: 0,
            count,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        // While a span is open its `self_ns` accumulates the durations of
        // its closed children; closing turns that into the self time.
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        let duration = end_ns - span.start_ns;
        span.self_ns = duration.saturating_sub(span.self_ns);
        if let Some(parent) = span.parent {
            self.spans[parent].self_ns += duration;
        }
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time, calls and work units summed per span name.
    pub fn by_name(&self) -> BTreeMap<&'static str, Rollup> {
        let mut out: BTreeMap<&'static str, Rollup> = BTreeMap::new();
        for s in &self.spans {
            let r = out.entry(s.name).or_default();
            r.calls += 1;
            r.count += s.count;
            r.self_ns += s.self_ns;
            r.total_ns += s.end_ns - s.start_ns;
        }
        out
    }

    /// Summed self time of the spans whose name satisfies `pick`.
    pub fn self_ns_where(&self, pick: impl Fn(&str) -> bool) -> u64 {
        self.spans
            .iter()
            .filter(|s| pick(s.name))
            .map(|s| s.self_ns)
            .sum()
    }

    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("id", s.id.into()),
                    ("parent", s.parent.map_or(Json::Null, Json::from)),
                    ("start_ns", s.start_ns.into()),
                    ("end_ns", s.end_ns.into()),
                    ("self_ns", s.self_ns.into()),
                    ("count", s.count.into()),
                ])
            })
            .collect();
        let by_name = self.by_name().into_iter().map(|(name, r)| {
            (
                name,
                Json::obj([
                    ("calls", r.calls.into()),
                    ("count", r.count.into()),
                    ("self_ns", r.self_ns.into()),
                    ("total_ns", r.total_ns.into()),
                ]),
            )
        });
        Json::obj([("spans", Json::Arr(spans)), ("by_name", Json::obj(by_name))])
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Rollup {
    pub calls: u64,
    pub count: u64,
    pub self_ns: u64,
    pub total_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_parents_link_up() {
        let mut t = Tracer::on();
        t.span("outer", 1, |t| {
            t.span("inner", 3, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("inner", 4, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        let outer = &spans[0];
        let inner_total: u64 = spans[1..].iter().map(|s| s.end_ns - s.start_ns).sum();
        assert_eq!(outer.self_ns, outer.end_ns - outer.start_ns - inner_total);
        let roll = t.by_name();
        assert_eq!((roll["inner"].calls, roll["inner"].count), (2, 7));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("x", 1, |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
