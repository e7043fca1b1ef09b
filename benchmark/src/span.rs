//! In-memory spans and the per-layer ledger built from them.
//!
//! Every span is recorded from the benchmark's own code, around a call
//! into a public function of the repository (a driver call) or around a
//! block of at least [`MIN_BLOCK_OPS`] identical operations (a plant
//! block) — never around a single nanosecond-scale call, whose duration
//! the clock could not resolve. Spans live in memory until the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// Smallest number of operations one plant block may hold.
pub const MIN_BLOCK_OPS: u64 = 1024;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer or driver name, e.g. `core.controller.ingest_columns`.
    pub name: String,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Operations performed inside the span (0 when it only groups).
    pub ops: u64,
}

impl Span {
    /// Wall time between start and end.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans on one thread with stack discipline. A disabled tracer
/// records nothing and reads no clock, so an untraced run pays one
/// predictable branch per call site.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switches recording on or off (between repetitions, never inside
    /// an open span).
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside an open span");
        self.enabled = enabled;
    }

    /// Runs `f` inside a span named `name`; `f` returns its result and
    /// the number of operations it performed.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> (R, u64)) -> R {
        if !self.enabled {
            return f(self).0;
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            ops: 0,
        });
        self.open.push(index);
        let (result, ops) = f(self);
        self.open.pop();
        let end = self.epoch.elapsed().as_nanos() as u64;
        let span = &mut self.spans[index];
        span.end_ns = end;
        span.ops = ops;
        result
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// A span's self time: its duration minus the part of that interval its
/// direct children cover (overlapping children are counted once).
pub fn self_time_ns(spans: &[Span], index: usize) -> u64 {
    let me = &spans[index];
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(index))
        .map(|s| (s.start_ns.max(me.start_ns), s.end_ns.min(me.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_unstable();
    let mut covered = 0u64;
    let mut reach = me.start_ns;
    for (a, b) in kids {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    me.duration_ns().saturating_sub(covered)
}

/// Total duration and operations of every span called `name`.
pub fn totals(spans: &[Span], name: &str) -> (u64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0), |(ns, ops), s| (ns + s.duration_ns(), ops + s.ops))
}

/// Serialises spans as a JSON array of
/// `{name, start_ns, end_ns, parent, ops}` objects.
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "  {{\"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"ops\": {}}}",
            crate::report::json_string(&s.name),
            s.start_ns,
            s.end_ns,
            parent,
            s.ops
        );
        out.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
    }
    out.push(']');
    out
}

/// One ledger line: how often the driver used a layer, and what one use
/// costs when the plant exercises that layer alone.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerRow {
    /// Layer name.
    pub layer: String,
    /// Operations, counted from the driver's public outputs.
    pub ops: f64,
    /// Cost of one operation in the plant, in nanoseconds.
    pub ns_per_op: f64,
}

impl LedgerRow {
    /// A row for `layer`.
    pub fn new(layer: &str, ops: f64, ns_per_op: f64) -> Self {
        LedgerRow {
            layer: layer.to_string(),
            ops,
            ns_per_op,
        }
    }

    /// Estimated busy time: `ops × ns/op`, in seconds.
    pub fn busy_s(&self) -> f64 {
        self.ops * self.ns_per_op / 1e9
    }
}

/// Where a driver's wall time is estimated to go.
///
/// `ops × isolated ns/op` is an estimate, not a measurement: a layer run
/// alone keeps its working set in cache and its branches predicted, so
/// shares tend to undercount, and nothing stops them from summing past
/// 1. [`Ledger::self_frac`] is whatever the rows leave unexplained.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    /// The rows, in the order the workload listed them.
    pub rows: Vec<LedgerRow>,
    /// Measured wall time of the driver calls the rows explain, in s.
    pub driver_wall_s: f64,
}

impl Ledger {
    /// A row's estimated share of the driver's wall time.
    pub fn share(&self, row: &LedgerRow) -> f64 {
        if self.driver_wall_s > 0.0 {
            row.busy_s() / self.driver_wall_s
        } else {
            0.0
        }
    }

    /// Share of the driver's wall time no row accounts for (negative
    /// when the estimates over-explain it).
    pub fn self_frac(&self) -> f64 {
        1.0 - self.rows.iter().map(|r| self.share(r)).sum::<f64>()
    }

    /// The ledger as an aligned text table.
    pub fn render(&self, title: &str) -> String {
        let mut out = format!(
            "ledger: {title} (driver wall {:.3} s per repetition)\n",
            self.driver_wall_s
        );
        let _ = writeln!(
            out,
            "  {:<44} {:>14} {:>10} {:>9} {:>7}",
            "layer", "ops", "ns/op", "busy s", "share"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "  {:<44} {:>14.0} {:>10.1} {:>9.4} {:>6.1}%",
                r.layer,
                r.ops,
                r.ns_per_op,
                r.busy_s(),
                100.0 * self.share(r)
            );
        }
        let _ = writeln!(
            out,
            "  {:<44} {:>14} {:>10} {:>9.4} {:>6.1}%",
            "harness.self (unexplained)",
            "",
            "",
            self.self_frac() * self.driver_wall_s,
            100.0 * self.self_frac()
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns: start,
            end_ns: end,
            parent,
            ops: 1,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)), // overlaps a: union is [10, 50)
            span("c", 70, 80, Some(0)),
            span("grandchild", 12, 18, Some(1)), // not a direct child of root
            span("outside", 90, 130, Some(0)),   // clipped to the parent's end
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 40 - 10 - 10);
        assert_eq!(self_time_ns(&spans, 1), 20 - 6);
        assert_eq!(self_time_ns(&spans, 3), 10);
    }

    #[test]
    fn tracer_nests_and_counts_ops() {
        let mut t = Tracer::new(true);
        let got = t.span("outer", |t| {
            let inner = t.span("inner", |_| (7, 2048));
            (inner + 1, 1)
        });
        assert_eq!(got, 8);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(
            (s[0].name.as_str(), s[0].parent, s[0].ops),
            ("outer", None, 1)
        );
        assert_eq!(
            (s[1].name.as_str(), s[1].parent, s[1].ops),
            ("inner", Some(0), 2048)
        );
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(totals(s, "inner").1, 2048);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", |_| (3, 10)), 3);
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        t.span("y", |_| ((), 0));
        assert_eq!(t.spans().len(), 1);
    }

    #[test]
    fn ledger_arithmetic() {
        let ledger = Ledger {
            rows: vec![
                LedgerRow::new("a", 1e6, 500.0), // 0.5 s
                LedgerRow::new("b", 2e6, 125.0), // 0.25 s
            ],
            driver_wall_s: 2.0,
        };
        assert_eq!(ledger.rows[0].busy_s(), 0.5);
        assert_eq!(ledger.share(&ledger.rows[0]), 0.25);
        assert_eq!(ledger.share(&ledger.rows[1]), 0.125);
        assert_eq!(ledger.self_frac(), 0.625);
        let text = ledger.render("t");
        assert!(text.contains("harness.self"), "{text}");
        // Over-explained ledgers go negative rather than being clamped.
        let over = Ledger {
            rows: vec![LedgerRow::new("a", 1e9, 3.0)],
            driver_wall_s: 2.0,
        };
        assert_eq!(over.self_frac(), -0.5);
        // A zero wall (nothing measured) explains nothing, divides nothing.
        let empty = Ledger {
            rows: vec![LedgerRow::new("a", 1.0, 1.0)],
            driver_wall_s: 0.0,
        };
        assert_eq!(empty.self_frac(), 1.0);
    }

    #[test]
    fn spans_serialise_with_null_parent() {
        let json = spans_json(&[span("r\"oot", 1, 2, None), span("k", 1, 2, Some(0))]);
        assert!(json.contains("\"name\": \"r\\\"oot\""), "{json}");
        assert!(json.contains("\"parent\": null"), "{json}");
        assert!(json.contains("\"parent\": 0"), "{json}");
    }
}
