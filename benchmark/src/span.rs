//! The benchmark's own tracer: spans around calls into each layer.
//!
//! Spans are recorded from outside the program, kept in memory, and
//! written as Chrome trace-event JSON when the run ends. A layer's self
//! time is its span minus the time its children cover.

use std::time::Instant;

use parsim_trace::json;

/// One timed interval. `parent` indexes into the same span list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The op (pipeline request or server job) this span belongs to.
    pub op: u64,
    /// Recording thread, for the trace viewer's lanes.
    pub tid: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread. A disabled tracer runs the closure
/// and records nothing, so the untraced path pays one branch per layer.
pub struct Tracer {
    epoch: Instant,
    tid: u32,
    enabled: bool,
    op: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, tid: u32) -> Tracer {
        Tracer {
            epoch,
            tid,
            enabled: true,
            op: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new(Instant::now(), 0)
        }
    }

    /// Switches recording on or off between ops (never inside a span).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "tracing toggled inside a span");
        self.enabled = enabled;
    }

    /// Sets the op id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Times `f` as a span named `name`, a child of the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
            tid: self.tid,
        });
        self.open.push(index);
        self.spans[index].start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(self);
        self.spans[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.open.pop();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Durations in ms of every span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

/// Chrome trace-event JSON (`ph: "X"` complete events, µs timestamps);
/// opens in `chrome://tracing` and <https://ui.perfetto.dev>.
pub fn chrome_json(spans: &[Span]) -> String {
    let own = self_times_ns(spans);
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, (s, own_ns)) in spans.iter().zip(&own).enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\
             \"args\":{{\"span\":{i},\"parent\":{parent},\"op\":{},\"self_us\":{}}}}}",
            json::escape(s.name),
            s.tid,
            json::fmt_f64(s.start_ns as f64 / 1e3),
            json::fmt_f64(s.dur_ns() as f64 / 1e3),
            s.op,
            json::fmt_f64(*own_ns as f64 / 1e3),
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
            tid: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0,100) holds parse [10,30) and run [30,90); run holds inner [40,50).
        let spans = vec![
            span("op", 0, 100, None),
            span("parse", 10, 30, Some(0)),
            span("run", 30, 90, Some(0)),
            span("inner", 40, 50, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 20, 50, 10]);
    }

    #[test]
    fn tracer_nests_and_stamps_ops() {
        let mut tr = Tracer::new(Instant::now(), 3);
        tr.set_op(7);
        let v = tr.span("op", |tr| tr.span("child", |_| 41) + 1);
        assert_eq!(v, 42);
        let s = tr.spans();
        assert_eq!(
            (s[0].name, s[0].parent, s[0].op, s[0].tid),
            ("op", None, 7, 3)
        );
        assert_eq!((s[1].name, s[1].parent), ("child", Some(0)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(durations_ms(s, "child").len(), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::off();
        assert_eq!(tr.span("op", |_| 5), 5);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parents_and_json_parses() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch, 0);
        a.span("a", |_| ());
        let mut b = Tracer::new(epoch, 1);
        b.span("b", |tr| tr.span("b.child", |_| ()));
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        let doc = chrome_json(a.spans());
        parsim_trace::json::lint(&doc).expect("chrome trace is well-formed JSON");
        assert!(doc.contains("\"name\":\"b.child\""));
    }
}
