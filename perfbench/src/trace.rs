//! Spans recorded by the benchmark around calls into each crate's public
//! functions. Nothing inside the program is instrumented: a span covers
//! one call from the outside, so its self time is the part of that call
//! no nested benchmark span covers.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`, the layer named after its workspace crate.
    pub name: &'static str,
    /// Repetition the span belongs to; spans of one repetition share it.
    pub id: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in microseconds since the tracer was created.
    pub start_us: f64,
    /// End, in microseconds since the tracer was created.
    pub end_us: f64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_us - self.start_us) / 1e6
    }

    /// The layer: the name up to its last `.`.
    pub fn layer(&self) -> &'static str {
        self.name.rsplit_once('.').map_or(self.name, |(layer, _)| layer)
    }
}

/// Handle of an open span.
#[must_use = "an open span must be closed"]
pub struct Open(usize);

/// In-memory span recorder. Spans nest in the order they are opened and
/// closed; they are written out once, when the benchmark ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span inside the innermost open one.
    pub fn open(&mut self, name: &'static str, id: u64) -> Open {
        let start_us = self.now_us();
        let parent = self.stack.last().copied();
        self.spans.push(Span { name, id, parent, start_us, end_us: start_us });
        self.stack.push(self.spans.len() - 1);
        Open(self.spans.len() - 1)
    }

    /// Close `span` (it must be the innermost open one) and return its
    /// duration in seconds.
    pub fn close(&mut self, span: Open) -> f64 {
        let top = self.stack.pop();
        assert_eq!(top, Some(span.0), "spans must close innermost first");
        let end = self.now_us();
        let s = &mut self.spans[span.0];
        s.end_us = end;
        s.secs()
    }

    /// Time `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let span = self.open(name, id);
        let out = f();
        let secs = self.close(span);
        (out, secs)
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Chrome `trace_event` JSON of every span: one complete (`X`) event
    /// each, one track per repetition id.
    pub fn chrome_trace(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("", |p| self.spans[p].name);
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                     \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"parent\":\"{}\"}}}}",
                    s.name,
                    s.layer(),
                    s.id,
                    s.start_us,
                    s.end_us - s.start_us,
                    parent
                )
            })
            .collect();
        format!("{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
    }
}

/// Self time of span `idx` in seconds: its duration minus the part of its
/// interval that its direct children cover (overlapping children count
/// once, and a child is clipped to its parent's interval).
pub fn self_secs(spans: &[Span], idx: usize) -> f64 {
    let me = &spans[idx];
    let mut kids: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| (s.start_us.max(me.start_us), s.end_us.min(me.end_us)))
        .filter(|(a, b)| b > a)
        .collect();
    kids.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in kids {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                covered += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        covered += cb - ca;
    }
    ((me.end_us - me.start_us) - covered) / 1e6
}

/// Self time per layer in seconds, summed over every span.
pub fn layer_self_secs(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        *out.entry(s.layer()).or_insert(0.0) += self_secs(spans, i);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_us: f64, end_us: f64) -> Span {
        Span { name, id: 0, parent, start_us, end_us }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("bench.rep", None, 0.0, 100.0),
            span("core.plan", Some(0), 10.0, 40.0),
            // Overlaps the previous child: 30..50 adds only 40..50.
            span("core.search", Some(0), 30.0, 50.0),
            span("stream.run", Some(0), 60.0, 90.0),
            // A grandchild does not count against the root.
            span("exec.inner", Some(3), 70.0, 80.0),
        ];
        assert!((self_secs(&spans, 0) - 30e-6).abs() < 1e-12);
        assert!((self_secs(&spans, 3) - 20e-6).abs() < 1e-12);
        assert!((self_secs(&spans, 4) - 10e-6).abs() < 1e-12);
        let layers = layer_self_secs(&spans);
        assert!((layers["core"] - 50e-6).abs() < 1e-12);
        assert!((layers["bench"] - 30e-6).abs() < 1e-12);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = vec![span("a.x", None, 10.0, 20.0), span("b.y", Some(0), 15.0, 30.0)];
        assert!((self_secs(&spans, 0) - 5e-6).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_and_exports() {
        let mut t = Tracer::new();
        let outer = t.open("bench.rep", 7);
        let ((), _) = t.time("core.plan_workload", 7, || ());
        let total = t.close(outer);
        assert!(total >= 0.0);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].layer(), "core");
        assert_eq!(spans[0].id, 7);
        let json = t.chrome_trace();
        assert!(json.contains("\"name\":\"core.plan_workload\""));
        assert!(json.contains("\"parent\":\"bench.rep\""));
    }
}
