//! In-memory spans recorded around calls into each layer, and the
//! self-time arithmetic the per-layer shares rest on.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span inside its [`Recorder`].
pub type SpanId = u32;

/// One timed interval. `parent` is the span that caused it (the control
/// tick for a layer call, the rep for a tick); spans of one rep share
/// `rep`. `count` is the work done inside, in the unit the name implies
/// (pods actuated, events processed, …) so ratios are taken where the
/// work happens.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub rep: u32,
    pub count: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans against one monotonic origin; nothing is written until
/// the run ends.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder { origin: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span that other spans will name as their parent.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, rep: u32) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, rep, count: 0 });
        (self.spans.len() - 1) as SpanId
    }

    /// Closes a span opened with [`Recorder::open`].
    pub fn close(&mut self, id: SpanId, count: u64) {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.count = count;
    }

    /// Times one call into a layer. `work` returns the call's result and
    /// the count to store on the span.
    pub fn call<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        rep: u32,
        work: impl FnOnce() -> (T, u64),
    ) -> T {
        let id = self.open(name, Some(parent), rep);
        let (value, count) = work();
        self.close(id, count);
        value
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the part its direct
/// children cover. Children never overlap each other here (one thread,
/// calls back to back), so the covered part is the plain sum.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let slot = &mut own[parent as usize];
            *slot = slot.saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Writes one JSON object per span, in recording order.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"rep\":{},\"count\":{}}}",
            s.name, s.start_ns, s.end_ns, s.rep, s.count
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span { name, start_ns, end_ns, parent, rep: 0, count: 0 }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("rep", 0, 1_000, None),
            span("tick", 100, 900, Some(0)),
            span("sim.run_until", 100, 600, Some(1)),
            span("core.manager_tick", 600, 850, Some(1)),
        ];
        // rep: 1000 − tick 800; tick: 800 − (500 + 250); leaves keep theirs.
        assert_eq!(self_times_ns(&spans), vec![200, 50, 500, 250]);
    }

    #[test]
    fn self_time_never_underflows_on_clock_jitter() {
        let spans = vec![span("tick", 0, 10, None), span("sim.run_until", 0, 11, Some(0))];
        assert_eq!(self_times_ns(&spans), vec![0, 11]);
    }

    #[test]
    fn recorder_nests_calls_under_the_open_span() {
        let mut rec = Recorder::new();
        let tick = rec.open("tick", None, 3);
        let got = rec.call("sim.snapshot", tick, 3, || (7, 2));
        rec.close(tick, 0);
        assert_eq!(got, 7);
        let spans = rec.spans();
        assert_eq!(spans[1].parent, Some(tick));
        assert_eq!((spans[1].rep, spans[1].count), (3, 2));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
