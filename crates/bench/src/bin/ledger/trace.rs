//! The span recorder of the traced run. It lives in the ledger: spans are
//! opened around the ledger's own calls into each layer's public functions,
//! or laid out from the durations those calls report back. Nothing is
//! recorded inside the library crates. Spans stay in memory and are written
//! out once, when the run ends.

use std::path::Path;
use std::time::{Duration, Instant};

pub struct Span {
    pub id: u32,
    /// The span that caused this one; `None` for a front-door operation.
    pub parent: Option<u32>,
    pub name: String,
    /// Shared by every span of one operation or request.
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// `true` for time spent inside a named layer (measured around a call
    /// into it, or reported by it); `false` for a front-door operation.
    pub layer: bool,
}

/// Records nothing when switched off, so one workload body serves both the
/// untraced and the traced pass and their difference is the tracing cost.
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last, each with the offset at which its next
    /// reported child starts.
    open: Vec<(usize, u64)>,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&mut self, name: &str, request: u64, layer: bool, start_ns: u64, end_ns: u64) -> usize {
        let index = self.spans.len();
        self.spans.push(Span {
            id: index as u32,
            parent: self.open.last().map(|&(parent, _)| parent as u32),
            name: name.to_string(),
            request,
            start_ns,
            end_ns,
            layer,
        });
        index
    }

    /// Run `body` inside a front-door operation span.
    pub fn op<T>(&mut self, name: &str, request: u64, body: impl FnOnce(&mut Recorder) -> T) -> T {
        self.measured(name, request, false, body).0
    }

    /// Run `body` inside a span measured around a call into a layer, and
    /// say how long it took (timed whether or not spans are being kept).
    pub fn layer<T>(&mut self, name: &str, body: impl FnOnce() -> T) -> (T, Duration) {
        self.measured(name, 0, true, |_| body())
    }

    fn measured<T>(
        &mut self,
        name: &str,
        request: u64,
        layer: bool,
        body: impl FnOnce(&mut Recorder) -> T,
    ) -> (T, Duration) {
        let begin = Instant::now();
        if !self.on {
            let value = body(self);
            return (value, begin.elapsed());
        }
        let start = self.now_ns();
        let index = self.push(name, request, layer, start, start);
        self.open.push((index, start));
        let value = body(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        (value, begin.elapsed())
    }

    /// A child of the innermost open span whose duration the callee
    /// reported. Reported children are laid end to end from the parent's
    /// start: their lengths are measurements, their offsets are not.
    pub fn reported(&mut self, name: &str, request: u64, duration: Duration) {
        if !self.on {
            return;
        }
        let start = self
            .open
            .last()
            .map_or_else(|| self.now_ns(), |&(_, at)| at);
        let end = start + duration.as_nanos() as u64;
        self.push(name, request, true, start, end);
        if let Some(open) = self.open.last_mut() {
            open.1 = end;
        }
    }

    /// A complete operation known only after the fact (a served request):
    /// a root span of `total` with reported layer children.
    pub fn replayed_op(
        &mut self,
        name: &str,
        request: u64,
        start_ns: u64,
        total: Duration,
        children: &[(&str, Duration)],
    ) {
        if !self.on {
            return;
        }
        let index = self.push(
            name,
            request,
            false,
            start_ns,
            start_ns + total.as_nanos() as u64,
        );
        self.open.push((index, start_ns));
        for (child, duration) in children {
            self.reported(child, request, *duration);
        }
        self.open.pop();
    }

    /// `1 − Σ layer time ÷ Σ operation time`: the share of front-door wall
    /// time no layer span accounts for. Layer spans nested in other layer
    /// spans are not counted twice.
    pub fn unattributed_share(&self) -> f64 {
        let mut ops = 0u64;
        let mut layers = 0u64;
        for span in &self.spans {
            let duration = span.end_ns - span.start_ns;
            match span.parent {
                None if !span.layer => ops += duration,
                Some(parent) if span.layer && !self.spans[parent as usize].layer => {
                    layers += duration
                }
                _ => {}
            }
        }
        if ops == 0 {
            return 0.0;
        }
        1.0 - layers as f64 / ops as f64
    }

    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
        )?;
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}{{\"id\":{},\"parent\":{},\"name\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{},\"layer\":{}}}",
                if i == 0 { "" } else { "," },
                span.id,
                parent,
                serde_json::to_string(&span.name).expect("a string serializes"),
                span.request,
                span.start_ns,
                span.end_ns,
                span.layer
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_children_account_for_their_operation() {
        let mut rec = Recorder::new(true);
        rec.replayed_op(
            "request",
            1,
            0,
            Duration::from_micros(100),
            &[
                ("serve.queue", Duration::from_micros(10)),
                ("sched.lookup", Duration::from_micros(30)),
            ],
        );
        assert!((rec.unattributed_share() - 0.6).abs() < 1e-9);
        assert_eq!(rec.spans[2].parent, Some(0));
        assert_eq!(rec.spans[2].start_ns, 10_000);
    }

    #[test]
    fn a_recorder_switched_off_keeps_nothing() {
        let mut rec = Recorder::new(false);
        let value = rec.op("op", 0, |rec| {
            rec.reported("child", 0, Duration::from_millis(1));
            7
        });
        assert_eq!(value, 7);
        assert!(rec.spans.is_empty());
    }
}
