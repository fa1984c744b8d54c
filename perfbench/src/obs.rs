//! In-memory spans and counters for the traced run, plus the sample
//! statistics every metric is reported with.
//!
//! Spans are recorded only around calls the benchmark itself makes into
//! a public function of a layer crate; nothing inside the program is
//! instrumented. With tracing off, `begin`/`end` do nothing, so the
//! untraced run pays one branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `[start_ns, end_ns)` since the tracer's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
}

/// Handle of an open span (`None` when tracing is off).
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; it becomes the parent of spans opened before its `end`.
    pub fn begin(&mut self, layer: &'static str, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            layer,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Close `id`, which must be the innermost open span, and return its
    /// duration in ns (0 when tracing is off).
    pub fn end(&mut self, id: SpanId) -> u64 {
        let Some(id) = id.0 else { return 0 };
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].dur_ns()
    }

    /// Close every span opened after the first `depth` (after an op
    /// panicked inside them).
    pub fn close_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            let id = self.open.pop().expect("open span");
            self.spans[id].end_ns = self.now_ns();
        }
    }

    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Run `f` inside a span.
    pub fn time<R>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(layer, name);
        let r = f();
        self.end(id);
        r
    }

    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.on {
            *self.counts.entry(name).or_default() += n;
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every closed span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Self time (ns) per layer of the spans nested under `root`: each
    /// span's duration minus the part its children cover. The root's own
    /// self time is the time no layer call accounts for, reported as
    /// `unattributed`. The values add up to the root's duration.
    pub fn self_split(&self, root: usize) -> BTreeMap<&'static str, u64> {
        let mut inside = vec![false; self.spans.len()];
        inside[root] = true;
        let mut child_ns = vec![0u64; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate().skip(root + 1) {
            if let Some(p) = s.parent.filter(|&p| inside[p]) {
                inside[i] = true;
                child_ns[p] += s.dur_ns();
            }
        }
        let mut split = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if inside[i] {
                let layer = if i == root { "unattributed" } else { s.layer };
                *split.entry(layer).or_default() += s.dur_ns() - child_ns[i];
            }
        }
        split
    }

    /// Index of the last span called `name`.
    pub fn last(&self, name: &str) -> Option<usize> {
        self.spans.iter().rposition(|s| s.name == name)
    }

    /// Spans and counters as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\": {i}, \"parent\": {parent}, \"layer\": \"{}\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.layer, s.name, s.start_ns, s.end_ns
            );
        }
        for (name, n) in &self.counts {
            let _ = writeln!(out, "{{\"counter\": \"{name}\", \"value\": {n}}}");
        }
        out
    }
}

/// Median, averaging the two middle values of an even-sized sample.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank 10th percentile: the fast decile of a timing sample.
pub fn p10(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[xs.len().div_ceil(10) - 1]
}

/// Nearest-rank 90th percentile, or `None` unless at least ten samples
/// lie beyond it.
pub fn p90(xs: &[f64]) -> Option<f64> {
    let n = xs.len();
    let rank = (n * 9).div_ceil(10);
    if n < 10 || n - rank < 10 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}
