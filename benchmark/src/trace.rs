//! Benchmark-side spans: one record around every call into a layer,
//! kept in memory and written out when the run ends.
//!
//! A span is `(name, start_ns, end_ns, parent, job)`. Spans of one
//! request share `job`; `parent` is the index of the span that caused
//! it. A layer's self time is its span minus the part its children
//! cover. With tracing off (`None`) [`span`] is a plain call, so the
//! timed run pays nothing for it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub job: u64,
}

#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("a span push cannot panic")
    }

    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Per span name: `(count, total seconds, self seconds)`.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let spans = self.lock();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, &kids) in spans.iter().zip(&child_ns) {
            let total = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_insert((0u64, 0.0, 0.0));
            e.0 += 1;
            e.1 += total as f64 / 1e9;
            e.2 += total.saturating_sub(kids) as f64 / 1e9;
        }
        out
    }

    /// The spans as a JSON array, one object per span, in start order
    /// of their creation (a span's index is its id).
    pub fn to_json(&self) -> String {
        let spans = self.lock();
        let mut out = String::from("[");
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"job\": {}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_ns,
                s.end_ns,
                s.job
            );
        }
        out.push_str("\n]");
        out
    }
}

/// Run `f` inside a span when tracing is on; `f` receives the span's id
/// to hand to its children as their `parent`.
pub fn span<T>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<u32>,
    job: u64,
    f: impl FnOnce(Option<u32>) -> T,
) -> T {
    let Some(tr) = tracer else {
        return f(None);
    };
    let start_ns = tr.now_ns();
    let id = {
        let mut spans = tr.lock();
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            job,
        });
        (spans.len() - 1) as u32
    };
    let out = f(Some(id));
    let end_ns = tr.now_ns();
    tr.lock()[id as usize].end_ns = end_ns;
    out
}
