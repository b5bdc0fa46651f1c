//! Spans recorded from the benchmark's own files, around the calls into
//! the program: `{name, start, end, parent, op_id}` per thread, kept in
//! memory and written at exit as chrome-trace JSON plus a self-time table.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// What the span covers (a call into one layer).
    pub name: &'static str,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
    /// Index (in the same thread's list) of the span that caused this one.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one operation.
    pub op_id: u64,
}

/// Per-thread span recorder: an open-span stack over a flat list.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder whose timestamps count from `origin` (share one origin
    /// between threads so their timelines align).
    pub fn new(origin: Instant) -> Self {
        Recorder {
            origin,
            enabled: true,
            spans: Vec::with_capacity(1 << 12),
            open: Vec::with_capacity(8),
        }
    }

    /// A recorder that records nothing: [`Recorder::span`] only calls its
    /// closure. Lets untraced runs share the traced runs' code path.
    pub fn disabled() -> Self {
        Recorder {
            origin: Instant::now(),
            enabled: false,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` belonging to operation `op_id`;
    /// spans opened inside `f` become its children.
    pub fn span<T>(&mut self, name: &'static str, op_id: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op_id,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Seconds the most recently closed span named `name` lasted.
    pub fn last_seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(0.0, |s| (s.end_ns - s.start_ns) as f64 * 1e-9)
    }

    /// The closed spans, in opening order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children are merged, and
/// clipped to the parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// One row of the self-time table.
#[derive(Clone, Debug, PartialEq)]
pub struct SelfRow {
    /// Span name.
    pub name: &'static str,
    /// Spans with this name, over all threads.
    pub count: usize,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed self time, seconds.
    pub self_s: f64,
}

/// Aggregates per-thread span lists into a by-name self-time table,
/// largest self time first.
pub fn self_time_table<'a>(threads: impl IntoIterator<Item = &'a [Span]>) -> Vec<SelfRow> {
    let mut rows: BTreeMap<&'static str, SelfRow> = BTreeMap::new();
    for spans in threads {
        for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
            let row = rows.entry(s.name).or_insert(SelfRow {
                name: s.name,
                count: 0,
                total_s: 0.0,
                self_s: 0.0,
            });
            row.count += 1;
            row.total_s += (s.end_ns - s.start_ns) as f64 * 1e-9;
            row.self_s += self_ns as f64 * 1e-9;
        }
    }
    let mut rows: Vec<SelfRow> = rows.into_values().collect();
    rows.sort_by(|a, b| b.self_s.total_cmp(&a.self_s));
    rows
}

/// Renders the self-time table as aligned text.
pub fn self_time_text(rows: &[SelfRow]) -> String {
    let mut out = format!(
        "{:<28} {:>8} {:>14} {:>14} {:>14}\n",
        "span", "count", "total_s", "self_s", "self_per_call_s"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<28} {:>8} {:>14.6} {:>14.6} {:>14.9}",
            r.name,
            r.count,
            r.total_s,
            r.self_s,
            r.self_s / r.count as f64
        );
    }
    out
}

/// Chrome-trace JSON (`chrome://tracing`, <https://ui.perfetto.dev>): one
/// complete (`"ph":"X"`) event per span, one `tid` per recorded thread.
pub fn chrome_trace(threads: &[(String, Vec<Span>)]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for (tid, (label, spans)) in threads.iter().enumerate() {
        let mut push = |event: String| {
            if !std::mem::take(&mut first) {
                out.push_str(",\n");
            }
            out.push_str(&event);
        };
        push(format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{label}\"}}}}"
        ));
        for s in spans {
            push(format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"name\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op_id\":{},\"parent\":{}}}}}",
                s.name,
                s.start_ns as f64 * 1e-3,
                (s.end_ns - s.start_ns) as f64 * 1e-3,
                s.op_id,
                s.parent.map_or("null".to_string(), |p| format!("\"{}\"", spans[p].name)),
            ));
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}
