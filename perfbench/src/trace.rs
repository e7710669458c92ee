//! Benchmark-side span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each
//! module's public functions (never inside the program). Each thread
//! records into its own [`SpanLog`]; logs are merged into one [`Trace`]
//! after the threads join, kept in memory, and written out when the
//! benchmark ends. With tracing off no log exists and the call sites
//! skip recording entirely.

use std::io::Write;
use std::time::Instant;

/// Evaluate `$body`, recording it as a span in `$log` (an
/// `Option<SpanLog>`) when tracing is on.
macro_rules! spanned {
    ($log:expr, $name:expr, $key:expr, $parent:expr, $req:expr, $body:expr) => {{
        match $log.as_mut() {
            Some(log) => {
                let t = log.now();
                let v = $body;
                log.record($name, $key, $parent, $req, t);
                v
            }
            None => $body,
        }
    }};
}
pub(crate) use spanned;

/// One recorded span. Times are nanoseconds since the trace epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `engine.run`.
    pub name: &'static str,
    /// Index into the recording workload's label table (config or
    /// kernel group); 0 when the span has no label.
    pub key: u32,
    /// Unique span id (thread in the high bits).
    pub id: u64,
    /// Id of the span that caused this one, 0 for a root.
    pub parent: u64,
    /// Run or request id shared by every span of one run/request.
    pub req: u64,
    /// Recording thread.
    pub thread: u32,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span buffer.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    thread: u32,
    next: u64,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log for `thread` measuring from `epoch`.
    pub fn new(epoch: Instant, thread: u32) -> Self {
        SpanLog {
            epoch,
            thread,
            next: 0,
            spans: Vec::with_capacity(1 << 14),
        }
    }

    /// Current time in ns since the epoch (a span's start).
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Reserve the id of a span that will be closed later, so children
    /// recorded before it can name it as their parent.
    pub fn reserve(&mut self) -> u64 {
        self.next += 1;
        (u64::from(self.thread) << 40) | self.next
    }

    /// Close a span started at `start_ns` under a reserved `id`.
    pub fn close(
        &mut self,
        id: u64,
        name: &'static str,
        key: u32,
        parent: u64,
        req: u64,
        start_ns: u64,
    ) {
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            key,
            id,
            parent,
            req,
            thread: self.thread,
            start_ns,
            end_ns,
        });
    }

    /// Close a leaf span started at `start_ns`; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        key: u32,
        parent: u64,
        req: u64,
        start_ns: u64,
    ) -> u64 {
        let id = self.reserve();
        self.close(id, name, key, parent, req, start_ns);
        id
    }
}

/// Every span of one traced workload pass, merged across threads.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    /// Merged spans.
    pub spans: Vec<Span>,
    /// Label table the spans' `key` indexes.
    pub labels: Vec<String>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// An empty trace with a fresh epoch.
    pub fn new() -> Self {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// A log for one recording thread (ids and times share this
    /// trace's epoch).
    pub fn log(&self, thread: u32) -> SpanLog {
        SpanLog::new(self.epoch, thread)
    }

    /// Merge a finished thread's log.
    pub fn absorb(&mut self, log: SpanLog) {
        self.spans.extend(log.spans);
    }

    /// Spans named `name`, optionally restricted to label `key`.
    pub fn named<'a>(&'a self, name: &'a str, key: Option<u32>) -> impl Iterator<Item = &'a Span> {
        self.spans
            .iter()
            .filter(move |s| s.name == name && key.is_none_or(|k| s.key == k))
    }

    /// Per-name total and self time (span minus the part its direct
    /// children cover), in ns, sorted by name.
    pub fn self_times(&self) -> Vec<(&'static str, u64, u64, u64)> {
        let mut child_ns: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_default() += s.dur_ns();
            }
        }
        let mut by_name: std::collections::BTreeMap<&'static str, (u64, u64, u64)> =
            std::collections::BTreeMap::new();
        for s in &self.spans {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += s
                .dur_ns()
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        }
        by_name
            .into_iter()
            .map(|(n, (c, t, s))| (n, c, t, s))
            .collect()
    }

    /// Write every span as CSV (`id,parent,req,thread,name,label,start_ns,end_ns`).
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id,parent,req,thread,name,label,start_ns,end_ns")?;
        for s in &self.spans {
            let label = self.labels.get(s.key as usize).map_or("", String::as_str);
            writeln!(
                w,
                "{},{},{},{},{},{},{},{}",
                s.id, s.parent, s.req, s.thread, s.name, label, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}
