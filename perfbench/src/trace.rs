//! Spans recorded from outside the program, around the calls into each
//! layer, and the self-time analysis over them.
//!
//! Every recording thread owns a buffer; the buffers are registered
//! globally so the harness can collect them after a repetition, from
//! whichever threads the calls ran on (client lanes, cluster node
//! agents). Spans on one thread nest through a thread-local stack of
//! open spans. A node agent's spans have no parent on their own thread:
//! they are attributed to the dispatcher span that contains them in
//! time, which is sound because every dispatcher call into a node is a
//! blocking round trip.

use das::core::jobs::{JobSpec, JobStats, StreamStats};
use das::core::metrics::{ExecProbe, TraceSpan};
use das::exec::{ExecError, ExecExtras, Executor, Ticket};
use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One timed call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// `"<layer>.<call>"`, e.g. `"cluster.submit"`.
    pub name: &'static str,
    pub thread: u32,
    /// Nanoseconds since the process epoch.
    pub start: u64,
    pub end: u64,
    /// Jobs the call carried (1 for a single submit, the batch size for
    /// `submit_many`, 0 where it does not apply).
    pub jobs: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end - self.start
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

type Buffer = Arc<Mutex<Vec<Span>>>;

fn registry() -> &'static Mutex<Vec<Buffer>> {
    static REG: OnceLock<Mutex<Vec<Buffer>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(Vec::new()))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

struct Local {
    thread: u32,
    buf: Buffer,
    open: Vec<u64>,
}

thread_local! {
    static LOCAL: RefCell<Option<Local>> = const { RefCell::new(None) };
}

fn with_local<R>(f: impl FnOnce(&mut Local) -> R) -> R {
    LOCAL.with(|cell| {
        let mut slot = cell.borrow_mut();
        let local = slot.get_or_insert_with(|| {
            let buf: Buffer = Arc::default();
            registry()
                .lock()
                .expect("span registry poisoned")
                .push(Arc::clone(&buf));
            Local {
                // relaxed-ok: a unique label only.
                thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
                buf,
                open: Vec::new(),
            }
        });
        f(local)
    })
}

/// An open span; it is recorded when dropped.
pub struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start: u64,
    jobs: u64,
}

/// Open a span named `name` carrying `jobs` jobs.
pub fn open(name: &'static str, jobs: u64) -> Open {
    // relaxed-ok: span ids only need to be unique.
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = with_local(|l| {
        let parent = l.open.last().copied();
        l.open.push(id);
        parent
    });
    Open {
        id,
        parent,
        name,
        start: now_ns(),
        jobs,
    }
}

impl Drop for Open {
    fn drop(&mut self) {
        let end = now_ns();
        with_local(|l| {
            l.open.pop();
            let span = Span {
                id: self.id,
                parent: self.parent,
                name: self.name,
                thread: l.thread,
                start: self.start,
                end,
                jobs: self.jobs,
            };
            // Only this thread pushes to its buffer; the collector takes
            // the lock between repetitions.
            if let Ok(mut b) = l.buf.lock() {
                b.push(span);
            }
        });
    }
}

/// Take every span recorded so far, from every thread, sorted by start.
/// Buffers of threads that have ended are dropped from the registry.
pub fn collect() -> Vec<Span> {
    let mut reg = registry().lock().expect("span registry poisoned");
    let mut out = Vec::new();
    for buf in reg.iter() {
        out.append(&mut buf.lock().expect("span buffer poisoned"));
    }
    reg.retain(|b| Arc::strong_count(b) > 1);
    out.sort_by_key(|s| (s.start, s.id));
    out
}

/// An [`Executor`] that forwards every call to `inner` and records a
/// span `"<layer>.<call>"` around it.
pub struct Traced<E> {
    pub inner: E,
    layer: Layer,
}

/// The layer a [`Traced`] adapter stands in front of; it names the
/// spans.
#[derive(Clone, Copy)]
pub enum Layer {
    Cluster,
    Sim,
    Runtime,
}

impl Layer {
    fn name(self, call: Call) -> &'static str {
        use Call::*;
        match (self, call) {
            (Layer::Cluster, Submit) => "cluster.submit",
            (Layer::Cluster, SubmitMany) => "cluster.submit_many",
            (Layer::Cluster, Wait) => "cluster.wait",
            (Layer::Cluster, Drain) => "cluster.drain",
            (Layer::Cluster, Other) => "cluster.other",
            (Layer::Sim, Submit) => "sim.submit",
            (Layer::Sim, SubmitMany) => "sim.submit_many",
            (Layer::Sim, Wait) => "sim.wait",
            (Layer::Sim, Drain) => "sim.drain",
            (Layer::Sim, Other) => "sim.other",
            (Layer::Runtime, Submit) => "runtime.submit",
            (Layer::Runtime, SubmitMany) => "runtime.submit_many",
            (Layer::Runtime, Wait) => "runtime.wait",
            (Layer::Runtime, Drain) => "runtime.drain",
            (Layer::Runtime, Other) => "runtime.other",
        }
    }
}

#[derive(Clone, Copy)]
enum Call {
    Submit,
    SubmitMany,
    Wait,
    Drain,
    Other,
}

impl<E> Traced<E> {
    pub fn new(inner: E, layer: Layer) -> Self {
        Traced { inner, layer }
    }

    fn span(&self, call: Call, jobs: u64) -> Open {
        open(self.layer.name(call), jobs)
    }
}

impl<E: Executor> Executor for Traced<E> {
    type Graph = E::Graph;

    fn backend(&self) -> &'static str {
        self.inner.backend()
    }

    fn submit(&mut self, spec: JobSpec<E::Graph>) -> Result<Ticket, ExecError> {
        let _s = self.span(Call::Submit, 1);
        self.inner.submit(spec)
    }

    fn submit_many(&mut self, specs: Vec<JobSpec<E::Graph>>) -> Result<Vec<Ticket>, ExecError> {
        let _s = self.span(Call::SubmitMany, specs.len() as u64);
        self.inner.submit_many(specs)
    }

    fn wait(&mut self, ticket: Ticket) -> Result<JobStats, ExecError> {
        let _s = self.span(Call::Wait, 1);
        self.inner.wait(ticket)
    }

    fn drain(&mut self) -> Result<StreamStats, ExecError> {
        let _s = self.span(Call::Drain, 0);
        self.inner.drain()
    }

    fn take_extras(&mut self) -> ExecExtras {
        let _s = self.span(Call::Other, 0);
        self.inner.take_extras()
    }

    fn metrics_probe(&mut self) -> Option<ExecProbe> {
        let _s = self.span(Call::Other, 0);
        self.inner.metrics_probe()
    }

    fn take_trace_spans(&mut self) -> Vec<TraceSpan> {
        let _s = self.span(Call::Other, 0);
        self.inner.take_trace_spans()
    }
}

/// Spans of one repetition with their self times.
pub struct Analysis {
    pub spans: Vec<Span>,
    /// Self time (ns) per span, parallel to `spans`.
    pub self_ns: Vec<u64>,
}

impl Analysis {
    pub fn new(spans: Vec<Span>) -> Analysis {
        let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        // Dispatcher spans by start, for attributing node-side spans.
        let mut cluster: Vec<usize> = (0..spans.len())
            .filter(|&i| spans[i].layer() == "cluster")
            .collect();
        cluster.sort_by_key(|&i| spans[i].start);
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            let parent = match s.parent {
                Some(p) => index.get(&p).copied(),
                None if s.layer() == "sim" => containing(&spans, &cluster, s),
                None => None,
            };
            if let Some(p) = parent {
                children[p].push(i);
            }
        }
        let self_ns = spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut iv: Vec<(u64, u64)> = children[i]
                    .iter()
                    .map(|&c| (spans[c].start.max(s.start), spans[c].end.min(s.end)))
                    .filter(|(a, b)| a < b)
                    .collect();
                s.dur_ns().saturating_sub(union_len(&mut iv))
            })
            .collect();
        Analysis { spans, self_ns }
    }

    /// `(span, self ns)` of every span named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (&'a Span, u64)> + 'a {
        self.spans
            .iter()
            .zip(&self.self_ns)
            .filter(move |(s, _)| s.name == name)
            .map(|(s, &t)| (s, t))
    }

    /// Write the spans as a Chrome trace (`chrome://tracing`).
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"traceEvents\":[")?;
        for (k, (s, self_ns)) in self.spans.iter().zip(&self.self_ns).enumerate() {
            let sep = if k + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                w,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"jobs\":{},\"self_us\":{:.3}}}}}{sep}",
                s.name,
                s.thread,
                s.start as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.jobs,
                *self_ns as f64 / 1e3,
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

/// The dispatcher span whose interval contains `s`, if any.
fn containing(spans: &[Span], cluster: &[usize], s: &Span) -> Option<usize> {
    // Dispatcher calls are serialised, so only the last one to start
    // before `s` can contain it.
    let k = cluster.partition_point(|&i| spans[i].start <= s.start);
    let last = *cluster[..k].last()?;
    (spans[last].end >= s.end).then_some(last)
}

/// Total length covered by a set of intervals.
fn union_len(iv: &mut [(u64, u64)]) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in iv.iter() {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, thread: u32, s: u64, e: u64) -> Span {
        Span {
            id,
            parent,
            name,
            thread,
            start: s,
            end: e,
            jobs: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_contained_node_spans() {
        let spans = vec![
            span(1, None, "ingress.submit", 0, 0, 100),
            span(2, Some(1), "cluster.submit_many", 0, 10, 90),
            // Two node agents working in parallel inside the batch RPC.
            span(3, None, "sim.submit_many", 1, 20, 50),
            span(4, None, "sim.submit_many", 2, 40, 70),
        ];
        let a = Analysis::new(spans);
        assert_eq!(a.self_ns, vec![20, 30, 30, 30]);
    }

    #[test]
    fn union_of_overlapping_intervals() {
        assert_eq!(union_len(&mut [(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_len(&mut []), 0);
    }
}
