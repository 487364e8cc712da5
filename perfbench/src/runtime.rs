//! `runtime_asym`: the real worker pool (2 workers on a symmetric
//! 2-core topology, DAM-C) running layered jobs of moldable compute
//! kernels, one job at a time. The bodies emulate dynamic asymmetry:
//! during seeded slow phases of the job sequence, whatever runs on
//! worker 1 does `SLOWDOWN` times the work.

use crate::rep::{secs, Rep};
use crate::stats::SplitMix;
use crate::trace::{Layer, Traced};
use das::core::jobs::{JobSpec, StreamStats};
use das::core::{Policy, Priority, TaskTypeId};
use das::exec::{Executor, SessionBuilder};
use das::runtime::{Runtime, TaskCtx, TaskGraph};
use das::topology::{CoreId, Topology};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WORKERS: usize = 2;
/// Jobs per repetition; the slow phases repeat identically each time.
const JOBS: usize = 500;
/// Distinct job templates (input data and kernel salts).
const TEMPLATES: usize = 8;
/// Layered shape: one critical source task, then `LAYERS` layers of
/// `PARALLELISM` tasks, one of them critical and releasing the next.
const PARALLELISM: usize = 3;
const LAYERS: usize = 5;
const TASKS: usize = 1 + PARALLELISM * LAYERS;
/// Elements of each template's input vector.
const ELEMS: usize = 2_048;
/// Passes of the checked kernel over the input.
const PASSES: u32 = 2;
/// A task's work, in wall time on one worker: far above the pool's
/// per-task overhead, so placement decides a job's time. A participant
/// of a task molded `w` wide works `TASK_WORK / w`. The work is timed,
/// not counted in instructions, so the figures measure where the
/// scheduler put the work and not how fast the shared host happened to
/// run it; the kernel inside still computes the checked result.
const TASK_WORK: Duration = Duration::from_micros(100);
/// Work multiplier on the slowed worker during slow phases.
const SLOWDOWN: u32 = 4;
/// Slow and fast phases of this many jobs alternate from a seeded
/// offset, so every seed has the same share of slow jobs and the same
/// number of phase changes.
const PHASE_JOBS: usize = 16;
const SLOW_CORE: CoreId = CoreId(1);
const TASK_TYPE: TaskTypeId = TaskTypeId(0);

/// Inputs of one kind of job: data and a kernel salt per task.
struct Template {
    data: Arc<Vec<u64>>,
    /// Kernel salt per task, in DAG order.
    salts: Vec<u64>,
}

/// Counts the task bodies keep, read after the repetition.
#[derive(Default)]
struct Counts {
    /// Participant executions in slow phases, and those on worker 1.
    slow_execs: AtomicU64,
    slow_on_slow_core: AtomicU64,
    /// Tasks, and tasks molded wider than one worker.
    tasks: AtomicU64,
    wide: AtomicU64,
}

/// Add one to a body counter.
fn bump(c: &AtomicU64) {
    // relaxed-ok: an event count, read only after every job completed;
    // the pool's completion handshake orders the adds before the read.
    c.fetch_add(1, Ordering::Relaxed);
}

pub struct RuntimeAsym {
    pub seed: u64,
    /// Reference results per template, computed once (untimed).
    reference: Option<Vec<Vec<u64>>>,
}

impl RuntimeAsym {
    pub fn new(seed: u64) -> Self {
        RuntimeAsym {
            seed,
            reference: None,
        }
    }

    pub fn rep(&mut self, traced: bool) -> Rep {
        let mut rep = Rep::default();
        let t = Instant::now();
        let mut rng = SplitMix(self.seed);
        let templates: Vec<Template> = (0..TEMPLATES).map(|_| template(&mut rng)).collect();
        let phases = slow_phases(&mut rng);
        let counts = Arc::new(Counts::default());
        // Per job: its template, its result slots, and whether it runs
        // in a slow phase.
        let mut plan = Vec::with_capacity(JOBS);
        for slow in phases {
            let k = rng.below(TEMPLATES as u64) as usize;
            let slots: Arc<Vec<AtomicU64>> =
                Arc::new((0..TASKS).map(|_| AtomicU64::new(0)).collect());
            plan.push((k, slots, slow));
        }
        let session = SessionBuilder::new(Arc::new(Topology::symmetric(WORKERS)), Policy::DamC)
            .seed(self.seed);
        let mut rt = Runtime::from_session(&session);
        // Start the worker threads: a one-task job of another task type,
        // so no measured table learns from it.
        let mut warm = TaskGraph::new("warm-up");
        warm.add(TaskTypeId(7), Priority::Low, |_| {});
        let warm_ok = Executor::submit(&mut rt, JobSpec::new(warm))
            .and_then(|tk| Executor::wait(&mut rt, tk));
        rep.setup_s = secs(t);
        if let Err(e) = warm_ok {
            rep.fail(1, format!("warm-up: {e}"));
        }
        rep.offered = plan.len();
        let sched = Arc::clone(rt.scheduler());
        // Each job's graph is built right before its submission, as a
        // client builds its work: `submit` then reads a graph that is in
        // cache, not one of hundreds built at set-up time, and times das
        // rather than the host's memory.
        let specs = plan
            .iter()
            .map(|(k, slots, slow)| JobSpec::new(graph(&templates[*k], slots, *slow, &counts)));
        if traced {
            drive(&mut Traced::new(rt, Layer::Runtime), specs, &mut rep);
        } else {
            drive(&mut rt, specs, &mut rep);
        }
        let tasks = vec![TASKS; rep.offered];
        rep.check_exactly_once(&tasks, true);
        self.check_outputs(&templates, &plan, &mut rep);
        let c = &counts;
        let ratio = |a: &AtomicU64, b: &AtomicU64| {
            // relaxed-ok: read after every job completed; the pool's
            // completion handshake ordered the bodies' increments.
            a.load(Ordering::Relaxed) as f64 / (b.load(Ordering::Relaxed).max(1)) as f64
        };
        rep.counter("runtime.wide_share", ratio(&c.wide, &c.tasks));
        rep.counter(
            "runtime.slow_core_share",
            ratio(&c.slow_on_slow_core, &c.slow_execs),
        );
        if traced {
            rep.probe_ptt(&[sched]);
        }
        rep
    }

    fn check_outputs(
        &mut self,
        templates: &[Template],
        plan: &[(usize, Arc<Vec<AtomicU64>>, bool)],
        rep: &mut Rep,
    ) {
        let reference = self.reference.get_or_insert_with(|| {
            templates
                .iter()
                .map(|t| t.salts.iter().map(|&salt| kernel(&t.data, salt)).collect())
                .collect()
        });
        let wrong = plan
            .iter()
            .filter(|(k, slots, _)| {
                slots
                    .iter()
                    .zip(&reference[*k])
                    // relaxed-ok: read after the job completed (see above).
                    .any(|(got, want)| got.load(Ordering::Relaxed) != *want)
            })
            .count();
        if wrong > 0 {
            rep.fail(wrong as u64, format!("{wrong} jobs computed wrong results"));
        }
    }
}

fn template(rng: &mut SplitMix) -> Template {
    let data = Arc::new((0..ELEMS).map(|_| rng.next()).collect());
    let salts = (0..TASKS).map(|_| rng.next()).collect();
    Template { data, salts }
}

/// Whether each job of the sequence runs in a slow phase.
fn slow_phases(rng: &mut SplitMix) -> Vec<bool> {
    let offset = rng.below(2 * PHASE_JOBS as u64) as usize;
    (0..JOBS)
        .map(|j| (j + offset) / PHASE_JOBS % 2 == 1)
        .collect()
}

/// A layered DAG with kernel bodies: each participant of a molded task
/// reduces its share of the input and adds it into the task's result
/// slot, so the result does not depend on the width. The single source
/// keeps `submit` from readying more work than one worker takes.
fn graph(t: &Template, slots: &Arc<Vec<AtomicU64>>, slow: bool, counts: &Arc<Counts>) -> TaskGraph {
    let mut g = TaskGraph::new("layered-kernels");
    let add = |g: &mut TaskGraph, priority: Priority| {
        let slot = g.len();
        let salt = t.salts[slot];
        let (data, slots, counts) = (Arc::clone(&t.data), Arc::clone(slots), Arc::clone(counts));
        g.add(TASK_TYPE, priority, move |ctx: &TaskCtx| {
            let (lo, hi) = (
                ctx.rank * ELEMS / ctx.width,
                (ctx.rank + 1) * ELEMS / ctx.width,
            );
            let start = Instant::now();
            let part = kernel(&data[lo..hi], salt);
            let slowed = if slow && ctx.core == SLOW_CORE {
                SLOWDOWN
            } else {
                1
            };
            let work = TASK_WORK * slowed / ctx.width as u32;
            while start.elapsed() < work {
                std::hint::spin_loop();
            }
            // relaxed-ok: a commutative sum; the job's completion
            // publishes it to the checking thread.
            slots[slot].fetch_add(part, Ordering::Relaxed);
            if slow {
                bump(&counts.slow_execs);
                if ctx.core == SLOW_CORE {
                    bump(&counts.slow_on_slow_core);
                }
            }
            if ctx.rank == 0 {
                bump(&counts.tasks);
                if ctx.width > 1 {
                    bump(&counts.wide);
                }
            }
        })
    };
    let mut critical = add(&mut g, Priority::High);
    for _ in 0..LAYERS {
        let next = add(&mut g, Priority::High);
        g.add_edge(critical, next);
        for _ in 1..PARALLELISM {
            let low = add(&mut g, Priority::Low);
            g.add_edge(critical, low);
        }
        critical = next;
    }
    g
}

/// A wrapping sum of mixed input words: exact under any split of the
/// input, so molded participants' partial sums add up to the reference.
fn kernel(data: &[u64], salt: u64) -> u64 {
    let mut acc = 0u64;
    for p in 0..PASSES {
        let s = salt ^ u64::from(p).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for &x in data {
            let mut z = x ^ s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            acc = acc.wrapping_add(z ^ (z >> 31));
        }
    }
    acc
}

/// One client, closed loop: build a job, `submit` it, `wait` for it,
/// next.
fn drive<E: Executor<Graph = TaskGraph>>(
    ex: &mut E,
    specs: impl Iterator<Item = JobSpec<TaskGraph>>,
    rep: &mut Rep,
) {
    let t0 = Instant::now();
    let mut records = Vec::with_capacity(rep.offered);
    for spec in specs {
        let t = Instant::now();
        let ticket = ex.submit(spec);
        rep.submit_us.push(secs(t) * 1e6);
        match ticket.and_then(|tk| ex.wait(tk)) {
            Ok(st) => records.push(st),
            Err(e) => rep.fail(1, format!("job: {e}")),
        }
        rep.job_ms.push(secs(t) * 1e3);
    }
    match ex.drain() {
        Ok(rest) if rest.jobs.is_empty() => {}
        Ok(rest) => rep.fail(rest.jobs.len() as u64, "drain returned waited jobs".into()),
        Err(e) => rep.fail(1, format!("drain: {e}")),
    }
    rep.wall_s = secs(t0);
    rep.records = StreamStats::from_jobs(records);
    rep.counter(
        "runtime.steals",
        ex.take_extras().steals.unwrap_or(0) as f64,
    );
}
