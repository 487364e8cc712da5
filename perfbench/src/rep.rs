//! What one repetition of a workload measures, and the output checks
//! every workload shares.

use crate::stats::Series;
use das::core::jobs::StreamStats;
use das::core::{Scheduler, TaskTypeId};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// One repetition: fresh executors, fresh inputs from the seed, one
/// pass of the workload's client loop.
#[derive(Default)]
pub struct Rep {
    /// Building the executors (threads included) and generating inputs.
    pub setup_s: f64,
    /// Jobs the client offered.
    pub offered: usize,
    /// First submit to the return of the call reporting the last
    /// completion.
    pub wall_s: f64,
    /// Wall time of each client submission call.
    pub submit_us: Vec<f64>,
    /// Wall time from each job's submit call to the return of the call
    /// that reported it complete (`wait`, or `drain` for streamed jobs).
    pub job_ms: Vec<f64>,
    /// The executor's own job records (its clock: simulated seconds on
    /// das-sim, the pool's wall clock on das-runtime).
    pub records: StreamStats,
    /// Bit fingerprint of the job stream, on workloads whose schedule
    /// must repeat exactly for a seed.
    pub fingerprint: Option<u64>,
    /// Failed operations: executor errors, missing or duplicate jobs,
    /// wrong outputs.
    pub failed: u64,
    pub errors: Vec<String>,
    /// Per-layer counters read after the repetition.
    pub counters: Vec<(&'static str, f64)>,
    /// Jobs timed in the repetition.
    pub samples: usize,
    /// The figures the end-to-end metrics are made of, filled by
    /// [`Rep::summarize`].
    pub fig: Figures,
}

/// One repetition's end-to-end figures.
#[derive(Clone, Copy, Debug, Default)]
pub struct Figures {
    pub jobs_per_s: f64,
    pub submit_us_p50: f64,
    pub submit_us_p99: f64,
    pub job_ms_p50: f64,
    pub job_ms_p99: f64,
    pub sim_tasks_per_s: f64,
    pub sim_sojourn_ms_p50: f64,
    pub sim_sojourn_ms_p99: f64,
}

impl Rep {
    pub fn fail(&mut self, n: u64, msg: String) {
        self.failed += n.max(1);
        self.errors.push(msg);
    }

    /// Read the repetition's figures and drop its samples and records,
    /// so the harness's memory does not grow with the repetitions.
    pub fn summarize(&mut self) {
        let rec = std::mem::take(&mut self.records);
        let submit = Series(std::mem::take(&mut self.submit_us));
        let job = Series(std::mem::take(&mut self.job_ms));
        let sojourn = Series(rec.jobs.iter().map(|j| j.sojourn() * 1e3).collect());
        self.samples = job.len();
        self.fig = Figures {
            jobs_per_s: rec.jobs.len() as f64 / self.wall_s,
            submit_us_p50: submit.summary(0.5).value,
            submit_us_p99: submit.summary(0.99).value,
            job_ms_p50: job.summary(0.5).value,
            job_ms_p99: job.summary(0.99).value,
            sim_tasks_per_s: rec.tasks_per_sec(),
            sim_sojourn_ms_p50: sojourn.summary(0.5).value,
            sim_sojourn_ms_p99: sojourn.summary(0.99).value,
        };
    }

    /// Every offered job completed exactly once, with the generated
    /// task count. `tasks` lists the generated sizes in job-id order
    /// when `ordered`, otherwise in any order (compared as multisets).
    pub fn check_exactly_once(&mut self, tasks: &[usize], ordered: bool) {
        let recs = &self.records.jobs;
        let mut errs = Vec::new();
        if recs.len() != tasks.len() {
            errs.push(format!(
                "{} records for {} offered jobs",
                recs.len(),
                tasks.len()
            ));
        }
        let mut ids: Vec<u64> = recs.iter().map(|j| j.id.0).collect();
        ids.sort_unstable();
        let dup = ids.windows(2).filter(|w| w[0] == w[1]).count();
        if dup > 0 {
            errs.push(format!("{dup} jobs reported twice"));
        }
        let mut got: Vec<usize> = recs.iter().map(|j| j.tasks).collect();
        let mut want = tasks.to_vec();
        if !ordered {
            got.sort_unstable();
            want.sort_unstable();
        }
        if got != want {
            errs.push(format!(
                "task totals differ: {} executed, {} generated",
                got.iter().sum::<usize>(),
                want.iter().sum::<usize>()
            ));
        }
        if self.records.tasks != tasks.iter().sum::<usize>() {
            errs.push("stream task total differs from the generated DAGs".into());
        }
        let bad = recs
            .iter()
            .filter(|j| !(j.arrival <= j.started && j.started <= j.completed))
            .count();
        if bad > 0 {
            errs.push(format!("{bad} records with out-of-order timestamps"));
        }
        for e in errs {
            self.fail(1, e);
        }
    }

    pub fn counter(&mut self, name: &'static str, v: f64) {
        self.counters.push((name, v));
    }

    /// PTT probes on the schedulers a repetition trained.
    pub fn probe_ptt(&mut self, scheds: &[Arc<Scheduler>]) {
        let (ns, cov) = ptt_probe(scheds);
        self.counter("ptt.search_ns", ns);
        self.counter("ptt.coverage", cov);
    }
}

pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Mean ns of one Algorithm-1 global search (cost-minimising, as DAM-C
/// does) over every learned table of `scheds`, and the mean share of
/// places those tables have observed. A table counts as learned from
/// `LEARNED` samples on, which leaves out warm-up tables.
fn ptt_probe(scheds: &[Arc<Scheduler>]) -> (f64, f64) {
    const ITERS: u32 = 2_000;
    const LEARNED: u64 = 10;
    let (mut ns, mut cov, mut tables) = (0.0, 0.0, 0usize);
    for sched in scheds {
        let ptts = sched.ptts();
        for ty in 0..ptts.len() {
            let table = ptts.table(TaskTypeId(ty as u16));
            if table.total_visits() < LEARNED {
                continue;
            }
            let (seen, total) = table.coverage();
            let t = Instant::now();
            for _ in 0..ITERS {
                black_box(table.global_search(black_box(true), false, None));
            }
            ns += t.elapsed().as_secs_f64() * 1e9 / f64::from(ITERS);
            cov += seen as f64 / total as f64;
            tables += 1;
        }
    }
    if tables == 0 {
        return (0.0, 0.0);
    }
    (ns / tables as f64, cov / tables as f64)
}
