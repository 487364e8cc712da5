//! The das benchmark: four workloads driven through das's public APIs,
//! end-to-end metrics from untraced repetitions, per-layer metrics from
//! a traced run, and output checks on every repetition.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cluster_stream --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--workload all` (the default) runs every workload, each in its own
//! process so peak memory stays per workload. The last line of standard
//! output is one JSON object; the lines before it are the report, with
//! each metric's sample count and quartiles, the host and the commit.
//! The exit code is nonzero when any output check failed.

// A benchmark reads the wall clock by design; the workspace bans it
// only where scheduling decisions are made.
#![allow(clippy::disallowed_methods)]

mod cluster;
mod dag;
mod rep;
mod runtime;
mod stats;
mod trace;

use das::msg::Communicator;
use rep::{Figures, Rep};
use stats::{Fnv, Host, Series, Summary};
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

/// The seed used while writing the benchmark and tuning against it.
const DEFAULT_SEED: u64 = 1;
/// Held out: not used while writing the benchmark. Check a claimed gain
/// on it too.
const HELD_OUT_SEED: u64 = 20_201_017;

const WORKLOADS: [&str; 4] = [
    "cluster_stream",
    "ingress_burst",
    "dag_interference",
    "runtime_asym",
];

/// Repetitions measured at least, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// Set in the environment of the process that measures.
const MEASURING: &str = "DAS_PERFBENCH_MEASURING";
/// glibc malloc keeps freed memory instead of returning it to the OS
/// (and serves large blocks from the heap), so whether a repetition pays
/// for fresh pages does not depend on what the allocator happened to
/// trim before it. Without this, set-up times on this host split into
/// two modes 2.5x apart from one process to the next. Other C libraries
/// ignore the variable.
const MALLOC_TUNABLES: &str =
    "glibc.malloc.trim_threshold=4294967296:glibc.malloc.mmap_threshold=33554432";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?}; one of {} or all",
            args.workload,
            WORKLOADS.join(", ")
        ));
    }
    if !(1..=3600).contains(&args.seconds) {
        return Err("--seconds must be 1..=3600".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if std::env::var_os(MEASURING).is_none() {
        return measure_in_child();
    }
    if args.workload == "all" {
        return run_all(&args);
    }
    let out = run(&args);
    let ok = out.correct();
    out.print(&args);
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run this binary again, with the same arguments, under the allocator
/// settings the measurement needs (see [`MALLOC_TUNABLES`]).
fn measure_in_child() -> ExitCode {
    let status = std::env::current_exe().and_then(|exe| {
        Command::new(exe)
            .args(std::env::args_os().skip(1))
            .env(MEASURING, "1")
            .env("GLIBC_TUNABLES", MALLOC_TUNABLES)
            .status()
    });
    match status {
        Ok(s) => match s.code() {
            Some(0) => ExitCode::SUCCESS,
            Some(c) => ExitCode::from(u8::try_from(c).unwrap_or(1)),
            None => ExitCode::FAILURE,
        },
        Err(e) => {
            eprintln!("perfbench: cannot run the measuring process: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run every workload in a child process of this binary, in turn.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for w in WORKLOADS {
        let child = Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let child = match child {
            Ok(c) => c,
            Err(e) => {
                eprintln!("perfbench: cannot run {w}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let text = String::from_utf8_lossy(&child.stdout);
        print!("{text}");
        correct &= child.status.success();
        let last = text.lines().last().unwrap_or("");
        attempted += json_int(last, "\"attempted\": ").unwrap_or(0);
        failed += json_int(last, "\"failed\": ").unwrap_or(1);
        // The child's metrics object, nested under the workload's name.
        let key = "\"metrics\": ";
        if let Some(at) = last.find(key) {
            let object = &last[at + key.len()..last.len() - 1];
            metrics.push(format!("\"{w}\": {object}"));
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn json_int(line: &str, key: &str) -> Option<u64> {
    let rest = line.split(key).nth(1)?;
    rest.split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

/// One workload, its repetitions in order.
enum Workload {
    ClusterStream(cluster::ClusterStream),
    IngressBurst(cluster::IngressBurst),
    DagInterference(dag::DagInterference),
    RuntimeAsym(runtime::RuntimeAsym),
}

impl Workload {
    fn new(name: &str, seed: u64) -> Workload {
        match name {
            "cluster_stream" => Workload::ClusterStream(cluster::ClusterStream { seed }),
            "ingress_burst" => Workload::IngressBurst(cluster::IngressBurst { seed }),
            "dag_interference" => Workload::DagInterference(dag::DagInterference { seed }),
            "runtime_asym" => Workload::RuntimeAsym(runtime::RuntimeAsym::new(seed)),
            _ => unreachable!("workload names are checked when parsed"),
        }
    }

    /// How the workload's repetitions combine into one figure, chosen
    /// by what makes them differ.
    fn combine(&self) -> Combine {
        use Pick::{BestDecile, Median};
        match self {
            // Three or four threads (client lanes, node agents) share two
            // cores, and how they happen to interleave makes a repetition
            // faster or slower alike.
            Workload::ClusterStream(_) | Workload::IngressBurst(_) => Combine {
                jobs: Median,
                submit: Median,
            },
            // One thread runs the same schedule every time (the
            // fingerprint check proves it): only the shared host varies,
            // and it only ever slows a repetition down. Its simulated
            // figures are equal in every repetition either way.
            Workload::DagInterference(_) => Combine {
                jobs: BestDecile,
                submit: BestDecile,
            },
            // Task work is timed, so host speed barely moves a job; where
            // the scheduler put its tasks, and how soon each repetition's
            // fresh PTT caught the slow phases, does. That differs from
            // one repetition to the next, most in the p99, and a late
            // wake-up or a preempted worker only ever adds to it; the
            // best decile is the figure of it that repeats from run to
            // run. A submission is a few microseconds of locking and
            // waking a parked worker, whose cost moves both ways.
            Workload::RuntimeAsym(_) => Combine {
                jobs: BestDecile,
                submit: Median,
            },
        }
    }

    fn rep(&mut self, traced: bool) -> Rep {
        match self {
            Workload::ClusterStream(w) => w.rep(traced),
            Workload::IngressBurst(w) => w.rep(traced),
            Workload::DagInterference(w) => w.rep(traced),
            Workload::RuntimeAsym(w) => w.rep(traced),
        }
    }
}

/// Which quantile over a run's repetitions each figure reports.
#[derive(Clone, Copy)]
struct Combine {
    /// For the job figures: rates, job times, sojourns.
    jobs: Pick,
    /// For the submit figures.
    submit: Pick,
}

#[derive(Clone, Copy)]
enum Pick {
    Median,
    /// The best decile: the 10th percentile of times, the 90th of
    /// rates.
    BestDecile,
}

impl Pick {
    fn quantile(self, higher_is_better: bool) -> f64 {
        match self {
            Pick::Median => 0.5,
            Pick::BestDecile if higher_is_better => 0.9,
            Pick::BestDecile => 0.1,
        }
    }
}

struct Outcome {
    host: Host,
    combine: Combine,
    plain: Vec<Rep>,
    traced: Vec<Rep>,
    analyses: Vec<trace::Analysis>,
    pingpong_us: Series,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    trace_file: Option<String>,
    peak_rss_mb: f64,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0
    }
}

fn run(args: &Args) -> Outcome {
    let host = Host::probe();
    let mut w = Workload::new(&args.workload, args.seed);
    let mut out = Outcome {
        host,
        combine: w.combine(),
        plain: Vec::new(),
        traced: Vec::new(),
        analyses: Vec::new(),
        pingpong_us: Series::default(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        trace_file: None,
        peak_rss_mb: 0.0,
    };
    // One untimed repetition first: lazy set-up and caches settle, and
    // its outputs are checked like any other.
    let mut warm = w.rep(false);
    let fingerprint = warm.fingerprint;
    account(&mut out, &mut warm, fingerprint, "warm-up");
    // Peak memory of the process through one whole repetition, read
    // before the harness holds the figures of many.
    out.peak_rss_mb = peak_rss_mb();
    if args.trace {
        out.pingpong_us = pingpong();
    }
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    // With tracing on, traced and untraced repetitions alternate, so the
    // overhead comparison sees the same host conditions.
    let mut k = 0usize;
    loop {
        let traced = args.trace && k % 2 == 1;
        let mut rep = w.rep(traced);
        let label = if traced { "traced" } else { "untraced" };
        account(&mut out, &mut rep, fingerprint, label);
        if traced {
            let analysis = trace::Analysis::new(trace::collect());
            if out.analyses.is_empty() {
                let path = format!(".bench_out/trace-{}-{}.json", args.workload, args.seed);
                match analysis.write_chrome(Path::new(&path)) {
                    Ok(()) => out.trace_file = Some(path),
                    Err(e) => eprintln!("perfbench: cannot write {path}: {e}"),
                }
            }
            out.analyses.push(analysis);
            out.traced.push(rep);
        } else {
            out.plain.push(rep);
        }
        k += 1;
        let enough = out.plain.len() >= MIN_REPS && (!args.trace || out.traced.len() >= MIN_REPS);
        if enough && Instant::now() >= deadline {
            break;
        }
    }
    out
}

/// Count a repetition's operations and failures, and compare its job
/// stream with the first repetition's.
fn account(out: &mut Outcome, rep: &mut Rep, fingerprint: Option<u64>, label: &str) {
    rep.summarize();
    out.attempted += rep.offered as u64;
    out.failed += rep.failed;
    out.errors
        .extend(rep.errors.iter().map(|e| format!("{label}: {e}")));
    if rep.fingerprint != fingerprint {
        out.failed += 1;
        out.errors.push(format!(
            "{label}: job-stream fingerprint {:x?} differs from the first repetition's {:x?}",
            rep.fingerprint, fingerprint
        ));
    }
}

/// Round trips of an empty-ish payload between two bare `das_msg`
/// endpoints on two threads: the floor under every dispatcher RPC.
fn pingpong() -> Series {
    const TRIPS: usize = 4_000;
    const TAG: u32 = 7;
    let comm = Communicator::new(2);
    let (a, b) = (comm.endpoint(0), comm.endpoint(1));
    let echo = std::thread::spawn(move || {
        for _ in 0..TRIPS {
            let m = b.recv(0, TAG);
            b.send(0, TAG, m);
        }
    });
    let mut s = Series::default();
    for i in 0..TRIPS {
        let t = Instant::now();
        a.send(1, TAG, vec![i as f64, 1.0]);
        let m = a.recv(1, TAG);
        s.push(t.elapsed().as_secs_f64() * 1e6);
        debug_assert_eq!(m[0], i as f64);
    }
    echo.join().expect("echo thread panicked");
    s
}

/// Metric name, unit, and its summary.
type Metric = (&'static str, &'static str, Summary);

fn per_rep(reps: &[Rep], f: impl Fn(&Rep) -> Option<f64>) -> Series {
    Series(reps.iter().filter_map(f).collect())
}

/// Peak resident set of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end figures of `reps`, combined as `how` says, each with
/// the jobs behind it as its sample count. `submit_us_p99` is among
/// them, though it is no `BENCHMARK.json` metric (see [`Outcome::print`]).
fn figures(reps: &[Rep], how: Combine) -> Vec<Metric> {
    let n = reps.iter().map(|r| r.samples).sum();
    let fig = |name, unit, f: fn(&Figures) -> f64, pick: Pick, higher: bool| {
        let mut s = per_rep(reps, |r| Some(f(&r.fig))).summary(pick.quantile(higher));
        s.n = n;
        (name, unit, s)
    };
    let (jobs, submit) = (how.jobs, how.submit);
    vec![
        fig("jobs_per_s", "jobs/s", |f| f.jobs_per_s, jobs, true),
        fig("submit_us_p50", "us", |f| f.submit_us_p50, submit, false),
        fig("submit_us_p99", "us", |f| f.submit_us_p99, submit, false),
        fig("job_ms_p50", "ms", |f| f.job_ms_p50, jobs, false),
        fig("job_ms_p99", "ms", |f| f.job_ms_p99, jobs, false),
        fig(
            "sim_tasks_per_s",
            "tasks/s",
            |f| f.sim_tasks_per_s,
            jobs,
            true,
        ),
        fig(
            "sim_sojourn_ms_p50",
            "ms",
            |f| f.sim_sojourn_ms_p50,
            jobs,
            false,
        ),
        fig(
            "sim_sojourn_ms_p99",
            "ms",
            |f| f.sim_sojourn_ms_p99,
            jobs,
            false,
        ),
    ]
}

/// The `BENCHMARK.json` metrics, and the rows that are only printed.
fn end_to_end(out: &Outcome) -> (Vec<Metric>, Vec<Metric>) {
    let rss = out.peak_rss_mb;
    let mut setup = per_rep(&out.plain, |r| Some(r.setup_s)).median();
    setup.n = out.plain.len();
    let (report_only, figures): (Vec<Metric>, Vec<Metric>) = figures(&out.plain, out.combine)
        .into_iter()
        .partition(|m| m.0 == "submit_us_p99");
    let mut json = vec![("setup_s", "s", setup)];
    json.extend(figures);
    json.push((
        "peak_rss_mb",
        "MB",
        Summary {
            value: rss,
            n: 1,
            p25: rss,
            p75: rss,
        },
    ));
    (json, report_only)
}

fn per_layer(out: &Outcome) -> Vec<Metric> {
    let a = &out.analyses;
    let time = |s: &trace::Span, self_ns: u64, self_time: bool| {
        (if self_time { self_ns } else { s.dur_ns() }) as f64
    };
    // Self times (or durations) of the spans named `name` over every
    // traced repetition, in units of `unit_ns`.
    let spans = |name: &str, self_time: bool, unit_ns: f64| {
        Series(
            a.iter()
                .flat_map(|an| an.named(name).map(|(s, t)| time(s, t, self_time) / unit_ns))
                .collect(),
        )
    };
    let (us, ms) = (1e3, 1e6);
    // Per traced repetition: total ms of the spans named in `names`.
    let total_ms = |names: &[&str], self_time: bool| {
        Series(
            a.iter()
                .map(|an| {
                    let spans = an.spans.iter().zip(&an.self_ns);
                    spans
                        .filter(|(s, _)| names.contains(&s.name))
                        .map(|(s, &t)| time(s, t, self_time) / ms)
                        .sum()
                })
                .collect(),
        )
    };
    // A counter's value in each traced repetition that recorded it.
    let counts = |name: &str| {
        per_rep(&out.traced, |r| {
            r.counters.iter().find(|c| c.0 == name).map(|c| c.1)
        })
    };
    let counter = |name: &str| counts(name).median();

    let batches = Series(
        a.iter()
            .flat_map(|an| an.named("cluster.submit_many").map(|(s, _)| s.jobs as f64))
            .collect(),
    );
    let batched_jobs: f64 = batches.0.iter().sum();
    let batch_self_us: f64 = spans("cluster.submit_many", true, us).0.iter().sum();
    let per_job = |v: f64| {
        if batched_jobs > 0.0 {
            v / batched_jobs
        } else {
            0.0
        }
    };
    let single = |v: f64| Summary {
        value: v,
        n: batches.len(),
        p25: v,
        p75: v,
    };
    // Node-side admission per job: single submits and batches alike.
    let mut admit = spans("sim.submit", false, us);
    admit.extend(
        a.iter()
            .flat_map(|an| an.named("sim.submit_many"))
            .map(|(s, _)| s.dur_ns() as f64 / us / s.jobs.max(1) as f64),
    );
    let engine_ms = total_ms(&["sim.drain", "sim.wait"], false);
    let events = counts("sim.events");
    let events_per_s = Series(
        events
            .0
            .iter()
            .zip(&engine_ms.0)
            .filter(|(_, &ms)| ms > 0.0)
            .map(|(e, ms)| e / (ms * 1e-3))
            .collect(),
    );
    let jobs_per_s = |reps: &[Rep]| {
        let m = figures(reps, out.combine);
        m.iter()
            .find(|m| m.0 == "jobs_per_s")
            .map_or(0.0, |m| m.2.value)
    };
    let (untraced, traced) = (jobs_per_s(&out.plain), jobs_per_s(&out.traced));
    let overhead = (untraced - traced) / untraced * 100.0;
    let mut overhead = single(overhead);
    overhead.n = out.traced.len();

    vec![
        (
            "ingress.submit_us_p50",
            "us",
            spans("ingress.submit", true, us).summary(0.5),
        ),
        (
            "ingress.jobs_per_batch",
            "jobs",
            single(batched_jobs / batches.len().max(1) as f64),
        ),
        (
            "cluster.submit_us_p50",
            "us",
            spans("cluster.submit", true, us).summary(0.5),
        ),
        (
            "cluster.submit_us_p99",
            "us",
            spans("cluster.submit", true, us).summary(0.99),
        ),
        (
            "cluster.batch_us_per_job",
            "us",
            single(per_job(batch_self_us)),
        ),
        (
            "cluster.drain_ms",
            "ms",
            total_ms(&["cluster.drain"], true).median(),
        ),
        (
            "cluster.msgs_per_job",
            "msgs/job",
            counter("cluster.msgs_per_job"),
        ),
        (
            "cluster.node_share_max",
            "ratio",
            counter("cluster.node_share_max"),
        ),
        ("cluster.retried", "count", counter("cluster.retried")),
        ("msg.pingpong_us_p50", "us", out.pingpong_us.summary(0.5)),
        ("sim.submit_us_p50", "us", admit.summary(0.5)),
        ("sim.drain_ms", "ms", engine_ms.median()),
        ("sim.events", "count", events.median()),
        ("sim.events_per_s", "1/s", events_per_s.median()),
        ("sim.steal_success", "ratio", counter("sim.steal_success")),
        ("sim.queueing_ms_p99", "ms", counter("sim.queueing_ms_p99")),
        ("ptt.search_ns", "ns", counter("ptt.search_ns")),
        ("ptt.coverage", "ratio", counter("ptt.coverage")),
        (
            "runtime.submit_us_p50",
            "us",
            spans("runtime.submit", false, us).summary(0.5),
        ),
        (
            "runtime.wait_ms_p50",
            "ms",
            spans("runtime.wait", false, ms).summary(0.5),
        ),
        ("runtime.steals", "count", counter("runtime.steals")),
        ("runtime.wide_share", "ratio", counter("runtime.wide_share")),
        (
            "runtime.slow_core_share",
            "ratio",
            counter("runtime.slow_core_share"),
        ),
        ("trace.overhead_pct", "%", overhead),
    ]
}

impl Outcome {
    fn print(&self, args: &Args) {
        let (metrics, report_only) = if args.trace {
            (per_layer(self), Vec::new())
        } else {
            end_to_end(self)
        };
        let mut r = String::new();
        let _ = writeln!(
            r,
            "# das perfbench: workload={} seed={} seconds={} trace={} (default seed {DEFAULT_SEED}, held-out seed {HELD_OUT_SEED})",
            args.workload, args.seed, args.seconds, args.trace as u8
        );
        let _ = writeln!(
            r,
            "# host: nproc={} calib_ns_per_op={:.4} commit={}",
            self.host.nproc,
            self.host.calib_ns_per_op,
            commit()
        );
        let _ = writeln!(
            r,
            "# repetitions: {} untraced, {} traced (plus one warm-up); {} jobs per repetition",
            self.plain.len(),
            self.traced.len(),
            self.plain.first().map_or(0, |r| r.offered)
        );
        let _ = writeln!(
            r,
            "{:<26} {:>14} {:<9} {:>9} {:>14} {:>14}",
            "metric", "value", "unit", "n", "p25", "p75"
        );
        // `submit_us_p99` is printed, but is no BENCHMARK.json metric:
        // on runtime_asym about 1% of submits are preempted by a worker
        // they woke (two cores, three threads), so this p99 flips
        // between two modes from one run to the next.
        for (name, unit, s) in metrics.iter().chain(&report_only) {
            let _ = writeln!(
                r,
                "{name:<26} {:>14.4} {unit:<9} {:>9} {:>14.4} {:>14.4}",
                s.value, s.n, s.p25, s.p75
            );
        }
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            r,
            "{:<26} {:>14.4} {:<9} {:>9}",
            "failed_frac", frac, "ratio", self.attempted
        );
        if let Some(f) = &self.trace_file {
            let _ = writeln!(r, "# spans of the first traced repetition: {f}");
        }
        for e in self.errors.iter().take(20) {
            let _ = writeln!(r, "# FAILED {e}");
        }
        print!("{r}");
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, unit, s)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(s.value)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        // `+ 0.0` turns a negative zero into zero.
        format!("{}", v + 0.0)
    } else {
        "0".into()
    }
}

/// The commit, when the checkout is a git repository, and a hash of the
/// program's sources either way.
fn commit() -> String {
    // Look no further up than the checkout itself.
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.to_string_lossy().into_owned()))
        .unwrap_or_default();
    let git = Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
    let mut h = Fnv::new();
    let mut files = Vec::new();
    for root in ["Cargo.toml", "src", "crates"] {
        list_sources(Path::new(root), &mut files);
    }
    files.sort();
    for f in &files {
        h.bytes(f.as_bytes());
        if let Ok(b) = std::fs::read(f) {
            h.bytes(&b);
        }
    }
    format!(
        "{} src:{:016x}",
        git.as_deref().unwrap_or("(not a git checkout)"),
        h.finish()
    )
}

fn list_sources(p: &Path, out: &mut Vec<String>) {
    if p.is_dir() {
        if let Ok(rd) = std::fs::read_dir(p) {
            for e in rd.flatten() {
                let q = e.path();
                if q.file_name().is_some_and(|n| n == "target") {
                    continue;
                }
                list_sources(&q, out);
            }
        }
    } else if p.extension().is_some_and(|e| e == "rs" || e == "toml") {
        out.push(p.to_string_lossy().into_owned());
    }
}
