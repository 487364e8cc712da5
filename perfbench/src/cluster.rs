//! `cluster_stream` and `ingress_burst`: a 2-node all-sim cluster (TX2,
//! paper cost model, DAM-C, power-of-two routing) whose node 1 runs
//! under a rolling slowdown, fed one client submission per job or by
//! two lanes through the group-commit ingress.

use crate::rep::{secs, Rep};
use crate::stats::fingerprint;
use crate::trace::{self, Layer, Traced};
use das::cluster::{Cluster, ClusterBuilder, RoutePolicy};
use das::core::jobs::JobSpec;
use das::core::{Ingress, Policy, Scheduler};
use das::dag::Dag;
use das::exec::{ExecExtras, Executor, SessionBuilder};
use das::sim::{Scenario, Simulator};
use das::topology::Topology;
use das::workloads::arrivals::{JobShape, StreamConfig};
use das::workloads::cost::PaperCost;
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

const NODES: usize = 2;
/// Jobs per stream: enough that the simulated p99 sojourn rests on a
/// hundred jobs beyond it.
const JOBS: usize = 10_000;
/// Mean arrival rate (jobs per simulated second) of `cluster_stream`:
/// about half the two nodes' capacity for these ~5-task MatMul jobs, so
/// queues form.
const RATE: f64 = 800.0;
/// `ingress_burst`: bursts of `BURST` simultaneous jobs at a lower mean
/// rate, so a burst mostly drains before the next one lands and the
/// tail does not hinge on how the seed happened to cluster bursts.
const BURSTY_RATE: f64 = 400.0;
const BURST: usize = 8;
/// Client lanes on `ingress_burst` (the host has two cores).
const LANES: usize = 2;
/// Ingress shards (the session default).
const SHARDS: usize = 8;
/// The rolling slowdown on node 1: each core in turn runs at this share
/// of its speed for `DWELL` simulated seconds.
const SLOW_FACTOR: f64 = 0.25;
const DWELL: f64 = 0.2;

fn stream(seed: u64, bursty: bool) -> Vec<JobSpec<Dag>> {
    let cfg = if bursty {
        StreamConfig::bursty(seed, JOBS, BURSTY_RATE, BURST)
    } else {
        StreamConfig::poisson(seed, JOBS, RATE)
    };
    cfg.shape(JobShape::Mixed {
        parallelism: 2,
        layers: 2,
    })
    .generate()
}

/// The cluster, with node-side `Traced<Simulator>`s when `traced`. The
/// node schedulers are pushed into `scheds` for the post-run PTT probe.
fn build(
    seed: u64,
    horizon: f64,
    traced: bool,
    scheds: &Arc<Mutex<Vec<Arc<Scheduler>>>>,
) -> Cluster<Dag> {
    let topo = Arc::new(Topology::tx2());
    let base = SessionBuilder::new(Arc::clone(&topo), Policy::DamC).seed(seed);
    let slow = Scenario::rolling_interference(&topo, SLOW_FACTOR, DWELL, horizon);
    let scheds = Arc::clone(scheds);
    let node = move |i: usize, s: &SessionBuilder| {
        let mut sim = Simulator::from_session_with_cost(s, Arc::new(PaperCost::new()));
        if i == 1 {
            sim.set_env(slow.environment(Arc::clone(&s.topo)));
        }
        scheds
            .lock()
            .expect("scheduler list poisoned")
            .push(Arc::clone(sim.scheduler()));
        sim
    };
    let builder = ClusterBuilder::new(base, NODES).route(RoutePolicy::PowerOfTwo);
    let mut cluster = if traced {
        builder.build_with(move |i, s| Traced::new(node(i, s), Layer::Sim))
    } else {
        builder.build_with(node)
    };
    cluster.enable_recovery();
    cluster
}

/// The simulated horizon the rolling slowdown must cover.
fn horizon(specs: &[JobSpec<Dag>]) -> f64 {
    specs.last().map_or(1.0, |s| s.arrival) * 2.0 + 1.0
}

pub struct ClusterStream {
    pub seed: u64,
}

impl ClusterStream {
    pub fn rep(&mut self, traced: bool) -> Rep {
        let mut rep = Rep::default();
        let scheds = Arc::default();
        let t = Instant::now();
        let specs = stream(self.seed, false);
        let tasks: Vec<usize> = specs.iter().map(|s| s.graph.len()).collect();
        let cluster = build(self.seed, horizon(&specs), traced, &scheds);
        rep.setup_s = secs(t);
        rep.offered = specs.len();
        let msgs = if traced {
            let mut ex = Traced::new(cluster, Layer::Cluster);
            drive(&mut ex, specs, &mut rep);
            ex.inner.wire_messages_sent()
        } else {
            let mut ex = cluster;
            drive(&mut ex, specs, &mut rep);
            ex.wire_messages_sent()
        };
        rep.check_exactly_once(&tasks, true);
        rep.fingerprint = Some(fingerprint(&rep.records));
        rep.counter("cluster.msgs_per_job", msgs as f64 / rep.offered as f64);
        if traced {
            rep.probe_ptt(&scheds.lock().expect("scheduler list poisoned"));
        }
        rep
    }
}

/// One client, closed loop: one `submit` per job, then `drain`.
fn drive<E: Executor<Graph = Dag>>(ex: &mut E, specs: Vec<JobSpec<Dag>>, rep: &mut Rep) {
    let t0 = Instant::now();
    let mut started = Vec::with_capacity(specs.len());
    for spec in specs {
        let t = Instant::now();
        let r = ex.submit(spec);
        rep.submit_us.push(secs(t) * 1e6);
        started.push(t.duration_since(t0).as_secs_f64());
        if let Err(e) = r {
            rep.fail(1, format!("submit: {e}"));
        }
    }
    match ex.drain() {
        Ok(stats) => rep.records = stats,
        Err(e) => rep.fail(started.len() as u64, format!("drain: {e}")),
    }
    rep.wall_s = secs(t0);
    rep.job_ms = started.iter().map(|s| (rep.wall_s - s) * 1e3).collect();
    cluster_counters(rep, ex.take_extras());
}

fn cluster_counters(rep: &mut Rep, extras: ExecExtras) {
    let jobs = rep.offered as f64;
    let share = (0..NODES)
        .map(|i| extras.get(&format!("node{i}.jobs")).unwrap_or(0.0) / jobs)
        .fold(0.0, f64::max);
    rep.counter("cluster.node_share_max", share);
    let retried = ["jobs_requeued", "retries", "jobs_lost"]
        .iter()
        .map(|k| extras.get(k).unwrap_or(0.0))
        .sum();
    rep.counter("cluster.retried", retried);
    if retried > 0.0 {
        rep.fail(
            retried as u64,
            format!("{retried} jobs requeued, retried or lost"),
        );
    }
    sim_counters(rep, &extras);
}

/// Engine counters and the simulated queueing tail of a das-sim run.
pub fn sim_counters(rep: &mut Rep, extras: &ExecExtras) {
    let steals = extras.steals.unwrap_or(0) as f64;
    let failed = extras.get("failed_steals").unwrap_or(0.0);
    rep.counter("sim.events", extras.events.unwrap_or(0) as f64);
    if steals + failed > 0.0 {
        rep.counter("sim.steal_success", steals / (steals + failed));
    }
    if let Some(q) = rep.records.queueing_percentile(0.99) {
        rep.counter("sim.queueing_ms_p99", q * 1e3);
    }
}

pub struct IngressBurst {
    pub seed: u64,
}

impl IngressBurst {
    pub fn rep(&mut self, traced: bool) -> Rep {
        let mut rep = Rep::default();
        let scheds = Arc::default();
        let t = Instant::now();
        let specs = stream(self.seed, true);
        let tasks: Vec<usize> = specs.iter().map(|s| s.graph.len()).collect();
        let cluster = build(self.seed, horizon(&specs), traced, &scheds);
        rep.offered = tasks.len();
        let msgs = if traced {
            let ing = Ingress::with_config(
                Traced::new(cluster, Layer::Cluster),
                SHARDS,
                None,
                self.seed,
            );
            rep.setup_s = secs(t);
            drive_lanes(&ing, specs, &mut rep, true);
            ing.into_inner().inner.wire_messages_sent()
        } else {
            let ing = Ingress::with_config(cluster, SHARDS, None, self.seed);
            rep.setup_s = secs(t);
            drive_lanes(&ing, specs, &mut rep, false);
            ing.into_inner().wire_messages_sent()
        };
        rep.check_exactly_once(&tasks, false);
        rep.counter("cluster.msgs_per_job", msgs as f64 / rep.offered as f64);
        if traced {
            rep.probe_ptt(&scheds.lock().expect("scheduler list poisoned"));
        }
        rep
    }
}

/// `LANES` client threads, each a closed loop of `Ingress::submit`
/// calls. The lanes start each burst together and share its jobs, as
/// concurrent clients hit by one burst would; then one `drain`.
fn drive_lanes<E>(ing: &Ingress<E>, specs: Vec<JobSpec<Dag>>, rep: &mut Rep, traced: bool)
where
    E: Executor<Graph = Dag> + Send,
{
    let mut bursts: Vec<Vec<JobSpec<Dag>>> = Vec::new();
    for spec in specs {
        let b = usize::from(spec.class.0);
        if bursts.len() <= b {
            bursts.resize_with(b + 1, Vec::new);
        }
        bursts[b].push(spec);
    }
    let bursts: Vec<Mutex<std::vec::IntoIter<JobSpec<Dag>>>> = bursts
        .into_iter()
        .map(|b| Mutex::new(b.into_iter()))
        .collect();
    let barrier = Barrier::new(LANES);
    let t0 = Instant::now();
    let results: Vec<(Vec<f64>, Vec<f64>, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..LANES)
            .map(|lane| {
                let (bursts, barrier) = (&bursts, &barrier);
                scope.spawn(move || {
                    let (mut sub, mut start, mut errs) = (Vec::new(), Vec::new(), Vec::new());
                    for burst in bursts {
                        barrier.wait();
                        loop {
                            let Some(spec) = burst.lock().expect("burst poisoned").next() else {
                                break;
                            };
                            let t = Instant::now();
                            let span = traced.then(|| trace::open("ingress.submit", 1));
                            let r = ing.submit(lane as u64, spec);
                            drop(span);
                            sub.push(secs(t) * 1e6);
                            start.push(t.duration_since(t0).as_secs_f64());
                            if let Err(e) = r {
                                errs.push(format!("lane {lane} submit: {e}"));
                            }
                        }
                    }
                    (sub, start, errs)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client lane panicked"))
            .collect()
    });
    let mut started = Vec::new();
    for (sub, start, errs) in results {
        rep.submit_us.extend(sub);
        started.extend(start);
        for e in errs {
            rep.fail(1, e);
        }
    }
    let span = traced.then(|| trace::open("ingress.drain", 0));
    match ing.drain() {
        Ok(stats) => rep.records = stats,
        Err(e) => rep.fail(started.len() as u64, format!("drain: {e}")),
    }
    drop(span);
    rep.wall_s = secs(t0);
    rep.job_ms = started.iter().map(|s| (rep.wall_s - s) * 1e3).collect();
    cluster_counters(rep, ing.take_extras());
}
