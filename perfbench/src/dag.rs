//! `dag_interference`: the paper's own experiment on a bare simulator —
//! the MatMul, Copy and Stencil DAGs at paper size on a TX2 under a
//! DVFS square wave on the Denver cluster plus a compute co-runner on
//! one A57 core.

use crate::cluster::sim_counters;
use crate::rep::{secs, Rep};
use crate::stats::fingerprint;
use crate::trace::{Layer, Traced};
use das::core::jobs::{JobSpec, StreamStats};
use das::core::Policy;
use das::dag::Dag;
use das::exec::{Executor, SessionBuilder};
use das::sim::{Environment, Modifier, SimParams, Simulator};
use das::topology::{ClusterId, CoreId, Topology};
use das::workloads::cost::PaperCost;
use das::workloads::synthetic::{self, Kernel};
use std::sync::Arc;
use std::time::Instant;

/// DAG parallelism: the middle of the paper's 2..6 sweep.
const PARALLELISM: usize = 4;
/// The first A57 core of the TX2 (cores 0-1 are the Denver pair).
const CORUNNER_CORE: CoreId = CoreId(2);

pub struct DagInterference {
    pub seed: u64,
}

impl DagInterference {
    pub fn rep(&mut self, traced: bool) -> Rep {
        let mut rep = Rep::default();
        let t = Instant::now();
        let dags: Vec<Dag> = Kernel::ALL
            .iter()
            .map(|&k| synthetic::dag(k, PARALLELISM, 1))
            .collect();
        let tasks: Vec<usize> = dags.iter().map(Dag::len).collect();
        let topo = Arc::new(Topology::tx2());
        // Seeded measurement jitter on the times the PTT learns from, as
        // a real clock has (the Fig. 8 harness's 30 us): the seed then
        // moves the schedule a little, not only the steal order.
        let params = SimParams {
            obs_noise: 3e-5,
            ..SimParams::default()
        };
        let session = SessionBuilder::new(Arc::clone(&topo), Policy::DamC)
            .seed(self.seed)
            .sim_params(params);
        let mut sim = Simulator::from_session_with_cost(&session, Arc::new(PaperCost::new()));
        sim.set_env(
            Environment::interference_free(topo)
                .and(Modifier::tx2_dvfs(ClusterId(0)))
                .and(Modifier::compute_corunner(CORUNNER_CORE)),
        );
        rep.setup_s = secs(t);
        rep.offered = dags.len();
        let sched = Arc::clone(sim.scheduler());
        if traced {
            drive(&mut Traced::new(sim, Layer::Sim), dags, &mut rep);
        } else {
            drive(&mut sim, dags, &mut rep);
        }
        rep.check_exactly_once(&tasks, true);
        rep.fingerprint = Some(fingerprint(&rep.records));
        if traced {
            rep.probe_ptt(&[sched]);
        }
        rep
    }
}

/// One client, closed loop: `submit` each DAG and `wait` for it (the
/// paper runs one DAG at a time), then `drain`, which must be empty.
fn drive<E: Executor<Graph = Dag>>(ex: &mut E, dags: Vec<Dag>, rep: &mut Rep) {
    let t0 = Instant::now();
    let mut records = Vec::new();
    for dag in dags {
        let t = Instant::now();
        let ticket = ex.submit(JobSpec::new(dag));
        rep.submit_us.push(secs(t) * 1e6);
        match ticket.and_then(|tk| ex.wait(tk)) {
            Ok(st) => records.push(st),
            Err(e) => rep.fail(1, format!("run: {e}")),
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
    sim_counters(rep, &ex.take_extras());
}
