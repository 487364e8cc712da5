//! # das-cluster — a sharded, fault-tolerant multi-node scheduling tier
//!
//! Everything below the executor contract schedules *within* one node:
//! the PTT, Algorithm 1 and the two-queue discipline place tasks on the
//! cores of a single platform. This crate adds the tier above: a
//! [`Cluster`] that owns N node-local executors (each a `das-sim` or
//! `das-runtime` instance built from its own
//! [`SessionBuilder`]) stitched together over [`das_msg::Endpoint`]s —
//! and whose dispatcher **itself implements
//! [`das_core::exec::Executor`]**, so any client written against
//! `&mut dyn Executor` (the `job_stream` example, the `jobs_throughput`
//! harness, the contract tests) scales from one node to a fleet with
//! zero changes.
//!
//! ## Architecture
//!
//! Each node is a **failure domain**: the dispatcher talks to node `i`
//! over a *private two-rank* [`das_msg::Communicator`] (dispatcher rank
//! 0, node rank 1), and node `i` runs a **node agent** thread owning
//! its executor. Private links — rather than one shared N+1-rank
//! communicator — mean membership churn never resizes a shared rank
//! space and a dead node can never wedge a collective. The link
//! carries typed in-process frames: a command enum down (the job
//! specs, graphs included, ride inside it), a reply enum up whose
//! `Result` holds the node's real `JobStats`, `StreamStats`,
//! `ExecExtras`, snapshot or trace spans — or its typed
//! [`ExecError`]. Nothing is encoded, so nothing can misframe; a
//! socket transport would add a codec at this boundary. Tags keep the
//! planes apart:
//!
//! * **control** — one command frame per submit/wait/drain/shutdown
//!   (one per touched node for a batch). Admission is one-way: `submit`
//!   routes, validates ([`Validate`]), sends and returns the ticket
//!   without waiting, and the node answers an admission only to refuse
//!   it. Every other command is answered by one reply frame;
//! * **load** — the dispatcher routes by [`RoutePolicy`] (round-robin,
//!   least-outstanding, seeded power-of-two-choices, load-shed) over
//!   its own load view, skipping dead nodes: per node, the last
//!   outstanding-job count read with one of the node's replies, plus
//!   every job routed there since. A node takes a report at every
//!   admission, wait and drain, and delivers the newest just ahead of
//!   its next reply; the dispatcher reads it right after that reply
//!   with [`das_msg::Endpoint::try_recv_latest`];
//! * **metrics** — when the sessions enable it, a node snapshot rides
//!   just ahead of the load report, under the same fault decision;
//! * **stats** — `drain` sends every live node one command and reads
//!   back its drained stream and extras in one reply.
//!
//! ## Failure domains and recovery
//!
//! Every control RPC is bounded: the dispatcher waits with a deadline
//! and bounded exponential backoff ([`das_msg::Endpoint::recv_backoff`])
//! and surfaces a typed [`ExecError::Timeout`] instead of hanging. A
//! node-agent panic is caught at the thread boundary; the wrapper
//! publishes a down flag and sends a death frame as its last frame.
//! Admission is one-way, so the death is discovered at the next
//! `wait`, drain, [`Cluster::drain_summary`], [`Cluster::remove_node`]
//! or [`Cluster::collect_trace`] that reads the node's link: the death
//! frame arrives in place of the reply, and becomes
//! [`ExecError::NodeFailed`] for that link. No link is read at any
//! other moment, so the discovery point is *deterministic* — a frame,
//! not a timeout race.
//!
//! There the dispatcher repairs the cluster from its **spec ledger**
//! (enabled by [`Cluster::enable_recovery`]; on by default for
//! [`ClusterBuilder::build_sim`] / [`ClusterBuilder::build_runtime`]):
//! jobs the dead node never began are requeued onto survivors through
//! the normal routing policy (`jobs_requeued`), jobs a `wait` or drain
//! had started are re-submitted **at most once** (`retries`), and jobs
//! whose retry budget is spent redeem as [`ExecError::NodeFailed`]
//! (`jobs_lost`). Every sync point repairs after its whole round of
//! replies is read, then drains (or pulls) the survivors again, so the
//! requeued jobs are covered by the same call. The failure itself is
//! attributed in the merged extras as `node{i}.failed`.
//!
//! Deterministic **fault injection** drives all of this in tests: a
//! seeded [`das_core::FaultSchedule`] on the base session plants
//! logical triggers (die at the k-th admitted job, drop or delay load
//! reports, withhold replies, inflate reported load) that the node agents
//! consult at fixed points — no wall-clock, so a faulty run is exactly
//! as bit-reproducible as a healthy one.
//!
//! ## Membership churn
//!
//! [`Cluster::add_node`] grows the fleet between drains;
//! [`Cluster::remove_node`] retires a node gracefully — its pending
//! (never-started) jobs move onto peers first, its remaining records
//! are banked for the next [`Executor::drain`], and its slot index is
//! never reused. Session tags stay monotone across churn because every
//! executor draws from the same global tag counter.
//!
//! ## Tickets and ids
//!
//! The cluster issues its own dense [`JobId`]s and stamps tickets with
//! its own session tag; the route table maps each cluster job to its
//! node, and the admission frame carries the cluster id. The node agent
//! keys its node-local tickets — stamped with the node executor's *own*
//! session tag — and its drained records by cluster id. Node-local
//! tickets never leave their agent, so a forged or stale cluster ticket
//! can never redeem a node job directly.
//!
//! ## Determinism
//!
//! Routing is a pure function of the route seed and the load view, and
//! the load view changes only by the jobs the dispatcher routes and the
//! reports it reads right after a reply — at points it chose — so the
//! job→node assignment is reproducible; each
//! `das-sim` node is bit-reproducible given its session seed; therefore
//! an all-sim cluster is **bit-reproducible end to end** — with or
//! without scheduled faults — and a 1-node sim cluster is bit-identical
//! to a bare `Simulator` session (pinned by `tests/cluster_exec.rs`
//! and `tests/cluster_faults.rs`).
//!
//! ```
//! use das_cluster::{ClusterBuilder, RoutePolicy};
//! use das_core::exec::{Executor, SessionBuilder};
//! use das_core::jobs::JobSpec;
//! use das_core::{Policy, TaskTypeId};
//! use das_dag::generators;
//! use das_topology::Topology;
//! use std::sync::Arc;
//!
//! let base = SessionBuilder::new(Arc::new(Topology::tx2()), Policy::DamC).seed(42);
//! let mut cluster = ClusterBuilder::new(base, 3)
//!     .route(RoutePolicy::PowerOfTwo)
//!     .build_sim();
//! for j in 0..6 {
//!     let dag = generators::chain(TaskTypeId(0), 4);
//!     cluster.submit(JobSpec::new(dag).at(j as f64 * 1e-3)).unwrap();
//! }
//! let stats = cluster.drain().unwrap();
//! assert_eq!(stats.jobs.len(), 6);
//! ```
//!
//! A seeded node kill, recovered on the survivors:
//!
//! ```
//! use das_cluster::{ClusterBuilder, RoutePolicy};
//! use das_core::exec::{Executor, SessionBuilder};
//! use das_core::jobs::JobSpec;
//! use das_core::{FaultSchedule, Policy, TaskTypeId};
//! use das_dag::generators;
//! use das_topology::Topology;
//! use std::sync::Arc;
//!
//! let base = SessionBuilder::new(Arc::new(Topology::tx2()), Policy::DamC)
//!     .seed(7)
//!     .fault_schedule(FaultSchedule::new(7).kill(1, 2));
//! let mut cluster = ClusterBuilder::new(base, 3)
//!     .route(RoutePolicy::RoundRobin)
//!     .build_sim();
//! for j in 0..9 {
//!     let dag = generators::chain(TaskTypeId(0), 4);
//!     cluster.submit(JobSpec::new(dag).at(j as f64 * 1e-3)).unwrap();
//! }
//! // Node 1 dies at its third admission; the drain discovers the death
//! // and the full stream still completes on the survivors.
//! let stats = cluster.drain().unwrap();
//! assert_eq!(stats.jobs.len(), 9);
//! let extras = cluster.take_extras();
//! assert_eq!(extras.get("node1.failed"), Some(1.0));
//! ```

mod route;
mod wire;

pub use route::RoutePolicy;

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use das_core::exec::{session_tag, ExecError, ExecExtras, Executor, SessionBuilder, Ticket};
use das_core::fault::{FaultKind, FaultPlane};
use das_core::jobs::{JobId, JobSpec, JobStats, StreamStats, Validate};
use das_core::metrics::{
    ExecProbe, MetricKind, MetricsConfig, MetricsReport, NodeSnapshot, TraceSpan,
};
use das_dag::Dag;
use das_msg::{Communicator, Endpoint};
use das_runtime::{Runtime, TaskGraph};
use das_sim::{ClusterTrace, Simulator};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use wire::{
    on_link, post, Ack, Command, Frame, Reply, Summary, DISPATCHER, NODE, T_ACK, T_CTRL, T_LOAD,
    T_METRICS,
};

/// Human-readable label of a scheduled fault, used by failover tooling
/// (the `cluster_failover` example) and by the das-lint cross-file
/// contract that forces this crate to account for every
/// [`FaultKind`] the fault plane can schedule.
pub fn fault_kind_name(kind: &FaultKind) -> &'static str {
    match kind {
        FaultKind::Kill { .. } => "kill",
        FaultKind::DropLoadReports { .. } => "drop-load-reports",
        FaultKind::DelayLoadReports { .. } => "delay-load-reports",
        FaultKind::DropAcks { .. } => "drop-acks",
        FaultKind::Slow { .. } => "slow",
    }
}

/// Builds a [`Cluster`]: per-node sessions, routing policy, route seed,
/// control-RPC deadline.
///
/// [`ClusterBuilder::new`] derives node `i`'s session from the base by
/// offsetting the seed by `i` — node 0 keeps the base seed, which is
/// what makes a 1-node cluster bit-identical to the bare backend built
/// from the same session. [`ClusterBuilder::from_sessions`] accepts
/// fully heterogeneous nodes (different topologies, policies, seeds).
/// The base (first) session's [`das_core::FaultSchedule`] — if any —
/// becomes the cluster's fault plane.
#[derive(Clone, Debug)]
pub struct ClusterBuilder {
    sessions: Vec<SessionBuilder>,
    policy: RoutePolicy,
    route_seed: u64,
    rpc_base: Duration,
    rpc_attempts: u32,
}

/// Default first-wait window of a control RPC; doubles each attempt.
const DEFAULT_RPC_BASE: Duration = Duration::from_millis(500);
/// Default attempt count: with the 500ms base the total budget is
/// 31.5s — generous enough that a healthy-but-busy runtime node never
/// spuriously times out, small enough that a wedged one is a test
/// failure, not a CI hang.
const DEFAULT_RPC_ATTEMPTS: u32 = 6;

impl ClusterBuilder {
    /// `nodes` homogeneous nodes derived from `base` (node `i` runs
    /// with seed `base.seed + i`, everything else shared).
    ///
    /// # Panics
    /// Panics if `nodes == 0`.
    pub fn new(base: SessionBuilder, nodes: usize) -> Self {
        assert!(nodes > 0, "a cluster needs at least one node");
        let sessions = (0..nodes)
            .map(|i| {
                let mut s = base.clone();
                s.seed = base.seed.wrapping_add(i as u64);
                s
            })
            .collect();
        let route_seed = base.seed;
        ClusterBuilder {
            sessions,
            policy: RoutePolicy::PowerOfTwo,
            route_seed,
            rpc_base: DEFAULT_RPC_BASE,
            rpc_attempts: DEFAULT_RPC_ATTEMPTS,
        }
    }

    /// Heterogeneous nodes, one per session.
    ///
    /// # Panics
    /// Panics if `sessions` is empty.
    pub fn from_sessions(sessions: Vec<SessionBuilder>) -> Self {
        assert!(!sessions.is_empty(), "a cluster needs at least one node");
        let route_seed = sessions[0].seed;
        ClusterBuilder {
            sessions,
            policy: RoutePolicy::PowerOfTwo,
            route_seed,
            rpc_base: DEFAULT_RPC_BASE,
            rpc_attempts: DEFAULT_RPC_ATTEMPTS,
        }
    }

    /// Set the routing policy (default: power of two choices).
    pub fn route(mut self, policy: RoutePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Seed the routing RNG independently of the node sessions
    /// (default: the first session's seed).
    pub fn route_seed(mut self, seed: u64) -> Self {
        self.route_seed = seed;
        self
    }

    /// First-wait window of every control RPC (default 500ms). The
    /// window doubles on each retry, so the total deadline is
    /// `base × (2^attempts − 1)`.
    pub fn rpc_deadline(mut self, base: Duration) -> Self {
        self.rpc_base = base;
        self
    }

    /// Number of backoff attempts per control RPC (default 6; clamped
    /// to at least 1).
    pub fn rpc_attempts(mut self, attempts: u32) -> Self {
        self.rpc_attempts = attempts.max(1);
        self
    }

    /// The per-node sessions this builder will construct from.
    pub fn sessions(&self) -> &[SessionBuilder] {
        &self.sessions
    }

    /// A cluster of `das-sim` nodes (`Simulator::from_session` each),
    /// with failure recovery enabled.
    pub fn build_sim(self) -> Cluster<Dag> {
        let mut cluster = self.build_with(|_, session| Simulator::from_session(session));
        cluster.enable_recovery();
        cluster
    }

    /// A cluster of `das-runtime` nodes (`Runtime::from_session` each);
    /// worker threads per node are the node topology's core count.
    /// Failure recovery is enabled.
    pub fn build_runtime(self) -> Cluster<TaskGraph> {
        let mut cluster = self.build_with(|_, session| Runtime::from_session(session));
        cluster.enable_recovery();
        cluster
    }

    /// A cluster over any executor backend: `factory(i, &session)`
    /// builds node `i`. All nodes must share one graph type — mixing
    /// backends with different graph representations cannot present a
    /// single `Executor<Graph = G>` front — and the cluster is an
    /// [`Executor`] when that type is [`Validate`] (the dispatcher
    /// checks each job before it sends it). The factory is retained so
    /// [`Cluster::add_node`] can spawn later members; recovery is *not*
    /// enabled here (the graph type may not be `Clone`) — call
    /// [`Cluster::enable_recovery`] if it is.
    pub fn build_with<E, F>(self, factory: F) -> Cluster<E::Graph>
    where
        E: Executor + Send + 'static,
        E::Graph: Send + 'static,
        F: FnMut(usize, &SessionBuilder) -> E + Send + 'static,
    {
        let n = self.sessions.len();
        // Per-node admission bounds, from each session's knob: the
        // dispatcher sheds at these bounds *before* any wire traffic,
        // and the node executors (built from the same sessions)
        // enforce the identical bound behind it.
        let limits: Vec<f64> = self
            .sessions
            .iter()
            .map(|s| s.max_outstanding.map_or(f64::INFINITY, |l| l as f64))
            .collect();
        let faults = self.sessions[0].fault_schedule.clone().unwrap_or_default();
        let mut factory = factory;
        let mut spawner: Spawner<E::Graph> = Box::new(move |i, session| {
            let exec = factory(i, session);
            spawn_node(i, exec, faults.plane_for(i), session.metrics)
        });
        let nodes: Vec<NodeSlot<E::Graph>> = self
            .sessions
            .iter()
            .enumerate()
            .map(|(i, session)| spawner(i, session))
            .collect();
        Cluster {
            nodes,
            alive: vec![true; n],
            spawner,
            policy: self.policy,
            rng: SmallRng::seed_from_u64(self.route_seed),
            rr: 0,
            loads: vec![0.0; n],
            node_metrics: vec![None; n],
            limits,
            route: HashMap::new(),
            lost: HashMap::new(),
            cloner: None,
            banked_jobs: Vec::new(),
            banked_extras: ExecExtras::default(),
            next_job: 0,
            exec_session: session_tag(),
            exec_extras: ExecExtras::default(),
            rpc_base: self.rpc_base,
            rpc_attempts: self.rpc_attempts,
        }
    }
}

/// Spawns node `i` from its session: builds the executor, wires the
/// private link and starts the agent thread. Boxed so [`Cluster`] can
/// keep it for [`Cluster::add_node`] without being generic over the
/// factory.
type Spawner<G> = Box<dyn FnMut(usize, &SessionBuilder) -> NodeSlot<G> + Send>;

/// Dispatcher-side handle of one node: the dispatcher end of the
/// private link, the agent's down flag and its join handle. Slots of
/// dead or removed nodes stay in place so node indices are stable for
/// the lifetime of the cluster.
struct NodeSlot<G> {
    ep: Endpoint<Frame<G>>,
    down: Arc<AtomicBool>,
    agent: Option<JoinHandle<()>>,
}

/// Where a cluster job went, and what recovery needs to know about it:
/// whether any node-side execution has been triggered for it (a `wait`
/// or `drain` reaching its node starts the node's whole pending batch)
/// — the bit that decides requeue (exactly-once so far) versus retry
/// (at-most-once re-submission) — and the ledger copy a re-submission
/// sends.
struct Placement<G> {
    node: usize,
    started: bool,
    /// The spec copy recovery re-submits; `None` while recovery is off.
    spec: Option<JobSpec<G>>,
    /// Whether the job's single retry has been spent.
    retried: bool,
}

/// Monomorphic spec copier installed by [`Cluster::enable_recovery`]; a
/// plain `fn` pointer keeps `Cluster<G>` itself free of a `G: Clone`
/// bound.
type SpecCloner<G> = fn(&JobSpec<G>) -> JobSpec<G>;

/// The sharded scheduling tier: N node-local executors behind one
/// dispatcher that speaks the [`Executor`] contract. See the crate docs
/// for the architecture and failure semantics; build with
/// [`ClusterBuilder`].
pub struct Cluster<G> {
    nodes: Vec<NodeSlot<G>>,
    /// Liveness per slot. Dead and removed nodes keep their slot (and
    /// index) but are skipped by routing and drain.
    alive: Vec<bool>,
    spawner: Spawner<G>,
    policy: RoutePolicy,
    rng: SmallRng,
    rr: usize,
    /// The dispatcher's load view: per node, the last outstanding-job
    /// report read with one of its replies, plus every job routed there
    /// since; pinned to 0 for dead nodes.
    loads: Vec<f64>,
    /// Latest metrics snapshot per node, read with its replies
    /// (keep-latest, like the loads); cleared for dead nodes. All
    /// `None` unless the node sessions enabled
    /// [`SessionBuilder::metrics`].
    node_metrics: Vec<Option<NodeSnapshot>>,
    /// Per-node admission bound (`f64::INFINITY` when unbounded),
    /// from each node session's `max_outstanding`.
    limits: Vec<f64>,
    /// Cluster job id → placement, for every submitted job not yet
    /// waited or drained.
    route: HashMap<u64, Placement<G>>,
    /// Jobs that will never complete — a node took them down (no spec
    /// copy, or retry budget spent) or refused them: cluster job id →
    /// the typed error their tickets redeem as.
    lost: HashMap<u64, ExecError>,
    /// Monomorphic spec copier — `Some` once [`Cluster::enable_recovery`]
    /// ran.
    cloner: Option<SpecCloner<G>>,
    /// Records and extras banked by [`Cluster::remove_node`], folded
    /// into the next [`Executor::drain`].
    banked_jobs: Vec<JobStats>,
    banked_extras: ExecExtras,
    next_job: u64,
    exec_session: u64,
    exec_extras: ExecExtras,
    rpc_base: Duration,
    rpc_attempts: u32,
}

impl<G: Clone> Cluster<G> {
    /// Turn on failure recovery: from here on the dispatcher retains a
    /// copy of every submitted spec until its job completes, so jobs on
    /// a dead node can be requeued (never-started) or retried at most
    /// once (started). [`ClusterBuilder::build_sim`] and
    /// [`ClusterBuilder::build_runtime`] enable this automatically;
    /// [`ClusterBuilder::build_with`] leaves it off because an
    /// arbitrary graph type may not be `Clone`.
    pub fn enable_recovery(&mut self) {
        self.cloner = Some(clone_spec::<G>);
    }
}

/// The monomorphic target of [`Cluster::enable_recovery`]'s `fn`
/// pointer.
fn clone_spec<G: Clone>(spec: &JobSpec<G>) -> JobSpec<G> {
    spec.clone()
}

impl<G> Cluster<G> {
    /// Number of node slots ever created — live, dead and removed
    /// (indices are stable and never reused).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of live nodes, as far as the dispatcher knows: a death
    /// is discovered at the next `wait`, drain, [`Cluster::remove_node`]
    /// or [`Cluster::collect_trace`] that reads the dead node's link.
    pub fn live_nodes(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Is node `node` live (spawned, not known to have failed, not
    /// removed)?
    pub fn is_alive(&self, node: usize) -> bool {
        self.alive.get(node).copied().unwrap_or(false)
    }

    /// Whether the spec ledger is active (see
    /// [`Cluster::enable_recovery`]).
    pub fn recovery_enabled(&self) -> bool {
        self.cloner.is_some()
    }

    /// The routing policy in force.
    pub fn route_policy(&self) -> RoutePolicy {
        self.policy
    }

    /// The node an outstanding ticket's job was routed to; `None` for
    /// tickets of other executors or jobs already waited/drained.
    pub fn node_of(&self, ticket: &Ticket) -> Option<usize> {
        (ticket.session() == self.exec_session)
            .then(|| self.route.get(&ticket.job().0).map(|p| p.node))
            .flatten()
    }

    /// Grow the fleet: spawn a new node from `session` (with the fault
    /// plane its fresh index selects from the cluster's schedule) and
    /// open it to routing. Returns the new node's index. Session tags
    /// stay monotone — the new executor draws from the same global
    /// counter as every earlier one.
    pub fn add_node(&mut self, session: &SessionBuilder) -> usize {
        let idx = self.nodes.len();
        let slot = (self.spawner)(idx, session);
        self.nodes.push(slot);
        self.alive.push(true);
        self.loads.push(0.0);
        self.node_metrics.push(None);
        self.limits
            .push(session.max_outstanding.map_or(f64::INFINITY, |l| l as f64));
        idx
    }

    /// Retire node `node` gracefully: its pending (never-started,
    /// ledger-backed) jobs move onto peers first (`jobs_requeued`), it
    /// then drains — records banked for the next [`Executor::drain`],
    /// minus the speculative executions of the moved jobs — and shuts
    /// down. The slot index is never reused. Rejects removing a dead
    /// node or the last live one.
    pub fn remove_node(&mut self, node: usize) -> Result<(), ExecError> {
        if !self.is_alive(node) {
            return Err(ExecError::Rejected(format!("node {node} is not live")));
        }
        if self.live_nodes() == 1 {
            return Err(ExecError::Rejected(
                "cannot remove the last live node".into(),
            ));
        }
        // Close the node to routing before moving its queue, so the
        // requeues below cannot land back on it.
        self.alive[node] = false;
        // 1. Move the pending queue onto peers. Only never-started
        //    ledger-backed jobs move (a started batch is already
        //    executing node-side); the leaving node still runs its
        //    copies, whose records `fold_node_records` discards — the
        //    peer's execution is the one that counts. A job no peer can
        //    take stays, and the drain below executes it here.
        for id in self.ids_on(node, |p| !p.started && p.spec.is_some()) {
            if self.replace(id).is_ok() {
                self.exec_extras.bump("jobs_requeued", 1.0);
            }
        }
        // 2. Drain the leaving node and bank its records for the next
        //    cluster drain.
        match self.call(node, Command::Drain) {
            Ok(Ack::Drained(stats, extras)) => {
                let mut jobs = std::mem::take(&mut self.banked_jobs);
                let mut merged = std::mem::take(&mut self.banked_extras);
                self.fold_node_records(node, stats.jobs, extras, &mut jobs, &mut merged);
                self.banked_jobs = jobs;
                self.banked_extras = merged;
            }
            Err(ExecError::NodeFailed { .. }) => {
                // Died while leaving: fall through to the failure path
                // (alive is restored so the handler runs).
                self.alive[node] = true;
                self.handle_node_down(node);
                return Ok(());
            }
            Err(e @ ExecError::Timeout { .. }) => {
                self.alive[node] = true;
                return Err(e);
            }
            Ok(_) | Err(_) => {
                // A failed drain loses the node's batch, exactly like a
                // failed drain on the bare backend; still shut it down.
                self.exec_extras
                    .bump("jobs_orphaned", self.jobs_on(node) as f64);
                self.route.retain(|_, p| p.node != node);
            }
        }
        // 3. Shut the agent down and join it.
        self.command(node, Command::Shutdown);
        if let Some(agent) = self.nodes[node].agent.take() {
            let _ = agent.join();
        }
        self.loads[node] = 0.0;
        self.node_metrics[node] = None;
        self.exec_extras.set(format!("node{node}.removed"), 1.0);
        Ok(())
    }

    /// Route entries currently pointing at `node`.
    fn jobs_on(&self, node: usize) -> usize {
        // det-ok: counting is order-insensitive.
        self.route.values().filter(|p| p.node == node).count()
    }

    /// Ids of the jobs routed to `node` that satisfy `pred`, ascending —
    /// the order every recovery decision is made in.
    fn ids_on(&self, node: usize, pred: impl Fn(&Placement<G>) -> bool) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .route
            // det-ok: ids are collected into a Vec and sorted before
            // any routing decision is made from them.
            .iter()
            .filter(|(_, p)| p.node == node && pred(p))
            .map(|(&id, _)| id)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// The cluster-wide observability view: the latest metrics snapshot
    /// of every live node that has delivered one, in node-index order.
    /// Empty unless the node sessions enabled
    /// [`SessionBuilder::metrics`]. Reads no link: a node's snapshots
    /// are taken on logical triggers (every `snapshot_every` admitted
    /// jobs, and at every drain) and delivered with its next reply, so
    /// this view is as of the last `wait`, drain or trace pull that
    /// reached each node.
    pub fn metrics_report(&self) -> MetricsReport {
        MetricsReport {
            nodes: self
                .node_metrics
                .iter()
                .flatten()
                // det-ok: node_metrics is indexed by node, so this
                // iteration is in stable node order.
                .cloned()
                .collect(),
        }
    }

    /// Write the cluster totals of the merged [`MetricsReport`] into
    /// the extras map, one `metrics.<kind>` value per [`MetricKind`].
    /// No-op while no node has delivered a snapshot, so the metrics-off
    /// extras surface is byte-identical to the pre-observability one.
    fn flatten_metrics(&mut self) {
        let report = self.metrics_report();
        if report.nodes.is_empty() {
            return;
        }
        let totals = report.totals();
        for kind in MetricKind::ALL {
            self.exec_extras.set(
                format!("metrics.{}", kind.name()),
                metric_scalar(kind, &totals),
            );
        }
    }

    /// Drain every live node for a *summary* — counts, span, extras and
    /// the node's post-drain snapshot — without shipping one wire slot
    /// per completed job. The cluster-wide percentiles come from the
    /// merged sketches instead of per-job records, so the reply size is
    /// independent of how many jobs completed. The stream's tickets are
    /// retired exactly as by [`Executor::drain`] (outstanding routes
    /// clear; un-waited tickets redeem as `UnknownTicket` afterwards).
    ///
    /// Requires metrics-enabled node sessions; a node that never
    /// enabled metrics answers with an all-zero sketch snapshot, which
    /// merges harmlessly. A node death is repaired like in
    /// [`Executor::drain`]: after the round, with the survivors drained
    /// again, so the summary still covers every job. On a node error
    /// the summary fails with the typed error.
    pub fn drain_summary(&mut self) -> Result<DrainSummary, ExecError> {
        let mut jobs = 0u64;
        let mut tasks = 0u64;
        // Global stream endpoints, folded across banked records and
        // every node reply: span = last completion − first arrival,
        // exactly what `StreamStats::from_jobs` reports over the
        // merged records of a full drain.
        let mut t0 = f64::INFINITY;
        let mut t1 = 0.0f64;
        let mut merged = std::mem::take(&mut self.banked_extras);
        for rec in std::mem::take(&mut self.banked_jobs) {
            jobs += 1;
            tasks += rec.tasks as u64;
            t0 = t0.min(rec.arrival);
            t1 = t1.max(rec.completed);
        }
        let mut first_err: Option<ExecError> = None;
        self.rounds(
            || Command::DrainSummary,
            |this, node, reply| match reply {
                Ok(Ack::Summary(s)) => {
                    jobs += s.jobs;
                    tasks += s.tasks;
                    t0 = t0.min(s.t0);
                    t1 = t1.max(s.t1);
                    merged.bump(&format!("node{node}.jobs"), s.jobs as f64);
                    attribute_extras(node, &s.extras, &mut merged);
                    merged.absorb(s.extras);
                    this.node_metrics[node] = Some(s.snapshot);
                }
                Ok(_) => {
                    first_err.get_or_insert(out_of_step(node));
                }
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            },
        );
        self.route.clear();
        if let Some(e) = first_err {
            return Err(e);
        }
        self.exec_extras.absorb(merged);
        self.exec_extras.set("nodes", self.live_nodes() as f64);
        self.flatten_metrics();
        Ok(DrainSummary {
            jobs,
            tasks,
            span: if jobs == 0 { 0.0 } else { t1 - t0 },
            report: self.metrics_report(),
        })
    }

    /// Pull every live node's accumulated execution trace spans and
    /// assemble the unified multi-node chrome trace (**pid = node,
    /// tid = core**). Draining: each node's span buffer empties. Spans
    /// only accumulate when the node sessions enabled
    /// [`das_core::MetricsConfig::with_trace`]; nodes without spans
    /// contribute empty process groups. A node death is repaired like
    /// in [`Executor::drain`], after the round; the dead node's spans
    /// are lost with it.
    pub fn collect_trace(&mut self) -> Result<ClusterTrace, ExecError> {
        let mut spans: Vec<Vec<TraceSpan>> = (0..self.nodes.len()).map(|_| Vec::new()).collect();
        let mut first_err: Option<ExecError> = None;
        self.rounds(
            || Command::PullTrace,
            |_, node, reply| match reply {
                Ok(Ack::Trace(s)) => spans[node].extend(s),
                Ok(_) => {
                    first_err.get_or_insert(out_of_step(node));
                }
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            },
        );
        if let Some(e) = first_err {
            return Err(e);
        }
        let per_node: Vec<_> = spans
            .into_iter()
            .enumerate()
            .filter(|&(node, _)| self.alive[node])
            .map(|(node, spans)| {
                // The node's core count is not on the wire; the span
                // extent (executing cores and assembly widths) bounds
                // the rows any renderer needs.
                let cores = spans
                    .iter()
                    .map(|s| s.core.max(s.leader + s.width.saturating_sub(1)) + 1)
                    .max()
                    .unwrap_or(0);
                (node, cores, spans)
            })
            .collect();
        Ok(ClusterTrace::from_node_spans(&per_node))
    }

    /// Wire messages this dispatcher has sent, ever (summed over the
    /// per-node links) — the traffic the batch path amortises. One
    /// `submit` costs one control message; a [`Executor::submit_many`]
    /// batch costs one control message **per node with a non-empty
    /// sub-batch** regardless of batch size (the contract
    /// `tests/cluster_exec.rs` asserts).
    pub fn wire_messages_sent(&self) -> u64 {
        self.nodes.iter().map(|s| s.ep.sent_count()).sum()
    }

    /// The typed overload error for a shed decision, attributing the
    /// pressure to the full node(s): their outstanding counts in the
    /// load view and their bounds, summed. For a full single pick these
    /// are that node's numbers; when every node is full (`LoadShed`) it
    /// is the cluster-wide pressure. Only live full nodes enter the
    /// sums, so the casts are finite.
    fn overloaded(&self) -> ExecError {
        let (outstanding, limit) = self
            .loads
            .iter()
            .zip(&self.limits)
            .zip(&self.alive)
            .filter(|((load, limit), alive)| **alive && *load >= *limit)
            .fold((0usize, 0usize), |(o, l), ((load, limit), _)| {
                (o + *load as usize, l + *limit as usize)
            });
        ExecError::Overloaded { outstanding, limit }
    }

    /// One routing decision over the load view: the picked node, or the
    /// error when none can take a job — every node dead, or every live
    /// node full.
    fn pick(&mut self) -> Result<usize, ExecError> {
        route::pick(
            self.policy,
            &self.loads,
            &self.limits,
            &self.alive,
            &mut self.rr,
            &mut self.rng,
        )
        .ok_or_else(|| {
            if self.live_nodes() == 0 {
                ExecError::Failed("every node is down".into())
            } else {
                self.overloaded()
            }
        })
    }

    /// Send one command frame to `node`.
    fn command(&self, node: usize, cmd: Command<G>) {
        post(&self.nodes[node].ep, NODE, Frame::Command(cmd));
    }

    /// Send `cmd` to `node` and await its reply ([`Cluster::reply`]).
    fn call(&mut self, node: usize, cmd: Command<G>) -> Result<Ack, ExecError> {
        let executes = cmd.executes();
        self.command(node, cmd);
        self.reply(node, executes)
    }

    /// Await the reply to the command just sent to `node`. Unless a
    /// death frame arrives in its place, the command reached a live
    /// agent; if it `executes`, the node ran its whole pending batch,
    /// so everything routed there counts as started from here on — the
    /// recovery plane's at-most-once boundary. A death frame means the
    /// agent died before the command, at an admission (the only place
    /// a scheduled kill fires; an executor panic inside a command comes
    /// back as a typed error), so nothing routed there since its last
    /// reply has begun.
    fn reply(&mut self, node: usize, executes: bool) -> Result<Ack, ExecError> {
        let reply = self.rpc_recv(node);
        if executes && !matches!(reply, Err(ExecError::NodeFailed { .. })) {
            // det-ok: order-insensitive flag set; every matching entry
            // gets the same value regardless of visit order.
            for p in self.route.values_mut() {
                if p.node == node {
                    p.started = true;
                }
            }
        }
        reply
    }

    /// Receive one reply from `node` under the bounded-backoff
    /// deadline, attributed to its link ([`Reply::on_link`]). Refusals
    /// queued ahead of it are settled on the way
    /// ([`Cluster::refuse`]), and the load report and snapshot that
    /// ride with the reply are read right after it — the only point at
    /// which the dispatcher reads them, which is what keeps the load
    /// view deterministic. A missing frame becomes
    /// [`ExecError::NodeFailed`] if the agent's down flag is up (the
    /// frame race lost), else a typed [`ExecError::Timeout`] — never a
    /// hang.
    fn rpc_recv(&mut self, node: usize) -> Result<Ack, ExecError> {
        loop {
            let frame =
                self.nodes[node]
                    .ep
                    .recv_backoff(NODE, T_ACK, self.rpc_base, self.rpc_attempts);
            match frame {
                Ok((Frame::Refused(ids, e), _)) => self.refuse(node, ids, e),
                Ok((Frame::Reply(reply), _)) => {
                    if matches!(reply, Reply::Ack(_)) {
                        self.read_reports(node);
                    }
                    return reply.on_link(node);
                }
                Ok(_) => unreachable!("only replies and refusals travel on T_ACK"),
                Err(waited) => {
                    return Err(if self.nodes[node].down.load(Ordering::Acquire) {
                        ExecError::NodeFailed { node }
                    } else {
                        ExecError::Timeout {
                            waited_ms: waited.as_millis() as u64,
                        }
                    })
                }
            }
        }
    }

    /// Fold the load report and snapshot that rode with `node`'s reply
    /// into the dispatcher's views (the newest of each wins; one a
    /// fault withheld leaves its view as it was).
    fn read_reports(&mut self, node: usize) {
        let ep = &self.nodes[node].ep;
        if let Some(Frame::Snapshot(snap)) = ep.try_recv_latest(NODE, T_METRICS) {
            self.node_metrics[node] = Some(snap);
        }
        if let Some(Frame::Load(v)) = ep.try_recv_latest(NODE, T_LOAD) {
            self.loads[node] = v;
        }
    }

    /// Settle an admission `node` refused: the refused jobs leave the
    /// route table (`jobs_refused`), and their tickets redeem as the
    /// node's error. Jobs recovery already moved elsewhere stay put.
    fn refuse(&mut self, node: usize, ids: Vec<u64>, e: ExecError) {
        let e = on_link(e, node);
        for id in ids {
            if self.route.get(&id).is_some_and(|p| p.node == node) {
                self.route.remove(&id);
                self.lost.insert(id, e.clone());
                self.exec_extras.bump("jobs_refused", 1.0);
            }
        }
    }

    /// Send `cmd()` to every live node, then read each reply in node
    /// order and hand it to `take` — except death frames. Deaths are
    /// repaired only after the whole round, since recovery traffic
    /// must not interleave with replies not yet read; the round then
    /// repeats over the survivors, so the jobs a death requeued are
    /// covered too. Returns after the first round without a death
    /// (each one with a death burns a node, so this terminates).
    fn rounds(
        &mut self,
        cmd: impl Fn() -> Command<G>,
        mut take: impl FnMut(&mut Self, usize, Result<Ack, ExecError>),
    ) {
        loop {
            let targets: Vec<usize> = (0..self.nodes.len()).filter(|&i| self.alive[i]).collect();
            let mut executes = false;
            for &node in &targets {
                let c = cmd();
                executes = c.executes();
                self.command(node, c);
            }
            let mut died = Vec::new();
            for &node in &targets {
                match self.reply(node, executes) {
                    Err(ExecError::NodeFailed { .. }) => died.push(node),
                    reply => take(self, node, reply),
                }
            }
            if died.is_empty() {
                return;
            }
            for node in died {
                self.handle_node_down(node);
            }
        }
    }

    /// Node `node` is gone: mark it dead, join the agent, attribute the
    /// failure, and repair the route table — never-started ledger jobs
    /// requeue onto survivors (`jobs_requeued`), started ones retry at
    /// most once (`retries`), the rest are recorded as lost
    /// (`jobs_lost`). Idempotent per node.
    fn handle_node_down(&mut self, node: usize) {
        if !self.alive[node] {
            return;
        }
        self.alive[node] = false;
        self.loads[node] = 0.0;
        self.node_metrics[node] = None;
        if let Some(agent) = self.nodes[node].agent.take() {
            let _ = agent.join();
        }
        self.exec_extras.set(format!("node{node}.failed"), 1.0);
        for id in self.ids_on(node, |_| true) {
            let p = &self.route[&id];
            let started = p.started;
            // The single retry is spent: at-most-once means this job
            // dies with its second node.
            let saveable = p.spec.is_some() && !(started && p.retried);
            if saveable && self.replace(id).is_ok() {
                if started {
                    self.route
                        .get_mut(&id)
                        .expect("re-placed job is routed")
                        .retried = true;
                    self.exec_extras.bump("retries", 1.0);
                } else {
                    self.exec_extras.bump("jobs_requeued", 1.0);
                }
            } else {
                self.route.remove(&id);
                self.lost.insert(id, ExecError::NodeFailed { node });
                self.exec_extras.bump("jobs_lost", 1.0);
            }
        }
    }

    /// Re-place job `id` from its ledger copy onto whichever live node
    /// routing picks (its old node is already closed to routing). The
    /// job keeps its cluster id and restarts unstarted; like every
    /// admission, nothing waits for the node.
    fn replace(&mut self, id: u64) -> Result<(), ExecError> {
        let node = self.pick()?;
        let cloner = self.cloner.expect("a ledger copy implies a cloner");
        let p = self.route.get_mut(&id).expect("a re-placed job is routed");
        let spec = cloner(p.spec.as_ref().expect("a re-placed job has a ledger copy"));
        p.node = node;
        p.started = false;
        self.loads[node] += 1.0;
        self.command(
            node,
            Command::Admit {
                ids: vec![id],
                specs: vec![spec],
            },
        );
        Ok(())
    }

    /// Attribute one node's drained records (and its extras) in
    /// `merged` and push them into `jobs`. Records arrive under cluster
    /// ids; one whose job is now routed to another node is a leaving
    /// node's speculative execution of a moved job and is dropped, and
    /// one with no route entry at all counts as `jobs_orphaned`.
    fn fold_node_records(
        &mut self,
        node: usize,
        recs: Vec<JobStats>,
        extras: ExecExtras,
        jobs: &mut Vec<JobStats>,
        merged: &mut ExecExtras,
    ) {
        let mut kept = 0.0;
        for rec in recs {
            match self.route.get(&rec.id.0).map(|p| p.node) {
                Some(at) if at == node => {
                    self.route.remove(&rec.id.0);
                    jobs.push(rec);
                    kept += 1.0;
                }
                Some(_) => {}
                None => merged.bump("jobs_orphaned", 1.0),
            }
        }
        merged.bump(&format!("node{node}.jobs"), kept);
        if let Some(s) = extras.steals {
            merged.bump(&format!("node{node}.steals"), s as f64);
        }
        if let Some(ev) = extras.events {
            merged.bump(&format!("node{node}.events"), ev as f64);
        }
        attribute_extras(node, &extras, merged);
        merged.absorb(extras);
    }
}

impl<G: Validate> Cluster<G> {
    /// The one admission path of `submit` and `submit_many`: route,
    /// validate, send — and return the tickets without waiting for any
    /// node.
    ///
    /// Each job is routed in batch order against the load view, which
    /// counts it on its node (`+1`) as it goes: exactly what that
    /// node's report would say once it admitted the job, so a batch
    /// routes bit-identically to a loop of `submit`. A shed decision
    /// rolls the view back and admits nothing. Then each node's
    /// sub-batch is validated: an invalid job rejects its node's whole
    /// sub-batch (backend batches are atomic on validation), whose
    /// positions leave the view and take no id, while the other nodes'
    /// sub-batches stand and surface in the next drain. Cluster ids are
    /// dense in batch order over the admitted positions, and each
    /// touched node gets **one** `Admit` frame.
    fn admit(&mut self, specs: Vec<JobSpec<G>>) -> Result<Vec<Ticket>, ExecError> {
        let mut assignment = Vec::with_capacity(specs.len());
        for _ in &specs {
            match self.pick() {
                Ok(node) => {
                    self.loads[node] += 1.0;
                    assignment.push(node);
                }
                Err(e) => {
                    for &node in &assignment {
                        self.loads[node] -= 1.0;
                    }
                    return Err(e);
                }
            }
        }
        let n = self.nodes.len();
        let mut rejected = vec![false; n];
        let mut first_err: Option<ExecError> = None;
        for (spec, &node) in specs.iter().zip(&assignment) {
            if rejected[node] {
                continue;
            }
            if let Err(why) = spec.graph.validate() {
                rejected[node] = true;
                first_err.get_or_insert(on_link(ExecError::Rejected(why.to_string()), node));
            }
        }
        let mut batches: Vec<(Vec<u64>, Vec<JobSpec<G>>)> =
            (0..n).map(|_| (Vec::new(), Vec::new())).collect();
        let mut tickets = Vec::with_capacity(specs.len());
        for (spec, node) in specs.into_iter().zip(assignment) {
            if rejected[node] {
                self.loads[node] -= 1.0;
                continue;
            }
            let id = self.next_job;
            self.next_job += 1;
            self.route.insert(
                id,
                Placement {
                    node,
                    started: false,
                    spec: self.cloner.map(|c| c(&spec)),
                    retried: false,
                },
            );
            let (ids, specs) = &mut batches[node];
            ids.push(id);
            specs.push(spec);
            tickets.push(Ticket::new(self.exec_session, JobId(id)));
        }
        for (node, (ids, specs)) in batches.into_iter().enumerate() {
            if !ids.is_empty() {
                self.command(node, Command::Admit { ids, specs });
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(tickets),
        }
    }
}

/// What [`Cluster::drain_summary`] returns: stream-level counts plus
/// the per-node post-drain snapshots, whose merged sketches carry the
/// cluster-wide percentiles ([`MetricsReport::totals`]).
#[derive(Clone, Debug, PartialEq)]
pub struct DrainSummary {
    /// Completed jobs across the cluster (including records banked by
    /// graceful node removals since the last drain).
    pub jobs: u64,
    /// Tasks those jobs committed.
    pub tasks: u64,
    /// Global stream span: last completion − first arrival across
    /// every node (and banked record), the same quantity
    /// [`das_core::jobs::StreamStats::from_jobs`] reports over the
    /// merged records of a full [`Executor::drain`].
    pub span: f64,
    /// The per-node post-drain snapshots of the live nodes, in
    /// node-index order.
    pub report: MetricsReport,
}

/// Render one [`MetricKind`] of a merged cluster probe as the scalar
/// that lands in the `metrics.<kind>` extras value. This match is the
/// das-lint cross-file contract target for `MetricKind`: adding a
/// metric kind without deciding its cluster merge fails the lint, not
/// a reader of half-populated extras.
pub fn metric_scalar(kind: MetricKind, t: &ExecProbe) -> f64 {
    match kind {
        MetricKind::QueueDepth => t.queue_depth as f64,
        MetricKind::JobsAdmitted => t.jobs_admitted as f64,
        MetricKind::JobsCompleted => t.jobs_completed as f64,
        MetricKind::TasksCompleted => t.tasks_completed as f64,
        MetricKind::Steals => t.steals as f64,
        MetricKind::FailedSteals => t.failed_steals as f64,
        MetricKind::Events => t.events as f64,
        MetricKind::Utilization => t.utilization(),
        MetricKind::PttResidual => t.ptt_residual,
        MetricKind::SojournP50 => t.sojourn.quantile(0.5).unwrap_or(0.0),
        MetricKind::SojournP99 => t.sojourn.quantile(0.99).unwrap_or(0.0),
        MetricKind::QueueingP99 => t.queueing.quantile(0.99).unwrap_or(0.0),
    }
}

/// Attribute a node's snapshot-fault counters (`snapshots_sent` /
/// `snapshots_dropped` / `snapshots_delayed`) under its `node{i}.`
/// prefix in the merged extras, so a fault-gated metrics stream is
/// diagnosable per node, not just in aggregate.
fn attribute_extras(node: usize, extras: &ExecExtras, merged: &mut ExecExtras) {
    for key in ["snapshots_sent", "snapshots_dropped", "snapshots_delayed"] {
        if let Some(v) = extras.get(key) {
            merged.bump(&format!("node{node}.{key}"), v);
        }
    }
}

/// The error for a reply that answers a different command than the
/// one awaited: only a reply arriving after its RPC already timed out
/// can land there.
fn out_of_step(node: usize) -> ExecError {
    ExecError::Failed(format!("node {node}: reply out of step with its command"))
}

impl<G: Validate> Executor for Cluster<G> {
    type Graph = G;

    fn backend(&self) -> &'static str {
        "das-cluster"
    }

    /// Route the job by policy against the dispatcher's load view,
    /// validate it, and send it to its node in one one-way frame. The
    /// ticket means *routed*: the call returns without waiting for the
    /// node, and a node failure surfaces at the next `wait` or drain
    /// on that node, where recovery takes over. Cluster job ids are
    /// dense in submission order across the whole cluster (rejected
    /// jobs consume no id, as on the bare backends). With recovery
    /// enabled a spec copy enters the ledger.
    fn submit(&mut self, spec: JobSpec<G>) -> Result<Ticket, ExecError> {
        let mut tickets = self.admit(vec![spec])?;
        Ok(tickets.pop().expect("an admitted job has a ticket"))
    }

    /// Route a whole batch, then send **one wire message per node with
    /// a non-empty sub-batch** instead of one per job. Routing, ids and
    /// frames follow the one admission path `submit` takes, so the
    /// batch is bit-identical to a loop of `submit`; see
    /// `Cluster::admit` for the shed and rejection semantics. A node
    /// rejecting its sub-batch admits nothing on that node, but the
    /// sub-batches of other nodes stay admitted and surface in the next
    /// drain — their tickets are lost with the error, exactly like a
    /// failed batch on the bare backends.
    fn submit_many(&mut self, specs: Vec<JobSpec<G>>) -> Result<Vec<Ticket>, ExecError> {
        if specs.is_empty() {
            return Err(ExecError::Rejected("empty batch".into()));
        }
        self.admit(specs)
    }

    /// Redeem a ticket against the node its job was routed to; the
    /// returned record carries the cluster job id and consumes the
    /// job's drain record (node-side and in the route table). A node
    /// death discovered by the wait repairs the cluster and retries the
    /// wait wherever the job landed; a job the failure plane could not
    /// save, or its node refused, redeems as that typed error.
    fn wait(&mut self, ticket: Ticket) -> Result<JobStats, ExecError> {
        let id = ticket.job();
        if ticket.session() != self.exec_session {
            return Err(ExecError::UnknownTicket(id));
        }
        loop {
            if let Some(e) = self.lost.remove(&id.0) {
                return Err(e);
            }
            let Some(node) = self.route.get(&id.0).map(|p| p.node) else {
                return Err(ExecError::UnknownTicket(id));
            };
            let err = match self.call(node, Command::Wait(id.0)) {
                Ok(Ack::Waited(stats)) => {
                    self.route.remove(&id.0);
                    return Ok(stats);
                }
                Err(ExecError::NodeFailed { .. }) => {
                    // Repair and retry: the waited job either re-placed
                    // (loop waits on its new node) or is now in the
                    // lost set (loop returns the typed failure).
                    self.handle_node_down(node);
                    continue;
                }
                Err(e @ ExecError::Timeout { .. }) => return Err(e),
                // The node no longer holds the job: it refused it (the
                // refusal was settled on the way), or it never had it.
                Err(ExecError::UnknownTicket(_)) => self
                    .lost
                    .remove(&id.0)
                    .unwrap_or(ExecError::UnknownTicket(id)),
                Err(e) => e,
                Ok(_) => out_of_step(node),
            };
            self.route.remove(&id.0);
            return Err(err);
        }
    }

    /// Drain every live node and merge the per-node results. Each node
    /// answers with one reply carrying its drained stream and extras.
    /// A node death found by the drain requeues its stranded jobs onto
    /// survivors and triggers another round, so the stream still
    /// completes (deaths are handled only *after* a round's replies
    /// are all consumed — recovery traffic must not interleave with
    /// pending drain replies). A missing reply within the RPC deadline
    /// is a typed [`ExecError::Timeout`], never a hang — the fix for
    /// the forever-blocking drain of the collective design. On a node
    /// *error* (not death) the whole drain fails and the outstanding
    /// jobs of the failed batch are lost (mirroring the bare
    /// simulator's batch-failure semantics).
    fn drain(&mut self) -> Result<StreamStats, ExecError> {
        let mut jobs = std::mem::take(&mut self.banked_jobs);
        let mut merged = std::mem::take(&mut self.banked_extras);
        let mut failures: Vec<(usize, ExecError)> = Vec::new();
        let mut hard_err: Option<ExecError> = None;
        self.rounds(
            || Command::Drain,
            |this, node, reply| match reply {
                Ok(Ack::Drained(stats, extras)) => {
                    this.fold_node_records(node, stats.jobs, extras, &mut jobs, &mut merged);
                }
                Err(e @ ExecError::Timeout { .. }) => {
                    hard_err.get_or_insert(e);
                }
                Err(e) => failures.push((node, e)),
                Ok(_) => failures.push((node, out_of_step(node))),
            },
        );
        // Route entries left over after a full drain belong to jobs an
        // *earlier failed batch* lost (a `wait` that returned `Failed`
        // loses its node's whole pending batch, but the dispatcher only
        // learns about the waited job), or to a drain that failed or
        // timed out: drop them, exactly as the bare simulator forgets a
        // failed batch — their tickets redeem as `UnknownTicket` from
        // here on. (Jobs recorded as lost stay in the lost set and keep
        // redeeming as their typed error.)
        self.route.clear();
        if let Some(e) = hard_err {
            // A silent node leaves the drained state unknowable: drop
            // this cycle's bookkeeping and surface the typed error.
            return Err(e);
        }
        if !failures.is_empty() {
            // Node errors arrive attributed (`node {i}: …`, see
            // `wire::on_link`); join their reasons.
            let why = failures
                .iter()
                .map(|(node, e)| match e {
                    ExecError::Rejected(why) | ExecError::Failed(why) => why.clone(),
                    other => format!("node {node}: {other}"),
                })
                .collect::<Vec<_>>()
                .join("; ");
            return Err(ExecError::Failed(why));
        }
        self.exec_extras.absorb(merged);
        // The cluster size is a fact, not a counter: write it with set
        // semantics *after* the absorb so repeated drains between two
        // `take_extras` calls do not sum it into nonsense.
        self.exec_extras.set("nodes", self.live_nodes() as f64);
        self.flatten_metrics();
        Ok(StreamStats::from_jobs(jobs))
    }

    fn take_extras(&mut self) -> ExecExtras {
        std::mem::take(&mut self.exec_extras)
    }

    /// The merged cluster probe: the bin-wise sum of every node's
    /// latest snapshot (order-insensitive and exact — the sketches are
    /// integer counts). `None` until any node has delivered a snapshot,
    /// so a metrics-off cluster reports exactly like a metrics-off
    /// backend.
    fn metrics_probe(&mut self) -> Option<ExecProbe> {
        let report = self.metrics_report();
        (!report.nodes.is_empty()).then(|| report.totals())
    }
}

impl<G> Drop for Cluster<G> {
    fn drop(&mut self) {
        for node in 0..self.nodes.len() {
            if self.alive[node] {
                self.command(node, Command::Shutdown);
            }
        }
        for slot in &mut self.nodes {
            if let Some(agent) = slot.agent.take() {
                let _ = agent.join();
            }
        }
    }
}

/// Spawn one node: a private 2-rank link and the agent thread. The
/// thread body runs under `catch_unwind`: on a panic (a scheduled kill,
/// or an agent bug) the wrapper publishes the down flag — `Release`,
/// paired with the dispatcher's `Acquire` in `rpc_recv` — and sends the
/// death frame as its last frame, so the dispatcher's next read on this
/// link observes the death deterministically instead of timing out.
fn spawn_node<E>(
    i: usize,
    exec: E,
    plane: FaultPlane,
    metrics: Option<MetricsConfig>,
) -> NodeSlot<E::Graph>
where
    E: Executor + Send + 'static,
    E::Graph: Send + 'static,
{
    let comm = Communicator::typed(2);
    let agent_ep = comm.endpoint(NODE);
    let last_frame_ep = agent_ep.clone();
    let down = Arc::new(AtomicBool::new(false));
    let down_agent = Arc::clone(&down);
    let agent = std::thread::Builder::new()
        .name(format!("das-cluster-node-{i}"))
        .spawn(move || {
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                node_agent(i, exec, agent_ep, plane, metrics);
            }));
            if run.is_err() {
                down_agent.store(true, Ordering::Release);
                post(&last_frame_ep, DISPATCHER, Frame::Reply(Reply::NodeDown));
            }
        })
        .expect("spawn cluster node agent");
    NodeSlot {
        ep: comm.endpoint(DISPATCHER),
        down,
        agent: Some(agent),
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// Run one executor-contract operation on the node agent, turning an
/// executor panic (a runtime node's `wait` re-raises task-body panics)
/// into a typed [`ExecError::Failed`] that carries the panic message.
fn run_op<T>(f: impl FnOnce() -> Result<T, ExecError>) -> Result<T, ExecError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        Err(ExecError::Failed(format!(
            "node executor panicked: {}",
            panic_text(payload.as_ref())
        )))
    })
}

/// The agent's snapshot-cadence state while its session has metrics
/// enabled: the sequence counter, admissions since the last snapshot,
/// the last snapshot actually sent (what a `DelayLoadReports` fault
/// re-sends), and the fault-attribution counters since the last drain.
struct SnapState {
    cfg: MetricsConfig,
    seq: u64,
    since: u64,
    last_sent: Option<NodeSnapshot>,
    sent: f64,
    dropped: f64,
    delayed: f64,
}

impl SnapState {
    fn new(cfg: MetricsConfig) -> Self {
        SnapState {
            cfg,
            seq: 0,
            since: 0,
            last_sent: None,
            sent: 0.0,
            dropped: 0.0,
            delayed: 0.0,
        }
    }

    /// Count `admitted` jobs toward the cadence; `true` when a
    /// snapshot is due.
    fn admitted(&mut self, admitted: u64) -> bool {
        self.since += admitted;
        self.since >= self.cfg.snapshot_every
    }

    /// Stamp the attribution counters onto the drain-bound extras and
    /// reset them — each drain reports the delta since the previous
    /// one, so the dispatcher's per-node bumps never double-count.
    fn stamp_attribution(&mut self, extras: &mut ExecExtras) {
        for (key, v) in [
            ("snapshots_sent", &mut self.sent),
            ("snapshots_dropped", &mut self.dropped),
            ("snapshots_delayed", &mut self.delayed),
        ] {
            if *v != 0.0 {
                extras.bump(key, *v);
                *v = 0.0;
            }
        }
    }
}

/// One node's agent: owns the node's executor and its end of the link,
/// and holds the node-local tickets (which live, and die, here) under
/// their cluster job ids. The outstanding-job count it reports is the
/// number of tickets held.
struct Agent<E: Executor> {
    node: usize,
    exec: E,
    ep: Endpoint<Frame<E::Graph>>,
    plane: FaultPlane,
    /// Held tickets, by cluster job id.
    tickets: HashMap<u64, Ticket>,
    /// Cluster job id of each held job, by node-local id: how drained
    /// records get their cluster ids back.
    cluster_ids: HashMap<u64, u64>,
    last_load: f64,
    /// The newest load report and snapshot not yet delivered; they go
    /// out ahead of the next reply or refusal.
    out_load: Option<f64>,
    out_snap: Option<NodeSnapshot>,
    snap: Option<SnapState>,
}

/// The node agent loop: serve dispatcher commands until `Shutdown`,
/// one reply each, except admissions, which are answered only by a
/// refusal. The agent consults its [`FaultPlane`] at every admission,
/// load report and reply — all triggers are logical (counts, not
/// clocks), so injected faults reproduce bit-exactly.
fn node_agent<E: Executor>(
    node: usize,
    exec: E,
    ep: Endpoint<Frame<E::Graph>>,
    plane: FaultPlane,
    metrics: Option<MetricsConfig>,
) {
    let mut agent = Agent {
        node,
        exec,
        ep,
        plane,
        tickets: HashMap::new(),
        cluster_ids: HashMap::new(),
        last_load: 0.0,
        out_load: None,
        out_snap: None,
        snap: metrics.map(SnapState::new),
    };
    loop {
        // block-ok: the agent's idle state is "parked on the control
        // link"; `Cluster::drop` always sends `Command::Shutdown` as its
        // last frame, so this recv is bounded by dispatcher lifetime.
        let Frame::Command(cmd) = agent.ep.recv(DISPATCHER, T_CTRL) else {
            unreachable!("only commands travel on T_CTRL");
        };
        let reply = match cmd {
            Command::Shutdown => return,
            Command::Admit { ids, specs } => {
                agent.admit(ids, specs);
                continue;
            }
            // Only the waited job leaves the count, even when the wait
            // fails. On a batch backend a `Failed` wait lost the node's
            // whole pending batch, so until the next drain this node
            // reports phantom backlog — deliberate: the remaining
            // tickets must stay redeemable (on a pool backend the
            // siblings of a panicked job are alive and genuinely
            // outstanding, so resyncing here would corrupt *their*
            // waits), and steering new jobs away from a node that just
            // failed a batch is the right routing bias anyway.
            Command::Wait(id) => {
                let reply = match agent.tickets.remove(&id) {
                    Some(ticket) => {
                        agent.cluster_ids.remove(&ticket.job().0);
                        run_op(|| agent.exec.wait(ticket)).map(|mut stats| {
                            stats.id = JobId(id);
                            Ack::Waited(stats)
                        })
                    }
                    None => Err(ExecError::UnknownTicket(JobId(id))),
                };
                agent.report(None);
                reply
            }
            Command::Drain => {
                let drained = run_op(|| agent.exec.drain()).map(|mut stats| {
                    for rec in &mut stats.jobs {
                        if let Some(&id) = agent.cluster_ids.get(&rec.id.0) {
                            rec.id = JobId(id);
                        }
                    }
                    stats
                });
                let (extras, _) = agent.close_epoch();
                drained.map(|stats| Ack::Drained(stats, extras))
            }
            Command::DrainSummary => {
                let drained = run_op(|| agent.exec.drain());
                let (extras, snapshot) = agent.close_epoch();
                // The reply carries the post-drain snapshot outright (on
                // the ack plane, so only `DropAcks` gates it); the
                // fault-gated T_METRICS copy shares it.
                let snapshot = snapshot.unwrap_or_else(|| NodeSnapshot {
                    node: node as u64,
                    seq: 0,
                    probe: agent.exec.metrics_probe().unwrap_or_default(),
                });
                drained.map(|stats| {
                    Ack::Summary(Box::new(Summary {
                        jobs: stats.jobs.len() as u64,
                        tasks: stats.tasks as u64,
                        t0: stats
                            .jobs
                            .iter()
                            .map(|j| j.arrival)
                            .fold(f64::INFINITY, f64::min),
                        t1: stats.jobs.iter().map(|j| j.completed).fold(0.0, f64::max),
                        extras,
                        snapshot,
                    }))
                })
            }
            // A pull is not an admission edge and changes no
            // outstanding count: no load report is taken for it.
            Command::PullTrace => Ok(Ack::Trace(agent.exec.take_trace_spans())),
        };
        agent.flush_reports();
        // A `DropAcks` fault withholds the reply (the dispatcher then
        // surfaces a typed timeout).
        if !agent.plane.drop_ack() {
            post(&agent.ep, DISPATCHER, Frame::Reply(Reply::Ack(reply)));
        }
    }
}

impl<E: Executor> Agent<E> {
    /// Admit jobs under their cluster ids. Nothing goes back unless
    /// the backend refuses them: then the refusal, with the pending
    /// reports ahead of it, is the one reply the admission causes.
    /// Refusals are never withheld by `DropAcks` — they are the only
    /// trace of the refused jobs.
    fn admit(&mut self, ids: Vec<u64>, specs: Vec<JobSpec<E::Graph>>) {
        self.kill_if_due(ids.len() as u64);
        let held = self.tickets.len();
        // One job takes the backend's `submit`, a batch its
        // `submit_many` — the calls a client of the bare backend makes.
        let admitted = run_op(|| match <[_; 1]>::try_from(specs) {
            Ok([spec]) => self.exec.submit(spec).map(|t| vec![t]),
            Err(specs) => self.exec.submit_many(specs),
        });
        let refused = match admitted {
            Ok(tickets) => {
                for (&id, ticket) in ids.iter().zip(tickets) {
                    self.cluster_ids.insert(ticket.job().0, id);
                    self.tickets.insert(id, ticket);
                }
                None
            }
            Err(e) => Some(e),
        };
        self.after_admission(held);
        if let Some(e) = refused {
            self.flush_reports();
            post(&self.ep, DISPATCHER, Frame::Refused(ids, e));
        }
    }

    /// Die by the fault plane's scheduled `Kill` when admitting `jobs`
    /// more jobs reaches its trigger.
    fn kill_if_due(&mut self, jobs: u64) {
        if self.plane.on_admit(jobs) {
            // fault-ok: the scheduled Kill fault takes this agent down
            // by design — the spawn wrapper catches the panic,
            // publishes the down flag and sends the death frame the
            // dispatcher reads at its next sync on this link.
            panic!(
                "fault plane: killed after {} admitted jobs",
                self.plane.admitted()
            );
        }
    }

    /// After an admission that found `held` tickets: count the newly
    /// admitted jobs toward the snapshot cadence, then report.
    fn after_admission(&mut self, held: usize) {
        let admitted = (self.tickets.len() - held) as u64;
        let snap = self.snapshot_if_due(admitted, false);
        self.report(snap);
    }

    /// End a drain epoch: the node holds no tickets any more, always
    /// snapshots (post-drain, so the probe includes everything the
    /// drain completed) and reports, and its extras leave the executor
    /// — with the snapshot attribution counters since the last drain —
    /// whether the drain succeeded or not. Returns the extras and the
    /// snapshot (`None` while metrics are off).
    fn close_epoch(&mut self) -> (ExecExtras, Option<NodeSnapshot>) {
        self.tickets.clear();
        self.cluster_ids.clear();
        let snap = self.snapshot_if_due(0, true);
        self.report(snap.clone());
        let mut extras = self.exec.take_extras();
        if let Some(s) = &mut self.snap {
            s.stamp_attribution(&mut extras);
        }
        (extras, snap)
    }

    /// Build the node's metrics snapshot when one is due: `force`
    /// (drain epochs) or the cadence reaching `cfg.snapshot_every`
    /// admitted jobs — both logical triggers, never wall-clock. `None`
    /// while metrics are off or the cadence has not elapsed. The
    /// executor's probe is cumulative, so a snapshot is a read, not a
    /// drain; a backend without metrics state contributes the all-zero
    /// probe.
    fn snapshot_if_due(&mut self, admitted: u64, force: bool) -> Option<NodeSnapshot> {
        let s = self.snap.as_mut()?;
        let due = s.admitted(admitted);
        if !(due || force) {
            return None;
        }
        let snap = NodeSnapshot {
            node: self.node as u64,
            seq: s.seq,
            probe: self.exec.metrics_probe().unwrap_or_default(),
        };
        s.seq += 1;
        s.since = 0;
        Some(snap)
    }

    /// Take this node's state report — `snapshot` if one is due, then
    /// the load — as the fault plane allows: a `Slow` fault inflates
    /// the reported load (steering the policies away, the deterministic
    /// stand-in for a degraded node), `DropLoadReports` withholds the
    /// pair, `DelayLoadReports` re-sends the previous (stale) pair. The
    /// snapshot and the load report share **one** drop/delay decision
    /// (the same tokens are consumed whether or not metrics are on, so
    /// fault schedules reproduce identically either way). The pair is
    /// not posted here: it replaces the undelivered one, and
    /// [`Agent::flush_reports`] delivers the newest ahead of the next
    /// reply.
    fn report(&mut self, snapshot: Option<NodeSnapshot>) {
        let value = self.tickets.len() as f64 * self.plane.slow_factor();
        let dropped = self.plane.drop_load_report();
        let delayed = !dropped && self.plane.delay_load_report();
        if let (Some(state), Some(snap)) = (&mut self.snap, snapshot) {
            if dropped {
                state.dropped += 1.0;
            } else if delayed {
                state.delayed += 1.0;
                if let Some(prev) = &state.last_sent {
                    self.out_snap = Some(prev.clone());
                }
            } else {
                state.sent += 1.0;
                state.last_sent = Some(snap.clone());
                self.out_snap = Some(snap);
            }
        }
        if dropped {
            return;
        }
        if !delayed {
            self.last_load = value;
        }
        self.out_load = Some(self.last_load);
    }

    /// Deliver the undelivered snapshot and load report, the snapshot
    /// first — the dispatcher's keep-latest reads then never see a load
    /// value fresher than the snapshot beside it.
    fn flush_reports(&mut self) {
        if let Some(snap) = self.out_snap.take() {
            post(&self.ep, DISPATCHER, Frame::Snapshot(snap));
        }
        if let Some(load) = self.out_load.take() {
            post(&self.ep, DISPATCHER, Frame::Load(load));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use das_core::{FaultSchedule, Policy, TaskTypeId};
    use das_dag::generators;
    use das_topology::Topology;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn base_session(seed: u64) -> SessionBuilder {
        SessionBuilder::new(Arc::new(Topology::tx2()), Policy::DamC).seed(seed)
    }

    fn chain_job(j: usize) -> JobSpec<Dag> {
        JobSpec::new(generators::chain(TaskTypeId(0), 4)).at(j as f64 * 1e-3)
    }

    #[test]
    fn round_robin_attributes_jobs_evenly() {
        let mut cluster = ClusterBuilder::new(base_session(1), 3)
            .route(RoutePolicy::RoundRobin)
            .build_sim();
        for j in 0..6 {
            Executor::submit(&mut cluster, chain_job(j)).unwrap();
        }
        let stats = cluster.drain().unwrap();
        assert_eq!(stats.jobs.len(), 6);
        assert_eq!(stats.tasks, 24);
        // Cluster ids are dense in submission order.
        let ids: Vec<u64> = stats.jobs.iter().map(|j| j.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
        let extras = cluster.take_extras();
        assert_eq!(extras.get("nodes"), Some(3.0));
        for node in 0..3 {
            assert_eq!(
                extras.get(&format!("node{node}.jobs")),
                Some(2.0),
                "round-robin must spread 6 jobs as 2+2+2"
            );
        }
        assert!(extras.events.unwrap() > 0, "sim nodes report events");
    }

    #[test]
    fn least_outstanding_balances_an_unwaited_stream() {
        let mut cluster = ClusterBuilder::new(base_session(2), 4)
            .route(RoutePolicy::LeastOutstanding)
            .build_sim();
        for j in 0..12 {
            Executor::submit(&mut cluster, chain_job(j)).unwrap();
        }
        cluster.drain().unwrap();
        let extras = cluster.take_extras();
        for node in 0..4 {
            assert_eq!(
                extras.get(&format!("node{node}.jobs")),
                Some(3.0),
                "the dispatcher's own load view makes least-outstanding exact"
            );
        }
    }

    #[test]
    fn wait_consumes_and_stale_or_foreign_tickets_are_rejected() {
        let mut cluster = ClusterBuilder::new(base_session(3), 2).build_sim();
        let t0 = Executor::submit(&mut cluster, chain_job(0)).unwrap();
        let t1 = Executor::submit(&mut cluster, chain_job(1)).unwrap();
        let (id0, session) = (t0.job(), t0.session());
        assert!(cluster.node_of(&t0).is_some());
        let s0 = Executor::wait(&mut cluster, t0).unwrap();
        assert_eq!(s0.id, id0);
        assert_eq!(s0.tasks, 4);
        // Only the un-waited job remains for drain, under its cluster id.
        let rest = cluster.drain().unwrap();
        assert_eq!(rest.jobs.len(), 1);
        assert_eq!(rest.jobs[0].id, t1.job());
        // A consumed id is unknown afterwards…
        let stale = Ticket::new(session, id0);
        assert_eq!(
            Executor::wait(&mut cluster, stale),
            Err(ExecError::UnknownTicket(id0))
        );
        // …and a ticket from a different executor session is rejected.
        let mut other = ClusterBuilder::new(base_session(3), 2).build_sim();
        let foreign = Executor::submit(&mut other, chain_job(0)).unwrap();
        assert_eq!(
            Executor::wait(&mut cluster, foreign),
            Err(ExecError::UnknownTicket(JobId(0)))
        );
    }

    #[test]
    fn rejections_surface_with_the_node_detail_and_consume_no_id() {
        let mut cluster = ClusterBuilder::new(base_session(4), 2).build_sim();
        let err = Executor::submit(&mut cluster, JobSpec::new(Dag::new("empty"))).unwrap_err();
        // The node's typed error crosses the link; only the node is
        // added to its reason.
        assert_eq!(err, ExecError::Rejected("node 0: DAG has no tasks".into()));
        assert_eq!(
            err.to_string(),
            "job rejected: node 0: DAG has no tasks",
            "the variant prefix appears once"
        );
        // The failed submission consumed no cluster id.
        let ok = Executor::submit(&mut cluster, chain_job(0)).unwrap();
        assert_eq!(ok.job(), JobId(0));
        assert_eq!(Executor::wait(&mut cluster, ok).unwrap().tasks, 4);
    }

    #[test]
    fn a_refused_admission_redeems_as_the_node_error() {
        // The dispatcher sheds at the sessions' bounds (none here), but
        // this node's executor enforces a bound of 1 of its own: it
        // refuses the second job, and that refusal — the one frame an
        // admission can cause — surfaces at the next sync point.
        let mut cluster = ClusterBuilder::new(base_session(37), 1)
            .build_with(|_, session| Simulator::from_session(&session.clone().max_outstanding(1)));
        let t0 = Executor::submit(&mut cluster, chain_job(0)).unwrap();
        let t1 = Executor::submit(&mut cluster, chain_job(1)).unwrap();
        assert_eq!(
            Executor::wait(&mut cluster, t1),
            Err(ExecError::Overloaded {
                outstanding: 1,
                limit: 1
            })
        );
        assert_eq!(Executor::wait(&mut cluster, t0).unwrap().tasks, 4);
        assert!(cluster.drain().unwrap().jobs.is_empty());
        assert_eq!(cluster.take_extras().get("jobs_refused"), Some(1.0));
    }

    #[test]
    fn runtime_cluster_executes_real_task_bodies() {
        let sessions = (0..2)
            .map(|i| SessionBuilder::new(Arc::new(Topology::symmetric(2)), Policy::Rws).seed(i))
            .collect();
        let mut cluster = ClusterBuilder::from_sessions(sessions)
            .route(RoutePolicy::RoundRobin)
            .build_runtime();
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..4 {
            let mut g = TaskGraph::new("job");
            let h = Arc::clone(&hits);
            let root = g.add(
                TaskTypeId(0),
                das_core::Priority::Low,
                move |ctx: &das_runtime::TaskCtx| {
                    if ctx.rank == 0 {
                        h.fetch_add(1, Ordering::Relaxed); // relaxed-ok: test counter; wait() joins every task before the read
                    }
                },
            );
            let h = Arc::clone(&hits);
            let leaf = g.add(
                TaskTypeId(0),
                das_core::Priority::High,
                move |ctx: &das_runtime::TaskCtx| {
                    if ctx.rank == 0 {
                        h.fetch_add(1, Ordering::Relaxed); // relaxed-ok: test counter; wait() joins every task before the read
                    }
                },
            );
            g.add_edge(root, leaf);
            Executor::submit(&mut cluster, JobSpec::new(g)).unwrap();
        }
        let stats = cluster.drain().unwrap();
        assert_eq!(stats.jobs.len(), 4);
        assert_eq!(stats.tasks, 8);
        assert_eq!(hits.load(Ordering::Relaxed), 8); // relaxed-ok: read after wait(); job completion orders the counters
        let extras = cluster.take_extras();
        assert_eq!(extras.events, None, "runtime nodes report no sim events");
        assert!(extras.steals.is_some());
    }

    #[test]
    fn runtime_task_panics_surface_their_message_and_the_node_keeps_serving() {
        let session = SessionBuilder::new(Arc::new(Topology::symmetric(2)), Policy::Rws).seed(1);
        let mut cluster = ClusterBuilder::new(session, 1).build_runtime();
        let mut bad = TaskGraph::new("bad");
        bad.add(
            TaskTypeId(0),
            das_core::Priority::Low,
            |_: &das_runtime::TaskCtx| panic!("boom-4242"),
        );
        let t = Executor::submit(&mut cluster, JobSpec::new(bad)).unwrap();
        assert_eq!(
            Executor::wait(&mut cluster, t),
            Err(ExecError::Failed(
                "node 0: node executor panicked: boom-4242".into()
            ))
        );
        let mut good = TaskGraph::new("good");
        good.add(
            TaskTypeId(0),
            das_core::Priority::Low,
            |_: &das_runtime::TaskCtx| {},
        );
        let t = Executor::submit(&mut cluster, JobSpec::new(good)).unwrap();
        assert_eq!(Executor::wait(&mut cluster, t).unwrap().tasks, 1);
        assert!(cluster.is_alive(0));
    }

    #[test]
    fn repeated_drains_keep_nodes_a_fact_and_counters_counting() {
        // "nodes" is the cluster size, not a counter: two drain cycles
        // between take_extras calls must not sum it to 2N — while the
        // genuine counters (per-node job attribution) do accumulate.
        let mut cluster = ClusterBuilder::new(base_session(8), 3)
            .route(RoutePolicy::RoundRobin)
            .build_sim();
        for round in 0..2 {
            for j in 0..6 {
                Executor::submit(&mut cluster, chain_job(round * 6 + j)).unwrap();
            }
            cluster.drain().unwrap();
        }
        let extras = cluster.take_extras();
        assert_eq!(extras.get("nodes"), Some(3.0), "size, not a sum");
        for node in 0..3 {
            assert_eq!(
                extras.get(&format!("node{node}.jobs")),
                Some(4.0),
                "attribution accumulates across drains"
            );
        }
    }

    #[test]
    fn failed_node_batch_loses_its_jobs_without_poisoning_the_cluster() {
        // A sim node whose batch trips the event budget: the waited job
        // surfaces `Failed`, its lost siblings disappear (UnknownTicket,
        // like the bare simulator's failed batch), and the next drain —
        // which must NOT invent records for the never-reported route
        // entries — returns empty and leaves the cluster serving new
        // jobs. (The recovery ledger is consulted only on node *death*,
        // never on a failed batch.)
        let mut cluster = ClusterBuilder::new(base_session(9), 1).build_with(|_, session| {
            let mut sim = Simulator::from_session(session);
            sim.max_events = 5; // far below any real batch
            sim
        });
        let t0 = Executor::submit(&mut cluster, chain_job(0)).unwrap();
        let t1 = Executor::submit(&mut cluster, chain_job(1)).unwrap();
        assert!(matches!(
            Executor::wait(&mut cluster, t0),
            Err(ExecError::Failed(_))
        ));
        let stats = cluster.drain().expect("drain survives the lost batch");
        assert!(stats.jobs.is_empty(), "failed batch reports no records");
        assert_eq!(
            Executor::wait(&mut cluster, t1),
            Err(ExecError::UnknownTicket(JobId(1))),
            "lost sibling redeems as unknown, exactly like the bare sim"
        );
    }

    #[test]
    fn drain_failure_diagnostics_name_only_the_failing_node() {
        // Node 0 is healthy but once rejected an empty graph; node 1
        // trips its event budget at drain. The drain error must blame
        // node 1 and must not drag in node 0's long-resolved rejection.
        let mut cluster = ClusterBuilder::new(base_session(10), 2)
            .route(RoutePolicy::RoundRobin)
            .build_with(|i, session| {
                let mut sim = Simulator::from_session(session);
                if i == 1 {
                    sim.max_events = 5;
                }
                sim
            });
        // Routed to node 0: rejection sets its error slot…
        assert!(matches!(
            Executor::submit(&mut cluster, JobSpec::new(Dag::new("empty"))),
            Err(ExecError::Rejected(_))
        ));
        // …then two good submissions (node 1, then node 0 — clearing
        // node 0's slot on its successful op).
        Executor::submit(&mut cluster, chain_job(0)).unwrap();
        Executor::submit(&mut cluster, chain_job(1)).unwrap();
        match cluster.drain() {
            Err(ExecError::Failed(why)) => {
                assert!(why.contains("node 1"), "{why}");
                assert!(
                    !why.contains("node 0"),
                    "stale healthy-node error leaked: {why}"
                );
            }
            other => panic!("expected the budget-tripped drain to fail, got {other:?}"),
        }
        // The cluster keeps serving after the failed drain (round-robin
        // sends the first post-drain job back to the still-crippled
        // node 1; the next one lands on healthy node 0 and completes).
        let doomed = Executor::submit(&mut cluster, chain_job(2)).unwrap();
        let ok = Executor::submit(&mut cluster, chain_job(3)).unwrap();
        assert_eq!(Executor::wait(&mut cluster, ok).unwrap().tasks, 4);
        assert!(matches!(
            Executor::wait(&mut cluster, doomed),
            Err(ExecError::Failed(_))
        ));
    }

    #[test]
    fn drop_with_outstanding_jobs_does_not_hang() {
        let mut cluster = ClusterBuilder::new(base_session(5), 2).build_sim();
        for j in 0..3 {
            Executor::submit(&mut cluster, chain_job(j)).unwrap();
        }
        drop(cluster); // pending sim batches are discarded, agents join
    }

    #[test]
    fn po2_routing_is_reproducible_across_identical_clusters() {
        let run = || {
            let mut cluster = ClusterBuilder::new(base_session(6), 4)
                .route(RoutePolicy::PowerOfTwo)
                .route_seed(99)
                .build_sim();
            for j in 0..16 {
                Executor::submit(&mut cluster, chain_job(j)).unwrap();
            }
            cluster.drain().unwrap();
            let extras = cluster.take_extras();
            (0..4)
                .map(|n| extras.get(&format!("node{n}.jobs")).unwrap_or(0.0))
                .collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run());
        assert_eq!(a.iter().sum::<f64>(), 16.0);
    }

    #[test]
    fn seeded_kill_requeues_onto_survivors() {
        // kill(2, 1): node 2 admits one job (2), then dies at its second
        // admission (5); job 8 goes to the dead link too. Admission is
        // one-way, so the death surfaces at the drain, which requeues
        // all three (none had begun) and completes the stream on nodes
        // 0 and 1.
        let base = base_session(21).fault_schedule(FaultSchedule::new(21).kill(2, 1));
        let mut cluster = ClusterBuilder::new(base, 3)
            .route(RoutePolicy::RoundRobin)
            .build_sim();
        for j in 0..9 {
            Executor::submit(&mut cluster, chain_job(j)).unwrap();
        }
        assert_eq!(cluster.live_nodes(), 3, "no sync point has read node 2 yet");
        let stats = cluster.drain().unwrap();
        assert_eq!(stats.jobs.len(), 9, "every job completes on survivors");
        let ids: Vec<u64> = stats.jobs.iter().map(|j| j.id.0).collect();
        assert_eq!(ids, (0..9).collect::<Vec<_>>(), "ids stay dense");
        let extras = cluster.take_extras();
        assert_eq!(extras.get("node2.failed"), Some(1.0));
        assert_eq!(extras.get("jobs_requeued"), Some(3.0));
        assert_eq!(extras.get("retries"), None);
        assert_eq!(extras.get("jobs_lost"), None);
        assert_eq!(extras.get("nodes"), Some(2.0), "live count after the kill");
    }

    #[test]
    fn membership_churn_between_drains() {
        let mut cluster = ClusterBuilder::new(base_session(22), 2)
            .route(RoutePolicy::RoundRobin)
            .build_sim();
        for j in 0..4 {
            Executor::submit(&mut cluster, chain_job(j)).unwrap();
        }
        let added = cluster.add_node(&base_session(22));
        assert_eq!(added, 2);
        assert_eq!(cluster.live_nodes(), 3);
        cluster.remove_node(0).unwrap();
        assert!(!cluster.is_alive(0));
        for j in 4..8 {
            Executor::submit(&mut cluster, chain_job(j)).unwrap();
        }
        let stats = cluster.drain().unwrap();
        assert_eq!(stats.jobs.len(), 8, "no job lost across churn");
        let extras = cluster.take_extras();
        assert_eq!(extras.get("node0.removed"), Some(1.0));
        assert_eq!(
            extras.get("jobs_requeued"),
            Some(2.0),
            "node 0's pending queue moved onto peers"
        );
        assert_eq!(extras.get("nodes"), Some(2.0));
        // Removing a dead slot or the whole fleet is rejected.
        assert!(matches!(
            cluster.remove_node(0),
            Err(ExecError::Rejected(_))
        ));
        cluster.remove_node(1).unwrap();
        assert!(matches!(
            cluster.remove_node(2),
            Err(ExecError::Rejected(_))
        ));
    }

    #[test]
    fn dropped_acks_surface_as_typed_timeout() {
        let base = base_session(23).fault_schedule(FaultSchedule::new(23).drop_acks(0, 1));
        let mut cluster = ClusterBuilder::new(base, 1)
            .rpc_deadline(Duration::from_millis(2))
            .rpc_attempts(2)
            .build_sim();
        // An admission sends no ack, so it spends no token: the wait's
        // reply is the first one withheld.
        let t = Executor::submit(&mut cluster, chain_job(0)).unwrap();
        let err = Executor::wait(&mut cluster, t).unwrap_err();
        assert!(matches!(err, ExecError::Timeout { .. }), "{err:?}");
        // The node served the wait — the record left with the withheld
        // reply — so the drain finds nothing, and nothing is orphaned.
        let stats = cluster.drain().unwrap();
        assert!(stats.jobs.is_empty());
        let extras = cluster.take_extras();
        assert_eq!(extras.get("jobs_orphaned"), None);
    }

    #[test]
    fn drain_deadline_turns_a_silent_node_into_a_typed_error() {
        // Node 1 swallows its drain ack. The old collective epilogue
        // would block forever; the bounded RPC surfaces ExecError::Timeout.
        let base = base_session(24).fault_schedule(FaultSchedule::new(24).drop_acks(1, 1));
        let mut cluster = ClusterBuilder::new(base, 2)
            .route(RoutePolicy::RoundRobin)
            .rpc_deadline(Duration::from_millis(2))
            .rpc_attempts(2)
            .build_sim();
        Executor::submit(&mut cluster, chain_job(0)).unwrap();
        let err = cluster.drain().unwrap_err();
        assert!(matches!(err, ExecError::Timeout { .. }), "{err:?}");
    }

    #[test]
    fn metrics_snapshots_stream_to_the_dispatcher_and_merge() {
        let base = base_session(31).metrics(MetricsConfig::default().every(2));
        let mut cluster = ClusterBuilder::new(base, 2)
            .route(RoutePolicy::RoundRobin)
            .build_sim();
        let mut tickets: Vec<Ticket> = (0..6)
            .map(|j| Executor::submit(&mut cluster, chain_job(j)).unwrap())
            .collect();
        // Snapshots travel with a node's replies: before any sync point
        // the dispatcher has none.
        assert!(cluster.metrics_report().nodes.is_empty());
        // Waiting on node 0's first job delivers the cadence snapshot
        // (every 2 admissions) node 0 took at its 2nd admission of 3.
        Executor::wait(&mut cluster, tickets.remove(0)).unwrap();
        let report = cluster.metrics_report();
        assert_eq!(report.nodes.len(), 1, "only node 0 has replied");
        assert_eq!(report.nodes[0].node, 0);
        assert_eq!(report.totals().jobs_admitted, 2);
        let stats = cluster.drain().unwrap();
        assert_eq!(stats.jobs.len(), 5, "the waited job left with its wait");
        // The drain-epoch snapshots carry completions and sketches; the
        // probes are cumulative, so the waited job counts too.
        let totals = cluster.metrics_probe().expect("metrics on");
        assert_eq!(totals.jobs_completed, 6);
        assert_eq!(totals.sojourn.count(), 6);
        // The merged report is flattened into extras: one
        // `metrics.<kind>` value per MetricKind.
        let extras = cluster.take_extras();
        for kind in MetricKind::ALL {
            assert!(
                extras.get(&format!("metrics.{}", kind.name())).is_some(),
                "metrics.{} missing from extras",
                kind.name()
            );
        }
        assert_eq!(extras.get("metrics.jobs_completed"), Some(6.0));
        assert_eq!(extras.get("snapshots_sent"), Some(totals_sent(&extras)));
    }

    /// Sum of the per-node snapshot attribution, which must equal the
    /// cluster-total counter.
    fn totals_sent(extras: &ExecExtras) -> f64 {
        (0..8)
            .filter_map(|i| extras.get(&format!("node{i}.snapshots_sent")))
            .sum()
    }

    #[test]
    fn metrics_off_cluster_exposes_no_metrics_surface() {
        let mut cluster = ClusterBuilder::new(base_session(32), 2)
            .route(RoutePolicy::RoundRobin)
            .build_sim();
        for j in 0..4 {
            Executor::submit(&mut cluster, chain_job(j)).unwrap();
        }
        cluster.drain().unwrap();
        assert!(cluster.metrics_report().nodes.is_empty());
        assert!(cluster.metrics_probe().is_none());
        let extras = cluster.take_extras();
        assert!(
            !extras.values().any(|(k, _)| k.starts_with("metrics.")),
            "metrics-off extras must stay byte-identical to the seed surface"
        );
    }

    #[test]
    fn drain_summary_replaces_records_with_sketches() {
        let seed = 33;
        // Reference: a regular drain of the identical cluster.
        let mut reference =
            ClusterBuilder::new(base_session(seed).metrics(MetricsConfig::default()), 2)
                .route(RoutePolicy::RoundRobin)
                .build_sim();
        for j in 0..10 {
            Executor::submit(&mut reference, chain_job(j)).unwrap();
        }
        let stats = reference.drain().unwrap();

        let mut cluster =
            ClusterBuilder::new(base_session(seed).metrics(MetricsConfig::default()), 2)
                .route(RoutePolicy::RoundRobin)
                .build_sim();
        for j in 0..10 {
            Executor::submit(&mut cluster, chain_job(j)).unwrap();
        }
        let summary = cluster.drain_summary().unwrap();
        assert_eq!(summary.jobs, 10);
        assert_eq!(summary.tasks as usize, stats.tasks);
        assert_eq!(summary.report.nodes.len(), 2);
        // The merged sketch percentile agrees with the exact
        // nearest-rank percentile within one bucket's relative error.
        let totals = summary.report.totals();
        let sketch_p99 = totals.sojourn.quantile(0.99).expect("10 samples");
        let exact_p99 = stats.sojourn_percentile(0.99).expect("10 jobs drained");
        let rel = totals.sojourn.relative_error();
        assert!(
            (sketch_p99 - exact_p99).abs() <= exact_p99 * 2.0 * rel + f64::EPSILON,
            "sketch p99 {sketch_p99} vs exact {exact_p99} (rel {rel})"
        );
        // Tickets retired exactly like a drain: nothing left to wait.
        let t = Executor::submit(&mut cluster, chain_job(10)).unwrap();
        assert!(Executor::wait(&mut cluster, t).is_ok());
    }

    #[test]
    fn drain_summary_repairs_a_death_it_discovers_then_drains_the_survivors() {
        // kill(1, 1) over 2 round-robin nodes: node 1 admits job 1 and
        // dies at job 3. The summary is the first call to read node 1's
        // link; it repairs after its round (jobs 1 and 3 requeue onto
        // node 0) and drains node 0 again, so it still covers all 4.
        let base = base_session(35)
            .metrics(MetricsConfig::default())
            .fault_schedule(FaultSchedule::new(35).kill(1, 1));
        let mut cluster = ClusterBuilder::new(base, 2)
            .route(RoutePolicy::RoundRobin)
            .build_sim();
        for j in 0..4 {
            Executor::submit(&mut cluster, chain_job(j)).unwrap();
        }
        let summary = cluster.drain_summary().unwrap();
        assert_eq!(summary.jobs, 4);
        assert_eq!(summary.tasks, 16);
        assert_eq!(summary.report.nodes.len(), 1, "only node 0 survives");
        assert_eq!(summary.report.totals().jobs_completed, 4);
        assert!(!cluster.is_alive(1));
        let extras = cluster.take_extras();
        assert_eq!(extras.get("node1.failed"), Some(1.0));
        assert_eq!(extras.get("jobs_requeued"), Some(2.0));
        assert_eq!(extras.get("jobs_orphaned"), None, "no requeue forgotten");
        assert_eq!(extras.get("node0.jobs"), Some(4.0));
        assert_eq!(extras.get("nodes"), Some(1.0));
    }

    #[test]
    fn collect_trace_repairs_a_death_it_discovers() {
        // As above, but the trace pull is the first call to read the
        // dead link. It repairs there, so node 1 leaves routing and no
        // later RPC waits out the deadline on its silent link.
        let base = base_session(36)
            .metrics(MetricsConfig::default().with_trace())
            .fault_schedule(FaultSchedule::new(36).kill(1, 1));
        let mut cluster = ClusterBuilder::new(base, 2)
            .route(RoutePolicy::RoundRobin)
            .build_sim();
        for j in 0..4 {
            Executor::submit(&mut cluster, chain_job(j)).unwrap();
        }
        let trace = cluster.collect_trace().unwrap();
        assert_eq!(trace.nodes.len(), 1, "only node 0 survives");
        assert_eq!(trace.total_spans(), 0, "nothing has executed yet");
        assert!(!cluster.is_alive(1));
        let stats = cluster.drain().unwrap();
        assert_eq!(stats.jobs.len(), 4, "the requeued jobs ran on node 0");
        let extras = cluster.take_extras();
        assert_eq!(extras.get("node1.failed"), Some(1.0));
        assert_eq!(extras.get("jobs_requeued"), Some(2.0));
        assert_eq!(extras.get("node0.jobs"), Some(4.0));
        let trace = cluster.collect_trace().unwrap();
        assert_eq!(trace.nodes.len(), 1);
        assert!(trace.total_spans() >= 16, "spans: {}", trace.total_spans());
    }

    #[test]
    fn cluster_trace_pulls_spans_from_every_node() {
        let base = base_session(34).metrics(MetricsConfig::default().with_trace());
        let mut cluster = ClusterBuilder::new(base, 2)
            .route(RoutePolicy::RoundRobin)
            .build_sim();
        for j in 0..4 {
            Executor::submit(&mut cluster, chain_job(j)).unwrap();
        }
        cluster.drain().unwrap();
        let trace = cluster.collect_trace().unwrap();
        assert_eq!(trace.nodes.len(), 2);
        // 4 chain jobs × 4 tasks, split across the nodes.
        assert!(trace.total_spans() >= 16, "spans: {}", trace.total_spans());
        assert!(trace.nodes.iter().all(|(_, t)| !t.spans.is_empty()));
        let json = trace.to_chrome_json();
        let events = das_sim::validate_chrome_json(&json).expect("valid trace JSON");
        assert_eq!(
            events,
            trace.total_spans() + 2,
            "spans + process_name metadata"
        );
        // The pull drained the node buffers.
        assert_eq!(cluster.collect_trace().unwrap().total_spans(), 0);
    }
}
