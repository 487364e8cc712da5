//! Deterministic fault plane: seeded fault schedules for the cluster
//! tier.
//!
//! The paper's premise is scheduling under *dynamically asymmetric*
//! conditions — and the sharpest asymmetry is a node that dies, stalls
//! or lies about its load. This module is the configuration half of the
//! failure-domain layer: a [`FaultSchedule`] is a plain, seedable value
//! describing *what goes wrong, where, and when*, attached to a session
//! via [`SessionBuilder::fault_schedule`](crate::exec::SessionBuilder::fault_schedule)
//! and consumed by the cluster dispatcher when it spawns node agents.
//!
//! Determinism is the design constraint, not an afterthought. Every
//! fault fires at a *logical* point (the n-th admitted job, the n-th
//! load report), never at a wall-clock instant, so an all-sim cluster
//! with a given schedule is bit-reproducible run-to-run. The enforcement
//! half — catching the induced panic, surfacing it as a typed
//! `ExecError::NodeFailed`, requeuing orphaned jobs — lives in
//! `das-cluster`; this module knows nothing about wires or threads.
//!
//! ```
//! use das_core::fault::FaultSchedule;
//!
//! // Node 2 dies when asked to admit its 6th job; node 0's first three
//! // load reports are dropped so the dispatcher routes on stale data.
//! let faults = FaultSchedule::new(42)
//!     .kill(2, 5)
//!     .drop_load_reports(0, 3);
//! assert_eq!(faults.events().len(), 2);
//! ```

/// One scheduled fault, bound to a node index of the cluster tier.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultEvent {
    /// The node the fault applies to (cluster node index, not a rank).
    pub node: usize,
    /// What goes wrong.
    pub kind: FaultKind,
}

/// The kinds of fault the plane can inject. All triggers are logical
/// counts — jobs admitted, frames sent — never wall-clock times, so a
/// seeded schedule replays bit-identically.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultKind {
    /// The node-agent dies (panics) when asked to admit the job *after*
    /// its `after_jobs`-th: it admits exactly `after_jobs` jobs and
    /// takes the next admission down with it. The jobs it already
    /// admitted are stranded on the dead node; the dispatcher requeues
    /// or retries them on survivors.
    Kill {
        /// Jobs the node admits before dying.
        after_jobs: u64,
    },
    /// The node's next `count` load reports are silently dropped (a
    /// node takes one at every admission, wait and drain, and delivers
    /// the newest with its next reply): when the report a reply would
    /// have carried is dropped, the dispatcher keeps routing on its own
    /// view for this node — the last report it read plus the jobs it
    /// routed there since.
    DropLoadReports {
        /// Frames to drop.
        count: u64,
    },
    /// The node's next `count` load reports are delayed by one report
    /// each: the report carries the *previous* report's value instead
    /// of the current one (stale by one step), so a reply that delivers
    /// it hands the dispatcher a stale count.
    DelayLoadReports {
        /// Frames to delay.
        count: u64,
    },
    /// The node executes its next `count` answered commands (waits,
    /// drains, trace pulls) but withholds their reply frames, forcing
    /// the dispatcher's typed RPC deadline (`ExecError::Timeout`) to
    /// fire instead of blocking forever. Admissions send no reply, so
    /// they spend no token.
    DropAcks {
        /// Acknowledgements to withhold.
        count: u64,
    },
    /// The node is marked slow: every load report it sends is inflated
    /// by `factor`, so load-aware routing policies steer work away from
    /// it once a reply has delivered a report (between replies the
    /// dispatcher counts each job it routes there as one). The node
    /// still executes correctly — this models a thermally throttled or
    /// contended board, not a broken one.
    Slow {
        /// Multiplier applied to the node's reported load (≥ 1.0 means
        /// "looks busier than it is").
        factor: f64,
    },
}

/// A seeded, declarative schedule of faults for one cluster session.
///
/// Built with the chainable methods below and attached to a session via
/// [`SessionBuilder::fault_schedule`](crate::exec::SessionBuilder::fault_schedule).
/// The default value (empty schedule) injects nothing and leaves every
/// execution path bit-identical to a fault-free build.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultSchedule {
    seed: u64,
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// An empty schedule carrying `seed` for the random helpers.
    pub fn new(seed: u64) -> Self {
        FaultSchedule {
            seed,
            events: Vec::new(),
        }
    }

    /// The schedule's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// `true` when the schedule injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Kill `node` after it has admitted `after_jobs` jobs (the next
    /// admission takes the agent down). See [`FaultKind::Kill`].
    pub fn kill(mut self, node: usize, after_jobs: u64) -> Self {
        self.events.push(FaultEvent {
            node,
            kind: FaultKind::Kill { after_jobs },
        });
        self
    }

    /// Kill one node chosen deterministically from the schedule's seed:
    /// node `s % nodes`, after `1 + s' % max_after` admitted jobs. Two
    /// schedules with equal seeds pick identically.
    pub fn kill_random(self, nodes: usize, max_after: u64) -> Self {
        assert!(nodes > 0, "kill_random needs at least one node");
        assert!(max_after > 0, "kill_random needs a positive job bound");
        let a = splitmix64(self.seed);
        let b = splitmix64(a);
        self.kill((a % nodes as u64) as usize, 1 + b % max_after)
    }

    /// Drop `node`'s next `count` load reports. See
    /// [`FaultKind::DropLoadReports`].
    pub fn drop_load_reports(mut self, node: usize, count: u64) -> Self {
        self.events.push(FaultEvent {
            node,
            kind: FaultKind::DropLoadReports { count },
        });
        self
    }

    /// Delay `node`'s next `count` load reports by one report each. See
    /// [`FaultKind::DelayLoadReports`].
    pub fn delay_load_reports(mut self, node: usize, count: u64) -> Self {
        self.events.push(FaultEvent {
            node,
            kind: FaultKind::DelayLoadReports { count },
        });
        self
    }

    /// Make `node` execute its next `count` answered commands without
    /// sending the reply. See [`FaultKind::DropAcks`].
    pub fn drop_acks(mut self, node: usize, count: u64) -> Self {
        self.events.push(FaultEvent {
            node,
            kind: FaultKind::DropAcks { count },
        });
        self
    }

    /// Mark `node` slow by `factor`. See [`FaultKind::Slow`].
    pub fn slow(mut self, node: usize, factor: f64) -> Self {
        self.events.push(FaultEvent {
            node,
            kind: FaultKind::Slow { factor },
        });
        self
    }

    /// Compile the schedule into the runtime counters for one node. The
    /// plane for a node the schedule never mentions is inert
    /// ([`FaultPlane::is_inert`]), so fault-free nodes pay nothing.
    pub fn plane_for(&self, node: usize) -> FaultPlane {
        let mut plane = FaultPlane::default();
        for ev in self.events.iter().filter(|ev| ev.node == node) {
            match ev.kind {
                FaultKind::Kill { after_jobs } => {
                    // Two kill events on one node: the earlier trigger
                    // wins (the node is dead before the later fires).
                    plane.kill_after = Some(match plane.kill_after {
                        Some(prev) => prev.min(after_jobs),
                        None => after_jobs,
                    });
                }
                FaultKind::DropLoadReports { count } => plane.drop_loads += count,
                FaultKind::DelayLoadReports { count } => plane.delay_loads += count,
                FaultKind::DropAcks { count } => plane.drop_acks += count,
                FaultKind::Slow { factor } => plane.slow_factor *= factor,
            }
        }
        plane
    }
}

/// The runtime half of the fault plane: per-node counters a node-agent
/// consults at each logical decision point. Owned (and mutated) by one
/// agent thread; the schedule itself stays immutable.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlane {
    kill_after: Option<u64>,
    admitted: u64,
    drop_loads: u64,
    delay_loads: u64,
    drop_acks: u64,
    slow_factor: f64,
}

impl Default for FaultPlane {
    fn default() -> Self {
        FaultPlane {
            kill_after: None,
            admitted: 0,
            drop_loads: 0,
            delay_loads: 0,
            drop_acks: 0,
            slow_factor: 1.0,
        }
    }
}

impl FaultPlane {
    /// `true` when no fault will ever fire on this node — the fast path
    /// agents check once to skip all fault accounting.
    pub fn is_inert(&self) -> bool {
        self.kill_after.is_none()
            && self.drop_loads == 0
            && self.delay_loads == 0
            && self.drop_acks == 0
            && self.slow_factor == 1.0
    }

    /// The agent is about to admit `jobs` more jobs. Returns `true` if
    /// the scheduled kill triggers *before* any of them is admitted
    /// (the agent must die without admitting the batch); otherwise the
    /// admission counter advances.
    pub fn on_admit(&mut self, jobs: u64) -> bool {
        if let Some(after) = self.kill_after {
            if self.admitted + jobs > after {
                return true;
            }
        }
        self.admitted += jobs;
        false
    }

    /// Jobs admitted so far (for diagnostics).
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Should the next load report be dropped? Consumes one drop token.
    pub fn drop_load_report(&mut self) -> bool {
        if self.drop_loads > 0 {
            self.drop_loads -= 1;
            true
        } else {
            false
        }
    }

    /// Should the next load report be delayed (replaced by the previous
    /// report's value)? Consumes one delay token.
    pub fn delay_load_report(&mut self) -> bool {
        if self.delay_loads > 0 {
            self.delay_loads -= 1;
            true
        } else {
            false
        }
    }

    /// Should the next reply be withheld? Consumes one token.
    pub fn drop_ack(&mut self) -> bool {
        if self.drop_acks > 0 {
            self.drop_acks -= 1;
            true
        } else {
            false
        }
    }

    /// Multiplier the agent applies to its reported load (1.0 = honest).
    pub fn slow_factor(&self) -> f64 {
        self.slow_factor
    }
}

/// SplitMix64: the standard 64-bit seed mixer. Pure function of its
/// input — used so [`FaultSchedule::kill_random`] derives its choices
/// from the schedule seed alone, with no RNG state or dependency.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_schedule_yields_inert_planes() {
        let faults = FaultSchedule::default();
        assert!(faults.is_empty());
        assert!(faults.plane_for(0).is_inert());
        assert_eq!(faults.plane_for(3), FaultPlane::default());
    }

    #[test]
    fn kill_triggers_exactly_after_the_quota() {
        let faults = FaultSchedule::new(1).kill(2, 3);
        let mut plane = faults.plane_for(2);
        assert!(!plane.is_inert());
        assert!(!plane.on_admit(1));
        assert!(!plane.on_admit(2)); // 3 admitted: at the quota, alive
        assert!(plane.on_admit(1), "the 4th admission kills");
        assert_eq!(plane.admitted(), 3, "the fatal batch is not admitted");
        // Other nodes stay inert.
        assert!(faults.plane_for(0).is_inert());
    }

    #[test]
    fn kill_triggers_mid_batch_without_admitting_it() {
        let mut plane = FaultSchedule::new(1).kill(0, 5).plane_for(0);
        assert!(!plane.on_admit(4));
        assert!(plane.on_admit(2), "batch would cross the quota");
        assert_eq!(plane.admitted(), 4);
    }

    #[test]
    fn earliest_of_two_kills_wins() {
        let plane = FaultSchedule::new(1).kill(0, 9).kill(0, 4).plane_for(0);
        let mut p = plane.clone();
        assert!(!p.on_admit(4));
        assert!(p.on_admit(1));
    }

    #[test]
    fn frame_faults_consume_their_tokens() {
        let mut plane = FaultSchedule::new(7)
            .drop_load_reports(1, 2)
            .delay_load_reports(1, 1)
            .drop_acks(1, 1)
            .plane_for(1);
        assert!(plane.drop_load_report());
        assert!(plane.drop_load_report());
        assert!(!plane.drop_load_report(), "tokens exhausted");
        assert!(plane.delay_load_report());
        assert!(!plane.delay_load_report());
        assert!(plane.drop_ack());
        assert!(!plane.drop_ack());
    }

    #[test]
    fn slow_factors_compose_multiplicatively() {
        let plane = FaultSchedule::new(7).slow(0, 2.0).slow(0, 3.0).plane_for(0);
        assert_eq!(plane.slow_factor(), 6.0);
        assert!(!plane.is_inert());
    }

    #[test]
    fn kill_random_is_a_pure_function_of_the_seed() {
        let a = FaultSchedule::new(42).kill_random(4, 10);
        let b = FaultSchedule::new(42).kill_random(4, 10);
        assert_eq!(a, b, "equal seeds pick identically");
        let FaultKind::Kill { after_jobs } = a.events()[0].kind else {
            panic!("kill_random schedules a kill");
        };
        assert!(a.events()[0].node < 4);
        assert!((1..=10).contains(&after_jobs));
        // A different seed (eventually) picks differently: probe a few.
        let distinct = (0..16u64).any(|s| FaultSchedule::new(s).kill_random(4, 10) != a);
        assert!(distinct, "seed actually feeds the choice");
    }

    #[test]
    fn schedule_is_comparable_and_cloneable() {
        let a = FaultSchedule::new(3).kill(1, 2).slow(0, 1.5);
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(a.seed(), 3);
        assert_eq!(a.events().len(), 2);
    }
}
