//! Trace-driven environment replay: re-drives the simulator from the
//! recorded fault timeline of a completed run instead of live RNG draws.
//!
//! A captured trace (eager availability mode) pins the *realized
//! environment* of a replication: every machine up/down transition and
//! every correlated outage is a popped event with its exact firing time
//! recorded. [`TraceEnv`] extracts that timeline; `simulate_replayed`
//! then runs any policy against it. Two properties make this the
//! hindsight-oracle seam:
//!
//! 1. **Exactness** — replaying a policy against the timeline captured
//!    from *its own* run reproduces the original [`RunResult`]
//!    byte-identically. The replay mirrors every live `schedule`/`cancel`
//!    call one-for-one (unrealized transitions become far-future sentinel
//!    events), so event-id allocation — and therefore same-timestamp
//!    tie-breaking — is preserved, and recorded absolute times are
//!    re-scheduled bit-for-bit via `schedule_at`.
//! 2. **Policy independence** — the availability and outage streams are
//!    keyed by seed only, never by policy, so the timeline captured from
//!    one policy's run is exactly the environment every other policy (and
//!    every oracle candidate) would have experienced under the same seed.
//!
//! Determinism contract caveat: an outage kill is told apart from a
//! personal failure by timestamp equality with the announced outage.
//! Both processes draw from continuous distributions, so a personal
//! failure landing on the exact f64 instant of an independent outage has
//! measure zero; the replay asserts its cursors stay consistent and
//! panics loudly rather than diverge silently.
//!
//! [`RunResult`]: super::metrics::RunResult

use dgsched_des::time::SimTime;
use dgsched_obs::TraceEvent;

/// The realized fault environment of one replication, extracted from a
/// complete (untruncated) event trace.
///
/// Per-machine failure times are split into *personal* failures (popped
/// `MachineFail` events of the machine's own renewal process) and *outage
/// kills* (failures coinciding with a recorded `Outage` instant), because
/// the two re-enter the replayed run through different seams: personal
/// failures are scheduled as pending events, outage kills are decided
/// inside the outage handler.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEnv {
    machines: usize,
    /// Per machine: ascending personal-failure instants.
    personal_fails: Vec<Vec<f64>>,
    /// Per machine: ascending outage-kill instants.
    outage_kills: Vec<Vec<f64>>,
    /// Per machine: ascending repair instants (both failure kinds).
    repairs: Vec<Vec<f64>>,
    /// Ascending `(instant, duration)` of every recorded outage.
    outages: Vec<(f64, f64)>,
}

impl TraceEnv {
    /// Extracts the fault timeline from `events`.
    ///
    /// # Panics
    /// Panics when the trace references a machine id `>= machines` or is
    /// not time-ordered — both indicate a trace that does not belong to
    /// the grid being replayed (or was truncated by a ring buffer; replay
    /// needs the complete event stream of an unbounded recorder).
    pub fn from_trace(events: &[TraceEvent], machines: usize) -> TraceEnv {
        let outage_times: Vec<f64> = events
            .iter()
            .filter_map(|e| match *e {
                TraceEvent::Outage { at, .. } => Some(at),
                _ => None,
            })
            .collect();
        let is_outage_instant = |t: f64| outage_times.binary_search_by(|o| o.total_cmp(&t)).is_ok();

        let mut env = TraceEnv {
            machines,
            personal_fails: vec![Vec::new(); machines],
            outage_kills: vec![Vec::new(); machines],
            repairs: vec![Vec::new(); machines],
            outages: Vec::new(),
        };
        let mut last = f64::NEG_INFINITY;
        for ev in events {
            let at = ev.at();
            assert!(at >= last, "trace is not time-ordered at t={at}");
            last = at;
            match *ev {
                TraceEvent::MachineFail { at, machine } => {
                    let m = machine as usize;
                    assert!(m < machines, "trace references machine {m} of {machines}");
                    if is_outage_instant(at) {
                        env.outage_kills[m].push(at);
                    } else {
                        env.personal_fails[m].push(at);
                    }
                }
                TraceEvent::MachineRepair { at, machine } => {
                    let m = machine as usize;
                    assert!(m < machines, "trace references machine {m} of {machines}");
                    env.repairs[m].push(at);
                }
                TraceEvent::Outage { at, duration } => env.outages.push((at, duration)),
                _ => {}
            }
        }
        env
    }

    /// Number of machines the timeline was extracted for.
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// Total recorded failures (personal + outage kills) across machines.
    pub fn failures(&self) -> usize {
        self.personal_fails.iter().map(Vec::len).sum::<usize>()
            + self.outage_kills.iter().map(Vec::len).sum::<usize>()
    }

    /// Recorded outages.
    pub fn outages(&self) -> usize {
        self.outages.len()
    }
}

/// Replay cursors over a [`TraceEnv`]: each recorded transition is
/// consumed exactly once, in time order, as the replayed run re-processes
/// it. Transitions the original run scheduled but never realized (the
/// pending failure cancelled by an outage, the repair past the end of the
/// run) are represented by far-future sentinel events so the replay's
/// schedule-call sequence — and with it event-id allocation — matches the
/// live run one-for-one.
#[derive(Clone)]
pub(super) struct ReplayState<'a> {
    env: &'a TraceEnv,
    pfail_cur: Vec<usize>,
    okill_cur: Vec<usize>,
    repair_cur: Vec<usize>,
    outage_cur: usize,
}

const SENTINEL: SimTime = SimTime::FAR_FUTURE;

impl<'a> ReplayState<'a> {
    pub(super) fn new(env: &'a TraceEnv) -> Self {
        ReplayState {
            env,
            pfail_cur: vec![0; env.machines],
            okill_cur: vec![0; env.machines],
            repair_cur: vec![0; env.machines],
            outage_cur: 0,
        }
    }

    /// The machine's next unconsumed personal failure, or the sentinel.
    pub(super) fn next_personal_fail(&self, i: usize) -> SimTime {
        match self.env.personal_fails[i].get(self.pfail_cur[i]) {
            Some(&t) => SimTime::new(t),
            None => SENTINEL,
        }
    }

    /// Consumes the personal failure firing now.
    pub(super) fn consume_personal_fail(&mut self, i: usize, now: f64) {
        let t = self.env.personal_fails[i]
            .get(self.pfail_cur[i])
            .copied()
            .unwrap_or(f64::INFINITY);
        assert!(
            t == now,
            "replay diverged: machine {i} fails at t={now} but the trace says t={t}"
        );
        self.pfail_cur[i] += 1;
    }

    /// The machine's next unconsumed repair, or the sentinel.
    pub(super) fn next_repair(&self, i: usize) -> SimTime {
        match self.env.repairs[i].get(self.repair_cur[i]) {
            Some(&t) => SimTime::new(t),
            None => SENTINEL,
        }
    }

    /// Consumes the repair firing now.
    pub(super) fn consume_repair(&mut self, i: usize, now: f64) {
        let t = self.env.repairs[i]
            .get(self.repair_cur[i])
            .copied()
            .unwrap_or(f64::INFINITY);
        assert!(
            t == now,
            "replay diverged: machine {i} repairs at t={now} but the trace says t={t}"
        );
        self.repair_cur[i] += 1;
    }

    /// The next unconsumed outage instant, or the sentinel.
    pub(super) fn next_outage(&self) -> SimTime {
        match self.env.outages.get(self.outage_cur) {
            Some(&(t, _)) => SimTime::new(t),
            None => SENTINEL,
        }
    }

    /// Consumes the outage firing now and returns its recorded duration.
    pub(super) fn consume_outage(&mut self, now: f64) -> f64 {
        let (t, duration) = self
            .env
            .outages
            .get(self.outage_cur)
            .copied()
            .unwrap_or((f64::INFINITY, 0.0));
        assert!(
            t == now,
            "replay diverged: outage at t={now} but the trace says t={t}"
        );
        self.outage_cur += 1;
        duration
    }

    /// True when the trace says the outage firing now killed machine `i`
    /// (consumes the kill record). Replaces the live `hits` Bernoulli
    /// draw.
    pub(super) fn outage_hits(&mut self, i: usize, now: f64) -> bool {
        match self.env.outage_kills[i].get(self.okill_cur[i]) {
            Some(&t) if t == now => {
                self.okill_cur[i] += 1;
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extraction_splits_fail_kinds() {
        let events = vec![
            TraceEvent::MachineFail {
                at: 5.0,
                machine: 0,
            },
            TraceEvent::MachineRepair {
                at: 9.0,
                machine: 0,
            },
            TraceEvent::Outage {
                at: 20.0,
                duration: 3.0,
            },
            TraceEvent::MachineFail {
                at: 20.0,
                machine: 1,
            },
            TraceEvent::MachineRepair {
                at: 23.0,
                machine: 1,
            },
        ];
        let env = TraceEnv::from_trace(&events, 2);
        assert_eq!(env.personal_fails[0], vec![5.0]);
        assert!(env.outage_kills[0].is_empty());
        assert!(env.personal_fails[1].is_empty());
        assert_eq!(env.outage_kills[1], vec![20.0]);
        assert_eq!(env.repairs[0], vec![9.0]);
        assert_eq!(env.repairs[1], vec![23.0]);
        assert_eq!(env.outages, vec![(20.0, 3.0)]);
        assert_eq!(env.failures(), 2);
        assert_eq!(env.outages(), 1);
    }

    #[test]
    fn cursors_consume_in_order_and_sentinel_after() {
        let events = vec![
            TraceEvent::MachineFail {
                at: 5.0,
                machine: 0,
            },
            TraceEvent::MachineRepair {
                at: 9.0,
                machine: 0,
            },
            TraceEvent::MachineFail {
                at: 14.0,
                machine: 0,
            },
        ];
        let env = TraceEnv::from_trace(&events, 1);
        let mut rp = ReplayState::new(&env);
        assert_eq!(rp.next_personal_fail(0), SimTime::new(5.0));
        rp.consume_personal_fail(0, 5.0);
        assert_eq!(rp.next_repair(0), SimTime::new(9.0));
        rp.consume_repair(0, 9.0);
        assert_eq!(rp.next_personal_fail(0), SimTime::new(14.0));
        rp.consume_personal_fail(0, 14.0);
        assert_eq!(rp.next_personal_fail(0), SimTime::FAR_FUTURE);
        assert_eq!(rp.next_repair(0), SimTime::FAR_FUTURE);
        assert_eq!(rp.next_outage(), SimTime::FAR_FUTURE);
    }

    #[test]
    #[should_panic(expected = "replay diverged")]
    fn divergence_panics_instead_of_drifting() {
        let events = vec![TraceEvent::MachineFail {
            at: 5.0,
            machine: 0,
        }];
        let env = TraceEnv::from_trace(&events, 1);
        let mut rp = ReplayState::new(&env);
        rp.consume_personal_fail(0, 6.0);
    }

    #[test]
    #[should_panic(expected = "not time-ordered")]
    fn unordered_trace_is_rejected() {
        let events = vec![
            TraceEvent::MachineFail {
                at: 5.0,
                machine: 0,
            },
            TraceEvent::MachineFail {
                at: 4.0,
                machine: 0,
            },
        ];
        TraceEnv::from_trace(&events, 1);
    }

    #[test]
    fn outage_hits_consume_per_machine() {
        let events = vec![
            TraceEvent::Outage {
                at: 10.0,
                duration: 2.0,
            },
            TraceEvent::MachineFail {
                at: 10.0,
                machine: 1,
            },
        ];
        let env = TraceEnv::from_trace(&events, 2);
        let mut rp = ReplayState::new(&env);
        assert_eq!(rp.consume_outage(10.0), 2.0);
        assert!(!rp.outage_hits(0, 10.0));
        assert!(rp.outage_hits(1, 10.0));
        assert!(!rp.outage_hits(1, 10.0), "a kill is consumed exactly once");
    }
}
