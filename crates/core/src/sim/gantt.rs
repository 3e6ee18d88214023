//! Text Gantt charts from simulation traces — who ran what, where, when.
//!
//! Built from a [`super::TraceRecorder`]: each machine becomes a row, time
//! is discretised into cells, and each cell shows the bag whose replica
//! occupied the machine (digits/letters cycle through bag ids), `×` for
//! downtime and `·` for idle. Intended for debugging schedulers and for
//! documentation — not for metrics (those come from [`super::RunResult`]).

use super::observer::{TraceEvent, TraceRecorder};
use std::collections::BTreeMap;

/// One machine's occupancy intervals.
#[derive(Debug, Clone, Default)]
struct Lane {
    /// (start, end, bag) busy intervals.
    busy: Vec<(f64, f64, u32)>,
    /// (start, end) down intervals.
    down: Vec<(f64, f64)>,
    /// Currently open busy interval.
    open_busy: Option<(f64, u32)>,
    /// Currently open down interval.
    open_down: Option<f64>,
}

/// A reconstructed machine-time occupation map.
#[derive(Debug, Clone)]
pub struct Gantt {
    lanes: BTreeMap<u32, Lane>,
    end: f64,
}

impl Gantt {
    /// Builds the occupation map from a recorded trace.
    pub fn from_trace(trace: &TraceRecorder) -> Self {
        let mut lanes: BTreeMap<u32, Lane> = BTreeMap::new();
        let mut end = 0.0f64;
        for ev in &trace.events {
            end = end.max(ev.at());
            match *ev {
                TraceEvent::Dispatch {
                    at, bag, machine, ..
                } => {
                    let lane = lanes.entry(machine).or_default();
                    debug_assert!(lane.open_busy.is_none(), "double booking in trace");
                    lane.open_busy = Some((at, bag));
                }
                TraceEvent::TaskComplete { at, machine, .. }
                | TraceEvent::ReplicaKilled { at, machine, .. } => {
                    let lane = lanes.entry(machine).or_default();
                    if let Some((start, bag)) = lane.open_busy.take() {
                        lane.busy.push((start, at, bag));
                    }
                }
                TraceEvent::MachineFail { at, machine } => {
                    let lane = lanes.entry(machine).or_default();
                    lane.open_down = Some(at);
                }
                TraceEvent::MachineRepair { at, machine } => {
                    let lane = lanes.entry(machine).or_default();
                    if let Some(start) = lane.open_down.take() {
                        lane.down.push((start, at));
                    }
                }
                _ => {}
            }
        }
        // Close dangling intervals at the trace end.
        for lane in lanes.values_mut() {
            if let Some((start, bag)) = lane.open_busy.take() {
                lane.busy.push((start, end, bag));
            }
            if let Some(start) = lane.open_down.take() {
                lane.down.push((start, end));
            }
        }
        Gantt { lanes, end }
    }

    /// Busy fraction of one machine over the trace (0 when unknown).
    pub fn busy_fraction(&self, machine: u32) -> f64 {
        if self.end <= 0.0 {
            return 0.0;
        }
        self.lanes
            .get(&machine)
            .map(|l| l.busy.iter().map(|(s, e, _)| e - s).sum::<f64>() / self.end)
            .unwrap_or(0.0)
    }

    /// Renders the chart with `cols` time cells per row, machines sorted by
    /// id, at most `max_machines` rows (the rest summarised).
    pub fn render(&self, cols: usize, max_machines: usize) -> String {
        assert!(cols >= 10, "need at least 10 columns");
        let cell = |c: usize| -> (f64, f64) {
            let w = self.end / cols as f64;
            (c as f64 * w, (c as f64 + 1.0) * w)
        };
        const GLYPHS: &[u8] = b"0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
        let mut out = String::new();
        out.push_str(&format!(
            "time 0 .. {:.0}s, {} machines ({} shown), '·' idle, '×' down, glyph = bag id mod {}\n",
            self.end,
            self.lanes.len(),
            self.lanes.len().min(max_machines),
            GLYPHS.len()
        ));
        for (mid, lane) in self.lanes.iter().take(max_machines) {
            let mut row = String::with_capacity(cols);
            for c in 0..cols {
                let (s, e) = cell(c);
                let mid_t = 0.5 * (s + e);
                let busy = lane
                    .busy
                    .iter()
                    .find(|(bs, be, _)| *bs <= mid_t && mid_t < *be)
                    .map(|(_, _, bag)| *bag);
                let down = lane.down.iter().any(|(ds, de)| *ds <= mid_t && mid_t < *de);
                row.push(match (busy, down) {
                    (Some(bag), _) => GLYPHS[bag as usize % GLYPHS.len()] as char,
                    (None, true) => '×',
                    (None, false) => '·',
                });
            }
            out.push_str(&format!(
                "m{mid:<4} {row} {:>5.1}%\n",
                self.busy_fraction(*mid) * 100.0
            ));
        }
        if self.lanes.len() > max_machines {
            out.push_str(&format!(
                "… {} more machines\n",
                self.lanes.len() - max_machines
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> TraceRecorder {
        TraceRecorder {
            events: vec![
                TraceEvent::BagArrival { at: 0.0, bag: 0 },
                TraceEvent::Dispatch {
                    at: 0.0,
                    bag: 0,
                    task: 0,
                    machine: 0,
                    is_replication: false,
                },
                TraceEvent::MachineFail {
                    at: 20.0,
                    machine: 1,
                },
                TraceEvent::MachineRepair {
                    at: 40.0,
                    machine: 1,
                },
                TraceEvent::TaskComplete {
                    at: 50.0,
                    bag: 0,
                    task: 0,
                    machine: 0,
                },
                TraceEvent::Dispatch {
                    at: 50.0,
                    bag: 1,
                    task: 0,
                    machine: 0,
                    is_replication: false,
                },
                TraceEvent::TaskComplete {
                    at: 100.0,
                    bag: 1,
                    task: 0,
                    machine: 0,
                },
            ],
        }
    }

    #[test]
    fn reconstructs_intervals() {
        let g = Gantt::from_trace(&trace());
        assert_eq!(g.lanes.len(), 2);
        assert_eq!(g.end, 100.0);
        assert!(
            (g.busy_fraction(0) - 1.0).abs() < 1e-9,
            "machine 0 always busy"
        );
        assert_eq!(g.busy_fraction(1), 0.0);
    }

    #[test]
    fn renders_expected_glyphs() {
        let g = Gantt::from_trace(&trace());
        let s = g.render(20, 10);
        let m0 = s.lines().find(|l| l.starts_with("m0")).unwrap();
        // First half bag 0, second half bag 1.
        assert!(m0.contains('0'));
        assert!(m0.contains('1'));
        let m1 = s.lines().find(|l| l.starts_with("m1")).unwrap();
        assert!(m1.contains('×'), "downtime must render: {m1}");
        assert!(m1.contains('·'));
        assert!(s.contains("100.0%"));
    }

    #[test]
    fn truncates_machine_list() {
        let mut t = TraceRecorder::new();
        for m in 0..5 {
            t.events.push(TraceEvent::MachineFail {
                at: 1.0,
                machine: m,
            });
        }
        let g = Gantt::from_trace(&t);
        let s = g.render(10, 2);
        assert!(s.contains("… 3 more machines"));
    }

    #[test]
    fn empty_trace() {
        let g = Gantt::from_trace(&TraceRecorder::new());
        assert!(g.lanes.is_empty());
        assert_eq!(g.busy_fraction(0), 0.0);
    }

    #[test]
    fn dangling_intervals_closed_at_end() {
        let t = TraceRecorder {
            events: vec![
                TraceEvent::Dispatch {
                    at: 0.0,
                    bag: 0,
                    task: 0,
                    machine: 0,
                    is_replication: false,
                },
                TraceEvent::MachineFail {
                    at: 10.0,
                    machine: 1,
                },
                TraceEvent::BagArrival { at: 40.0, bag: 1 },
            ],
        };
        let g = Gantt::from_trace(&t);
        assert!((g.busy_fraction(0) - 1.0).abs() < 1e-9);
        let s = g.render(10, 10);
        assert!(s.lines().any(|l| l.starts_with("m1") && l.contains('×')));
    }
}
