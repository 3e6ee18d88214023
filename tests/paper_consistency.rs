//! Scaled-down checks of the paper's qualitative findings (§4.3). These run
//! the real experiment pipeline at a size small enough for CI; the full
//! figures come from `dgsched run experiments/fig1.json` and its siblings
//! (see EXPERIMENTS.md).

use dgsched_core::experiment::{run_scenario, Scenario, WorkloadKind};
use dgsched_core::policy::PolicyKind;
use dgsched_core::sim::SimConfig;
use dgsched_des::stats::StoppingRule;
use dgsched_grid::{Availability, GridConfig, Heterogeneity};
use dgsched_workload::{BotType, Intensity, WorkloadSpec};

fn rule() -> StoppingRule {
    StoppingRule {
        min_replications: 4,
        max_replications: 6,
        ..Default::default()
    }
}

fn scenario(
    granularity: f64,
    intensity: Intensity,
    availability: Availability,
    policy: PolicyKind,
    bags: usize,
) -> Scenario {
    Scenario {
        name: format!("paper g={granularity} {policy}"),
        grid: GridConfig::paper(Heterogeneity::HOM, availability),
        workload: WorkloadKind::Single(WorkloadSpec {
            bot_type: BotType::paper(granularity),
            intensity,
            count: bags,
        }),
        policy,
        sim: SimConfig {
            warmup_bags: 3,
            ..SimConfig::default()
        },
    }
}

fn mean(s: &Scenario) -> f64 {
    let r = run_scenario(s, 2008, &rule());
    assert!(!r.saturated, "{} saturated", s.name);
    r.turnaround.mean
}

/// §4.3, Fig. 1(a): at the highest granularity, FCFS-Excl wastes the grid
/// on useless replicas of one bag and is beaten decisively by RR.
#[test]
fn fcfs_excl_collapses_at_high_granularity() {
    let bags = 25;
    let excl = mean(&scenario(
        125_000.0,
        Intensity::Low,
        Availability::HIGH,
        PolicyKind::FcfsExcl,
        bags,
    ));
    let rr = mean(&scenario(
        125_000.0,
        Intensity::Low,
        Availability::HIGH,
        PolicyKind::Rr,
        bags,
    ));
    assert!(
        excl > 2.0 * rr,
        "paper: FCFS-Excl far worse at g=125000 (excl {excl:.0} vs rr {rr:.0})"
    );
}

/// §4.3, Fig. 1(a): at low granularity the FCFS family beats RR — bags have
/// far more tasks than machines, replication is irrelevant, and RR's bag
/// interleaving only stretches makespans.
#[test]
fn fcfs_beats_rr_at_low_granularity() {
    let bags = 25;
    let share = mean(&scenario(
        1_000.0,
        Intensity::Low,
        Availability::HIGH,
        PolicyKind::FcfsShare,
        bags,
    ));
    let rr = mean(&scenario(
        1_000.0,
        Intensity::Low,
        Availability::HIGH,
        PolicyKind::Rr,
        bags,
    ));
    assert!(
        share < rr,
        "paper: FCFS-Share better at g=1000 (share {share:.0} vs rr {rr:.0})"
    );
}

/// §4.3: low-availability platforms roughly double turnaround relative to
/// high-availability ones (Fig. 2(a) vs Fig. 1(a)).
#[test]
fn low_availability_roughly_doubles_turnaround() {
    let bags = 20;
    let high = mean(&scenario(
        5_000.0,
        Intensity::Low,
        Availability::HIGH,
        PolicyKind::FcfsShare,
        bags,
    ));
    let low = mean(&scenario(
        5_000.0,
        Intensity::Low,
        Availability::LOW,
        PolicyKind::FcfsShare,
        bags,
    ));
    let ratio = low / high;
    assert!(
        (1.4..4.0).contains(&ratio),
        "paper: LowAvail ≈ 2× HighAvail turnaround, got {ratio:.2}× ({low:.0}/{high:.0})"
    );
}

/// §3.3: RR "corresponds to the random bag selection strategy described in
/// \[9\], where all BoTs are chosen with equal probability" — the two must
/// track each other.
#[test]
fn rr_corresponds_to_random_selection() {
    let bags = 25;
    let rr = mean(&scenario(
        25_000.0,
        Intensity::Medium,
        Availability::HIGH,
        PolicyKind::Rr,
        bags,
    ));
    let random = mean(&scenario(
        25_000.0,
        Intensity::Medium,
        Availability::HIGH,
        PolicyKind::Random,
        bags,
    ));
    let rel = (rr - random).abs() / rr;
    assert!(
        rel < 0.25,
        "RR {rr:.0} vs Random {random:.0}: {:.0}% apart",
        rel * 100.0
    );
}

/// §4.3's mechanism: at high granularity "RR-based strategies … tend to
/// reduce waiting time at the (possible) detriment of the makespan".
/// Compare the decomposition, not just the total.
#[test]
fn rr_trades_makespan_for_waiting_at_high_granularity() {
    use dgsched_core::experiment::run_replication;
    let bags = 30;
    let mk = |policy| scenario(125_000.0, Intensity::High, Availability::HIGH, policy, bags);
    let mut rr_wait = 0.0;
    let mut rr_mk = 0.0;
    let mut ex_wait = 0.0;
    let mut ex_mk = 0.0;
    for rep in 0..4 {
        let rr = run_replication(&mk(PolicyKind::Rr), 5, rep);
        let ex = run_replication(&mk(PolicyKind::FcfsExcl), 5, rep);
        rr_wait += rr.mean_waiting();
        rr_mk += rr.mean_makespan();
        ex_wait += ex.mean_waiting();
        ex_mk += ex.mean_makespan();
    }
    assert!(
        rr_wait < ex_wait,
        "RR must cut waiting vs FCFS-Excl: {rr_wait:.0} vs {ex_wait:.0}"
    );
    assert!(
        rr_mk > ex_mk,
        "…at the cost of makespan: {rr_mk:.0} vs {ex_mk:.0}"
    );
}

/// §4.3, low availability: "the strategies that give priority to replica
/// creation (FCFS-based and LongIdle) exhibit performance better than the
/// RR-based policies for task granularity up to [25 000] s (while in the
/// HighAvail scenarios this was true for granularity values up to
/// 5 000 s)" — the crossover moves right when failures are frequent.
#[test]
fn crossover_moves_right_under_low_availability() {
    let bags = 25;
    // At g=25000: RR wins on HighAvail…
    let share_high = mean(&scenario(
        25_000.0,
        Intensity::High,
        Availability::HIGH,
        PolicyKind::FcfsShare,
        bags,
    ));
    let rr_high = mean(&scenario(
        25_000.0,
        Intensity::High,
        Availability::HIGH,
        PolicyKind::Rr,
        bags,
    ));
    assert!(
        rr_high < share_high,
        "HighAvail g=25000: RR {rr_high:.0} should beat FCFS-Share {share_high:.0}"
    );
    // …but on LowAvail the replica-friendly policy is back ahead (or at
    // least the RR advantage collapses).
    let share_low = mean(&scenario(
        25_000.0,
        Intensity::Low,
        Availability::LOW,
        PolicyKind::FcfsShare,
        bags,
    ));
    let rr_low = mean(&scenario(
        25_000.0,
        Intensity::Low,
        Availability::LOW,
        PolicyKind::Rr,
        bags,
    ));
    let high_advantage = share_high / rr_high;
    let low_advantage = share_low / rr_low;
    assert!(
        low_advantage < high_advantage,
        "RR's relative advantage must shrink on LowAvail: {low_advantage:.2} vs {high_advantage:.2}"
    );
}

/// E4 regression: on mixed-granularity workloads (the paper's future work
/// §5) LongIdle dominates RR — RR gives every bag an equal share and
/// thereby starves the small-granularity class.
#[test]
fn longidle_beats_rr_on_mixed_workloads() {
    use dgsched_workload::MixSpec;
    let mk = |policy| Scenario {
        name: format!("mix {policy}"),
        grid: GridConfig::paper(Heterogeneity::HOM, Availability::HIGH),
        workload: WorkloadKind::Mixed(MixSpec::paper_uniform(Intensity::High, 40)),
        policy,
        sim: SimConfig {
            warmup_bags: 4,
            ..SimConfig::default()
        },
    };
    let li = mean(&mk(PolicyKind::LongIdle));
    let rr = mean(&mk(PolicyKind::Rr));
    assert!(
        li < rr,
        "LongIdle must win the mix: LongIdle {li:.0} vs RR {rr:.0}"
    );
}

/// E4's mechanism, via the fairness metric: under RR the *max* slowdown
/// (worst-served bag) far exceeds LongIdle's.
#[test]
fn rr_starves_small_bags_in_the_mix() {
    use dgsched_core::experiment::run_replication;
    use dgsched_workload::MixSpec;
    let mk = |policy| Scenario {
        name: format!("mix {policy}"),
        grid: GridConfig::paper(Heterogeneity::HOM, Availability::HIGH),
        workload: WorkloadKind::Mixed(MixSpec::paper_uniform(Intensity::High, 40)),
        policy,
        sim: SimConfig {
            warmup_bags: 4,
            ..SimConfig::default()
        },
    };
    let mut rr_max = 0.0f64;
    let mut li_max = 0.0f64;
    for rep in 0..3 {
        rr_max += run_replication(&mk(PolicyKind::Rr), 11, rep).max_slowdown();
        li_max += run_replication(&mk(PolicyKind::LongIdle), 11, rep).max_slowdown();
    }
    assert!(
        rr_max > 1.5 * li_max,
        "RR's worst-case slowdown should dwarf LongIdle's: {rr_max:.0} vs {li_max:.0}"
    );
}

/// §4.3: RR and RR-NRF track each other closely.
#[test]
fn rr_and_rr_nrf_are_close() {
    let bags = 25;
    let rr = mean(&scenario(
        25_000.0,
        Intensity::Low,
        Availability::HIGH,
        PolicyKind::Rr,
        bags,
    ));
    let nrf = mean(&scenario(
        25_000.0,
        Intensity::Low,
        Availability::HIGH,
        PolicyKind::RrNrf,
        bags,
    ));
    let rel = (rr - nrf).abs() / rr;
    assert!(
        rel < 0.25,
        "RR {rr:.0} vs RR-NRF {nrf:.0}: {:.0}% apart",
        rel * 100.0
    );
}
