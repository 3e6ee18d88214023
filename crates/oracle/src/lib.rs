//! The hindsight oracle's search kernel: deterministic local search over
//! permutations.
//!
//! The oracle question — *given the realized availability/fault timeline
//! of a finished run, how well could any schedule have done?* — reduces
//! to minimizing a black-box cost over permutations of the bags: the
//! caller evaluates a candidate priority order by replaying it against
//! the recorded environment and returns the (penalized) mean turnaround.
//! This crate knows nothing about simulation; it owns only the search:
//!
//! * **Penalty-function local search.** Infeasible or degenerate
//!   schedules are not filtered; the caller's cost function returns a
//!   graded penalty (large base + distance-to-feasible terms), so the
//!   search walks through infeasible space toward feasible optima — the
//!   standard penalty-method treatment of constrained assignment.
//! * **Seeded restarts.** Each restart is an independent, pure function
//!   of `(n, restart, config, cost)`: restart 0 descends from the
//!   identity permutation (the "serve in arrival order" baseline), later
//!   restarts from seeded shuffles. A caller may run restarts anywhere
//!   and in any order (the experiment runner makes each one a job on its
//!   replication pool); [`fold`] is order-insensitive, so the winner —
//!   and every reported byte — is the same however they ran.
//! * **Memo-aware objectives.** Every candidate is a small move away from
//!   an already-evaluated permutation (the walk's incumbent, or its best
//!   one after a kick). An [`Objective`] may leave a memo behind each
//!   evaluation and reuse the neighbour's memo to evaluate the candidate
//!   faster; the search keeps the memos of its current and best
//!   permutations and nothing else. A plain `Fn(&[u32]) -> f64` is an
//!   objective whose memo is `()`.
//! * **Noise kicks.** A restart that stalls (no strict improvement for
//!   [`SearchConfig::stall_kick`] proposals) jumps back to its incumbent
//!   and perturbs it with a burst of random swaps, an ILS-style kick that
//!   escapes local minima without abandoning the basin entirely.
//!
//! ## Determinism contract
//!
//! All randomness derives from [`SplitMix64`] streams keyed by
//! `(seed, restart)`; float comparisons use `total_cmp`; ties between
//! restarts break toward the lower restart index. Consequently a search
//! is bit-reproducible across pool widths, runs and platforms, and a
//! search resumed from journaled
//! [`RestartOutcome`]s ([`fold`] over any partition of the restart set)
//! equals the uninterrupted search exactly.

use serde::{Deserialize, Serialize};

/// Sebastiano Vigna's SplitMix64: a tiny, fully deterministic generator.
///
/// The kernel deliberately avoids the simulator's RNG stack — the search
/// must stay reproducible even as the simulator's samplers evolve, and
/// the only requirement here is a well-mixed stream, not distributional
/// quality.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw in `[0, bound)` via the multiply-shift reduction.
    /// The slight modulo bias of the plain reduction is irrelevant for
    /// move selection, but multiply-shift is exact for power-of-two
    /// bounds and branch-free either way.
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "below(0) is meaningless");
        (((self.next_u64() as u128) * (bound as u128)) >> 64) as u64
    }
}

/// Knobs of one oracle search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SearchConfig {
    /// Independent restarts (≥ 1). Restart 0 descends from the identity
    /// permutation; restart `r > 0` from a shuffle seeded by `(seed, r)`.
    pub restarts: u32,
    /// Move proposals per restart.
    pub iters: u32,
    /// Master seed of the search (independent of the simulation seeds).
    pub seed: u64,
    /// Consecutive non-improving proposals before a noise kick.
    #[serde(default = "default_stall_kick")]
    pub stall_kick: u32,
}

fn default_stall_kick() -> u32 {
    64
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            restarts: 8,
            iters: 400,
            seed: 0,
            stall_kick: default_stall_kick(),
        }
    }
}

/// The result of one restart: the journal record of the oracle search.
/// Folding any partition of a search's outcomes with [`fold`]
/// reconstructs the overall winner exactly, which is what lets the serve
/// daemon resume an interrupted search from its journal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RestartOutcome {
    /// Restart index within the search.
    pub restart: u32,
    /// Best cost this restart reached.
    pub cost: f64,
    /// The permutation achieving [`cost`](Self::cost).
    pub perm: Vec<u32>,
    /// Cost-function evaluations spent.
    pub evaluations: u64,
}

/// The per-restart stream seed: one extra SplitMix64 scramble over
/// `(seed, restart)` so neighbouring restarts land in unrelated streams.
pub fn restart_seed(seed: u64, restart: u32) -> u64 {
    let mut mix = SplitMix64::new(seed ^ (u64::from(restart)).wrapping_mul(0xA076_1D64_78BD_642F));
    mix.next_u64()
}

/// Fisher–Yates with draws from `rng`.
fn shuffle(perm: &mut [u32], rng: &mut SplitMix64) {
    for i in (1..perm.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        perm.swap(i, j);
    }
}

/// `a` strictly better than `b` under the search's total order: lower
/// cost wins, ties break toward the lower restart index (so the fold is
/// independent of evaluation order).
fn better(a: &RestartOutcome, b: &RestartOutcome) -> bool {
    match a.cost.total_cmp(&b.cost) {
        std::cmp::Ordering::Less => true,
        std::cmp::Ordering::Greater => false,
        std::cmp::Ordering::Equal => a.restart < b.restart,
    }
}

/// Folds restart outcomes into the search winner. Accepts the outcomes
/// in any order and any grouping (live, journaled, or a mix): the result
/// depends only on the set. `None` when the iterator is empty.
pub fn fold(outcomes: impl IntoIterator<Item = RestartOutcome>) -> Option<RestartOutcome> {
    let mut best: Option<RestartOutcome> = None;
    for o in outcomes {
        match &best {
            Some(b) if !better(&o, b) => {}
            _ => best = Some(o),
        }
    }
    best
}

/// The cost the search minimises.
///
/// [`evaluate_near`](Self::evaluate_near) must return exactly what
/// [`evaluate`](Self::evaluate) returns for the same permutation — the
/// memo may only make it cheaper — so a search's outcome never depends on
/// which of the two ran.
pub trait Objective {
    /// What evaluating a permutation leaves behind for evaluating its
    /// neighbours.
    type Memo: Clone;

    /// Evaluates `perm` from scratch.
    fn evaluate(&self, perm: &[u32]) -> (f64, Self::Memo);

    /// Evaluates `perm`, a neighbour of the already-evaluated `base`
    /// whose evaluation left `memo`.
    fn evaluate_near(&self, perm: &[u32], _base: &[u32], _memo: &Self::Memo) -> (f64, Self::Memo) {
        self.evaluate(perm)
    }
}

/// A plain cost function: nothing to remember.
impl<F: Fn(&[u32]) -> f64 + ?Sized> Objective for F {
    type Memo = ();

    fn evaluate(&self, perm: &[u32]) -> (f64, ()) {
        (self(perm), ())
    }
}

/// Runs restart `restart` of the search: a pure function of its
/// arguments, suitable as an independent work unit and as the replayable
/// journal entry.
///
/// The walk proposes swap and relocate moves, accepts strict
/// improvements only, and kicks (incumbent + 3 random swaps) after
/// [`SearchConfig::stall_kick`] consecutive rejections. Only the first
/// evaluation starts from scratch; every later one is handed the current
/// permutation (or, after a kick, the best one) and its memo.
pub fn run_restart<O>(n: usize, restart: u32, cfg: &SearchConfig, objective: &O) -> RestartOutcome
where
    O: Objective + ?Sized,
{
    let mut rng = SplitMix64::new(restart_seed(cfg.seed, restart));
    let mut cur: Vec<u32> = (0..n as u32).collect();
    if restart > 0 {
        shuffle(&mut cur, &mut rng);
    }
    let (mut cur_cost, mut cur_memo) = objective.evaluate(&cur);
    let mut evaluations = 1u64;
    let mut best = cur.clone();
    let mut best_cost = cur_cost;
    let mut best_memo = cur_memo.clone();
    let mut stall = 0u32;

    if n >= 2 {
        for _ in 0..cfg.iters {
            let mut cand = cur.clone();
            let i = rng.below(n as u64) as usize;
            let j = rng.below(n as u64) as usize;
            if rng.below(2) == 0 {
                cand.swap(i, j);
            } else {
                // Relocate: remove position i, reinsert at position j.
                let v = cand.remove(i);
                cand.insert(j.min(cand.len()), v);
            }
            let (c, memo) = objective.evaluate_near(&cand, &cur, &cur_memo);
            evaluations += 1;
            if c.total_cmp(&cur_cost).is_lt() {
                cur = cand;
                cur_cost = c;
                cur_memo = memo;
                stall = 0;
                if cur_cost.total_cmp(&best_cost).is_lt() {
                    best = cur.clone();
                    best_cost = cur_cost;
                    best_memo = cur_memo.clone();
                }
            } else {
                stall += 1;
            }
            if stall >= cfg.stall_kick.max(1) {
                // Noise kick: restart the walk from a perturbed incumbent.
                cur = best.clone();
                for _ in 0..3 {
                    let a = rng.below(n as u64) as usize;
                    let b = rng.below(n as u64) as usize;
                    cur.swap(a, b);
                }
                (cur_cost, cur_memo) = objective.evaluate_near(&cur, &best, &best_memo);
                evaluations += 1;
                stall = 0;
            }
        }
    }

    RestartOutcome {
        restart,
        cost: best_cost,
        perm: best,
        evaluations,
    }
}

/// Runs the full search on this thread: [`SearchConfig::restarts`]
/// independent restarts in restart order, folded into the winner.
///
/// # Panics
/// Panics when `cfg.restarts` is 0 (an empty search has no winner).
pub fn search_permutation<O: Objective>(
    n: usize,
    cfg: &SearchConfig,
    objective: O,
) -> RestartOutcome {
    assert!(cfg.restarts >= 1, "a search needs at least one restart");
    fold((0..cfg.restarts).map(|r| run_restart(n, r, cfg, &objective))).expect("restarts >= 1")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Weighted tardiness toy objective with a unique known optimum: item
    /// `k` wants to sit at position `n-1-k`, with weight `k+1` — the
    /// reversal of the identity is the only zero-cost permutation.
    fn reversal_cost(perm: &[u32]) -> f64 {
        let n = perm.len();
        perm.iter()
            .enumerate()
            .map(|(pos, &item)| {
                let want = n - 1 - item as usize;
                (item as f64 + 1.0) * (pos as f64 - want as f64).abs()
            })
            .sum()
    }

    #[test]
    fn finds_the_known_optimum() {
        let cfg = SearchConfig {
            restarts: 4,
            iters: 3_000,
            seed: 7,
            stall_kick: 32,
        };
        let out = search_permutation(8, &cfg, reversal_cost);
        assert_eq!(out.cost, 0.0, "best perm {:?}", out.perm);
        assert_eq!(out.perm, vec![7, 6, 5, 4, 3, 2, 1, 0]);
    }

    #[test]
    fn restart_zero_descends_from_identity() {
        // With zero iterations the outcome *is* the start point.
        let cfg = SearchConfig {
            restarts: 1,
            iters: 0,
            seed: 99,
            stall_kick: 8,
        };
        let out = run_restart(6, 0, &cfg, &reversal_cost);
        assert_eq!(out.perm, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(out.evaluations, 1);
        let shuffled = run_restart(6, 1, &cfg, &reversal_cost);
        assert_ne!(shuffled.perm, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn resumed_search_equals_uninterrupted_search() {
        // The journal-resume identity: folding per-restart outcomes from
        // any partition of the restart set reproduces the full search.
        let cfg = SearchConfig {
            restarts: 5,
            iters: 300,
            seed: 3,
            stall_kick: 16,
        };
        let full = search_permutation(7, &cfg, reversal_cost);
        let first: Vec<RestartOutcome> = (0..2)
            .map(|r| run_restart(7, r, &cfg, &reversal_cost))
            .collect();
        let rest: Vec<RestartOutcome> = (2..5)
            .map(|r| run_restart(7, r, &cfg, &reversal_cost))
            .collect();
        let resumed = fold(rest.into_iter().chain(first)).unwrap();
        assert_eq!(full, resumed);
    }

    /// [`reversal_cost`] with a memo: each evaluation remembers its
    /// permutation and per-position terms, and a neighbour recomputes only
    /// the positions where it differs from its base.
    struct IncrementalReversal;

    impl Objective for IncrementalReversal {
        type Memo = (Vec<u32>, Vec<f64>);

        fn evaluate(&self, perm: &[u32]) -> (f64, Self::Memo) {
            let terms: Vec<f64> = (0..perm.len()).map(|pos| term(perm, pos)).collect();
            (terms.iter().sum(), (perm.to_vec(), terms))
        }

        fn evaluate_near(
            &self,
            perm: &[u32],
            base: &[u32],
            memo: &Self::Memo,
        ) -> (f64, Self::Memo) {
            assert_eq!(memo.0, base, "the memo belongs to the base permutation");
            let mut terms = memo.1.clone();
            for pos in 0..perm.len() {
                if perm[pos] != base[pos] {
                    terms[pos] = term(perm, pos);
                }
            }
            (terms.iter().sum(), (perm.to_vec(), terms))
        }
    }

    fn term(perm: &[u32], pos: usize) -> f64 {
        let item = perm[pos];
        let want = perm.len() - 1 - item as usize;
        (item as f64 + 1.0) * (pos as f64 - want as f64).abs()
    }

    #[test]
    fn memo_aware_restarts_equal_the_pure_cost_path() {
        for seed in [0, 7, 2008] {
            let cfg = SearchConfig {
                restarts: 4,
                iters: 400,
                seed,
                stall_kick: 16,
            };
            for r in 0..cfg.restarts {
                assert_eq!(
                    run_restart(9, r, &cfg, &IncrementalReversal),
                    run_restart(9, r, &cfg, &reversal_cost),
                    "seed {seed} restart {r}"
                );
            }
            assert_eq!(
                search_permutation(9, &cfg, IncrementalReversal),
                search_permutation(9, &cfg, reversal_cost)
            );
        }
    }

    #[test]
    fn fold_breaks_ties_toward_lower_restart() {
        let a = RestartOutcome {
            restart: 3,
            cost: 1.0,
            perm: vec![0],
            evaluations: 1,
        };
        let b = RestartOutcome {
            restart: 1,
            cost: 1.0,
            perm: vec![0],
            evaluations: 1,
        };
        assert_eq!(fold([a.clone(), b.clone()]).unwrap().restart, 1);
        assert_eq!(fold([b, a]).unwrap().restart, 1);
        assert!(fold(std::iter::empty()).is_none());
    }

    #[test]
    fn search_never_returns_worse_than_its_start() {
        // Strict-improvement acceptance keeps the incumbent monotone, so
        // the winner can never be worse than the identity start point.
        let identity_cost = reversal_cost(&[0, 1, 2, 3, 4, 5, 6]);
        for seed in 0..10 {
            let cfg = SearchConfig {
                restarts: 3,
                iters: 50,
                seed,
                stall_kick: 8,
            };
            let out = search_permutation(7, &cfg, reversal_cost);
            assert!(out.cost <= identity_cost, "seed {seed}: {}", out.cost);
        }
    }

    #[test]
    fn single_item_and_empty_searches_are_trivial() {
        let cfg = SearchConfig::default();
        let one = search_permutation(1, &cfg, reversal_cost);
        assert_eq!(one.perm, vec![0]);
        let zero = search_permutation(0, &cfg, reversal_cost);
        assert!(zero.perm.is_empty());
    }
}
