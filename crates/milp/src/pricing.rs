//! Entering-variable pricing strategies of the primal simplex.
//!
//! The pivoting loop in `simplex.rs` delegates the *choice* of entering
//! column to a [`Pricing`] object and keeps everything else (eligibility,
//! reduced costs, the ratio test, Bland's anti-cycling fallback) to
//! itself. The seam is a callback: the solver hands `select` a closure
//! that prices one column on demand — `eval(j)` returns
//! `Some((reduced_cost, direction))` when column `j` is nonbasic,
//! unfixed and improving, `None` otherwise — and the strategy decides
//! which columns to examine and which candidate wins.
//!
//! Three strategies ship:
//!
//! * [`PartialPricing`] (the default) — scans a rotating block of
//!   columns and takes the best candidate in it, falling through to a
//!   full scan only when the block has no candidate. Optimality is still
//!   exact: `select` returns `None` only after pricing every column.
//! * [`DantzigPricing`] — the classic full scan for the largest
//!   reduced-cost magnitude (the workspace's historical rule; ties keep
//!   the lowest column index).
//! * [`DevexPricing`] — a Devex reference framework (Forrest–Goldfarb
//!   style): full scan scored by `d²/γ_j`, with the reference weights
//!   `γ` updated from the pivot row after each basis change.
//!
//! Selection: `SimplexSolver::from_model_configured` > `LETDMA_PRICING`
//! env > partial. The rule never affects *which* optimum is found, only
//! the path to it; the byte-identical-trajectory regressions always
//! compare runs under the same rule.

use letdma_core::env::{resolve_choice, PRICING_ENV};
use std::fmt;

/// Which [`Pricing`] strategy the simplex runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PricingRule {
    /// Full-scan largest-|reduced-cost| ([`DantzigPricing`]).
    Dantzig,
    /// Rotating-block partial pricing ([`PartialPricing`], the default).
    #[default]
    Partial,
    /// Devex reference weights ([`DevexPricing`]).
    Devex,
}

impl PricingRule {
    /// Parses an environment spelling (case-insensitive).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "dantzig" | "full" => Some(Self::Dantzig),
            "partial" => Some(Self::Partial),
            "devex" => Some(Self::Devex),
            _ => None,
        }
    }

    /// Resolves the rule: `requested` if given, else `LETDMA_PRICING`,
    /// else [`PricingRule::Partial`].
    #[must_use]
    pub fn resolve(requested: Option<Self>) -> Self {
        resolve_choice(PRICING_ENV, requested, Self::Partial, Self::parse)
    }

    /// Instantiates the strategy.
    #[must_use]
    pub fn instantiate(self) -> Box<dyn Pricing> {
        match self {
            Self::Dantzig => Box::new(DantzigPricing),
            Self::Partial => Box::new(PartialPricing::default()),
            Self::Devex => Box::new(DevexPricing::default()),
        }
    }
}

/// An entering-variable selection strategy.
pub trait Pricing: fmt::Debug {
    /// Called whenever the solver (re)starts a pricing phase over `n`
    /// columns (phase switches, warm restarts).
    fn reset(&mut self, n: usize);

    /// Chooses the entering column among `0..n`. `eval(j)` prices column
    /// `j`: `Some((d, dir))` when it is an improving candidate (reduced
    /// cost `d`, movement direction `dir ∈ {−1, +1}`), `None` otherwise.
    /// Every `eval` call must add one to `examined` (the
    /// `PricingCandidates` counter). Returning `None` asserts optimality,
    /// so a strategy may do so only after pricing every column.
    fn select(
        &mut self,
        n: usize,
        examined: &mut u64,
        eval: &mut dyn FnMut(usize) -> Option<(f64, f64)>,
    ) -> Option<(usize, f64, f64)>;

    /// Whether [`update`](Pricing::update) needs the pivot row (the
    /// solver then prices `α_j = e_r' B⁻¹ a_j` for the strategy).
    fn wants_pivot_row(&self) -> bool {
        false
    }

    /// Observes a basis change: column `entering` replaced the variable
    /// `leaving` (basic in the pivot row), with pivot element `pivot`.
    /// `alpha(j)` returns the pivot-row coefficient of column `j` when
    /// `j` was nonbasic before the change, `None` otherwise; it is only
    /// meaningful when [`wants_pivot_row`](Pricing::wants_pivot_row) is
    /// true.
    fn update(
        &mut self,
        entering: usize,
        leaving: usize,
        pivot: f64,
        alpha: &mut dyn FnMut(usize) -> Option<f64>,
    ) {
        let _ = (entering, leaving, pivot, alpha);
    }
}

/// The classic full-scan rule: largest `|d|` wins, ties keep the lowest
/// column index.
#[derive(Debug, Clone, Copy, Default)]
pub struct DantzigPricing;

impl Pricing for DantzigPricing {
    fn reset(&mut self, _n: usize) {}

    fn select(
        &mut self,
        n: usize,
        examined: &mut u64,
        eval: &mut dyn FnMut(usize) -> Option<(f64, f64)>,
    ) -> Option<(usize, f64, f64)> {
        let mut best: Option<(usize, f64, f64)> = None;
        for j in 0..n {
            *examined += 1;
            if let Some((d, dir)) = eval(j) {
                match best {
                    Some((_, bd, _)) if d.abs() <= bd.abs() => {}
                    _ => best = Some((j, d, dir)),
                }
            }
        }
        best
    }
}

/// Rotating-block partial pricing: scan from a persistent cursor, stop at
/// the first block boundary once a candidate exists, wrap through all
/// `n` columns before declaring optimality.
#[derive(Debug, Clone, Default)]
pub struct PartialPricing {
    cursor: usize,
    block: usize,
}

impl PartialPricing {
    /// Smallest block worth stopping at — below this, the scan overhead
    /// of another lap outweighs the saved pricing work.
    const MIN_BLOCK: usize = 64;
}

impl Pricing for PartialPricing {
    fn reset(&mut self, n: usize) {
        self.cursor = 0;
        self.block = (n / 8).max(Self::MIN_BLOCK);
    }

    fn select(
        &mut self,
        n: usize,
        examined: &mut u64,
        eval: &mut dyn FnMut(usize) -> Option<(f64, f64)>,
    ) -> Option<(usize, f64, f64)> {
        if n == 0 {
            return None;
        }
        let start = self.cursor % n;
        let mut best: Option<(usize, f64, f64)> = None;
        let mut scanned = 0;
        while scanned < n {
            let j = (start + scanned) % n;
            scanned += 1;
            *examined += 1;
            if let Some((d, dir)) = eval(j) {
                let better = match best {
                    None => true,
                    Some((_, bd, _)) => d.abs() > bd.abs(),
                };
                if better {
                    best = Some((j, d, dir));
                }
            }
            if best.is_some() && scanned >= self.block {
                break;
            }
        }
        self.cursor = (start + scanned) % n;
        best
    }
}

/// Devex pricing: a reference-framework approximation of steepest edge.
///
/// Candidates are scored `d²/γ_j`; after a pivot with entering column
/// `q`, leaving variable `l` and pivot element `α_q`, the weights update
/// as `γ_j ← max(γ_j, (α_j/α_q)² γ_q)` for nonbasic `j` and
/// `γ_l ← max(γ_q/α_q², 1)`. The framework resets (all weights to 1)
/// when the largest weight overflows the reference band.
#[derive(Debug, Clone, Default)]
pub struct DevexPricing {
    weights: Vec<f64>,
}

impl DevexPricing {
    /// Weight ceiling before the reference framework is restarted.
    const MAX_WEIGHT: f64 = 1e8;
}

impl Pricing for DevexPricing {
    fn reset(&mut self, n: usize) {
        self.weights.clear();
        self.weights.resize(n, 1.0);
    }

    fn select(
        &mut self,
        n: usize,
        examined: &mut u64,
        eval: &mut dyn FnMut(usize) -> Option<(f64, f64)>,
    ) -> Option<(usize, f64, f64)> {
        debug_assert_eq!(self.weights.len(), n, "reset before select");
        let mut best: Option<(usize, f64, f64, f64)> = None; // (j, d, dir, score)
        for j in 0..n {
            *examined += 1;
            if let Some((d, dir)) = eval(j) {
                let score = d * d / self.weights[j];
                let better = match best {
                    None => true,
                    Some((.., bs)) => score > bs,
                };
                if better {
                    best = Some((j, d, dir, score));
                }
            }
        }
        best.map(|(j, d, dir, _)| (j, d, dir))
    }

    fn wants_pivot_row(&self) -> bool {
        true
    }

    fn update(
        &mut self,
        entering: usize,
        leaving: usize,
        pivot: f64,
        alpha: &mut dyn FnMut(usize) -> Option<f64>,
    ) {
        if pivot == 0.0 || self.weights.is_empty() {
            return;
        }
        let gamma_q = self.weights[entering];
        let inv_pivot2 = 1.0 / (pivot * pivot);
        let mut max_w: f64 = 1.0;
        for j in 0..self.weights.len() {
            if j == entering {
                continue;
            }
            if let Some(a) = alpha(j) {
                if a != 0.0 {
                    let cand = a * a * inv_pivot2 * gamma_q;
                    if cand > self.weights[j] {
                        self.weights[j] = cand;
                    }
                }
            }
            max_w = max_w.max(self.weights[j]);
        }
        self.weights[leaving] = (gamma_q * inv_pivot2).max(1.0);
        max_w = max_w.max(self.weights[leaving]);
        if max_w > Self::MAX_WEIGHT {
            self.weights.iter_mut().for_each(|w| *w = 1.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Prices three fixed candidates: columns 1, 3, 4 with |d| 2, 5, 3.
    fn eval_fixture(j: usize) -> Option<(f64, f64)> {
        match j {
            1 => Some((-2.0, 1.0)),
            3 => Some((5.0, -1.0)),
            4 => Some((-3.0, 1.0)),
            _ => None,
        }
    }

    #[test]
    fn rule_parses_and_resolves() {
        assert_eq!(PricingRule::parse("dantzig"), Some(PricingRule::Dantzig));
        assert_eq!(PricingRule::parse("PARTIAL"), Some(PricingRule::Partial));
        assert_eq!(PricingRule::parse("devex"), Some(PricingRule::Devex));
        assert_eq!(PricingRule::parse("junk"), None);
        assert_eq!(
            PricingRule::resolve(Some(PricingRule::Devex)),
            PricingRule::Devex
        );
    }

    #[test]
    fn dantzig_takes_largest_magnitude_and_counts_examined() {
        let mut p = DantzigPricing;
        p.reset(6);
        let mut examined = 0;
        let pick = p.select(6, &mut examined, &mut eval_fixture);
        assert_eq!(pick, Some((3, 5.0, -1.0)));
        assert_eq!(examined, 6, "full scan prices every column");
    }

    #[test]
    fn partial_pricing_is_exhaustive_before_declaring_optimality() {
        let mut p = PartialPricing::default();
        p.reset(6);
        let mut examined = 0;
        // No candidates at all: must scan everything and return None.
        let pick = p.select(6, &mut examined, &mut |_| None);
        assert_eq!(pick, None);
        assert_eq!(examined, 6);
    }

    #[test]
    fn partial_pricing_rotates_its_cursor() {
        let mut p = PartialPricing::default();
        p.reset(6); // block = 64 > n, so each select scans all 6
        let mut examined = 0;
        let first = p.select(6, &mut examined, &mut eval_fixture);
        assert_eq!(first, Some((3, 5.0, -1.0)));
        // A tiny block makes the rotation observable: after the cursor
        // passes column 3, a fresh scan starting beyond it finds 4 first.
        p.block = 1;
        p.cursor = 4;
        let second = p.select(6, &mut examined, &mut eval_fixture);
        assert_eq!(second, Some((4, -3.0, 1.0)));
    }

    #[test]
    fn devex_weights_bias_selection_and_update() {
        let mut p = DevexPricing::default();
        p.reset(6);
        let mut examined = 0;
        // Equal weights: largest |d| wins, like Dantzig.
        assert_eq!(
            p.select(6, &mut examined, &mut eval_fixture),
            Some((3, 5.0, -1.0))
        );
        // A heavy weight on column 3 flips the choice to column 4:
        // 25/10 < 9/1.
        p.weights[3] = 10.0;
        assert_eq!(
            p.select(6, &mut examined, &mut eval_fixture),
            Some((4, -3.0, 1.0))
        );
        // Update: entering 4 (γ=1), pivot 2, leaving variable 0; column 1
        // has α=4 ⇒ γ₁ = max(1, 16/4·1) = 4; γ₀ = max(1/4, 1) = 1.
        p.update(4, 0, 2.0, &mut |j| if j == 1 { Some(4.0) } else { None });
        assert_eq!(p.weights[1], 4.0);
        assert_eq!(p.weights[0], 1.0);
    }

    #[test]
    fn devex_reference_reset_on_overflow() {
        let mut p = DevexPricing::default();
        p.reset(3);
        p.update(0, 1, 1e-6, &mut |j| if j == 2 { Some(1.0) } else { None });
        // γ₂ would be 1e12 > MAX_WEIGHT: the framework restarts at 1.
        assert!(p.weights.iter().all(|&w| w == 1.0));
    }
}
