//! Differential suite pinning [`SparseLu`] against the [`DenseInverse`]
//! oracle: on seeded random sparse bases the two representations must
//! agree on every `ftran`, `btran` and `refactorize` to 1e-9, singular
//! bases must fail on both, and long pivot chains crossing several
//! refactorizations must not drift apart.
//!
//! The generator is a hand-rolled xorshift so the corpus is identical on
//! every platform and run (no external RNG crates, no time seeding).

use milp::{Basis, DenseInverse, SparseLu};

/// Deterministic xorshift64* stream.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

type SparseCol = Vec<(usize, f64)>;

/// A random nonsingular sparse basis: a guaranteed diagonal (well away
/// from zero) plus `density` chance of an off-diagonal entry per slot,
/// then a random column permutation so the diagonal structure is hidden
/// from the factorization's pivot search.
fn random_basis(rng: &mut Rng, m: usize, density: f64) -> Vec<SparseCol> {
    let mut cols: Vec<SparseCol> = Vec::with_capacity(m);
    for j in 0..m {
        let mut col: SparseCol = Vec::new();
        for i in 0..m {
            if i == j {
                let mag = rng.range(1.0, 4.0);
                let sign = if rng.next_f64() < 0.5 { -1.0 } else { 1.0 };
                col.push((i, sign * mag));
            } else if rng.next_f64() < density {
                col.push((i, rng.range(-1.0, 1.0)));
            }
        }
        cols.push(col);
    }
    // Fisher-Yates over columns.
    for j in (1..m).rev() {
        let k = rng.below(j + 1);
        cols.swap(j, k);
    }
    cols
}

/// A sparse right-hand side over `m` indices (at least one entry).
fn random_rhs(rng: &mut Rng, m: usize) -> Vec<(usize, f64)> {
    let mut rhs: Vec<(usize, f64)> = Vec::new();
    for i in 0..m {
        if rng.next_f64() < 0.3 {
            rhs.push((i, rng.range(-2.0, 2.0)));
        }
    }
    if rhs.is_empty() {
        rhs.push((rng.below(m), 1.0));
    }
    rhs
}

fn assert_close(tag: &str, a: &[f64], b: &[f64]) {
    for (k, (&x, &y)) in a.iter().zip(b).enumerate() {
        assert!(
            (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0),
            "{tag}: position {k} diverged: dense {x} vs sparse {y}"
        );
    }
}

/// Both representations refactorized from the same random basis must give
/// the same `ftran` and `btran` answers on a batch of random sparse
/// right-hand sides.
#[test]
fn refactorized_solves_agree_on_random_bases() {
    let mut rng = Rng::new(0x1E7D_3A01);
    for case in 0..40 {
        let m = 3 + rng.below(22);
        let density = rng.range(0.05, 0.4);
        let cols = random_basis(&mut rng, m, density);
        let refs: Vec<&SparseCol> = cols.iter().collect();

        let mut dense = DenseInverse::new();
        let mut sparse = SparseLu::new();
        dense.reset(&vec![1.0; m]);
        sparse.reset(&vec![1.0; m]);
        assert!(dense.refactorize(&refs), "case {case}: dense refused");
        assert!(sparse.refactorize(&refs), "case {case}: sparse refused");

        let (mut wd, mut ws) = (vec![0.0; m], vec![0.0; m]);
        for probe in 0..6 {
            let a = random_rhs(&mut rng, m);
            dense.ftran(&a, &mut wd);
            sparse.ftran(&a, &mut ws);
            assert_close(&format!("case {case} probe {probe} ftran"), &wd, &ws);

            let c = random_rhs(&mut rng, m);
            dense.btran(&c, &mut wd);
            sparse.btran(&c, &mut ws);
            assert_close(&format!("case {case} probe {probe} btran"), &wd, &ws);
        }
    }
}

/// A `{0, ±1}`-valued random basis, like the MILP's ordering and
/// assignment constraint columns. With every entry (and so every pivot
/// and every multiplier) at ±1, elimination arithmetic stays on exact
/// integers and entries cancel *exactly* mid-factorization — which the
/// real-valued corpus can never produce — exercising the fill-in and
/// entry-removal bookkeeping of the sparse representation. Often
/// singular; callers skip those draws (verdicts must still match).
fn random_int_basis(rng: &mut Rng, m: usize, density: f64) -> Vec<SparseCol> {
    let mut cols: Vec<SparseCol> = Vec::with_capacity(m);
    for j in 0..m {
        let mut col: SparseCol = Vec::new();
        for i in 0..m {
            if i == j || rng.next_f64() < density {
                let sign = if rng.next_f64() < 0.5 { -1.0 } else { 1.0 };
                col.push((i, sign));
            }
        }
        cols.push(col);
    }
    for j in (1..m).rev() {
        let k = rng.below(j + 1);
        cols.swap(j, k);
    }
    cols
}

/// Integer-coefficient bases trigger exact cancellations inside the
/// elimination (like the MILP's ±1 constraint matrices do), so entries
/// vanish mid-factorization and later steps re-create them as fill-ins.
/// Dense and sparse must still agree on every solve.
#[test]
fn integer_bases_with_exact_cancellation_agree() {
    let mut rng = Rng::new(0xCA9C_E77E);
    for case in 0..60 {
        let m = 8 + rng.below(25);
        let density = rng.range(0.2, 0.6);
        let cols = random_int_basis(&mut rng, m, density);
        let refs: Vec<&SparseCol> = cols.iter().collect();

        let mut dense = DenseInverse::new();
        let mut sparse = SparseLu::new();
        dense.reset(&vec![1.0; m]);
        sparse.reset(&vec![1.0; m]);
        let ok_dense = dense.refactorize(&refs);
        let ok_sparse = sparse.refactorize(&refs);
        assert_eq!(
            ok_dense, ok_sparse,
            "case {case}: singularity verdicts diverged"
        );
        if !ok_dense {
            continue; // the random integer basis happened to be singular
        }

        let (mut wd, mut ws) = (vec![0.0; m], vec![0.0; m]);
        for probe in 0..6 {
            let a = random_rhs(&mut rng, m);
            dense.ftran(&a, &mut wd);
            sparse.ftran(&a, &mut ws);
            assert_close(&format!("int case {case} probe {probe} ftran"), &wd, &ws);

            let c = random_rhs(&mut rng, m);
            dense.btran(&c, &mut wd);
            sparse.btran(&c, &mut ws);
            assert_close(&format!("int case {case} probe {probe} btran"), &wd, &ws);
        }
    }
}

/// Long product-form pivot chains interleaved with refactorizations: the
/// two representations walk the same random basis trajectory and must
/// agree after every step, including immediately after each rebuild.
#[test]
fn long_pivot_chains_stay_in_agreement() {
    let mut rng = Rng::new(0xBEEF_CAFE);
    for case in 0..10 {
        let m = 6 + rng.below(14);
        // Current basis columns, starting from the identity.
        let mut cols: Vec<SparseCol> = (0..m).map(|i| vec![(i, 1.0)]).collect();
        let mut dense = DenseInverse::new();
        let mut sparse = SparseLu::new();
        dense.reset(&vec![1.0; m]);
        sparse.reset(&vec![1.0; m]);

        let (mut wd, mut ws) = (vec![0.0; m], vec![0.0; m]);
        let mut pivots = 0u64;
        for step in 0..120 {
            // Propose a random entering column; retry until the pivot
            // position is numerically safe on the oracle.
            let mut entered = false;
            for _ in 0..8 {
                let a = {
                    let mut col = random_rhs(&mut rng, m);
                    col.sort_unstable_by_key(|&(i, _)| i);
                    col.dedup_by_key(|&mut (i, _)| i);
                    col
                };
                let r = rng.below(m);
                dense.ftran(&a, &mut wd);
                if wd[r].abs() < 1e-3 {
                    continue;
                }
                sparse.ftran(&a, &mut ws);
                assert_close(&format!("case {case} step {step} ftran"), &wd, &ws);
                dense.pivot(r, &wd);
                sparse.pivot(r, &ws);
                cols[r] = a;
                pivots += 1;
                entered = true;
                break;
            }
            assert!(entered, "case {case} step {step}: no safe pivot found");

            let c = random_rhs(&mut rng, m);
            dense.btran(&c, &mut wd);
            sparse.btran(&c, &mut ws);
            assert_close(&format!("case {case} step {step} btran"), &wd, &ws);

            // Periodic rebuild from the tracked basis columns, as the
            // simplex cadence would do — several times per chain.
            if step % 25 == 24 {
                let refs: Vec<&SparseCol> = cols.iter().collect();
                assert!(dense.refactorize(&refs), "case {case}: dense rebuild");
                assert!(sparse.refactorize(&refs), "case {case}: sparse rebuild");
                let c = random_rhs(&mut rng, m);
                dense.btran(&c, &mut wd);
                sparse.btran(&c, &mut ws);
                assert_close(&format!("case {case} step {step} post-rebuild"), &wd, &ws);
            }
        }
        assert_eq!(dense.pivots(), pivots);
        assert_eq!(sparse.pivots(), pivots);
        assert!(sparse.refactorizations() >= 4);
        assert!(
            sparse.eta_nonzeros() > 0,
            "product-form updates must go through the eta file"
        );
    }
}

/// A slack-heavy random basis shaped like a simplex basis early in
/// phase 1: at least 90 % of the `m` columns are signed unit (slack)
/// columns, the rest are structural. The structural columns own the rows
/// `rows` (whose slacks are not basic) through a guaranteed "diagonal"
/// entry and may couple to each other there; every structural column also
/// touches one to three slack rows. Eliminating those slack pivots drops a
/// structural column's count mid-factorization — to 1 for the columns
/// with no coupling entries, which then re-enter the count-1 bucket
/// behind thousands of already finished slack columns. Columns are
/// shuffled so slacks and structurals interleave in the pivot search.
fn slack_heavy_basis(rng: &mut Rng, m: usize) -> Vec<SparseCol> {
    let s = m / 20 + rng.below(m / 20);
    let mut is_struct_row = vec![false; m];
    let mut rows: Vec<usize> = Vec::with_capacity(s);
    while rows.len() < s {
        let i = rng.below(m);
        if !is_struct_row[i] {
            is_struct_row[i] = true;
            rows.push(i);
        }
    }
    let slack_rows: Vec<usize> = (0..m).filter(|&i| !is_struct_row[i]).collect();
    let sign = |rng: &mut Rng| if rng.next_f64() < 0.5 { -1.0 } else { 1.0 };

    let mut cols: Vec<SparseCol> = Vec::with_capacity(m);
    for &i in &slack_rows {
        cols.push(vec![(i, sign(rng))]);
    }
    for (k, &own) in rows.iter().enumerate() {
        let mut col: SparseCol = vec![(own, sign(rng) * rng.range(1.0, 4.0))];
        // Half the structurals couple to other structural rows; the rest
        // keep a single structural-row entry and so fall to count 1 once
        // their slack rows are eliminated.
        if k % 2 == 0 {
            for _ in 0..1 + rng.below(3) {
                let i = rows[rng.below(s)];
                if col.iter().all(|&(r, _)| r != i) {
                    col.push((i, rng.range(-1.0, 1.0)));
                }
            }
        }
        for _ in 0..1 + rng.below(3) {
            let i = slack_rows[rng.below(slack_rows.len())];
            if col.iter().all(|&(r, _)| r != i) {
                col.push((i, rng.range(-2.0, 2.0)));
            }
        }
        col.sort_unstable_by_key(|&(i, _)| i);
        cols.push(col);
    }
    for j in (1..m).rev() {
        let k = rng.below(j + 1);
        cols.swap(j, k);
    }
    cols
}

/// Bases of m ≥ 1000 with ≥ 90 % slack columns — slack-heavy like the
/// WATERS root LP's bases, far beyond the m ≤ 32 corpora above: the count-1
/// bucket fills with thousands of finished columns while structural
/// columns keep re-entering it. Dense and sparse must agree on every
/// solve, and a dependent structural pair must be rejected by both.
#[test]
fn slack_heavy_large_bases_agree() {
    let mut rng = Rng::new(0x51AC_4EA7);
    for case in 0..4 {
        let m = 1000 + rng.below(200);
        let mut cols = slack_heavy_basis(&mut rng, m);
        let slacks = cols.iter().filter(|c| c.len() == 1).count();
        assert!(
            slacks * 10 >= m * 9,
            "case {case}: {slacks}/{m} slack columns"
        );
        let refs: Vec<&SparseCol> = cols.iter().collect();

        let mut dense = DenseInverse::new();
        let mut sparse = SparseLu::new();
        dense.reset(&vec![1.0; m]);
        sparse.reset(&vec![1.0; m]);
        assert!(dense.refactorize(&refs), "case {case}: dense refused");
        assert!(sparse.refactorize(&refs), "case {case}: sparse refused");

        let (mut wd, mut ws) = (vec![0.0; m], vec![0.0; m]);
        for probe in 0..4 {
            let a = random_rhs(&mut rng, m);
            dense.ftran(&a, &mut wd);
            sparse.ftran(&a, &mut ws);
            assert_close(&format!("slack case {case} probe {probe} ftran"), &wd, &ws);

            let c = random_rhs(&mut rng, m);
            dense.btran(&c, &mut wd);
            sparse.btran(&c, &mut ws);
            assert_close(&format!("slack case {case} probe {probe} btran"), &wd, &ws);
        }

        // Singular variant: one structural column becomes a multiple of
        // another, so the structural block loses rank.
        let structural: Vec<usize> = (0..m).filter(|&j| cols[j].len() > 1).collect();
        let a = rng.below(structural.len());
        let b = (a + 1 + rng.below(structural.len() - 1)) % structural.len();
        let (src, dst) = (structural[a], structural[b]);
        let scale = rng.range(0.5, 2.0);
        cols[dst] = cols[src].iter().map(|&(i, v)| (i, scale * v)).collect();
        let refs: Vec<&SparseCol> = cols.iter().collect();
        assert!(!dense.refactorize(&refs), "case {case}: dense accepted");
        assert!(!sparse.refactorize(&refs), "case {case}: sparse accepted");
        assert_eq!(dense.refactorizations(), 1);
        assert_eq!(sparse.refactorizations(), 1);
    }
}

/// Singular bases must be rejected by both representations, and the
/// failed rebuild must leave both in their previous (working) state.
#[test]
fn singular_bases_fail_on_both() {
    let mut rng = Rng::new(0x5EED_0501);
    for case in 0..20 {
        let m = 3 + rng.below(10);
        let mut cols = random_basis(&mut rng, m, 0.3);
        // Make two columns linearly dependent (or clone one over another).
        let src = rng.below(m);
        let dst = (src + 1 + rng.below(m - 1)) % m;
        let scale = rng.range(0.5, 2.0);
        cols[dst] = cols[src]
            .iter()
            .map(|&(i, v)| (i, scale * v))
            .collect::<Vec<_>>();
        let refs: Vec<&SparseCol> = cols.iter().collect();

        let mut dense = DenseInverse::new();
        let mut sparse = SparseLu::new();
        dense.reset(&vec![1.0; m]);
        sparse.reset(&vec![1.0; m]);
        assert!(!dense.refactorize(&refs), "case {case}: dense accepted");
        assert!(!sparse.refactorize(&refs), "case {case}: sparse accepted");
        assert_eq!(dense.refactorizations(), 0);
        assert_eq!(sparse.refactorizations(), 0);

        // Both still answer as the identity they held before the attempt.
        let (mut wd, mut ws) = (vec![0.0; m], vec![0.0; m]);
        let a = random_rhs(&mut rng, m);
        dense.ftran(&a, &mut wd);
        sparse.ftran(&a, &mut ws);
        assert_close(&format!("case {case} post-reject"), &wd, &ws);
    }
}

/// A structurally singular basis (an all-zero column) is rejected, too.
#[test]
fn structurally_singular_column_is_rejected() {
    let mut dense = DenseInverse::new();
    let mut sparse = SparseLu::new();
    dense.reset(&[1.0, 1.0, 1.0]);
    sparse.reset(&[1.0, 1.0, 1.0]);
    let c0: SparseCol = vec![(0, 1.0)];
    let empty: SparseCol = vec![];
    let c2: SparseCol = vec![(1, 2.0), (2, 1.0)];
    assert!(!dense.refactorize(&[&c0, &empty, &c2]));
    assert!(!sparse.refactorize(&[&c0, &empty, &c2]));
}
