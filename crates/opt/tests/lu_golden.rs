//! Golden trajectory pin for the sparse LU kernel on the one real
//! instance the paper's experiments revolve around: the presolved root LP
//! of WATERS OBJ-DMAT at α = 20 %, solved by the primal simplex on the
//! sparse LU basis with partial pricing and the basis's own
//! refactorization cadence (the configuration every branch-and-bound node
//! of a default solve uses).
//!
//! The pinned numbers were recorded before any change to
//! `SparseLu::refactorize`'s pivot search. A change to the LU kernel that
//! claims to keep trajectories bit-identical must leave every one of them
//! unchanged: iteration counts, refactorization count, the objective's
//! exact bits, and an FNV-1a hash of the final basis and primal point.
//! Run-to-run identity tests elsewhere cannot catch a kernel change that
//! is deterministic but different; this one can.

use letdma_analysis::{apply_gammas, derive_gammas, let_task_segments};
use letdma_core::hash::Fnv64;
use letdma_opt::{formulation_model, heuristic_solution, Objective, OptConfig};
use milp::simplex::{LpOutcome, SimplexSolver};
use milp::{BasisKind, PricingRule};
use waters2019::waters_system;

#[test]
fn waters_obj_dmat_root_lp_trajectory_is_pinned() {
    let (mut system, _) = waters_system().expect("case study builds");
    let reference = heuristic_solution(&system, false).expect("heuristic feasible");
    let segments = let_task_segments(&system, &reference.schedule);
    let sens = derive_gammas(&system, 20, &segments).expect("base schedulable");
    assert!(sens.schedulable, "α = 20 % must be schedulable");
    apply_gammas(&mut system, &sens);

    let model = formulation_model(
        &system,
        &OptConfig::new().with_objective(Objective::MinTransfers),
    );
    let red = milp::presolve::presolve(&model, 1e-6).expect("WATERS presolves feasibly");
    assert_eq!(
        (red.model.num_constraints(), red.model.num_vars()),
        (3140, 1594)
    );

    let mut lp = SimplexSolver::from_model_configured(
        &red.model,
        BasisKind::Sparse,
        PricingRule::Partial,
        None,
    );
    let LpOutcome::Optimal { objective, .. } = lp.solve() else {
        panic!("the WATERS root LP must solve to optimality");
    };
    let snapshot = lp.snapshot();
    let (x, basis) = lp.debug_point();
    let mut hash = Fnv64::new();
    for &j in &basis {
        hash.write_u64(j as u64);
    }
    for v in &x {
        hash.write_u64(v.to_bits());
    }

    assert_eq!(snapshot.iterations(), 4915, "simplex iterations");
    assert_eq!(snapshot.phase1_iterations(), 3841, "phase-1 iterations");
    assert_eq!(lp.refactorizations(), 122, "LU rebuilds");
    assert_eq!(
        objective.to_bits(),
        4_615_224_560_966_705_661,
        "objective bits ({objective})"
    );
    assert_eq!(hash.finish(), 5_056_572_551_755_072_262, "basis + x hash");
}
