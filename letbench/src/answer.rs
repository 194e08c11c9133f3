//! One answer: a scenario taken to a conformance-verified layout and DMA
//! schedule, its optimality gap, and its simulated per-task latency under
//! all five protocols.

use std::time::{Duration, Instant};

use letdma::core::{Counter, SolverStats};
use letdma::milp::SolveStatus;
use letdma::model::conformance::{verify, VerifyOptions};
use letdma::model::System;
use letdma::opt::{LetDmaSolution, Objective, OptConfig, OptError, Provenance};
use letdma::sim::{simulate, Approach, SimConfig, SimReport};

use crate::stats;

/// One input of a workload's grid.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Stable name (`α=20%/OBJ-DMAT`, …).
    pub name: String,
    /// The system, with the acquisition deadlines of its α applied.
    pub system: System,
    /// Objective variant.
    pub objective: Objective,
    /// Branch-and-bound node budget (the only stopping rule: no solve is
    /// time-limited, so every answer is deterministic).
    pub node_limit: u64,
}

impl Scenario {
    /// The optimizer configuration of this scenario: one solver thread,
    /// no time limit, no root-gap measurement, every other knob at its
    /// default.
    pub fn config(&self) -> OptConfig {
        OptConfig::new()
            .with_objective(self.objective)
            .with_node_limit(self.node_limit)
            .without_time_limit()
            .with_threads(1)
            .with_measure_root_gap(false)
    }
}

/// Everything about an answer that must repeat exactly: across the passes
/// of a run, between traced and untraced passes, and across runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// DMA transfers at `s_0` (Table I's count).
    pub transfers: usize,
    /// Ended `Optimal` (or proven infeasible).
    pub proven: bool,
    /// Relative optimality gap at the node budget, as `f64` bits.
    pub gap_bits: u64,
    /// Mean over tasks of proposed λ ÷ Giotto-CPU λ, as `f64` bits.
    pub latency_ratio_bits: Option<u64>,
    /// Solver work reported with the solution (zero for heuristic
    /// answers): nodes, primal and dual iterations, refactorizations.
    pub milp_work: [u64; 4],
    /// Simulator events over all five protocols.
    pub sim_events: u64,
    /// Passed every check made by [`finish`].
    pub ok: bool,
}

impl Record {
    /// The gap as a number.
    pub fn gap(&self) -> f64 {
        f64::from_bits(self.gap_bits)
    }

    /// The latency ratio as a number.
    pub fn latency_ratio(&self) -> Option<f64> {
        self.latency_ratio_bits.map(f64::from_bits)
    }
}

/// Wall-clock spans the benchmark takes around its own calls into each
/// layer for one answer.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    /// `opt`: the optimizer pipeline (heuristic, formulation, presolve,
    /// search, validation), including this answer's share of batch
    /// planning where the workload solves through `Batch`.
    pub optimize: Duration,
    /// The part of [`Spans::optimize`] that is batch planning.
    pub batch_plan: Duration,
    /// `model::conformance::verify`.
    pub verify: Duration,
    /// `sim::simulate`, all five protocols.
    pub simulate: Duration,
}

impl Spans {
    /// The answer's wall time.
    pub fn total(&self) -> Duration {
        self.optimize + self.verify + self.simulate
    }
}

/// A solved, checked and simulated answer.
#[derive(Debug)]
pub struct Outcome {
    /// The deterministic record.
    pub record: Record,
    /// The solution (kept for the after-run heuristic comparison).
    pub solution: Option<LetDmaSolution>,
    /// Span timings.
    pub spans: Spans,
    /// The solver's own phases and counters (traced passes only).
    pub stats: Option<SolverStats>,
    /// Why the answer failed its checks, if it did.
    pub failure: Option<String>,
}

/// The five simulated protocols, in the order their reports are kept.
const APPROACHES: [Approach; 5] = [
    Approach::ProposedDma,
    Approach::GiottoCpu,
    Approach::GiottoDmaA,
    Approach::GiottoDmaB,
    Approach::TripleBuffered,
];

/// Checks and simulates the optimizer's result for `scenario`, whose
/// optimize span the caller has already measured.
pub fn finish(
    scenario: &Scenario,
    result: Result<LetDmaSolution, OptError>,
    mut spans: Spans,
    stats: Option<SolverStats>,
) -> Outcome {
    let solution = match result {
        Ok(solution) => solution,
        Err(err) => {
            let proven = matches!(err, OptError::Infeasible);
            let failure = format!("{}: optimizer: {err}", scenario.name);
            return failed(failure, proven, spans, stats);
        }
    };
    let system = &scenario.system;

    let t = Instant::now();
    let violations = verify(
        system,
        &solution.layout,
        &solution.schedule,
        VerifyOptions::default(),
    );
    spans.verify = t.elapsed();

    let t = Instant::now();
    let reports: Vec<Result<SimReport, _>> = APPROACHES
        .iter()
        .map(|&approach| {
            let schedule = match approach {
                Approach::GiottoCpu | Approach::GiottoDmaA => None,
                _ => Some(&solution.schedule),
            };
            simulate(system, schedule, &SimConfig::for_approach(approach))
        })
        .collect();
    spans.simulate = t.elapsed();

    let (proven, bound, work) = match &solution.provenance {
        Provenance::Milp { status, stats } => (
            *status == SolveStatus::Optimal,
            stats.best_bound,
            [
                stats.nodes,
                stats.lp_iterations,
                stats.dual_iterations,
                stats.refactorizations,
            ],
        ),
        Provenance::Heuristic => (false, None, [0; 4]),
    };
    let gap = stats::gap(proven, solution.objective_value, bound);

    let mut failure = (!violations.is_empty()).then(|| {
        format!(
            "{}: {} conformance violations, first: {}",
            scenario.name,
            violations.len(),
            violations[0]
        )
    });
    let mut sim_events = 0;
    let mut latency_ratio = None;
    match reports.into_iter().collect::<Result<Vec<_>, _>>() {
        Err(err) => failure = Some(format!("{}: simulation: {err}", scenario.name)),
        Ok(reports) => {
            sim_events = reports.iter().map(|r| r.events_processed).sum();
            // The protocols that run this answer's schedule with R1–R3
            // readiness must be hazard- and overrun-free; the Giotto
            // baselines are measured, not checked (Giotto-CPU overruns
            // Property 3 on WATERS, which is the paper's point).
            if let Some((approach, report)) = APPROACHES
                .iter()
                .zip(&reports)
                .filter(|(a, _)| matches!(a, Approach::ProposedDma | Approach::TripleBuffered))
                .find(|(_, r)| r.buffer_hazards > 0 || r.property3_overruns > 0)
            {
                failure.get_or_insert(format!(
                    "{}: {approach:?} simulation has {} buffer hazards and {} Property-3 overruns",
                    scenario.name, report.buffer_hazards, report.property3_overruns
                ));
            }
            let (proposed, giotto_cpu) = (&reports[0], &reports[1]);
            latency_ratio = stats::latency_ratio_mean(system.tasks().iter().map(|t| {
                (
                    proposed.latency(t.id()).as_ns(),
                    giotto_cpu.latency(t.id()).as_ns(),
                )
            }));
        }
    }
    if proven && gap != 0.0 {
        failure.get_or_insert(format!("{}: proven answer with gap {gap}", scenario.name));
    }

    Outcome {
        record: Record {
            transfers: solution.num_transfers(),
            proven,
            gap_bits: gap.to_bits(),
            latency_ratio_bits: latency_ratio.map(f64::to_bits),
            milp_work: work,
            sim_events,
            ok: failure.is_none(),
        },
        solution: Some(solution),
        spans,
        stats,
        failure,
    }
}

/// An answer that produced no checkable solution: an optimizer error, or
/// a panic anywhere in the pipeline.
pub fn failed(failure: String, proven: bool, spans: Spans, stats: Option<SolverStats>) -> Outcome {
    Outcome {
        record: Record {
            transfers: 0,
            proven,
            gap_bits: stats::gap(proven, None, None).to_bits(),
            latency_ratio_bits: None,
            milp_work: [0; 4],
            sim_events: 0,
            ok: false,
        },
        solution: None,
        spans,
        stats,
        failure: Some(failure),
    }
}

/// Whether the answer's objective is no worse than the constructive
/// heuristic's on the same scenario (OBJ-DMAT: transfer count; OBJ-DEL:
/// worst delay ratio; NO-OBJ: any feasible answer qualifies).
pub fn not_worse_than(
    scenario: &Scenario,
    answer: &LetDmaSolution,
    heuristic: &LetDmaSolution,
) -> bool {
    match scenario.objective {
        Objective::None => true,
        Objective::MinTransfers => answer.num_transfers() <= heuristic.num_transfers(),
        Objective::MinDelayRatio => {
            answer.max_delay_ratio(&scenario.system)
                <= heuristic.max_delay_ratio(&scenario.system) + 1e-12
        }
    }
}

/// The solver counters the traced run reports, summed over answers.
pub const COUNTERS: [(&str, Counter); 10] = [
    ("milp.nodes", Counter::Nodes),
    ("milp.simplex_iters", Counter::SimplexIterations),
    ("milp.phase1_iters", Counter::Phase1Iterations),
    ("milp.dual_iters", Counter::DualIterations),
    ("milp.refactorizations", Counter::Refactorizations),
    ("milp.lp_solves", Counter::LpSolves),
    ("milp.warm_fathoms", Counter::WarmFathoms),
    (
        "milp.cross_scenario_warm_starts",
        Counter::CrossScenarioWarmStarts,
    ),
    ("milp.phase1_iters_saved", Counter::Phase1IterationsSaved),
    ("milp.heuristic_fallbacks", Counter::HeuristicFallbacks),
];
