//! The two workloads: how their inputs are generated (the timed set-up)
//! and how one pass over their grid is solved.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use letdma::analysis::{apply_gammas, derive_gammas, let_task_segments};
use letdma::core::SolverStats;
use letdma::opt::{heuristic_solution, Batch, Objective, Optimizer};
use letdma::waters::waters_system;

use crate::answer::{self, Outcome, Scenario, Spans};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table I: WATERS under NO-OBJ, OBJ-DMAT and OBJ-DEL on an α grid,
    /// one `Batch` per objective so same-shape cells share a root basis.
    Table1,
    /// WATERS under NO-OBJ on a fine α grid: answered without search.
    Design,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "waters-table1" => Some(Self::Table1),
            "waters-design" => Some(Self::Design),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Table1 => "waters-table1",
            Self::Design => "waters-design",
        }
    }
}

/// What a workload's inputs are generated from (all benchmark arguments).
#[derive(Debug, Clone)]
pub struct Params {
    /// α grid (percent) of `waters-table1`.
    pub table1_alphas: Vec<u32>,
    /// α grid (percent) of `waters-design`.
    pub design_alphas: Vec<u32>,
    /// Node budget of every solve.
    pub node_limit: u64,
}

/// A workload's generated inputs.
#[derive(Debug, Clone)]
pub struct Grid {
    /// Every scenario, in grid order.
    pub scenarios: Vec<Scenario>,
    /// Scenario indices solved together; with `batched`, each group is one
    /// `Batch`, otherwise every group is a single `Optimizer` run.
    pub groups: Vec<Vec<usize>>,
    /// Whether groups go through `Batch`.
    pub batched: bool,
}

/// Set-up time per layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupSpans {
    /// `waters`: building the case study.
    pub generate: Duration,
    /// `opt`: the constructive heuristic's schedule the sensitivity
    /// analysis starts from.
    pub reference: Duration,
    /// `analysis`: `let_task_segments` on that schedule, then
    /// `derive_gammas` and `apply_gammas` per α.
    pub sensitivity: Duration,
}

/// Generates the workload's inputs, timing each layer.
///
/// # Errors
///
/// A description of an input the case study cannot produce (an
/// unschedulable α).
pub fn setup(workload: Workload, params: &Params) -> Result<(Grid, SetupSpans), String> {
    let mut spans = SetupSpans::default();
    let (alphas, objectives): (&[u32], &[Objective]) = match workload {
        Workload::Table1 => (
            &params.table1_alphas,
            &[
                Objective::None,
                Objective::MinTransfers,
                Objective::MinDelayRatio,
            ],
        ),
        Workload::Design => (&params.design_alphas, &[Objective::None]),
    };
    let t = Instant::now();
    let (base, _) = waters_system().map_err(|e| format!("WATERS case study: {e}"))?;
    spans.generate = t.elapsed();

    let t = Instant::now();
    let reference =
        heuristic_solution(&base, false).map_err(|e| format!("WATERS heuristic: {e}"))?;
    spans.reference = t.elapsed();

    let t = Instant::now();
    let segments = let_task_segments(&base, &reference.schedule);
    let mut systems = Vec::with_capacity(alphas.len());
    for &alpha in alphas {
        let sens =
            derive_gammas(&base, alpha, &segments).map_err(|e| format!("α={alpha}%: {e}"))?;
        if !sens.schedulable {
            return Err(format!("α={alpha}% is not schedulable"));
        }
        let mut system = base.clone();
        apply_gammas(&mut system, &sens);
        systems.push((alpha, system));
    }
    spans.sensitivity = t.elapsed();

    let mut scenarios = Vec::new();
    let mut groups = Vec::new();
    for &objective in objectives {
        let first = scenarios.len();
        for (alpha, system) in &systems {
            scenarios.push(Scenario {
                name: format!("α={alpha}%/{objective}"),
                system: system.clone(),
                objective,
                node_limit: params.node_limit,
            });
        }
        groups.push((first..scenarios.len()).collect::<Vec<_>>());
    }
    let batched = workload == Workload::Table1;
    if !batched {
        groups = groups.concat().into_iter().map(|i| vec![i]).collect();
    }
    Ok((
        Grid {
            scenarios,
            groups,
            batched,
        },
        spans,
    ))
}

fn panicked(scenario: &Scenario, stage: &str, payload: &(dyn Any + Send), spans: Spans) -> Outcome {
    let message = payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_owned());
    let failure = format!("{}: {stage} panicked: {message}", scenario.name);
    answer::failed(failure, false, spans, None)
}

/// Checks and simulates an optimizer result; a panic there fails the
/// answer instead of the run.
fn finish_caught(
    scenario: &Scenario,
    result: Result<letdma::opt::LetDmaSolution, letdma::opt::OptError>,
    spans: Spans,
    stats: Option<SolverStats>,
) -> Outcome {
    let fallback = spans.clone();
    catch_unwind(AssertUnwindSafe(|| {
        answer::finish(scenario, result, spans, stats)
    }))
    .unwrap_or_else(|p| panicked(scenario, "check or simulation", &*p, fallback))
}

/// Solves one group of the grid. `traced` attaches a `SolverStats` to
/// every solve; untraced solves through `Optimizer` attach nothing (a
/// `Batch` always keeps per-scenario stats, which untraced passes drop).
pub fn run_group(grid: &Grid, group: &[usize], traced: bool) -> Vec<(usize, Outcome)> {
    if grid.batched {
        let batch = group.iter().fold(Batch::new().threads(1), |b, &i| {
            let s = &grid.scenarios[i];
            b.scenario(s.system.clone(), s.config())
        });
        let t = Instant::now();
        let outcomes = catch_unwind(AssertUnwindSafe(|| batch.run()));
        let wall = t.elapsed();
        return match outcomes {
            Err(p) => group
                .iter()
                .map(|&i| {
                    let spans = Spans {
                        optimize: wall / group.len() as u32,
                        ..Spans::default()
                    };
                    (i, panicked(&grid.scenarios[i], "batch", &*p, spans))
                })
                .collect(),
            Ok(outcomes) => {
                // Planning (formulation, presolve and reuse grouping for
                // every cell) runs before the per-cell clocks start; each
                // cell carries an equal share of it.
                let solving: Duration = outcomes.iter().map(|o| o.elapsed).sum();
                let plan = wall.saturating_sub(solving) / group.len() as u32;
                group
                    .iter()
                    .zip(outcomes)
                    .map(|(&i, outcome)| {
                        let spans = Spans {
                            optimize: outcome.elapsed + plan,
                            batch_plan: plan,
                            ..Spans::default()
                        };
                        let stats = traced.then_some(outcome.stats);
                        (
                            i,
                            finish_caught(&grid.scenarios[i], outcome.result, spans, stats),
                        )
                    })
                    .collect()
            }
        };
    }
    group
        .iter()
        .map(|&i| {
            let scenario = &grid.scenarios[i];
            let config = scenario.config();
            let mut stats = SolverStats::new();
            let t = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| {
                let optimizer = Optimizer::new(&scenario.system).config(config);
                if traced {
                    optimizer.instrument(&mut stats).run()
                } else {
                    optimizer.run()
                }
            }));
            let spans = Spans {
                optimize: t.elapsed(),
                ..Spans::default()
            };
            let outcome = match result {
                Ok(result) => finish_caught(scenario, result, spans, traced.then_some(stats)),
                Err(p) => panicked(scenario, "optimizer", &*p, spans),
            };
            (i, outcome)
        })
        .collect()
}
