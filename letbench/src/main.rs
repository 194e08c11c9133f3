//! End-to-end and per-layer benchmark of the letdma pipeline.
//!
//! ```text
//! cargo run --release --manifest-path letbench/Cargo.toml -- \
//!     --workload <waters-table1|waters-design> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! One *answer* takes a scenario to a conformance-verified layout and DMA
//! schedule, with its optimality gap and its simulated per-task latency
//! under all five protocols. A run generates the workload's inputs
//! [`SETUPS`] times (the timed set-up), then solves whole passes over the
//! workload's grid until `--seconds` would be exceeded, with at least two
//! passes so every answer is checked to repeat exactly. No solve is
//! time-limited, so only wall clock varies between runs. The end-to-end
//! timings are rescaled to nominal host speed by a reference kernel timed
//! around every set-up and every group of answers (see [`pace`]). The
//! last line of standard output is the JSON result; see README.md for the
//! metrics.

mod answer;
mod host;
mod pace;
mod stats;
mod workload;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use letdma::core::{Json, Rng, Xoshiro256};
use letdma::opt::{heuristic_solution, Objective};

use answer::{Outcome, Record, COUNTERS};
use workload::{Grid, Params, SetupSpans, Workload};

/// Passes every run makes at least: the second repeats the first, which
/// is what the determinism check compares.
const MIN_PASSES: usize = 2;

/// Set-ups before the first timed answer; `setup_s` is the median of
/// their times, rescaled to nominal host speed.
const SETUPS: usize = 21;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    params: Params,
}

const USAGE: &str = "usage: letbench --workload <waters-table1|waters-design> \
[--seed <n>] [--seconds <s>] [--trace <0|1>] [--table1-alphas <a,b,..>] \
[--design-alphas <lo-hi|a,b,..>] [--nodes <n>]";

fn parse_u64(flag: &str, value: &str) -> Result<u64, String> {
    let parsed = match value
        .strip_prefix("0x")
        .or_else(|| value.strip_prefix("0X"))
    {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => value.parse(),
    };
    parsed.map_err(|_| format!("{flag}: `{value}` is not an unsigned integer"))
}

/// Parses `a,b,c` or an inclusive range `lo-hi` of α percentages.
fn parse_alphas(flag: &str, value: &str) -> Result<Vec<u32>, String> {
    let pct = |s: &str| -> Result<u32, String> {
        match s.trim().parse::<u32>() {
            Ok(a) if (1..=100).contains(&a) => Ok(a),
            _ => Err(format!("{flag}: `{s}` is not a percentage in 1..=100")),
        }
    };
    let alphas = match value.split_once('-') {
        Some((lo, hi)) => (pct(lo)?..=pct(hi)?).collect(),
        None => value.split(',').map(pct).collect::<Result<Vec<_>, _>>()?,
    };
    if alphas.is_empty() {
        return Err(format!("{flag}: empty α grid"));
    }
    Ok(alphas)
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut table1_alphas = vec![20, 30, 40];
    let mut design_alphas = (6..=65).collect();
    let mut nodes = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`\n{USAGE}"))?,
                );
            }
            "--seed" => seed = parse_u64(&flag, &value)?,
            "--seconds" => {
                seconds = match value.parse::<f64>() {
                    Ok(s) if s.is_finite() && s > 0.0 => s,
                    _ => return Err(format!("--seconds: `{value}` is not a positive number")),
                };
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: `{value}` is not 0 or 1")),
                };
            }
            "--table1-alphas" => table1_alphas = parse_alphas(&flag, &value)?,
            "--design-alphas" => design_alphas = parse_alphas(&flag, &value)?,
            "--nodes" => nodes = Some(parse_u64(&flag, &value)?),
            _ => return Err(format!("unknown argument `{flag}`\n{USAGE}")),
        }
    }
    let workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    // Table I cells solve at least one node past the root; NO-OBJ answers
    // stop at the first feasible solution, before any node.
    let node_limit = nodes.unwrap_or(match workload {
        Workload::Table1 => 2,
        Workload::Design => 1,
    });
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        params: Params {
            table1_alphas,
            design_alphas,
            node_limit,
        },
    })
}

/// Refuses any `LETDMA_*` override, so every measured commit runs the
/// program's defaults.
fn check_environment() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.to_str().map(str::to_owned))
        .filter(|k| k.starts_with("LETDMA_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: the benchmark measures the program's defaults; unset it",
            set.join(", ")
        ))
    }
}

/// One pass over the grid.
struct Pass {
    /// Outcomes by scenario index.
    outcomes: Vec<Outcome>,
    /// Whether each outcome was traced, by scenario index.
    traced: Vec<bool>,
    /// The factor that rescales each outcome's times to nominal host
    /// speed ([`pace::scale`]), by scenario index.
    scales: Vec<f64>,
    /// Wall time of the pass, in seconds.
    wall: f64,
    /// [`Pass::wall`] rescaled to nominal host speed, group by group.
    wall_adj: f64,
}

/// Runs pass number `index`. In a traced run, group `g` is traced when
/// `g + index` is odd: traced and untraced answers interleave in time, so
/// the trace overhead compares answers taken under the same host
/// conditions, and over any two passes every scenario is answered once
/// each way (a traced run makes an even number of passes). The reference
/// kernel runs before the first group and after every group.
fn run_pass(grid: &Grid, rng: &mut Xoshiro256, trace: bool, index: usize) -> Pass {
    // The seed only permutes the order the groups are taken in; within a
    // `Batch` the submission order (which elects the root-basis donor) is
    // the grid's.
    let mut order: Vec<usize> = (0..grid.groups.len()).collect();
    for i in (1..order.len()).rev() {
        let j = rng.u64_below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    let mut slots: Vec<Option<Outcome>> = grid.scenarios.iter().map(|_| None).collect();
    let mut traced = vec![false; grid.scenarios.len()];
    let mut scales = vec![0.0; grid.scenarios.len()];
    let (mut wall, mut wall_adj) = (0.0, 0.0);
    let mut before = pace::reference_s();
    for g in order {
        let trace_group = trace && (g + index) % 2 == 1;
        let t = Instant::now();
        let group = workload::run_group(grid, &grid.groups[g], trace_group);
        let elapsed = secs(t.elapsed());
        let after = pace::reference_s();
        let scale = pace::scale(before, after);
        before = after;
        wall += elapsed;
        wall_adj += elapsed * scale;
        for (i, outcome) in group {
            slots[i] = Some(outcome);
            traced[i] = trace_group;
            scales[i] = scale;
        }
    }
    Pass {
        outcomes: slots
            .into_iter()
            .map(|o| o.expect("every scenario belongs to one group"))
            .collect(),
        traced,
        scales,
        wall,
        wall_adj,
    }
}

/// The outcomes of `passes` that were (or were not) traced.
fn outcomes(passes: &[Pass], traced: bool) -> Vec<&Outcome> {
    passes
        .iter()
        .flat_map(|p| p.outcomes.iter().zip(&p.traced))
        .filter(|&(_, &t)| t == traced)
        .map(|(o, _)| o)
        .collect()
}

/// Wall time of every answer of `passes` that was (or was not) traced,
/// rescaled to nominal host speed.
fn answer_times_adj(passes: &[Pass], traced: bool) -> Vec<f64> {
    passes
        .iter()
        .flat_map(|p| p.outcomes.iter().zip(&p.traced).zip(&p.scales))
        .filter(|&((_, &t), _)| t == traced)
        .map(|((o, _), &scale)| secs(o.spans.total()) * scale)
        .collect()
}

/// The time of a typical answer: each scenario's median answer time
/// (rescaled to nominal host speed) over the answers of `passes` that
/// were (or were not) traced, averaged over the scenarios. Unlike the
/// median of all answers, it does not jump between the clusters that
/// scenarios of very different cost form (NO-OBJ and OBJ cells of
/// `waters-table1`).
fn answer_adj_s(passes: &[Pass], traced: bool) -> f64 {
    let medians: Vec<f64> = (0..passes[0].outcomes.len())
        .filter_map(|i| {
            let times: Vec<f64> = passes
                .iter()
                .filter(|p| p.traced[i] == traced)
                .map(|p| secs(p.outcomes[i].spans.total()) * p.scales[i])
                .collect();
            stats::median(&times)
        })
        .collect();
    stats::mean(&medians)
}

/// A named metric with its unit.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// The deterministic totals of one pass.
struct Quality {
    transfers_total: f64,
    gap_mean: f64,
    proven_share: f64,
    latency_ratio_mean: f64,
}

fn quality(records: &[&Record]) -> Quality {
    let n = records.len() as f64;
    let ratios: Vec<f64> = records.iter().filter_map(|r| r.latency_ratio()).collect();
    Quality {
        transfers_total: records.iter().map(|r| r.transfers as f64).sum(),
        gap_mean: records.iter().map(|r| r.gap()).sum::<f64>() / n,
        proven_share: records.iter().filter(|r| r.proven).count() as f64 / n,
        latency_ratio_mean: stats::mean(&ratios),
    }
}

/// Mean wall time per pass, raw and rescaled to nominal host speed. The
/// mean takes in every pass, so it spreads less from run to run than the
/// median of a run's three or four `waters-table1` passes.
fn mean_wall(passes: &[Pass]) -> (f64, f64) {
    let walls: Vec<f64> = passes.iter().map(|p| p.wall).collect();
    let adjusted: Vec<f64> = passes.iter().map(|p| p.wall_adj).collect();
    (stats::mean(&walls), stats::mean(&adjusted))
}

fn answer_times(outcomes: &[&Outcome]) -> Vec<f64> {
    outcomes.iter().map(|o| secs(o.spans.total())).collect()
}

/// End-to-end metrics of an untraced run.
fn end_to_end(
    setup_s: f64,
    passes: &[Pass],
    q: &Quality,
    ok_share: f64,
    peak_rss_mb: f64,
) -> Vec<Metric> {
    vec![
        metric("setup_s", setup_s, "s"),
        metric("wall_adj_s", mean_wall(passes).1, "s"),
        metric("answer_adj_s", answer_adj_s(passes, false), "s"),
        // The complement of the mean gap: 1 when every answer is proven.
        metric("bound_ratio_mean", 1.0 - q.gap_mean, "ratio"),
        metric("proven_share", q.proven_share, "share"),
        metric("transfers_total", q.transfers_total, "count"),
        metric("latency_ratio_mean", q.latency_ratio_mean, "ratio"),
        metric("ok_share", ok_share, "share"),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
    ]
}

/// Sum of one phase over traced answers.
fn phase_total(traced: &[&Outcome], phase: &str) -> f64 {
    traced
        .iter()
        .filter_map(|o| o.stats.as_ref())
        .flat_map(|s| s.phases().iter())
        .filter(|(name, _, _)| *name == phase)
        .map(|&(_, d, _)| secs(d))
        .sum()
}

/// Every [`COUNTERS`] value, summed over `traced` answers.
fn counter_totals(traced: &[&Outcome]) -> Vec<u64> {
    COUNTERS
        .iter()
        .map(|&(_, c)| {
            traced
                .iter()
                .filter_map(|o| o.stats.as_ref())
                .map(|s| s.counter(c))
                .sum()
        })
        .collect()
}

/// Each scenario's first traced answer: one pass's worth of traced work.
fn first_traced(passes: &[Pass]) -> Vec<&Outcome> {
    (0..passes[0].outcomes.len())
        .filter_map(|i| passes.iter().find(|p| p.traced[i]).map(|p| &p.outcomes[i]))
        .collect()
}

/// Top-level phases of the optimizer pipeline; nested phases (presolve,
/// the simplex kernels) run inside `milp-search`.
const TOP_PHASES: [&str; 5] = [
    "heuristic",
    "formulation",
    "milp-search",
    "milp-retry",
    "validate",
];

/// Per-layer metrics of a traced run: times are per traced answer,
/// counts per pass.
fn per_layer(setup: &SetupSpans, passes: &[Pass]) -> Vec<Metric> {
    let traced = outcomes(passes, true);
    let answers = traced.len() as f64;
    let span_total = |f: fn(&answer::Spans) -> Duration| -> f64 {
        traced.iter().map(|o| secs(f(&o.spans))).sum()
    };
    let phase = |name: &str| phase_total(&traced, name);
    let optimize = span_total(|s| s.optimize);
    let batch_plan = span_total(|s| s.batch_plan);
    let verify = span_total(|s| s.verify);
    let simulate = span_total(|s| s.simulate);
    let search = phase("milp-search");
    let factorize = phase("simplex-factorize");
    let accounted = TOP_PHASES.iter().map(|p| phase(p)).sum::<f64>() + batch_plan;

    let pass_counts = counter_totals(&first_traced(passes));
    let all_counts = counter_totals(&traced);
    let index = |name: &str| {
        COUNTERS
            .iter()
            .position(|&(n, _)| n == name)
            .expect("known counter")
    };
    let count = |name: &str| pass_counts[index(name)] as f64;
    let total = |name: &str| all_counts[index(name)] as f64;
    let sim_events: f64 = passes[0]
        .outcomes
        .iter()
        .map(|o| o.record.sim_events as f64)
        .sum();
    let traced_sim_events: f64 = traced.iter().map(|o| o.record.sim_events as f64).sum();

    let untraced_answer = answer_adj_s(passes, false);
    let traced_answer = answer_adj_s(passes, true);

    let mut metrics = vec![
        metric("waters.generate_s", secs(setup.generate), "s"),
        metric("opt.reference_heuristic_s", secs(setup.reference), "s"),
        metric("analysis.sensitivity_s", secs(setup.sensitivity), "s"),
        metric("opt.optimize_s", optimize / answers, "s"),
        metric("opt.batch_plan_s", batch_plan / answers, "s"),
        metric("opt.heuristic_s", phase("heuristic") / answers, "s"),
        metric("opt.formulation_s", phase("formulation") / answers, "s"),
        metric("milp.presolve_s", phase("presolve") / answers, "s"),
        metric("opt.validate_s", phase("validate") / answers, "s"),
        metric("milp.search_s", search / answers, "s"),
        metric("milp.factorize_s", factorize / answers, "s"),
        metric("milp.solve_s", phase("simplex-solve") / answers, "s"),
        metric("milp.pricing_s", phase("simplex-pricing") / answers, "s"),
        metric("model.verify_s", verify / answers, "s"),
        metric("sim.simulate_s", simulate / answers, "s"),
        metric(
            "milp.refactor_ms",
            stats::ratio(factorize * 1e3, total("milp.refactorizations")),
            "ms",
        ),
        metric(
            "milp.us_per_iter",
            stats::ratio(search * 1e6, total("milp.simplex_iters")),
            "us",
        ),
    ];
    for (name, _) in COUNTERS {
        metrics.push(metric(name, count(name), "count"));
    }
    metrics.extend([
        metric(
            "milp.iters_per_node",
            stats::ratio(count("milp.simplex_iters"), count("milp.lp_solves")),
            "count",
        ),
        metric(
            "milp.phase1_share",
            stats::ratio(count("milp.phase1_iters"), count("milp.simplex_iters")),
            "share",
        ),
        metric(
            "milp.nodes_per_s",
            stats::ratio(total("milp.nodes"), search),
            "1/s",
        ),
        metric("sim.events", sim_events, "count"),
        metric(
            "sim.events_per_s",
            stats::ratio(traced_sim_events, simulate),
            "1/s",
        ),
        metric(
            "trace.overhead",
            stats::ratio(traced_answer, untraced_answer) - 1.0,
            "ratio",
        ),
        metric(
            "trace.unaccounted_share",
            1.0 - stats::ratio(accounted, optimize),
            "share",
        ),
    ]);
    metrics
}

/// The metric names and units `BENCHMARK.json` declares for this mode.
fn declared_metrics(trace: bool) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    let Some(Json::Arr(entries)) = doc.get(key) else {
        return Err(format!("BENCHMARK.json has no `{key}` list"));
    };
    entries
        .iter()
        .map(|e| match (e.get("name"), e.get("unit")) {
            (Some(Json::Str(n)), Some(Json::Str(u))) => Ok((n.clone(), u.clone())),
            _ => Err(format!("BENCHMARK.json `{key}` entry without name/unit")),
        })
        .collect()
}

fn render(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // Names and units are validated to need no escaping; `+ 0.0`
            // prints an empty sum's `-0` as `0`.
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                m.value + 0.0,
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// What the checks found.
struct Checks {
    attempted: usize,
    ok: usize,
    failures: Vec<String>,
    /// OBJ-DMAT/OBJ-DEL scenarios compared with the heuristic.
    compared: usize,
    /// OBJ-DMAT/OBJ-DEL scenarios not compared: the heuristic has no valid
    /// solution under the scenario's acquisition deadlines.
    uncompared: usize,
}

/// Checks every answer: it passed its own checks, the MILP is no worse
/// than the constructive heuristic, every pass repeats the first exactly
/// (traced or not), and a scenario traced twice repeats its counters.
fn check(grid: &Grid, passes: &[Pass]) -> Checks {
    let mut failures: Vec<String> = Vec::new();
    let canonical: Vec<&Record> = passes[0].outcomes.iter().map(|o| &o.record).collect();
    let mut worse_than_heuristic = vec![false; grid.scenarios.len()];
    let (mut compared, mut uncompared) = (0, 0);
    for (i, scenario) in grid.scenarios.iter().enumerate() {
        let Some(answer) = passes[0].outcomes[i].solution.as_ref() else {
            continue;
        };
        if scenario.objective == Objective::None {
            continue;
        }
        let Ok(h) = heuristic_solution(&scenario.system, false) else {
            uncompared += 1;
            continue;
        };
        compared += 1;
        if !answer::not_worse_than(scenario, answer, &h) {
            worse_than_heuristic[i] = true;
            failures.push(format!("{}: MILP worse than the heuristic", scenario.name));
        }
    }
    let mut ok = 0;
    let mut attempted = 0;
    for (p, pass) in passes.iter().enumerate() {
        for (i, outcome) in pass.outcomes.iter().enumerate() {
            attempted += 1;
            if outcome.record.ok && !worse_than_heuristic[i] {
                ok += 1;
            }
            if let Some(f) = &outcome.failure {
                failures.push(f.clone());
            }
            if p > 0 && outcome.record != *canonical[i] {
                failures.push(format!(
                    "{}: pass {p} ({}) differs from pass 0: {:?} vs {:?}",
                    grid.scenarios[i].name,
                    if pass.traced[i] { "traced" } else { "untraced" },
                    outcome.record,
                    canonical[i]
                ));
            }
        }
    }
    // A scenario traced more than once must repeat its solver counters.
    for (i, scenario) in grid.scenarios.iter().enumerate() {
        let mut traced = passes
            .iter()
            .filter(|p| p.traced[i])
            .map(|p| &p.outcomes[i]);
        if let Some(first) = traced.next() {
            let counts = counter_totals(&[first]);
            if traced.any(|o| counter_totals(&[o]) != counts) {
                failures.push(format!(
                    "{}: solver counters differ between traced answers",
                    scenario.name
                ));
            }
        }
    }
    Checks {
        attempted,
        ok,
        failures,
        compared,
        uncompared,
    }
}

fn run(args: &Args) -> Result<String, String> {
    check_environment()?;
    let host = host::Host::probe();
    println!(
        "# letbench workload={} seed={} seconds={} trace={} nproc={} cpu=\"{}\" rev={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host.nproc,
        host.cpu_model,
        host.revision
    );
    println!(
        "# inputs table1_alphas={:?} design_alphas={}..={} ({}) nodes={}",
        args.params.table1_alphas,
        args.params.design_alphas.first().copied().unwrap_or(0),
        args.params.design_alphas.last().copied().unwrap_or(0),
        args.params.design_alphas.len(),
        args.params.node_limit
    );

    // Each set-up is timed between two runs of the reference kernel and
    // rescaled to nominal host speed; `setup_s` is the median.
    let mut setups: Vec<(f64, f64, SetupSpans)> = Vec::with_capacity(SETUPS);
    let mut grid = None;
    let mut before = pace::reference_s();
    for _ in 0..SETUPS {
        let t = Instant::now();
        let (g, spans) = workload::setup(args.workload, &args.params)?;
        let raw = secs(t.elapsed());
        let after = pace::reference_s();
        setups.push((raw * pace::scale(before, after), raw, spans));
        before = after;
        grid = Some(g);
    }
    let grid = grid.expect("at least one set-up");
    let raw_setups: Vec<f64> = setups.iter().map(|s| s.1).collect();
    setups.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (setup_s, _, setup_spans) = setups[SETUPS / 2];

    // A traced run makes its passes in pairs, so every scenario is traced
    // as often as it is not.
    let step = if args.trace { 2 } else { 1 };
    let mut rng = Xoshiro256::seed_from_u64(args.seed);
    let mut passes: Vec<Pass> = Vec::new();
    let t = Instant::now();
    loop {
        for _ in 0..step {
            passes.push(run_pass(&grid, &mut rng, args.trace, passes.len()));
        }
        let next = step as f64 * mean_wall(&passes).0;
        if passes.len() >= MIN_PASSES && secs(t.elapsed()) + next > args.seconds {
            break;
        }
    }

    let checks = check(&grid, &passes);
    for f in checks.failures.iter().take(20) {
        eprintln!("letbench: check failed: {f}");
    }
    println!(
        "# milp_vs_heuristic compared={} uncompared={} (no valid heuristic under the scenario's deadlines)",
        checks.compared, checks.uncompared
    );
    let canonical: Vec<&Record> = passes[0].outcomes.iter().map(|o| &o.record).collect();
    let q = quality(&canonical);
    let times = answer_times(&outcomes(&passes, false));
    let p90 = stats::p90(&answer_times_adj(&passes, false));
    let walls: Vec<String> = passes.iter().map(|p| format!("{:.3}", p.wall)).collect();
    println!(
        "# setups={SETUPS} passes={} pass_walls_s=[{}] untraced_answers={} traced_answers={} gap_mean={} answer_adj_s_p90={}",
        passes.len(),
        walls.join(", "),
        times.len(),
        outcomes(&passes, true).len(),
        q.gap_mean,
        p90.map_or("n/a (fewer than 100 answers)".to_owned(), |p| format!(
            "{} (n={})",
            p.value, p.samples
        ))
    );
    // The same timings as measured, before rescaling to nominal host speed.
    println!(
        "# raw: setup_s={} wall_s={} answer_s_p50={}",
        stats::median(&raw_setups).unwrap_or(0.0),
        mean_wall(&passes).0,
        stats::median(&times).unwrap_or(0.0)
    );

    let metrics = if args.trace {
        per_layer(&setup_spans, &passes)
    } else {
        let ok_share = checks.ok as f64 / checks.attempted as f64;
        end_to_end(setup_s, &passes, &q, ok_share, host::peak_rss_mb()?)
    };
    for m in &metrics {
        stats::validate_metric(m.name, m.unit)?;
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
    }
    let declared = declared_metrics(args.trace)?;
    let emitted: Vec<(String, String)> = metrics
        .iter()
        .map(|m| (m.name.to_owned(), m.unit.to_owned()))
        .collect();
    if declared != emitted {
        return Err(format!(
            "emitted metrics {emitted:?} do not match BENCHMARK.json {declared:?}"
        ));
    }
    Ok(render(
        checks.failures.is_empty(),
        checks.attempted,
        checks.attempted - checks.ok,
        &metrics,
    ))
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| run(&args));
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("letbench: {e}");
            ExitCode::from(2)
        }
    }
}
