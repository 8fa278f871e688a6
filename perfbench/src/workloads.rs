//! The four workloads: set-up, the timed closed-loop passes, and the
//! output checks that run outside the timed region.
//!
//! | workload       | loads                         | bypasses            |
//! |----------------|-------------------------------|---------------------|
//! | `compile_cold` | mapper (`cmam_core`), store   | artifact loads      |
//! | `compile_warm` | engine fingerprint + loads    | mapper, simulator   |
//! | `input_sweep`  | batched simulator (`cmam_sim`)| mapper, engine      |
//! | `dse_search`   | search scheduler, mapper's    | artifact store      |
//! |                | failure path                  |                     |

use crate::inputs::{
    self, compile_inputs, derive_seed, median, peak_rss_mb, quantile, tally, timed_setup, Exact,
    Inputs, Job, Scratch,
};
use crate::layers::{self, digest_of, LayerInputs};
use crate::{Args, Report};
use cmam_arch::CgraConfig;
use cmam_cdfg::generate::GenParams;
use cmam_core::FlowVariant;
use cmam_engine::dse::{generate_space, validation_space, SpaceParams};
use cmam_engine::search::pareto_frontier;
use cmam_engine::{
    run_search, Engine, EngineOptions, EngineStats, Fnv64, JobResult, SearchOptions, SearchResult,
};
use cmam_sim::{DecodedProgram, LaneState, SimOptions, SimStats};
use std::path::PathBuf;
use std::time::Instant;

pub const NAMES: [&str; 4] = ["compile_cold", "compile_warm", "input_sweep", "dse_search"];

/// Seeds never used while the benchmark was tuned, one per workload, for
/// re-checking a claim on unseen inputs.
pub fn held_out_seed(workload: &str) -> u64 {
    match workload {
        "compile_cold" => 90_001,
        "compile_warm" => 90_002,
        "input_sweep" => 90_003,
        _ => 90_004,
    }
}

/// Engine workers: the host's CPUs, at most two.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

fn engine(jobs: usize, cache_dir: Option<PathBuf>) -> Engine {
    Engine::new(EngineOptions {
        jobs,
        cache_dir,
        cache_bytes: None,
    })
}

/// Engine batch wall time recorded so far (the engine's own
/// `batch.wall_us` histogram), in seconds.
fn engine_batch_s() -> f64 {
    cmam_obs::histogram!("batch.wall_us").sum() as f64 / 1e6
}

/// One timed pass.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    /// Host seconds of the timed region.
    pub wall: f64,
    /// Host seconds the pass spent inside engine batches.
    pub batch_s: f64,
    /// Jobs (engine jobs, or simulator batches) completed.
    pub jobs: u64,
    /// Configurations the pass covered.
    pub configs: u64,
    pub exact: Exact,
    pub traced: bool,
    pub engine: EngineStats,
}

/// Span events a traced run records at most: it stops tracing further
/// passes once past this. `cmam_obs::json::parse`, which the trace
/// validator uses, rescans the rest of the document for every string
/// character, so its cost grows with the square of the trace size.
const TRACE_EVENT_BUDGET: u64 = 4000;

/// Runs passes for `seconds` of wall time, and at least `min_passes` in
/// an untraced run (two in a traced run). In a traced run, passes
/// alternate untraced/traced so the two sets see the same host
/// conditions and their walls give the tracing overhead.
fn measure(
    seconds: u64,
    traced_run: bool,
    min_passes: usize,
    mut pass: impl FnMut() -> Pass,
) -> Vec<Pass> {
    let start = Instant::now();
    let mut out = Vec::new();
    let min = if traced_run { 2 } else { min_passes };
    while out.len() < min || start.elapsed().as_secs_f64() < seconds as f64 {
        let traced = traced_run
            && out.len() % 2 == 1
            && cmam_obs::trace::events_recorded() < TRACE_EVENT_BUDGET;
        if traced {
            cmam_obs::enable_tracing();
        }
        let mut p = pass();
        cmam_obs::disable_tracing();
        p.traced = traced;
        out.push(p);
    }
    out
}

/// Checks that every pass produced the same exact outcome.
fn check_passes(passes: &[Pass], report: &mut Report) {
    let first = passes[0].exact;
    for (i, p) in passes.iter().enumerate().skip(1) {
        if p.exact != first {
            report.problem(format!(
                "pass {i} drifted from pass 0: {:?} vs {first:?}",
                p.exact
            ));
        }
    }
    for p in passes {
        report.attempted += p.exact.attempted;
        report.failed += p.exact.failed;
    }
}

/// The end-to-end metrics of an untraced run. Every pass does the same
/// work (checked: their exact outcomes are equal), so a rate is that
/// work over the median pass wall.
fn end_to_end(report: &mut Report, setup_s: f64, passes: &[Pass]) {
    let walls: Vec<f64> = passes.iter().map(|p| p.wall).collect();
    let wall = median(&walls);
    println!(
        "passes: {} | pass wall s: median {wall:.6} p25 {:.6} p75 {:.6}",
        passes.len(),
        quantile(&walls, 0.25),
        quantile(&walls, 0.75)
    );
    let p = passes[0];
    let e = p.exact;
    report.push("setup_s", setup_s, "s");
    report.push("jobs_per_s", p.jobs as f64 / wall, "1/s");
    report.push("configs_per_s", p.configs as f64 / wall, "1/s");
    report.push("sim_cycles_per_s", e.sim_cycles as f64 / wall, "1/s");
    report.push("sim_cycles", e.sim_cycles as f64, "cycles");
    report.push("energy_uj", e.energy_uj, "uJ");
    report.push("context_words", e.context_words as f64, "words");
    report.push(
        "mapped_share",
        e.verified as f64 / e.attempted.max(1) as f64,
        "share",
    );
    report.push(
        "evals_ratio",
        e.evals as f64 / e.exhaustive.max(1) as f64,
        "share",
    );
    report.push("peak_rss_mb", peak_rss_mb(), "MB");
}

/// Runs the requested workload.
pub fn run(args: &Args, scratch: &Scratch) -> (Report, Vec<(&'static str, u64)>) {
    let mut report = Report::default();
    let mut seeds = match args.workload.as_str() {
        "compile_cold" | "compile_warm" => compile(args, scratch, &mut report),
        "input_sweep" => sweep(args, scratch, &mut report),
        _ => dse(args, scratch, &mut report),
    };
    seeds.push((
        "replay_lanes",
        derive_seed(args.seed, layers::REPLAY_LANES_LABEL),
    ));
    (report, seeds)
}

/// Compares per-job outcomes of two result lists over the same jobs.
fn same_results(a: &[JobResult], b: &[JobResult]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| digest_of(x) == digest_of(y))
}

fn compile(args: &Args, scratch: &Scratch, report: &mut Report) -> Vec<(&'static str, u64)> {
    let warm = args.workload == "compile_warm";
    let (inputs, build_s) = timed_setup(|| compile_inputs(args.seed));
    let requests = inputs.requests();
    let workers = workers();

    // compile_warm's store is filled once, cold, before timing.
    let prep = Instant::now();
    let store = scratch.fresh_dir("warm");
    let reference = if warm {
        Some(engine(workers, Some(store.clone())).run_batch(&requests))
    } else {
        None
    };
    let setup_s = build_s + prep.elapsed().as_secs_f64();
    println!(
        "{}: {} jobs ({} generated kernels) | setup {:.3} s",
        args.workload,
        requests.len(),
        inputs::GENERATED_KERNELS,
        setup_s
    );

    let mut last: Vec<JobResult> = Vec::new();
    let passes = measure(args.seconds, args.trace, if warm { 5 } else { 2 }, || {
        let dir = if warm {
            store.clone()
        } else {
            scratch.fresh_dir("cold")
        };
        let t = Instant::now();
        let (eng, results) = {
            let _pass = cmam_obs::span!("pass");
            let eng = {
                let _new = cmam_obs::span!("engine_new");
                engine(workers, Some(dir.clone()))
            };
            let results = eng.run_batch(&requests);
            (eng, results)
        };
        let wall = t.elapsed().as_secs_f64();
        if !warm {
            inputs::remove_dir(&dir);
        }
        let exact = tally(&inputs, &results);
        last = results;
        Pass {
            wall,
            batch_s: 0.0,
            jobs: requests.len() as u64,
            configs: inputs.configs.len() as u64,
            exact,
            traced: false,
            engine: eng.stats(),
        }
    });
    check_passes(&passes, report);
    let n = requests.len() as u64;
    for p in &passes {
        let (hits, executed) = (p.engine.disk_hits, p.engine.executed);
        let expect = if warm { (n, 0) } else { (0, n) };
        if (hits, executed) != expect {
            report.problem(format!(
                "expected {expect:?} (disk hits, executed), got ({hits}, {executed})"
            ));
        }
    }
    if let Some(reference) = &reference {
        if !same_results(reference, &last) {
            report.problem("warm loads differ from the cold results they stored".into());
        }
    }

    if args.trace {
        let layer_inputs = LayerInputs {
            inputs: &inputs,
            jobs: &inputs.jobs,
            engine_results: &last,
            search_configs: (0..inputs.configs.len()).collect(),
            search_specs: (0..inputs.specs.len() - inputs::GENERATED_KERNELS).collect(),
            sweep_lanes: layers::PROBE_LANES,
        };
        layers::traced_report(args, scratch, report, build_s, &passes, &layer_inputs, None);
    } else {
        // Workers = 1 against the pass at `workers`: a seed-chosen eighth
        // of the jobs (the traced run replays all of them on one thread).
        let pick = (args.seed % 8) as usize;
        let picked: Vec<usize> = (0..inputs.jobs.len()).filter(|i| i % 8 == pick).collect();
        let slice_requests: Vec<_> = picked
            .iter()
            .map(|&i| inputs.request(&inputs.jobs[i]))
            .collect();
        let single = engine(1, warm.then(|| store.clone())).run_batch(&slice_requests);
        let paired: Vec<JobResult> = picked.iter().map(|&i| last[i].clone()).collect();
        report.attempted += picked.len() as u64;
        if !same_results(&single, &paired) {
            report.problem("results at 1 worker differ from results at 2 workers".into());
        }
        end_to_end(report, setup_s, &passes);
    }
    vec![
        ("job_order", derive_seed(args.seed, "job-order")),
        ("generated", derive_seed(args.seed, "generated")),
    ]
}

/// Branchy generated kernels in the sweep: their lanes diverge on input
/// data. Fixed across runs so lane divergence is comparable between
/// seeds; the run seed varies the lane images.
const BRANCHY_KERNELS: usize = 3;
const BRANCHY_SEED: u64 = 1;

/// The sweep's batches per program, as (lanes per batch, batches): 64
/// one-lane batches, 4 of 16 lanes and one of 256. The one-lane batches
/// take about half of the simulator's time, so the single-lane overhead
/// moves the end-to-end rate; with a single one-lane batch it would be
/// invisible.
const SWEEP_BATCHES: [(usize, usize); 3] = [(1, 64), (16, 4), (256, 1)];

/// One simulator batch of the sweep: its input seed and size, the lane
/// images, and the CDFG interpreter's final memory for each.
struct LaneBatch {
    seed: u64,
    chunk: usize,
    images: Vec<Vec<i32>>,
    expected: Vec<Vec<i32>>,
}

/// One compiled sweep program.
struct Program {
    job: Job,
    decoded: DecodedProgram,
    words: u64,
}

/// Kernels, jobs and every kernel's lane batches (shared by both
/// configurations). The interpreter references are filled in later.
fn sweep_inputs(seed: u64) -> (Inputs, Vec<Vec<LaneBatch>>) {
    let mut specs = cmam_kernels::all();
    let branchy = GenParams::profile("branchy").expect("known profile");
    for s in cmam_kernels::kernel_seeds(BRANCHY_SEED, BRANCHY_KERNELS) {
        specs.push(cmam_kernels::generated_spec(&branchy, s));
    }
    let configs = vec![CgraConfig::hom64(), CgraConfig::het2()];
    let jobs: Vec<Job> = (0..specs.len())
        .flat_map(|spec| {
            [(FlowVariant::Basic, 0), (FlowVariant::Cab, 1)].map(|(variant, config)| Job {
                spec,
                config,
                variant,
            })
        })
        .collect();
    let lanes_root = derive_seed(seed, "lanes");
    let batches = specs
        .iter()
        .enumerate()
        .map(|(k, spec)| {
            SWEEP_BATCHES
                .iter()
                .flat_map(|&(n, count)| (0..count).map(move |chunk| (n, chunk)))
                .map(|(n, chunk)| {
                    let seed = derive_seed(lanes_root, &format!("{k}-{n}-{chunk}"));
                    LaneBatch {
                        seed,
                        chunk,
                        images: cmam_kernels::lane_images(spec, seed, n),
                        expected: Vec::new(),
                    }
                })
                .collect()
        })
        .collect();
    (Inputs::new(specs, configs, jobs), batches)
}

fn sweep(args: &Args, scratch: &Scratch, report: &mut Report) -> Vec<(&'static str, u64)> {
    let ((inputs, mut lanes), build_s) = timed_setup(|| sweep_inputs(args.seed));
    // Interpreter references, then map, assemble and decode every
    // program, all before timing.
    let prep = Instant::now();
    for (spec, batches) in inputs.specs.iter().zip(&mut lanes) {
        for b in batches.iter_mut() {
            b.expected = b
                .images
                .iter()
                .map(|img| {
                    let mut mem = img.clone();
                    cmam_cdfg::interp::run(&spec.cdfg, &mut mem, 100_000_000)
                        .expect("sweep kernels interpret on every input");
                    mem
                })
                .collect();
        }
    }
    let eng = engine(workers(), None);
    let requests = inputs.requests();
    let compiled = eng.run_batch(&requests);
    let mut programs = Vec::new();
    for (job, result) in inputs.jobs.iter().zip(&compiled) {
        match result {
            Ok(out) => programs.push(Program {
                job: *job,
                decoded: DecodedProgram::decode(&out.binary, &inputs.configs[job.config])
                    .expect("a binary that simulated decodes"),
                words: inputs::context_words(out),
            }),
            Err(e) => report.problem(format!(
                "sweep program {} did not compile: {e}",
                inputs.request(job).label()
            )),
        }
    }
    let setup_s = build_s + prep.elapsed().as_secs_f64();
    println!(
        "input_sweep: {} programs x (lanes, batches) {:?} | setup {:.3} s",
        programs.len(),
        SWEEP_BATCHES,
        setup_s
    );

    let mut last: Vec<Vec<SimStats>> = Vec::new();
    let passes = measure(args.seconds, args.trace, 5, || {
        // Lane states for every batch of the pass are built first, so the
        // timed region is one contiguous run of simulator calls.
        let mut lane_states: Vec<Vec<LaneState>> = programs
            .iter()
            .flat_map(|p| &lanes[p.job.spec])
            .map(|b| b.images.iter().cloned().map(LaneState::new).collect())
            .collect();
        let work: Vec<(&DecodedProgram, &mut Vec<LaneState>)> = programs
            .iter()
            .flat_map(|p| lanes[p.job.spec].iter().map(move |_| &p.decoded))
            .zip(lane_states.iter_mut())
            .collect();
        let t = Instant::now();
        let results: Vec<LaneResults> = {
            let _pass = cmam_obs::span!("pass");
            work.into_iter()
                .map(|(program, lanes)| program.simulate_batch(lanes, SimOptions::default()))
                .collect()
        };
        let wall = t.elapsed().as_secs_f64();

        let mut exact = Exact::default();
        let mut h = Fnv64::new();
        let mut stats = Vec::new();
        let mut batch = results.into_iter().zip(&lane_states);
        for p in &programs {
            exact.context_words += p.words;
            let config = &inputs.configs[p.job.config];
            for b in &lanes[p.job.spec] {
                let (results, states) = batch.next().expect("one result set per batch");
                exact.evals += 1;
                exact.exhaustive += 1;
                for ((result, lane), want) in results.iter().zip(states).zip(&b.expected) {
                    exact.attempted += 1;
                    match result {
                        Ok(s) if lane.mem == *want => {
                            exact.verified += 1;
                            exact.sim_cycles += s.cycles;
                            exact.energy_uj += cmam_energy::cgra_energy(
                                &cmam_energy::EnergyParams::default(),
                                config,
                                s,
                                inputs.mul[p.job.spec],
                            )
                            .total();
                            h.feed_u64(s.cycles);
                            h.feed_u64(s.stall_cycles);
                        }
                        _ => exact.failed += 1,
                    }
                }
                stats.push(results.into_iter().filter_map(Result::ok).collect());
            }
        }
        exact.digest = h.finish();
        last = stats;
        Pass {
            wall,
            batch_s: 0.0,
            jobs: exact.evals,
            configs: inputs.configs.len() as u64,
            exact,
            traced: false,
            engine: eng.stats(),
        }
    });
    check_passes(&passes, report);

    // The engine's batch-sim job over the first batch of every size must
    // agree lane for lane, and none of its answers may come from the memo.
    let memo_hits = || cmam_obs::counter!("engine.batch_sim.memory_hits").get();
    let hits_before = memo_hits();
    let mut outcomes = last.iter();
    for p in &programs {
        let spec = &inputs.specs[p.job.spec];
        for b in &lanes[p.job.spec] {
            let direct = outcomes.next().expect("one outcome per batch");
            if b.chunk != 0 {
                continue;
            }
            let request = cmam_engine::BatchSimRequest::flow(
                spec,
                p.job.variant,
                &inputs.configs[p.job.config],
                b.seed,
                b.images.len(),
            );
            report.attempted += b.images.len() as u64;
            let agrees = eng.run_batch_sim(&request).is_ok_and(|o| {
                o.lanes
                    .iter()
                    .filter_map(|l| l.as_ref().ok())
                    .eq(direct.iter())
            });
            if !agrees {
                report.problem(format!(
                    "engine batch-sim job {} disagrees with the direct sweep",
                    request.label()
                ));
            }
        }
    }
    if memo_hits() != hits_before {
        report.problem("a batch-sim result came from the engine memo".into());
    }

    if args.trace {
        let layer_inputs = LayerInputs {
            inputs: &inputs,
            jobs: &inputs.jobs,
            engine_results: &compiled,
            search_configs: (0..inputs.configs.len()).collect(),
            search_specs: (0..inputs.specs.len()).collect(),
            sweep_lanes: 256,
        };
        layers::traced_report(args, scratch, report, build_s, &passes, &layer_inputs, None);
    } else {
        end_to_end(report, setup_s, &passes);
    }
    vec![("lanes", derive_seed(args.seed, "lanes"))]
}

type LaneResults = Vec<Result<SimStats, cmam_sim::SimError>>;

/// Configurations in the searched space, and the fixed seed that
/// generates them (one whose sample has no structural duplicates, so the
/// generator stays quiet). The searched space is the same in every run: its
/// order alone moves the search's evaluation count by ±10% and its
/// energy total by ±20%, so a seeded space would make every exact metric
/// a function of the seed. The run seed shuffles the validation space
/// instead, whose search must reproduce the exhaustive frontier in any
/// order.
const DSE_SPACE: usize = 64;
const DSE_SPACE_SEED: u64 = 1;

struct DseInputs {
    inputs: Inputs,
    validation: Vec<CgraConfig>,
}

fn dse_inputs(seed: u64) -> DseInputs {
    let space = generate_space(&SpaceParams {
        target: DSE_SPACE,
        seed: DSE_SPACE_SEED,
    });
    let mut validation = validation_space();
    inputs::shuffle(&mut validation, derive_seed(seed, "validation-order"));
    let specs = cmam_kernels::all();
    let jobs = (0..space.len())
        .flat_map(|config| {
            (0..specs.len()).map(move |spec| Job {
                spec,
                config,
                variant: FlowVariant::Cab,
            })
        })
        .collect();
    DseInputs {
        inputs: Inputs::new(specs, space, jobs),
        validation,
    }
}

fn search(eng: &Engine, inputs: &Inputs, configs: &[CgraConfig]) -> SearchResult {
    let energy = |ci: usize, ki: usize, out: &cmam_engine::RunOutcome| {
        let _e = cmam_obs::span!("energy");
        inputs.energy(ki, &configs[ci], out)
    };
    run_search(
        eng,
        &inputs.specs,
        configs,
        FlowVariant::Cab,
        &energy,
        &SearchOptions::default(),
    )
}

/// Exact totals of a search: per-kernel sums over every evaluation, the
/// statuses, and the context words and failures of the evaluated jobs
/// (re-requested from the search's own engine, so nothing executes).
fn tally_search(
    eng: &Engine,
    inputs: &Inputs,
    result: &SearchResult,
    report: &mut Report,
) -> Exact {
    let mut exact = Exact {
        evals: result.stats.jobs_scheduled as u64,
        exhaustive: (inputs.configs.len() * inputs.specs.len()) as u64,
        ..Exact::default()
    };
    let mut h = Fnv64::new();
    let mut evaluated = Vec::new();
    for ev in &result.evaluated {
        h.feed_str(&format!("{:?}", ev.status));
        exact.attempted += ev.kernels_evaluated as u64;
        for (ki, pk) in ev.per_kernel.iter().enumerate() {
            if let Some((energy, cycles)) = pk {
                exact.verified += 1;
                exact.sim_cycles += cycles;
                exact.energy_uj += energy;
                evaluated.push((ev.config_index, ki));
            }
        }
        if let cmam_engine::ConfigStatus::Infeasible(ki) = ev.status {
            evaluated.push((ev.config_index, ki));
        }
    }
    for &i in &result.frontier {
        h.feed_usize(i);
    }
    let executed_before = eng.stats().executed;
    let requests: Vec<_> = evaluated
        .iter()
        .map(|&(c, k)| {
            cmam_engine::JobRequest::flow(&inputs.specs[k], FlowVariant::Cab, &inputs.configs[c])
        })
        .collect();
    for r in eng.run_batch(&requests) {
        match r {
            Ok(out) => exact.context_words += inputs::context_words(&out),
            Err(f) => {
                if matches!(
                    f.stage,
                    cmam_engine::FailStage::Execution | cmam_engine::FailStage::Panic
                ) {
                    exact.failed += 1;
                }
                h.feed_str(&f.to_string());
            }
        }
    }
    if eng.stats().executed != executed_before {
        report.problem("re-requesting the search's evaluations executed new jobs".into());
    }
    exact.digest = h.finish();
    exact
}

fn dse(args: &Args, scratch: &Scratch, report: &mut Report) -> Vec<(&'static str, u64)> {
    let (d, build_s) = timed_setup(|| dse_inputs(args.seed));
    let inputs = &d.inputs;
    let workers = workers();

    // The exhaustive frontier of the validation space, once, before
    // timing; the search over the same engine must reproduce it.
    let prep = Instant::now();
    let veng = engine(workers, None);
    let vrequests: Vec<_> = d
        .validation
        .iter()
        .flat_map(|c| {
            inputs
                .specs
                .iter()
                .map(move |s| cmam_engine::JobRequest::flow(s, FlowVariant::Cab, c))
        })
        .collect();
    let vresults = veng.run_batch(&vrequests);
    let nk = inputs.specs.len();
    let points: Vec<(usize, f64, u64)> = (0..d.validation.len())
        .filter_map(|ci| {
            let mut energy = 0.0;
            let mut cycles = 0;
            for ki in 0..nk {
                let out = vresults[ci * nk + ki].as_ref().ok()?;
                energy += inputs.energy(ki, &d.validation[ci], out);
                cycles += out.cycles;
            }
            Some((ci, energy, cycles))
        })
        .collect();
    let exhaustive_frontier = pareto_frontier(&points);
    let setup_s = build_s + prep.elapsed().as_secs_f64();
    let vsearch = search(&veng, inputs, &d.validation);
    report.attempted += vrequests.len() as u64;
    if vsearch.frontier != exhaustive_frontier {
        report.problem(format!(
            "validation-space search frontier {:?} differs from the exhaustive {:?}",
            vsearch.frontier, exhaustive_frontier
        ));
    }
    println!(
        "dse_search: {} configs x {nk} kernels | validation frontier {:?} | setup {:.3} s",
        inputs.configs.len(),
        exhaustive_frontier,
        setup_s
    );

    let mut last_engine = None;
    let mut tally_report = Report::default();
    let passes = measure(args.seconds, args.trace, 2, || {
        let eng = engine(workers, None);
        let batch_before = engine_batch_s();
        let t = Instant::now();
        let result = {
            let _pass = cmam_obs::span!("pass");
            search(&eng, inputs, &inputs.configs)
        };
        let wall = t.elapsed().as_secs_f64();
        let batch_s = engine_batch_s() - batch_before;
        let exact = tally_search(&eng, inputs, &result, &mut tally_report);
        let pass = Pass {
            wall,
            batch_s,
            jobs: result.stats.jobs_scheduled as u64,
            configs: inputs.configs.len() as u64,
            exact,
            traced: false,
            engine: eng.stats(),
        };
        last_engine = Some((eng, result));
        pass
    });
    check_passes(&passes, report);
    for p in tally_report.problems {
        report.problem(p);
    }

    if args.trace {
        // Workers = 1: the whole search again on one worker.
        let eng1 = engine(1, None);
        let single = search(&eng1, inputs, &inputs.configs);
        let exact1 = tally_search(&eng1, inputs, &single, report);
        if exact1 != passes[0].exact {
            report.problem("the search at 1 worker differs from the search at 2 workers".into());
        }
        let (eng, result) = last_engine.expect("at least one pass");
        // Replay a 1-in-8 sample of the space's configurations; their
        // engine results come from the last pass's engine.
        let sample: Vec<Job> = inputs
            .jobs
            .iter()
            .filter(|j| j.config % 8 == 0)
            .copied()
            .collect();
        let engine_results =
            eng.run_batch(&sample.iter().map(|j| inputs.request(j)).collect::<Vec<_>>());
        let layer_inputs = LayerInputs {
            inputs,
            jobs: &sample,
            engine_results: &engine_results,
            search_configs: Vec::new(),
            search_specs: Vec::new(),
            sweep_lanes: layers::PROBE_LANES,
        };
        layers::traced_report(
            args,
            scratch,
            report,
            build_s,
            &passes,
            &layer_inputs,
            Some(&result),
        );
    } else {
        end_to_end(report, setup_s, &passes);
    }
    vec![(
        "validation_order",
        derive_seed(args.seed, "validation-order"),
    )]
}
