//! The traced run: per-layer metrics.
//!
//! Two sources feed it. The Chrome trace of the workload's own traced
//! passes gives each layer's self time (span duration minus its child
//! spans), the pool's idle share and the tracing overhead. A replay of
//! the workload's jobs, one public layer call at a time on one thread,
//! gives each layer's cost and work counts on the workload's inputs —
//! including layers the workload's end-to-end path bypasses, whose trace
//! share is then zero. The replay doubles as the workers = 1 check: every
//! replayed job must equal the engine's result at two workers.

use crate::inputs::{self, derive_seed, median, op_count, quantile, Inputs, Job, Scratch};
use crate::workloads::{workers, Pass};
use crate::{Args, Report};
use cmam_core::Mapper;
use cmam_engine::cache::{parse_result, serialize_result, DiskCache};
use cmam_engine::{
    run_search, Engine, EngineOptions, FailStage, Fnv64, JobFailure, JobResult, RunOutcome,
    SearchOptions, SearchResult,
};
use cmam_obs::json::Value;
use cmam_sim::{DecodedProgram, LaneState, SimOptions};
use std::collections::BTreeMap;
use std::time::Instant;

/// Lanes per batched-simulator call in the replay (the sweep replays at
/// its own largest batch size instead).
pub const PROBE_LANES: usize = 16;

/// Label of the replay's lane-image seed stream.
pub const REPLAY_LANES_LABEL: &str = "replay-lanes";

/// What the replay and the search probe run over.
pub struct LayerInputs<'a> {
    pub inputs: &'a Inputs,
    pub jobs: &'a [Job],
    /// The engine's results for `jobs` at two workers, in the same order.
    pub engine_results: &'a [JobResult],
    /// Configurations and kernels (indices into `inputs`) of the search
    /// probe. Empty when the workload's own passes are searches.
    pub search_configs: Vec<usize>,
    pub search_specs: Vec<usize>,
    /// Lanes of the replay's multi-lane simulator call.
    pub sweep_lanes: usize,
}

/// Which crate a span name belongs to. `pass` is the benchmark's own
/// client loop around each traced pass.
fn layer_of(span: &str) -> &'static str {
    match span {
        "map" | "map_block" => "core",
        "assemble" => "isa",
        "decode" | "simulate" | "simulate_batch" => "sim",
        "energy" => "energy",
        "job" | "run_batch" | "batch_sim" | "engine_new" => "engine",
        "dse_search" => "search",
        "pass" => "client",
        _ => "other",
    }
}

const LAYERS: [&str; 7] = ["core", "isa", "sim", "energy", "engine", "search", "client"];

/// The layer each workload is meant to load (largest self time).
fn expected_top(workload: &str) -> &'static str {
    match workload {
        "compile_warm" => "engine",
        "input_sweep" => "sim",
        _ => "core",
    }
}

struct Span {
    name: String,
    tid: i64,
    ts: f64,
    dur: f64,
    self_us: f64,
}

struct TraceSummary {
    self_by_layer: BTreeMap<&'static str, f64>,
    pass_us: f64,
    idle_share: f64,
    events: usize,
}

fn analyze_trace(text: &str) -> Result<TraceSummary, String> {
    let events = cmam_obs::validate_chrome_trace(text)?;
    let doc = cmam_obs::json::parse(text)?;
    let mut dropped = 0.0;
    let mut spans = Vec::new();
    for ev in doc
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or("no traceEvents")?
    {
        let num = |k: &str| ev.get(k).and_then(Value::as_f64).unwrap_or(0.0);
        match ev.get("ph").and_then(Value::as_str) {
            Some("X") => spans.push(Span {
                name: ev
                    .get("name")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_owned(),
                tid: num("tid") as i64,
                ts: num("ts"),
                dur: num("dur"),
                self_us: num("dur"),
            }),
            Some("M") => {
                dropped += ev
                    .get("args")
                    .and_then(|a| a.get("dropped"))
                    .and_then(Value::as_f64)
                    .unwrap_or(0.0)
            }
            _ => {}
        }
    }
    if dropped > 0.0 {
        return Err(format!("the trace ring dropped {dropped} events"));
    }
    // Self time: subtract each span's duration from its innermost
    // enclosing span on the same thread.
    spans.sort_by(|a, b| {
        (a.tid, a.ts)
            .partial_cmp(&(b.tid, b.ts))
            .expect("finite timestamps")
            .then(b.dur.total_cmp(&a.dur))
    });
    let mut stack: Vec<usize> = Vec::new();
    for i in 0..spans.len() {
        while let Some(&top) = stack.last() {
            let t = &spans[top];
            if t.tid != spans[i].tid || t.ts + t.dur <= spans[i].ts {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&parent) = stack.last() {
            spans[parent].self_us -= spans[i].dur;
        }
        stack.push(i);
    }
    let mut self_by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in &spans {
        *self_by_layer.entry(layer_of(&s.name)).or_default() += s.self_us.max(0.0);
    }
    let total =
        |name: &str| -> f64 { spans.iter().filter(|s| s.name == name).map(|s| s.dur).sum() };
    // Pool idle share: job time over worker capacity while engine
    // batches run (batches never nest, jobs never nest).
    let capacity = workers() as f64 * total("run_batch");
    let idle_share = if capacity > 0.0 {
        (1.0 - total("job") / capacity).max(0.0)
    } else {
        1.0
    };
    Ok(TraceSummary {
        self_by_layer,
        pass_us: total("pass"),
        idle_share,
        events,
    })
}

/// Everything the replay measured.
#[derive(Default)]
struct Replay {
    fingerprint_s: f64,
    map_s: f64,
    map_fail_s: f64,
    map_ms: Vec<f64>,
    ops: u64,
    assemble_s: f64,
    decode_s: f64,
    solo_s: f64,
    solo_cycles: u64,
    batch1_s: f64,
    batch_s: f64,
    batch_cycles: u64,
    energy_s: f64,
    serialize_s: f64,
    store_s: f64,
    load_s: f64,
    parse_s: f64,
    artifact_bytes: u64,
    results: Vec<JobResult>,
}

fn counter(name: &'static str) -> u64 {
    cmam_obs::metrics::registry().counter(name).get()
}

/// Program counters whose deltas over the replay are reported, in the
/// order `traced_report` indexes them.
const REPLAY_COUNTERS: [&str; 9] = [
    "mapper.attempts",
    "mapper.candidates",
    "mapper.rollbacks",
    "mapper.acmap_pruned",
    "mapper.ecmap_pruned",
    "mapper.stochastic_pruned",
    "mapper.escalations",
    "sim.batch.cohorts",
    "sim.batch.divergences",
];

/// Digest of one job's outcome: the content digest of a result, the
/// rendered verdict of a failure.
pub fn digest_of(r: &JobResult) -> u64 {
    match r {
        Ok(out) => out.content_digest(),
        Err(f) => {
            let mut h = Fnv64::new();
            h.feed_str(&f.to_string());
            h.finish()
        }
    }
}

/// Replays one job layer by layer, composing the public calls exactly as
/// the engine's pipeline does, and times each call into `r`.
fn replay_job(
    r: &mut Replay,
    li: &LayerInputs<'_>,
    job: &Job,
    lane_seed: u64,
    report: &mut Report,
) -> JobResult {
    let inputs = li.inputs;
    let spec = &inputs.specs[job.spec];
    let config = &inputs.configs[job.config];
    let request = inputs.request(job);

    let mapper = Mapper::new(request.options.clone());
    let t = Instant::now();
    let mapped = mapper.map(&spec.cdfg, config);
    let compile_time = t.elapsed();
    r.map_ms.push(compile_time.as_secs_f64() * 1e3);
    let fail = |stage, message: String| JobFailure::pipeline(stage, message, compile_time);
    let m = match mapped {
        Ok(m) => m,
        Err(e) => {
            r.map_fail_s += compile_time.as_secs_f64();
            return Err(fail(FailStage::Map, e.to_string()));
        }
    };
    r.map_s += compile_time.as_secs_f64();
    r.ops += op_count(&spec.cdfg);

    let t = Instant::now();
    let assembled = cmam_isa::assemble(&spec.cdfg, &m.mapping, config);
    let assemble_time = t.elapsed();
    r.assemble_s += assemble_time.as_secs_f64();
    let (binary, asm) = assembled.map_err(|e| fail(FailStage::Assemble, e.to_string()))?;

    let t = Instant::now();
    let decoded = DecodedProgram::decode(&binary, config)
        .map_err(|e| fail(FailStage::Execution, e.to_string()))?;
    r.decode_s += t.elapsed().as_secs_f64();
    let mut mem = spec.mem.clone();
    let t = Instant::now();
    let solo = decoded.simulate(&mut mem, SimOptions::default());
    let sim_time = t.elapsed();
    r.solo_s += sim_time.as_secs_f64();
    let stats = solo.map_err(|e| fail(FailStage::Execution, e.to_string()))?;
    r.solo_cycles += stats.cycles;

    // One lane through the batched simulator: same program, same input,
    // same answer.
    let mut one = vec![LaneState::new(spec.mem.clone())];
    let t = Instant::now();
    let batch1 = decoded.simulate_batch(&mut one, SimOptions::default());
    r.batch1_s += t.elapsed().as_secs_f64();
    if batch1.first().and_then(|b| b.as_ref().ok()) != Some(&stats) || one[0].mem != mem {
        report.problem(format!(
            "{}: 1-lane batch differs from solo simulate",
            request.label()
        ));
    }
    let mut lanes: Vec<LaneState> = cmam_kernels::lane_images(spec, lane_seed, li.sweep_lanes)
        .into_iter()
        .map(LaneState::new)
        .collect();
    let t = Instant::now();
    let batch = decoded.simulate_batch(&mut lanes, SimOptions::default());
    r.batch_s += t.elapsed().as_secs_f64();
    r.batch_cycles += batch
        .iter()
        .filter_map(|b| b.as_ref().ok().map(|s| s.cycles))
        .sum::<u64>();

    let t = Instant::now();
    let energy = cmam_energy::cgra_energy(
        &cmam_energy::EnergyParams::default(),
        config,
        &stats,
        inputs.mul[job.spec],
    );
    r.energy_s += t.elapsed().as_secs_f64();
    std::hint::black_box(energy.total());

    spec.check(&mem).map_err(|(i, got, want)| {
        fail(
            FailStage::Execution,
            format!("mem[{i}] = {got}, want {want}"),
        )
    })?;
    Ok(RunOutcome {
        cycles: stats.cycles,
        sim: stats,
        report: asm,
        binary,
        compile_time,
        assemble_time,
        sim_time,
        map_stats: m.stats,
    })
}

/// Replays every job and round-trips each result through the artifact
/// format and a fresh store.
fn replay(li: &LayerInputs<'_>, seed: u64, scratch: &Scratch, report: &mut Report) -> Replay {
    let mut r = Replay::default();
    let store_dir = scratch.fresh_dir("replay");
    let store = DiskCache::new(Some(store_dir.clone()), None);
    let lane_seed = derive_seed(seed, REPLAY_LANES_LABEL);
    for job in li.jobs {
        let request = li.inputs.request(job);
        let t = Instant::now();
        let key = request.key();
        r.fingerprint_s += t.elapsed().as_secs_f64();
        let result = replay_job(&mut r, li, job, lane_seed, report);
        report.attempted += 1;
        if matches!(&result, Err(f) if matches!(f.stage, FailStage::Execution | FailStage::Panic)) {
            report.failed += 1;
        }

        let t = Instant::now();
        let bytes = serialize_result(&result);
        r.serialize_s += t.elapsed().as_secs_f64();
        r.artifact_bytes += bytes.len() as u64;
        let t = Instant::now();
        store.store(key, &result);
        r.store_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let loaded = store.load(key);
        r.load_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let parsed = parse_result(&bytes);
        r.parse_s += t.elapsed().as_secs_f64();
        let want = digest_of(&result);
        if loaded.map(|l| digest_of(&l)) != Some(want)
            || parsed.map(|p| digest_of(&p)) != Some(want)
        {
            report.problem(format!(
                "{}: artifact round trip changed the result",
                request.label()
            ));
        }
        r.results.push(result);
    }
    inputs::remove_dir(&store_dir);
    let differing = r
        .results
        .iter()
        .zip(li.engine_results)
        .filter(|(a, b)| digest_of(a) != digest_of(b))
        .count();
    if differing > 0 || li.engine_results.len() != r.results.len() {
        report.problem(format!(
            "{differing} job(s) differ between the one-thread replay and the engine at {} workers",
            workers()
        ));
    }
    r
}

/// Search metrics: from the workload's own search passes, or from one
/// probe search over the workload's configurations and kernels.
fn search_metrics(
    li: &LayerInputs<'_>,
    passes: &[Pass],
    own: Option<&SearchResult>,
) -> (f64, SearchResult) {
    if let Some(result) = own {
        let sched: Vec<f64> = passes.iter().map(|p| p.wall - p.batch_s).collect();
        return (median(&sched), result.clone());
    }
    let inputs = li.inputs;
    let specs: Vec<_> = li
        .search_specs
        .iter()
        .map(|&i| inputs.specs[i].clone())
        .collect();
    let configs: Vec<_> = li
        .search_configs
        .iter()
        .map(|&i| inputs.configs[i].clone())
        .collect();
    let eng = Engine::new(EngineOptions {
        jobs: workers(),
        cache_dir: None,
        cache_bytes: None,
    });
    let energy = |ci: usize, ki: usize, out: &RunOutcome| {
        inputs.energy(li.search_specs[ki], &configs[ci], out)
    };
    let batch_before = cmam_obs::histogram!("batch.wall_us").sum();
    let t = Instant::now();
    let result = run_search(
        &eng,
        &specs,
        &configs,
        cmam_core::FlowVariant::Cab,
        &energy,
        &SearchOptions::default(),
    );
    let wall = t.elapsed().as_secs_f64();
    let batch_s = (cmam_obs::histogram!("batch.wall_us").sum() - batch_before) as f64 / 1e6;
    (wall - batch_s, result)
}

/// Runs the trace analysis, the replay and the search probe, and reports
/// every per-layer metric. `own_search` is the workload's own search
/// result when its passes are searches.
pub fn traced_report(
    args: &Args,
    scratch: &Scratch,
    report: &mut Report,
    build_s: f64,
    passes: &[Pass],
    li: &LayerInputs<'_>,
    own_search: Option<&SearchResult>,
) {
    let text = cmam_obs::chrome_trace_json();
    let path = Scratch::trace_path(&args.workload, args.seed);
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(&path, &text) {
        report.problem(format!("cannot write {}: {e}", path.display()));
    }
    let summary = match analyze_trace(&text) {
        Ok(s) => s,
        Err(e) => {
            report.problem(format!("trace failed validation: {e}"));
            return;
        }
    };
    let wall = |traced: bool| {
        median(
            &passes
                .iter()
                .filter(|p| p.traced == traced)
                .map(|p| p.wall)
                .collect::<Vec<_>>(),
        )
    };
    let overhead = wall(true) / wall(false);
    let self_total: f64 = summary.self_by_layer.values().sum();
    let layer_self = |l: &str| summary.self_by_layer.get(l).copied().unwrap_or(0.0);
    let covered = summary.pass_us - layer_self("client");
    let coverage = if summary.pass_us > 0.0 {
        covered / summary.pass_us
    } else {
        0.0
    };
    println!(
        "trace: {} ({} events, valid) | traced/untraced pass wall {overhead:.4}",
        path.display(),
        summary.events
    );
    println!("{:<8} {:>14} {:>8}", "layer", "self s", "share");
    for l in LAYERS {
        println!(
            "{l:<8} {:>14.6} {:>8.4}",
            layer_self(l) / 1e6,
            layer_self(l) / self_total.max(1e-9)
        );
    }
    let top = LAYERS
        .iter()
        .filter(|&&l| l != "client")
        .max_by(|a, b| layer_self(a).total_cmp(&layer_self(b)))
        .copied()
        .unwrap_or("none");
    println!(
        "largest self time: {top} (expected {}) | client-loop coverage {coverage:.4}",
        expected_top(&args.workload)
    );

    let before: Vec<u64> = REPLAY_COUNTERS.iter().map(|c| counter(c)).collect();
    let r = replay(li, args.seed, scratch, report);
    let delta: Vec<f64> = REPLAY_COUNTERS
        .iter()
        .zip(&before)
        .map(|(c, b)| (counter(c) - b) as f64)
        .collect();
    let (sched_s, search) = search_metrics(li, passes, own_search);
    let engine = passes[0].engine;
    let map_total = r.map_s + r.map_fail_s;

    report.push("cdfg.build_s", build_s, "s");
    report.push("core.map_s", r.map_s, "s");
    report.push(
        "core.map_fail_share",
        r.map_fail_s / map_total.max(1e-12),
        "share",
    );
    report.push("core.map_ms_p50", quantile(&r.map_ms, 0.5), "ms");
    report.push("core.map_ms_p90", quantile(&r.map_ms, 0.9), "ms");
    report.push("core.map_calls", r.map_ms.len() as f64, "count");
    report.push("core.ops_per_s", r.ops as f64 / r.map_s, "1/s");
    report.push("core.attempts", delta[0], "count");
    report.push("core.candidates", delta[1], "count");
    report.push("core.attempt_yield", delta[1] / delta[0].max(1.0), "share");
    report.push("core.rollbacks", delta[2], "count");
    report.push("core.acmap_pruned", delta[3], "count");
    report.push("core.ecmap_pruned", delta[4], "count");
    report.push("core.stochastic_pruned", delta[5], "count");
    report.push("core.escalations", delta[6], "count");
    report.push("isa.assemble_s", r.assemble_s, "s");
    report.push("sim.decode_s", r.decode_s, "s");
    report.push("sim.solo_s", r.solo_s, "s");
    report.push(
        "sim.solo_cycles_per_s",
        r.solo_cycles as f64 / r.solo_s,
        "1/s",
    );
    report.push("sim.batch_s", r.batch_s, "s");
    report.push(
        "sim.batch_cycles_per_s",
        r.batch_cycles as f64 / r.batch_s,
        "1/s",
    );
    report.push("sim.batch1_over_solo", r.solo_s / r.batch1_s, "ratio");
    report.push("sim.cohorts", delta[7], "count");
    report.push("sim.divergences", delta[8], "count");
    report.push("energy.model_s", r.energy_s, "s");
    report.push("engine.fingerprint_s", r.fingerprint_s, "s");
    report.push("engine.serialize_s", r.serialize_s, "s");
    report.push("engine.store_s", r.store_s, "s");
    report.push("engine.load_s", r.load_s, "s");
    report.push("engine.parse_s", r.parse_s, "s");
    report.push("engine.artifact_bytes", r.artifact_bytes as f64, "bytes");
    report.push("engine.disk_hits", engine.disk_hits as f64, "count");
    report.push("engine.executed", engine.executed as f64, "count");
    report.push("engine.retries", engine.retries as f64, "count");
    report.push("search.sched_s", sched_s, "s");
    report.push(
        "search.jobs_scheduled",
        search.stats.jobs_scheduled as f64,
        "count",
    );
    report.push("search.infeasible", search.stats.infeasible as f64, "count");
    report.push("search.raced", search.stats.raced as f64, "count");
    report.push("search.dominated", search.stats.dominated as f64, "count");
    report.push("pool.idle_share", summary.idle_share, "share");
    report.push("trace.overhead", overhead, "ratio");
    report.push("trace.coverage", coverage, "share");
    for (name, l) in [
        ("trace.core_share", "core"),
        ("trace.isa_share", "isa"),
        ("trace.sim_share", "sim"),
        ("trace.energy_share", "energy"),
        ("trace.engine_share", "engine"),
        ("trace.search_share", "search"),
        ("trace.client_share", "client"),
    ] {
        report.push(name, layer_self(l) / self_total.max(1e-9), "share");
    }
}
