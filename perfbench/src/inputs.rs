//! Workload inputs derived from the run seed, the per-job accounting of
//! the exact metrics, and small measurement helpers.

use cmam_arch::CgraConfig;
use cmam_cdfg::generate::GenParams;
use cmam_cdfg::{Cdfg, Opcode};
use cmam_core::FlowVariant;
use cmam_engine::{FailStage, Fnv64, JobRequest, JobResult, RunOutcome};
use cmam_kernels::KernelSpec;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Derives an independent stream seed from the run seed and a label, so
/// each workload input (job order, generated kernels, lane images) moves
/// on its own when the run seed changes.
pub fn derive_seed(seed: u64, label: &str) -> u64 {
    let mut h = Fnv64::new();
    h.feed_str(label);
    h.feed_u64(seed);
    h.finish()
}

/// splitmix64 step, for the seeded shuffles.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded Fisher-Yates shuffle.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// A per-process scratch directory inside the working directory (the
/// benchmark reads and writes nothing outside it). Every artifact store
/// the benchmark opens is a fresh directory below it; it is removed when
/// the run ends.
pub struct Scratch {
    root: PathBuf,
    next: std::cell::Cell<u32>,
}

impl Scratch {
    pub fn create() -> std::io::Result<Scratch> {
        let root = PathBuf::from(".perfbench").join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&root)?;
        Ok(Scratch {
            root,
            next: std::cell::Cell::new(0),
        })
    }

    /// A new, empty directory path (not yet created).
    pub fn fresh_dir(&self, tag: &str) -> PathBuf {
        let n = self.next.get();
        self.next.set(n + 1);
        self.root.join(format!("{tag}-{n}"))
    }

    /// Where traced runs write their Chrome trace.
    pub fn trace_path(workload: &str, seed: u64) -> PathBuf {
        PathBuf::from(".perfbench")
            .join("traces")
            .join(format!("{workload}-seed{seed}.json"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Removes a scratch store, ignoring a directory that was never created.
pub fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// One (kernel, configuration, flow) job, by index into [`Inputs`].
#[derive(Debug, Clone, Copy)]
pub struct Job {
    pub spec: usize,
    pub config: usize,
    pub variant: FlowVariant,
}

/// Kernels, configurations and the job list built over them.
pub struct Inputs {
    pub specs: Vec<KernelSpec>,
    pub configs: Vec<CgraConfig>,
    pub jobs: Vec<Job>,
    /// Static multiply share per kernel (the energy model's input).
    pub mul: Vec<f64>,
}

impl Inputs {
    pub fn new(specs: Vec<KernelSpec>, configs: Vec<CgraConfig>, jobs: Vec<Job>) -> Inputs {
        let mul = specs.iter().map(|s| mul_fraction(&s.cdfg)).collect();
        Inputs {
            specs,
            configs,
            jobs,
            mul,
        }
    }

    pub fn request(&self, job: &Job) -> JobRequest<'_> {
        JobRequest::flow(
            &self.specs[job.spec],
            job.variant,
            &self.configs[job.config],
        )
    }

    pub fn requests(&self) -> Vec<JobRequest<'_>> {
        self.jobs.iter().map(|j| self.request(j)).collect()
    }

    /// Modelled energy of one outcome, in µJ.
    pub fn energy(&self, spec: usize, config: &CgraConfig, out: &RunOutcome) -> f64 {
        cmam_energy::cgra_energy(
            &cmam_energy::EnergyParams::default(),
            config,
            &out.sim,
            self.mul[spec],
        )
        .total()
    }
}

/// Number of generated kernels in the compile workloads: one per
/// generator profile, so every profile is compiled on every seed.
pub const GENERATED_KERNELS: usize = 9;

/// The compile workloads' job list: the 175-job golden matrix (7 paper
/// kernels × HOM64/HOM32/HET1/HET2/unconstrained 4x4 × 5 flows) plus one
/// seeded generated kernel per generator profile on gen_suite's 4-job
/// matrix, in a seeded order.
pub fn compile_inputs(seed: u64) -> Inputs {
    let mut specs = cmam_kernels::all();
    let paper = specs.len();
    let gen_seeds = cmam_kernels::kernel_seeds(derive_seed(seed, "generated"), GENERATED_KERNELS);
    for (k, &s) in gen_seeds.iter().enumerate() {
        let profile = GenParams::PROFILES[k % GenParams::PROFILES.len()];
        let params = GenParams::profile(profile).expect("known profile");
        specs.push(cmam_kernels::generated_spec(&params, s));
    }
    let configs = vec![
        CgraConfig::hom64(),
        CgraConfig::hom32(),
        CgraConfig::het1(),
        CgraConfig::het2(),
        CgraConfig::unconstrained_4x4(),
    ];
    let mut jobs = Vec::new();
    for spec in 0..paper {
        for config in 0..configs.len() {
            for variant in FlowVariant::ALL {
                jobs.push(Job {
                    spec,
                    config,
                    variant,
                });
            }
        }
    }
    // gen_suite's matrix: basic and CAB on HOM64, CAB on HET1 and HET2.
    let gen_matrix = [
        (FlowVariant::Basic, 0),
        (FlowVariant::Cab, 0),
        (FlowVariant::Cab, 2),
        (FlowVariant::Cab, 3),
    ];
    for spec in paper..specs.len() {
        for &(variant, config) in &gen_matrix {
            jobs.push(Job {
                spec,
                config,
                variant,
            });
        }
    }
    shuffle(&mut jobs, derive_seed(seed, "job-order"));
    Inputs::new(specs, configs, jobs)
}

/// The exact (deterministic) outcome of a pass. Two passes over the same
/// inputs must agree on every field, at any worker count.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Exact {
    /// Jobs or lanes attempted.
    pub attempted: u64,
    /// Jobs that mapped, assembled, simulated and matched their
    /// interpreter-derived memory image (lanes: matched the interpreter).
    pub verified: u64,
    /// Simulated cycles over verified jobs or lanes.
    pub sim_cycles: u64,
    /// Modelled energy over verified jobs on finite-context-memory
    /// configurations, µJ, summed in job order.
    pub energy_uj: f64,
    /// Context words over mapped jobs.
    pub context_words: u64,
    /// Engine evaluations the workload requested.
    pub evals: u64,
    /// Evaluations an exhaustive sweep of the same inputs needs.
    pub exhaustive: u64,
    /// Execution or Panic outcomes, and outputs that differ from their
    /// reference.
    pub failed: u64,
    /// Digest over every per-job outcome.
    pub digest: u64,
}

/// Whether a configuration's context memories are finite in the energy
/// model's sense. The unconstrained 4x4 models "no CM limit" with
/// 2^62-word memories; the model would charge leakage for all of them.
pub fn finite_cm(config: &CgraConfig) -> bool {
    config.max_cm_words() <= 1 << 16
}

/// Total context words of a mapped job.
pub fn context_words(out: &RunOutcome) -> u64 {
    out.report
        .per_tile
        .iter()
        .map(|&(o, m, p)| (o + m + p) as u64)
        .sum()
}

/// Totals over a whole job list's results (in job order).
pub fn tally(inputs: &Inputs, results: &[JobResult]) -> Exact {
    let mut exact = Exact::default();
    let mut h = Fnv64::new();
    for (job, result) in inputs.jobs.iter().zip(results) {
        exact.attempted += 1;
        exact.evals += 1;
        exact.exhaustive += 1;
        match result {
            Ok(out) => {
                let config = &inputs.configs[job.config];
                exact.verified += 1;
                exact.sim_cycles += out.cycles;
                exact.context_words += context_words(out);
                if finite_cm(config) {
                    exact.energy_uj += inputs.energy(job.spec, config, out);
                }
                h.feed_u64(out.content_digest());
            }
            // Map and Assemble verdicts of memory-unaware flows or
            // over-tight configurations are part of the outcome, not
            // failures.
            Err(f) => {
                if matches!(f.stage, FailStage::Execution | FailStage::Panic) {
                    eprintln!("perfbench: {} failed: {f}", inputs.request(job).label());
                    exact.failed += 1;
                }
                h.feed_str(&f.to_string());
            }
        }
    }
    exact.digest = h.finish();
    exact
}

/// Static share of multiplies among ALU operations.
pub fn mul_fraction(cdfg: &Cdfg) -> f64 {
    let mut alu = 0usize;
    let mut mul = 0usize;
    for b in cdfg.block_ids() {
        for op in cdfg.dfg(b).ops() {
            if !op.opcode.is_memory() {
                alu += 1;
                mul += usize::from(op.opcode == Opcode::Mul);
            }
        }
    }
    if alu == 0 {
        0.0
    } else {
        mul as f64 / alu as f64
    }
}

/// CDFG operations over all blocks.
pub fn op_count(cdfg: &Cdfg) -> u64 {
    cdfg.block_ids().map(|b| cdfg.dfg(b).num_ops() as u64).sum()
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile of a non-empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The input build behind `setup_s` is repeated at least this many times
/// and for at least [`SETUP_MIN_S`] seconds; its median is reported. A
/// build of a few milliseconds otherwise mostly measures process
/// start-up (cold caches, page faults).
pub const SETUP_REPS: usize = 5;
pub const SETUP_MIN_S: f64 = 0.05;

/// Builds the inputs repeatedly and returns the last build with the
/// median build time.
pub fn timed_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let built = std::hint::black_box(build());
        times.push(t.elapsed().as_secs_f64());
        if times.len() >= SETUP_REPS && start.elapsed().as_secs_f64() >= SETUP_MIN_S {
            return (built, median(&times));
        }
    }
}
