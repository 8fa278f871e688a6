//! The whole-kernel mapping driver (Fig 4 of the paper).
//!
//! For every basic block (in forward or weighted traversal order), the
//! driver runs the population-based list-scheduling/binding loop:
//!
//! ```text
//! for op in priority order:
//!     candidates = { partial + (op -> tile, cycle) : feasible bindings }
//!     ACMAP filter          (if enabled)
//!     ECMAP filter          (if enabled)
//!     stochastic pruning    (population cap)
//! finalize (symbol commits, exact fit check), pick the cheapest mapping
//! ```
//!
//! and commits the winner's context-word usage, CRF contents and symbol
//! homes before moving to the next block.

use crate::options::{MapperOptions, Traversal};
use crate::partial::{FlowState, MapCtx, MapPre, Partial};
use crate::prune::stochastic_prune_by;
use crate::schedule::priority_order;
use cmam_arch::{CgraConfig, TileId};
use cmam_cdfg::analysis::{forward_order, weighted_order, DepGraph};
use cmam_cdfg::{BlockId, Cdfg, OpId, ValidateError};
use cmam_isa::KernelMapping;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::error::Error;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Why a kernel could not be mapped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// The CDFG failed structural validation.
    Invalid(ValidateError),
    /// No feasible binding existed for an operation of `block` even after
    /// slack escalation (routing/recomputation exhausted).
    Unroutable {
        /// The failing block.
        block: BlockId,
    },
    /// Every candidate was pruned by the context-memory constraints — the
    /// kernel does not fit this configuration (the "zero" bars of
    /// Figs 6-8).
    MemoryConstraint {
        /// The failing block.
        block: BlockId,
        /// Which step rejected the last candidates (`"binding"`,
        /// `"ACMAP"`, `"ECMAP"` or `"finalize"`).
        step: &'static str,
    },
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::Invalid(e) => write!(f, "invalid cdfg: {e}"),
            MapError::Unroutable { block } => {
                write!(f, "no feasible binding while mapping {block}")
            }
            MapError::MemoryConstraint { block, step } => {
                write!(
                    f,
                    "context-memory constraints unsatisfiable in {block} ({step})"
                )
            }
        }
    }
}

impl Error for MapError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MapError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ValidateError> for MapError {
    fn from(e: ValidateError) -> Self {
        MapError::Invalid(e)
    }
}

/// Search statistics of one mapping run (used by the Fig 9 compilation
/// effort comparison and by tests).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MapStats {
    /// Candidate bindings generated (successful `try_place_op` calls).
    pub candidates: u64,
    /// Candidate bindings attempted (including failures). The `slack + 1`
    /// cycles of a tile that `try_place_op` would refuse before mutating
    /// anything — a memory op on a tile without an LSU, any op on a
    /// CAB-blacklisted tile — are counted without a call.
    pub attempts: u64,
    /// Partials dropped by the ACMAP filter.
    pub acmap_pruned: u64,
    /// Partials dropped by the ECMAP filter.
    pub ecmap_pruned: u64,
    /// Partials dropped by the stochastic pruning.
    pub stochastic_pruned: u64,
    /// Partials that failed finalisation (commit or exact fit).
    pub finalize_failures: u64,
    /// Number of slack escalations needed.
    pub escalations: u64,
    /// Largest candidate pool alive at once (after binding expansion,
    /// before the memory filters) — the search's peak memory pressure,
    /// a timing-noise-free effort measure for Fig 9 and the DSE sweep.
    pub peak_population: u64,
    /// Trial bindings undone on the shared partial state during candidate
    /// expansion — every try that left a delta (surviving candidates and
    /// failed attempts alike) is rolled back rather than cloned away.
    /// Zero for mapper implementations that evaluate candidates on
    /// clones; together with `attempts` this measures how much work the
    /// try/undo scheme saves over clone-per-candidate.
    pub rollbacks: u64,
}

impl MapStats {
    /// Flushes this run's aggregated statistics into the global
    /// `mapper.*` metrics — called once per [`Mapper::map`], so the
    /// search loops themselves carry no metrics instructions. The totals
    /// are deterministic across thread counts because `MapStats` itself
    /// is (pinned by the golden-equivalence suite).
    pub fn flush_metrics(&self, failed: bool) {
        cmam_obs::counter!("mapper.maps").add(1);
        if failed {
            cmam_obs::counter!("mapper.map_failures").add(1);
        }
        cmam_obs::counter!("mapper.candidates").add(self.candidates);
        cmam_obs::counter!("mapper.attempts").add(self.attempts);
        cmam_obs::counter!("mapper.acmap_pruned").add(self.acmap_pruned);
        cmam_obs::counter!("mapper.ecmap_pruned").add(self.ecmap_pruned);
        cmam_obs::counter!("mapper.stochastic_pruned").add(self.stochastic_pruned);
        cmam_obs::counter!("mapper.finalize_failures").add(self.finalize_failures);
        cmam_obs::counter!("mapper.escalations").add(self.escalations);
        cmam_obs::counter!("mapper.rollbacks").add(self.rollbacks);
        cmam_obs::gauge!("mapper.peak_population").raise(self.peak_population as i64);
    }
}

/// The stages of one op step (plus block finalisation) that
/// [`StageClock`] attributes wall-clock time to.
#[derive(Debug, Clone, Copy)]
enum Stage {
    /// Candidate generation: the try/rollback loop with slack
    /// escalation. Block set-up (dependency graph, priority order, the
    /// first partial) counts here too.
    Expand,
    /// The ACMAP/ECMAP retains over the candidate pool.
    Filter,
    /// Stochastic pruning.
    Prune,
    /// Re-applying the chosen candidates onto their parents.
    Materialise,
    /// Symbol commits, exact fit and the winner's commit.
    Finalize,
}

/// Wall-clock attribution of one `map()` call to its [`Stage`]s: one
/// `Instant` per stage switch — a few per op step, never per candidate —
/// flushed once per map into the `mapper.stage_ns.*` counters. Timing
/// only: it feeds no search decision and no [`MapStats`] field, so the
/// counters vary from run to run while everything else stays exact.
#[derive(Debug)]
struct StageClock {
    last: Instant,
    stage: Stage,
    ns: [u64; 5],
}

impl StageClock {
    fn start() -> Self {
        StageClock {
            last: Instant::now(),
            stage: Stage::Expand,
            ns: [0; 5],
        }
    }

    /// Charges the time since the last switch to the current stage and
    /// makes `next` current.
    fn enter(&mut self, next: Stage) {
        let now = Instant::now();
        self.ns[self.stage as usize] += (now - self.last).as_nanos() as u64;
        self.last = now;
        self.stage = next;
    }

    /// Closes the current stage and adds the totals to the metrics
    /// registry — called once per [`Mapper::map`], beside
    /// [`MapStats::flush_metrics`].
    fn flush(mut self) {
        self.enter(self.stage);
        let [expand, filter, prune, materialise, finalize] = self.ns;
        cmam_obs::counter!("mapper.stage_ns.expand").add(expand);
        cmam_obs::counter!("mapper.stage_ns.filter").add(filter);
        cmam_obs::counter!("mapper.stage_ns.prune").add(prune);
        cmam_obs::counter!("mapper.stage_ns.materialise").add(materialise);
        cmam_obs::counter!("mapper.stage_ns.finalize").add(finalize);
    }
}

/// A successful mapping plus its statistics.
#[derive(Debug, Clone)]
pub struct MapResult {
    /// The mapping, ready for `cmam_isa::assemble`.
    pub mapping: KernelMapping,
    /// Search statistics.
    pub stats: MapStats,
}

/// The mapping engine. One instance is reusable across kernels and
/// configurations; each [`map`](Mapper::map) call is deterministic for the
/// options' seed.
#[derive(Debug, Clone, Default)]
pub struct Mapper {
    options: MapperOptions,
}

/// One successful trial binding: which parent it extends and where the op
/// goes, plus everything the downstream pipeline steps need (cost for
/// ranking, the memory-filter verdicts) — recorded while the delta was
/// applied, before it was rolled back. Only the candidates that survive
/// pruning are ever materialised into real [`Partial`]s.
struct Candidate {
    parent: u32,
    tile: TileId,
    cycle: u32,
    cost: (usize, usize),
    acmap_ok: bool,
    ecmap_ok: bool,
}

/// Search counters produced by one expansion shard; folded into
/// [`MapStats`] after the (sequential or parallel) round joins. Plain
/// integer sums, so the fold order cannot influence the totals.
#[derive(Debug, Clone, Copy, Default)]
struct ExpandStats {
    attempts: u64,
    candidates: u64,
    rollbacks: u64,
}

impl ExpandStats {
    fn absorb(&mut self, other: ExpandStats) {
        self.attempts += other.attempts;
        self.candidates += other.candidates;
        self.rollbacks += other.rollbacks;
    }
}

/// Expands one partial mapping for `op` at the given `slack`: the
/// tiles × cycles try/rollback loop, the per-partial expansion cut and
/// the memory-filter verdicts of the candidates that make the cut.
/// **The** candidate generator — the sequential path and every parallel
/// beam shard call exactly this function, which is what makes the
/// parallel search bit-identical to the sequential one by construction.
///
/// `caps` is the effective context capacity of every tile for the block
/// being mapped (`MapCtx::capacity`, as a dense slice); the tiles are
/// tried in id order.
fn expand_partial(
    ctx: &MapCtx<'_>,
    deps: &DepGraph,
    caps: &[usize],
    op: OpId,
    slack: usize,
    pi: usize,
    partial: &mut Partial,
) -> (Vec<Candidate>, ExpandStats) {
    let mut st = ExpandStats::default();
    let earliest = partial.earliest_cycle(deps, op);
    let cp = partial.checkpoint();
    let is_memory = ctx.cdfg.op(op).opcode.is_memory();
    let k = ctx.options.expansion;
    // The expansion cut happens *before* the memory filters, exactly like
    // the paper's Fig 4 pipeline (binding -> ACMAP -> stochastic
    // pruning): the memory-aware steps prune the partial-mapping set,
    // they do not re-rank the binder's candidates. This is what makes
    // over-constrained targets fail (the zero bars of Figs 6-8) instead
    // of being rescued by exhaustive candidate filtering. The cut is
    // applied as candidates arrive: `local` holds the `k` cheapest so
    // far, ties in generation order — what a stable sort + truncate of
    // every candidate gives.
    let mut local: Vec<Candidate> = Vec::with_capacity(k);
    for tile in (0..caps.len()).map(TileId) {
        // Tile-level rejects: `try_place_op` refuses a memory op on a tile
        // without an LSU, and any op on a CAB-blacklisted tile, before it
        // mutates anything. The state is the checkpoint's at every cycle,
        // so every cycle of the tile fails alike; count them unattempted.
        if (is_memory && !ctx.config.tile(tile).has_lsu)
            || (ctx.options.cab && partial.blacklisted(ctx, tile))
        {
            st.attempts += slack as u64 + 1;
            if cfg!(debug_assertions) {
                for cycle in earliest..=earliest + slack {
                    debug_assert!(
                        !partial.try_place_op(ctx, op, tile, cycle) && !partial.dirty_since(cp),
                        "skipped tile {tile} would take {op} at cycle {cycle}"
                    );
                }
            }
            continue;
        }
        for cycle in earliest..=earliest + slack {
            st.attempts += 1;
            if partial.try_place_op(ctx, op, tile, cycle) {
                st.candidates += 1;
                // Only candidates that make the cut need the memory
                // verdicts, read while the delta is applied.
                top_k_offer(
                    &mut local,
                    k,
                    partial.cost(),
                    |c| c.cost,
                    || {
                        let (acmap_ok, ecmap_ok) = memory_verdicts(partial, ctx.options, caps);
                        Candidate {
                            parent: pi as u32,
                            tile,
                            cycle: cycle as u32,
                            cost: partial.cost(),
                            acmap_ok,
                            ecmap_ok,
                        }
                    },
                );
            }
            if partial.dirty_since(cp) {
                st.rollbacks += 1;
                partial.rollback(cp);
            }
        }
    }
    (local, st)
}

/// Offers an item keyed `key` to `list` — sorted by key, ties in arrival
/// order, at most `k` long — building it with `make` only when it makes
/// the cut, and evicting the last item when the list is full. Offering
/// every arrival keeps exactly the first `k` of a stable sort of all
/// arrivals: an evicted item can never return, since every later arrival
/// ranks after it on ties.
fn top_k_offer<T, K: Ord>(
    list: &mut Vec<T>,
    k: usize,
    key: K,
    key_of: impl Fn(&T) -> K,
    make: impl FnOnce() -> T,
) {
    let pos = list.partition_point(|x| key_of(x) <= key);
    if pos < k {
        list.truncate(k - 1);
        list.insert(pos, make());
    }
}

/// The ACMAP and ECMAP verdicts of `partial` against the per-tile
/// capacities `caps` — what [`acmap_filter`](crate::acmap_filter) and
/// [`ecmap_filter`](crate::ecmap_filter) decide for it. ECMAP words are
/// never below ACMAP words on any tile, so a partial that passes ECMAP
/// passes ACMAP too, and the common all-fit case takes one scan.
fn memory_verdicts(partial: &Partial, options: &MapperOptions, caps: &[usize]) -> (bool, bool) {
    let fits = |words: fn(&Partial, TileId) -> usize| {
        caps.iter()
            .enumerate()
            .all(|(t, &cap)| words(partial, TileId(t)) <= cap)
    };
    if options.ecmap && fits(Partial::ecmap_words) {
        return (true, true);
    }
    (!options.acmap || fits(Partial::acmap_words), !options.ecmap)
}

/// The owned copy of one `map()` call's inputs that parallel beam shards
/// share through an `Arc`. Cloning the CDFG and configuration once per
/// `map()` call (graph-sized, microseconds) is what lets the shard jobs
/// be `'static` for the persistent [`cmam_pool`] workers — no borrow of
/// the caller's stack ever crosses a thread.
#[derive(Debug)]
struct SharedSearch {
    cdfg: Cdfg,
    config: CgraConfig,
    options: MapperOptions,
    pre: MapPre,
}

impl SharedSearch {
    fn ctx(&self, reserve: usize) -> MapCtx<'_> {
        MapCtx {
            cdfg: &self.cdfg,
            config: &self.config,
            options: &self.options,
            reserve,
            pre: &self.pre,
        }
    }
}

/// Handle for the intra-search beam parallelism: the shared inputs plus
/// the resolved thread count. Present only when
/// [`MapperOptions::effective_threads`] > 1.
struct BeamPool {
    shared: Arc<SharedSearch>,
    threads: usize,
}

/// Takes every partial back out of the per-index slots after a parallel
/// round joined, restoring the population in index order.
fn take_back(slots: &[Mutex<Option<Partial>>]) -> Vec<Partial> {
    slots
        .iter()
        .map(|s| {
            s.lock()
                .expect("beam slot poisoned")
                .take()
                .expect("every shard returned its partial")
        })
        .collect()
}

/// Wraps a population into the `Mutex<Option<_>>` slots parallel jobs
/// move their partials in and out of.
fn into_slots(population: Vec<Partial>) -> Arc<Vec<Mutex<Option<Partial>>>> {
    Arc::new(
        population
            .into_iter()
            .map(|p| Mutex::new(Some(p)))
            .collect(),
    )
}

impl BeamPool {
    /// One parallel expansion round: shards the `tiles × slack`
    /// try/rollback loop across the beam (one shard per live partial) and
    /// concatenates the per-partial candidate lists back **in partial
    /// index order** — the exact order the sequential loop produces.
    fn expand_round(
        &self,
        reserve: usize,
        deps: &Arc<DepGraph>,
        caps: &Arc<Vec<usize>>,
        op: OpId,
        slack: usize,
        population: Vec<Partial>,
    ) -> (Vec<Partial>, Vec<Candidate>, ExpandStats) {
        let n = population.len();
        let slots = into_slots(population);
        let job_slots = Arc::clone(&slots);
        let shared = Arc::clone(&self.shared);
        let deps = Arc::clone(deps);
        let caps = Arc::clone(caps);
        let results = cmam_pool::global().run_indexed(n, self.threads, move |i| {
            let ctx = shared.ctx(reserve);
            let mut p = job_slots[i]
                .lock()
                .expect("beam slot poisoned")
                .take()
                .expect("partial present");
            let out = expand_partial(&ctx, &deps, &caps, op, slack, i, &mut p);
            *job_slots[i].lock().expect("beam slot poisoned") = Some(p);
            out
        });
        let population = take_back(&slots);
        let mut pool: Vec<Candidate> = Vec::new();
        let mut st = ExpandStats::default();
        for (local, s) in results {
            pool.extend(local);
            st.absorb(s);
        }
        (population, pool, st)
    }

    /// One parallel finalisation round: every surviving partial runs its
    /// (independent) symbol-commit + exact-fit trials on a shard; verdicts
    /// come back in partial index order.
    fn finalize_round(
        &self,
        reserve: usize,
        block: BlockId,
        population: Vec<Partial>,
    ) -> (Vec<Partial>, Vec<bool>) {
        let n = population.len();
        let slots = into_slots(population);
        let job_slots = Arc::clone(&slots);
        let shared = Arc::clone(&self.shared);
        let flags = cmam_pool::global().run_indexed(n, self.threads, move |i| {
            let ctx = shared.ctx(reserve);
            let mut p = job_slots[i]
                .lock()
                .expect("beam slot poisoned")
                .take()
                .expect("partial present");
            let ok = p.finalize(&ctx, block);
            *job_slots[i].lock().expect("beam slot poisoned") = Some(p);
            ok
        });
        (take_back(&slots), flags)
    }
}

impl Mapper {
    /// Creates a mapper with the given options.
    pub fn new(options: MapperOptions) -> Self {
        Mapper { options }
    }

    /// The options in use.
    pub fn options(&self) -> &MapperOptions {
        &self.options
    }

    /// Maps `cdfg` onto `config`.
    ///
    /// With [`MapperOptions::threads`] (or `CMAM_THREADS`) above 1 the
    /// candidate expansion and finalisation shard across the shared
    /// [`cmam_pool`] — the result is **bit-identical** to the sequential
    /// search for every thread count, because every shard runs the same
    /// per-partial generator, shards join in partial index order, and the
    /// only RNG consumer (the stochastic pruning) always runs
    /// sequentially on the ordered candidate pool.
    ///
    /// # Errors
    ///
    /// [`MapError::Invalid`] for malformed CDFGs, [`MapError::Unroutable`]
    /// when binding fails structurally, and [`MapError::MemoryConstraint`]
    /// when the context-memory constraints cannot be met (memory-aware
    /// flows only).
    pub fn map(&self, cdfg: &Cdfg, config: &CgraConfig) -> Result<MapResult, MapError> {
        let _span = cmam_obs::span!("map", blocks = cdfg.num_blocks() as u64);
        let mut stats = MapStats::default();
        let mut clock = StageClock::start();
        let result = self.map_impl(cdfg, config, &mut stats, &mut clock);
        stats.flush_metrics(result.is_err());
        clock.flush();
        result.map(|mapping| MapResult { mapping, stats })
    }

    fn map_impl(
        &self,
        cdfg: &Cdfg,
        config: &CgraConfig,
        stats: &mut MapStats,
        clock: &mut StageClock,
    ) -> Result<KernelMapping, MapError> {
        cdfg.validate()?;
        let order = match self.options.traversal {
            Traversal::Forward => forward_order(cdfg),
            Traversal::Weighted => weighted_order(cdfg),
        };
        let ntiles = config.geometry().num_tiles();
        let pre = MapPre::new(config);
        let threads = self.options.effective_threads();
        let beam = (threads > 1).then(|| BeamPool {
            shared: Arc::new(SharedSearch {
                cdfg: cdfg.clone(),
                config: config.clone(),
                options: self.options.clone(),
                pre: pre.clone(),
            }),
            threads,
        });
        let mut state = FlowState::new(ntiles);
        let mut rng = StdRng::seed_from_u64(self.options.seed);
        let mut blocks: Vec<Option<cmam_isa::BlockMapping>> = vec![None; cdfg.num_blocks()];
        // Retired partials whose allocations the survivor materialisation
        // reuses (see `map_block`); shared across blocks because every
        // partial of one run has identically sized tables.
        let mut pool_mem: Vec<Partial> = Vec::new();

        for (pos, &block) in order.iter().enumerate() {
            // Reserve one context word per tile for every block still to
            // be mapped (each costs at least a pnop everywhere).
            let ctx = MapCtx {
                cdfg,
                config,
                options: &self.options,
                reserve: order.len() - 1 - pos,
                pre: &pre,
            };
            let bm = self.map_block(
                &ctx,
                block,
                &mut state,
                &mut rng,
                stats,
                clock,
                &mut pool_mem,
                beam.as_ref(),
            )?;
            blocks[block.0 as usize] = Some(bm);
        }

        let mapping = KernelMapping {
            blocks: blocks
                .into_iter()
                .map(|b| b.expect("all blocks mapped"))
                .collect(),
            symbol_homes: state.homes.clone(),
        };
        Ok(mapping)
    }

    #[allow(clippy::too_many_arguments)]
    fn map_block(
        &self,
        ctx: &MapCtx<'_>,
        block: BlockId,
        state: &mut FlowState,
        rng: &mut StdRng,
        stats: &mut MapStats,
        clock: &mut StageClock,
        pool_mem: &mut Vec<Partial>,
        beam: Option<&BeamPool>,
    ) -> Result<cmam_isa::BlockMapping, MapError> {
        clock.enter(Stage::Expand);
        let dfg = ctx.cdfg.dfg(block);
        let deps = Arc::new(DepGraph::build(&dfg));
        let order = priority_order(&dfg, &deps);
        let _span = cmam_obs::span!(
            "map_block",
            block = block.0 as u64,
            ops = order.len() as u64
        );
        let caps: Arc<Vec<usize>> = Arc::new(
            ctx.config
                .geometry()
                .tiles()
                .map(|t| ctx.capacity(t))
                .collect(),
        );

        let mut population = vec![Partial::new(state, ctx)];

        for &op in &order {
            clock.enter(Stage::Expand);
            // Candidate generation with slack escalation. Every trial is
            // applied to the shared parent state and rolled back; cloning
            // happens only for pruning survivors below. With beam
            // parallelism on, the per-partial shards run concurrently and
            // join in partial index order — the pool below is identical
            // either way.
            let mut pool: Vec<Candidate> = Vec::new();
            for escalation in 0..3 {
                let slack = self.options.slack << (2 * escalation);
                if escalation > 0 {
                    stats.escalations += 1;
                }
                let round_stats = match beam {
                    Some(bp) if population.len() > 1 => {
                        let (pop, cands, st) = bp.expand_round(
                            ctx.reserve,
                            &deps,
                            &caps,
                            op,
                            slack,
                            std::mem::take(&mut population),
                        );
                        population = pop;
                        pool = cands;
                        st
                    }
                    _ => {
                        let mut st = ExpandStats::default();
                        for (pi, partial) in population.iter_mut().enumerate() {
                            let (local, s) =
                                expand_partial(ctx, &deps, &caps, op, slack, pi, partial);
                            pool.extend(local);
                            st.absorb(s);
                        }
                        st
                    }
                };
                stats.attempts += round_stats.attempts;
                stats.candidates += round_stats.candidates;
                stats.rollbacks += round_stats.rollbacks;
                if !pool.is_empty() {
                    break;
                }
            }
            clock.enter(Stage::Filter);
            if pool.is_empty() {
                // With memory awareness on, an empty pool usually means
                // the CAB blacklist / capacity reservation left no legal
                // tile — a constraint failure, not a routing failure.
                if self.options.memory_aware() {
                    return Err(MapError::MemoryConstraint {
                        block,
                        step: "binding",
                    });
                }
                return Err(MapError::Unroutable { block });
            }

            stats.peak_population = stats.peak_population.max(pool.len() as u64);

            // ACMAP / ECMAP filters: the verdicts were computed per
            // candidate at trial time; the filters reduce to retains.
            // ECMAP counts only candidates that survived ACMAP, like the
            // sequential filter pipeline did.
            if self.options.acmap {
                let before = pool.len();
                pool.retain(|c| c.acmap_ok);
                stats.acmap_pruned += (before - pool.len()) as u64;
                if pool.is_empty() {
                    return Err(MapError::MemoryConstraint {
                        block,
                        step: "ACMAP",
                    });
                }
            }
            if self.options.ecmap {
                let before = pool.len();
                pool.retain(|c| c.ecmap_ok);
                stats.ecmap_pruned += (before - pool.len()) as u64;
                if pool.is_empty() {
                    return Err(MapError::MemoryConstraint {
                        block,
                        step: "ECMAP",
                    });
                }
            }
            clock.enter(Stage::Prune);
            let before = pool.len();
            let chosen = stochastic_prune_by(pool, self.options.population, rng, |c| c.cost);
            stats.stochastic_pruned += (before - chosen.len()) as u64;

            clock.enter(Stage::Materialise);
            // Materialise the survivors: re-apply each chosen delta onto
            // (a clone of) its parent. The last reference to a parent
            // takes it by move; buffers of never-chosen parents are
            // recycled through `pool_mem` instead of reallocated.
            let mut refs = vec![0u32; population.len()];
            for c in &chosen {
                refs[c.parent as usize] += 1;
            }
            let mut parents: Vec<Option<Partial>> = population.into_iter().map(Some).collect();
            let mut next: Vec<Partial> = Vec::with_capacity(chosen.len());
            for c in &chosen {
                let pi = c.parent as usize;
                refs[pi] -= 1;
                let mut p = if refs[pi] == 0 {
                    parents[pi].take().expect("last reference")
                } else {
                    let parent = parents[pi].as_ref().expect("parent still live");
                    match pool_mem.pop() {
                        Some(mut buf) => {
                            buf.clone_from(parent);
                            buf
                        }
                        None => parent.clone(),
                    }
                };
                let ok = p.try_place_op(ctx, op, c.tile, c.cycle as usize);
                debug_assert!(ok, "re-applying a proven-feasible binding");
                if !ok {
                    // A rolled-back trial failing on re-application would
                    // mean the journal is broken; never ship a corrupt
                    // mapping in release builds either.
                    return Err(MapError::Unroutable { block });
                }
                p.clear_journal();
                next.push(p);
            }
            // Recycle the allocations of parents nothing descended from.
            pool_mem.extend(parents.into_iter().flatten());
            population = next;
        }

        clock.enter(Stage::Finalize);
        // Finalisation: symbol commits + exact feasibility. Each trial
        // only touches its own partial, so the surviving beam shards the
        // same way expansion did; verdicts join in partial index order.
        let (population, verdicts) = match beam {
            Some(bp) if population.len() > 1 => bp.finalize_round(ctx.reserve, block, population),
            _ => {
                let mut flags = Vec::with_capacity(population.len());
                for p in population.iter_mut() {
                    flags.push(p.finalize(ctx, block));
                }
                (population, flags)
            }
        };
        let mut finalized: Vec<Partial> = Vec::new();
        for (p, ok) in population.into_iter().zip(verdicts) {
            if ok {
                finalized.push(p);
            } else {
                stats.finalize_failures += 1;
            }
        }
        if finalized.is_empty() {
            return Err(MapError::MemoryConstraint {
                block,
                step: "finalize",
            });
        }
        finalized.sort_by_key(|p| (p.length(), p.cost()));
        let best = finalized.swap_remove(0);
        best.commit_into(state);
        Ok(best.into_block_mapping())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::FlowVariant;
    use cmam_cdfg::{CdfgBuilder, Opcode};

    /// acc = Σ mem[i]^2 over n elements, stored to mem[out].
    fn sum_squares(n: i32, out: i32) -> Cdfg {
        let mut b = CdfgBuilder::new("ssq");
        let b0 = b.block("entry");
        let b1 = b.block("body");
        let b2 = b.block("exit");
        let i = b.symbol("i");
        let acc = b.symbol("acc");
        b.select(b0);
        b.mov_const_to_symbol(0, i);
        b.mov_const_to_symbol(0, acc);
        b.jump(b1);
        b.select(b1);
        let iv = b.use_symbol(i);
        let av = b.use_symbol(acc);
        let x = b.load_name(iv, "x");
        let sq = b.op(Opcode::Mul, &[x, x]);
        let a2 = b.op(Opcode::Add, &[av, sq]);
        b.write_symbol(a2, acc);
        let one = b.constant(1);
        let i2 = b.op(Opcode::Add, &[iv, one]);
        b.write_symbol(i2, i);
        let nv = b.constant(n);
        let c = b.op(Opcode::Lt, &[i2, nv]);
        b.branch(c, b1, b2);
        b.select(b2);
        let av2 = b.use_symbol(acc);
        let o = b.constant(out);
        b.store(o, av2, "out");
        b.ret();
        b.finish().unwrap()
    }

    #[test]
    fn basic_flow_maps_a_loop_kernel() {
        let cdfg = sum_squares(8, 100);
        let config = CgraConfig::hom64();
        let mapper = Mapper::new(MapperOptions::basic());
        let r = mapper.map(&cdfg, &config).unwrap();
        assert_eq!(r.mapping.blocks.len(), 3);
        // Every op of every block is placed at least once.
        for b in cdfg.block_ids() {
            let dfg = cdfg.dfg(b);
            let bm = r.mapping.block(b);
            for &op in dfg.op_ids() {
                assert!(bm.ops.iter().any(|p| p.op == op), "{op} unplaced in {b}");
            }
        }
        // And the mapping assembles (the assembler re-validates everything).
        cmam_isa::assemble(&cdfg, &r.mapping, &config).unwrap();
    }

    #[test]
    fn context_aware_flow_maps_and_assembles_on_het2() {
        let cdfg = sum_squares(8, 100);
        let config = CgraConfig::het2();
        let mapper = Mapper::new(MapperOptions::context_aware());
        let r = mapper.map(&cdfg, &config).unwrap();
        let (_bin, report) = cmam_isa::assemble(&cdfg, &r.mapping, &config).unwrap();
        // The memory-aware flow guarantees the fit.
        for (t, cfg) in config.tiles() {
            assert!(report.words(t) <= cfg.cm_words, "{t} overflows");
        }
    }

    #[test]
    fn mapping_is_deterministic_for_a_seed() {
        let cdfg = sum_squares(6, 90);
        let config = CgraConfig::hom64();
        let mapper = Mapper::new(MapperOptions::basic());
        let a = mapper.map(&cdfg, &config).unwrap();
        let b = mapper.map(&cdfg, &config).unwrap();
        assert_eq!(a.mapping, b.mapping);
    }

    #[test]
    fn impossible_memory_constraints_are_reported() {
        let cdfg = sum_squares(8, 100);
        // 2-word context memories cannot hold the loop body anywhere.
        let config = CgraConfig::builder(4, 4).uniform_cm(2).build().unwrap();
        let mapper = Mapper::new(MapperOptions::context_aware());
        let err = mapper.map(&cdfg, &config).unwrap_err();
        assert!(matches!(err, MapError::MemoryConstraint { .. }), "{err}");
    }

    #[test]
    fn top_k_insertion_equals_stable_sort_and_truncate() {
        // Costs from a tiny range, so ties are everywhere; the payload is
        // the arrival index, which a stable sort keeps in order on ties.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for len in [0usize, 1, 2, 5, 9, 40, 200] {
            let costs: Vec<(usize, usize)> = (0..len)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    ((state % 3) as usize, (state >> 8) as usize % 2)
                })
                .collect();
            for k in [0usize, 1, 2, 3, 8, 24, 500] {
                let mut list: Vec<((usize, usize), usize)> = Vec::new();
                for (i, &c) in costs.iter().enumerate() {
                    top_k_offer(&mut list, k, c, |x| x.0, || (c, i));
                    assert!(list.len() <= k);
                }
                let mut reference: Vec<((usize, usize), usize)> =
                    costs.iter().copied().zip(0..).collect();
                reference.sort_by_key(|x| x.0);
                reference.truncate(k);
                assert_eq!(list, reference, "len {len}, k {k}");
            }
        }
    }

    #[test]
    fn lazy_memory_verdicts_equal_the_reference_filters() {
        use crate::prune::{acmap_filter, ecmap_filter};
        let cdfg = sum_squares(8, 100);
        // Shallow memories, so placements overflow tiles under both
        // metrics as the body fills up.
        let config = CgraConfig::builder(4, 4).uniform_cm(4).build().unwrap();
        let pre = MapPre::new(&config);
        let block = BlockId(1);
        let dfg = cdfg.dfg(block);
        let deps = DepGraph::build(&dfg);
        let order = priority_order(&dfg, &deps);
        let base = MapperOptions::basic();
        let mut seen_fail = (false, false);
        for reserve in 0..3 {
            let ctx = MapCtx {
                cdfg: &cdfg,
                config: &config,
                options: &base,
                reserve,
                pre: &pre,
            };
            let caps: Vec<usize> = config.geometry().tiles().map(|t| ctx.capacity(t)).collect();
            let mut p = Partial::new(&FlowState::new(16), &ctx);
            for (i, &op) in order.iter().enumerate() {
                // Spread the ops over tiles and leave idle gaps, so both
                // interior and leading/trailing runs show up.
                let earliest = p.earliest_cycle(&deps, op);
                let placed = (0..16).any(|j| {
                    let tile = TileId((i * 5 + j) % 16);
                    let cp = p.checkpoint();
                    if p.try_place_op(&ctx, op, tile, earliest + 2) {
                        return true;
                    }
                    p.rollback(cp);
                    false
                });
                if !placed {
                    continue;
                }
                p.clear_journal();
                for (acmap, ecmap) in [(false, false), (true, false), (false, true), (true, true)] {
                    let options = MapperOptions {
                        acmap,
                        ecmap,
                        ..base.clone()
                    };
                    let acmap_ref = !acmap || acmap_filter(&mut vec![p.clone()], &ctx) == 0;
                    let ecmap_ref = !ecmap || ecmap_filter(&mut vec![p.clone()], &ctx) == 0;
                    assert_eq!(
                        memory_verdicts(&p, &options, &caps),
                        (acmap_ref, ecmap_ref),
                        "reserve {reserve}, op {op}, acmap {acmap}, ecmap {ecmap}"
                    );
                    seen_fail.0 |= !acmap_ref;
                    seen_fail.1 |= !ecmap_ref;
                }
            }
        }
        assert_eq!(
            seen_fail,
            (true, true),
            "both filters must reject something"
        );
    }

    #[test]
    fn all_flow_variants_map_the_kernel_on_hom64() {
        let cdfg = sum_squares(4, 80);
        let config = CgraConfig::hom64();
        for variant in FlowVariant::ALL {
            let mapper = Mapper::new(variant.options());
            let r = mapper
                .map(&cdfg, &config)
                .unwrap_or_else(|e| panic!("{variant}: {e}"));
            cmam_isa::assemble(&cdfg, &r.mapping, &config)
                .unwrap_or_else(|e| panic!("{variant}: {e}"));
        }
    }
}
