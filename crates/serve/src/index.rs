//! The serving index: precompiled roofline placement per kernel ×
//! machine, answered by the flat evaluator at batch rates.
//!
//! [`CompiledKernel`] lowers every closed form a
//! [`KernelRoofline::place`] call can touch — one bytecode section per
//! [`PlaceForm`] (compute, footprint count, L1, and each deeper
//! boundary's resident and streaming bounds), plus the per-nest
//! working-set model's headers and group counts — into one
//! [`EvalProgram`]. The placement algorithm itself is not here: it is
//! [`mira_roofline::place_with`], the same loop the tree walk runs, and
//! the compiled kernel is just its evaluator, running a form's section
//! when the loop asks for it. So a query executes exactly the
//! expressions the tree walk would have evaluated, in the same order,
//! with the same refusals, at a fraction of the cost; the nest regime
//! rules are likewise the shared [`mira_mem::NestShape::traffic`].
//!
//! [`ServeIndex`] registers kernels with two calls:
//! [`ServeIndex::insert`] admits a new `(func, machine)` pair and
//! [`ServeIndex::replace`] swaps one in place (the hot-reload path);
//! [`CompiledKernel::from_analysis`] builds a kernel from an analysis.
//! It answers [`Query`] batches — single-threaded into a caller scratch
//! (allocation-free after warm-up), or sharded across worker threads
//! with [`ServeIndex::run_batch_sharded`], whose results are
//! bit-identical to the single-threaded path (pinned by this module's
//! tests).

use std::collections::HashMap;
use std::sync::Mutex;

use mira_core::Analysis;
use mira_mem::{BoundaryTraffic, GroupExpr, NestShape};
use mira_model::ModelError;
use mira_probe as probe;
use mira_roofline::{
    crossover_bisect, place_with, CeilingEval, Ceilings, Crossover, KernelRoofline, MemLevel,
    PlaceForm, Placement,
};
use mira_sym::budget::{self, BudgetError};
use mira_sym::{Bindings, EvalError, Rat};

use crate::cache::AnswerCache;
use crate::program::{CompileError, EvalProgram, OutId, ProgramBuilder, Scratch, SecId};

/// Maximum parameters a [`Query`] can bind. Every workload model in the
/// repo has at most three (miniFE's `cg_solve`); the fixed slot array
/// keeps queries `Copy` so batches are plain memcpy-able buffers.
pub const MAX_QUERY_PARAMS: usize = 4;

/// Refusals while admitting a kernel into the index.
#[derive(Debug)]
pub enum BuildError {
    /// The roofline analysis itself refused the function
    /// ([`CompiledKernel::from_analysis`]).
    Model(ModelError),
    /// The closed forms do not fit the bytecode (nesting or size), or
    /// the kernel needs more than [`MAX_QUERY_PARAMS`] parameters, or
    /// its evaluation depth exceeds [`budget::MAX_DEPTH`] — the tree
    /// walk would refuse every placement, so serving it compiled would
    /// change answers.
    Compile(CompileError),
    /// Building the placement expressions tripped the analysis budget.
    Budget(BudgetError),
    /// The index already holds an entry for this `(func, machine)` pair.
    /// [`ServeIndex::insert`] never shadows a live kernel —
    /// re-registering (what a machine-description hot-reload does) must
    /// go through [`ServeIndex::replace`], which swaps the compiled model
    /// while keeping the [`KernelId`] stable.
    Duplicate { func: String, machine: String },
}

impl From<CompileError> for BuildError {
    fn from(e: CompileError) -> BuildError {
        BuildError::Compile(e)
    }
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Model(e) => write!(f, "roofline analysis refused: {e}"),
            BuildError::Compile(e) => write!(f, "placement forms not compilable: {e}"),
            BuildError::Budget(e) => write!(f, "placement form construction refused: {e}"),
            BuildError::Duplicate { func, machine } => write!(
                f,
                "kernel `{func}` on machine `{machine}` is already registered \
                 (use replace to swap it)"
            ),
        }
    }
}

impl std::error::Error for BuildError {}

/// Refusals while answering queries.
#[derive(Clone, PartialEq, Debug)]
pub enum ServeError {
    /// The query names a kernel the index does not hold.
    UnknownKernel,
    /// A sweep or crossover names a parameter the kernel does not have.
    UnknownParam(String),
    /// The value list does not match the kernel's parameter count.
    BadArity { expected: usize, got: usize },
    /// The placement itself refused (overflow, missing parameter,
    /// tripped budget) — the same typed errors the tree walk raises.
    Eval(EvalError),
}

impl From<EvalError> for ServeError {
    fn from(e: EvalError) -> ServeError {
        ServeError::Eval(e)
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownKernel => write!(f, "unknown kernel id"),
            ServeError::UnknownParam(p) => write!(f, "kernel has no parameter `{p}`"),
            ServeError::BadArity { expected, got } => {
                write!(f, "query binds {got} values, kernel has {expected} parameters")
            }
            ServeError::Eval(e) => write!(f, "evaluation refused: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Handle to one kernel × machine entry of a [`ServeIndex`]. Stable
/// across [`ServeIndex::replace`] swaps: a reload re-registers the same
/// `(func, machine)` pair under the same id, so outstanding queries
/// keep addressing the (new) kernel.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct KernelId(u32);

impl KernelId {
    /// The raw slot index — the answer cache's key component.
    pub(crate) fn raw(self) -> u32 {
        self.0
    }
}

/// One roofline query: a kernel and its parameter values, in
/// [`CompiledKernel::params`] order. `Copy`, so batches are plain
/// buffers.
#[derive(Clone, Copy, Debug)]
pub struct Query {
    pub kernel: KernelId,
    /// The first `n` slots bind the kernel's `n` parameters; the rest
    /// are ignored.
    pub values: [i128; MAX_QUERY_PARAMS],
}

/// The compiled per-nest working-set model: the `Send + Sync` regime
/// skeleton plus the sections holding its evaluated closed forms.
#[derive(Clone, Debug)]
struct NestPlan {
    shape: NestShape,
    header_sec: SecId,
    /// Per node: rounded one-iteration working set, raw extent.
    ws_out: Vec<OutId>,
    ext_out: Vec<OutId>,
    /// Per group: `(union, stored)` in the fixed order
    /// `(t,f) (t,t) (f,f) (f,t)` — one lazily-run section each.
    group_secs: Vec<[(SecId, OutId); 4]>,
}

/// Slots of [`CompiledKernel::forms`]: compute, footprint, L1, then
/// one resident and one streaming slot per [`MemLevel`] (the L1 pair
/// stays empty — the loop only asks for the deeper boundaries).
const FORM_SLOTS: usize = 9;

fn form_slot(f: PlaceForm) -> usize {
    match f {
        PlaceForm::Compute => 0,
        PlaceForm::FootprintLines => 1,
        PlaceForm::L1 => 2,
        PlaceForm::Resident(level) => 3 + level.index(),
        PlaceForm::Streaming(level) => 6 + level.index(),
    }
}

/// One kernel's placement model, compiled for one machine: pure data,
/// `Send + Sync`, reusable from any worker thread.
#[derive(Clone, Debug)]
pub struct CompiledKernel {
    func: String,
    machine: String,
    ceilings: Ceilings,
    footprint_known: bool,
    program: EvalProgram,
    /// The section computing each [`PlaceForm`] and its output, by
    /// [`form_slot`]. The footprint is compiled only when it is fully
    /// known (the only case [`place_with`] reads it).
    forms: [Option<(SecId, OutId)>; FORM_SLOTS],
    nest: Option<NestPlan>,
}

impl CompiledKernel {
    /// Analyze `func` and compile it for the analysis' own machine: its
    /// [`Ceilings::from_arch`], under the description's machine name.
    /// Serve one kernel on two machines by analyzing it under two
    /// descriptions.
    pub fn from_analysis(analysis: &Analysis, func: &str) -> Result<CompiledKernel, BuildError> {
        let kr = KernelRoofline::analyze(analysis, func).map_err(BuildError::Model)?;
        let c = Ceilings::from_arch(&analysis.arch);
        CompiledKernel::build(&kr, &c, &analysis.arch.machine.name)
    }

    /// Compile the placement model of one analyzed roofline for the
    /// given ceilings. Refuses (typed) rather than admitting a kernel
    /// whose compiled answers could diverge from
    /// [`KernelRoofline::place`].
    pub fn build(
        kr: &KernelRoofline,
        c: &Ceilings,
        machine: &str,
    ) -> Result<CompiledKernel, BuildError> {
        let mut sp = probe::span("serve.compile", "serve");
        sp.arg("kernel", &kr.func);
        sp.arg("machine", machine);
        // expression construction (scale / add_expr) charges the
        // analysis budget; build under a scope so adversarial models
        // refuse instead of degrading silently
        match budget::with_default_budget(|| Self::build_inner(kr, c, machine)) {
            Ok(Ok(k)) => {
                sp.arg("ops", k.program.ops_len());
                sp.arg("cse_hits", k.program.cse_hits());
                probe::add("serve.cse_hits", k.program.cse_hits() as i64);
                Ok(k)
            }
            Ok(Err(e)) => Err(e),
            Err(e) => Err(BuildError::Budget(e)),
        }
    }

    fn build_inner(
        kr: &KernelRoofline,
        c: &Ceilings,
        machine: &str,
    ) -> Result<CompiledKernel, BuildError> {
        let mut b = ProgramBuilder::new();
        // one section per form, in place_with's request order. The
        // mandatory prefix (compute, footprint, L1) is sealed persistent
        // so later sections reuse its registers; sealing each form
        // separately makes refusals interleave with the placement loop
        // exactly where the tree walk raises them. The regime bounds
        // are transient: the loop runs any subset of them.
        let prefix = [
            Some(PlaceForm::Compute),
            kr.footprint_known.then_some(PlaceForm::FootprintLines),
            Some(PlaceForm::L1),
        ];
        let regimes = [MemLevel::L2, MemLevel::Dram]
            .into_iter()
            .flat_map(|l| [PlaceForm::Resident(l), PlaceForm::Streaming(l)]);
        let mut forms = [None; FORM_SLOTS];
        for f in prefix.into_iter().flatten().chain(regimes) {
            let e = kr.form_expr(c, f);
            let out = if f == PlaceForm::FootprintLines {
                b.add_count_output(&e)?
            } else {
                b.add_output(&e)?
            };
            let persistent = !matches!(f, PlaceForm::Resident(_) | PlaceForm::Streaming(_));
            forms[form_slot(f)] = Some((b.seal_section(persistent), out));
        }
        let nest = match &kr.nest_model {
            Some(nm) => {
                let mut ws_out = Vec::with_capacity(nm.nodes.len());
                let mut ext_out = Vec::with_capacity(nm.nodes.len());
                for n in &nm.nodes {
                    // interleaved per node, like boundary_traffic's
                    // header loop, so refusals surface in its order
                    ws_out.push(b.add_count_output(&n.ws_lines)?);
                    ext_out.push(b.add_output(&n.extent)?);
                }
                let header_sec = b.seal_section(false);
                let mut group_secs = Vec::with_capacity(nm.groups.len());
                for gi in 0..nm.groups.len() {
                    let mk = |b: &mut ProgramBuilder,
                                  union: bool,
                                  stored: bool|
                     -> Result<(SecId, OutId), CompileError> {
                        let e = nm.group_expr(GroupExpr {
                            group: gi,
                            union,
                            stored,
                        });
                        let out = b.add_count_output(e)?;
                        Ok((b.seal_section(false), out))
                    };
                    group_secs.push([
                        mk(&mut b, true, false)?,
                        mk(&mut b, true, true)?,
                        mk(&mut b, false, false)?,
                        mk(&mut b, false, true)?,
                    ]);
                }
                Some(NestPlan {
                    shape: nm.shape(),
                    header_sec,
                    ws_out,
                    ext_out,
                    group_secs,
                })
            }
            None => None,
        };
        let program = b.finish();
        if program.max_height() > budget::MAX_DEPTH {
            // the tree walk (always under a scope in place()) would
            // refuse every placement on depth; unguarded compiled runs
            // would not — refuse admission instead of diverging
            return Err(BuildError::Compile(CompileError::TooDeep));
        }
        if program.params().len() > MAX_QUERY_PARAMS {
            return Err(BuildError::Compile(CompileError::TooLarge));
        }
        Ok(CompiledKernel {
            func: kr.func.clone(),
            machine: machine.to_string(),
            ceilings: *c,
            footprint_known: kr.footprint_known,
            program,
            forms,
            nest,
        })
    }

    pub fn func(&self) -> &str {
        &self.func
    }

    pub fn machine(&self) -> &str {
        &self.machine
    }

    pub fn ceilings(&self) -> &Ceilings {
        &self.ceilings
    }

    /// Parameter names, in [`Query::values`] binding order.
    pub fn params(&self) -> &[String] {
        self.program.params()
    }

    pub fn n_params(&self) -> usize {
        self.program.params().len()
    }

    pub fn program(&self) -> &EvalProgram {
        &self.program
    }

    /// Compiled [`KernelRoofline::place`] with by-name bindings — the
    /// differential-testing entry point, returning the tree walk's error
    /// type.
    pub fn place(&self, b: &Bindings, s: &mut Scratch) -> Result<Placement, EvalError> {
        self.program.bind(b, s);
        self.place_prepared(s)
    }

    /// Compiled placement with positional values (the serving hot path).
    pub fn place_values(&self, values: &[i128], s: &mut Scratch) -> Result<Placement, ServeError> {
        if values.len() != self.n_params() {
            return Err(ServeError::BadArity {
                expected: self.n_params(),
                got: values.len(),
            });
        }
        self.place_positional(values, s).map_err(ServeError::Eval)
    }

    /// Placement with positional values whose arity the caller checked.
    fn place_positional(&self, values: &[i128], s: &mut Scratch) -> Result<Placement, EvalError> {
        self.program.bind_positional(values, s);
        self.place_prepared(s)
    }

    /// [`place_with`] over the bound scratch.
    fn place_prepared(&self, s: &mut Scratch) -> Result<Placement, EvalError> {
        let mut ev = Sections { k: self, s };
        place_with(self.footprint_known, &self.ceilings, &mut ev)
    }

    fn nest_traffic(
        &self,
        nest: &NestPlan,
        cap_bytes: u64,
        s: &mut Scratch,
    ) -> Result<BoundaryTraffic, EvalError> {
        // the ws/ext staging buffers live in the scratch (reused across
        // queries), but the regime closure needs the scratch mutably —
        // take them out for the duration
        let mut ws = std::mem::take(&mut s.ws);
        let mut ext = std::mem::take(&mut s.ext);
        let r = self.nest_traffic_inner(nest, cap_bytes, s, &mut ws, &mut ext);
        s.ws = ws;
        s.ext = ext;
        r
    }

    fn nest_traffic_inner(
        &self,
        nest: &NestPlan,
        cap_bytes: u64,
        s: &mut Scratch,
        ws: &mut Vec<i128>,
        ext: &mut Vec<Rat>,
    ) -> Result<BoundaryTraffic, EvalError> {
        let p = &self.program;
        p.run_section(nest.header_sec, s)?;
        ws.clear();
        ext.clear();
        for i in 0..nest.shape.n_nodes {
            ws.push(p.output(nest.ws_out[i], s).floor());
            let e = p.output(nest.ext_out[i], s);
            // extents stay rational and clamp at zero, exactly like
            // boundary_traffic's header
            ext.push(if e < Rat::ZERO { Rat::ZERO } else { e });
        }
        nest.shape.traffic(cap_bytes, ws, ext, |q| {
            let (sec, out) = nest.group_secs[q.group][match (q.union, q.stored) {
                (true, false) => 0,
                (true, true) => 1,
                (false, false) => 2,
                (false, true) => 3,
            }];
            p.run_section(sec, s)?;
            Ok(p.output(out, s).floor())
        })
    }
}

/// The compiled evaluator behind [`CompiledKernel::place`]: each form
/// is its bytecode section, run on request.
struct Sections<'a> {
    k: &'a CompiledKernel,
    s: &'a mut Scratch,
}

impl CeilingEval for Sections<'_> {
    fn form(&mut self, f: PlaceForm) -> Result<Rat, EvalError> {
        // place_with only requests forms build_inner compiled
        let Some((sec, out)) = self.k.forms[form_slot(f)] else {
            return Ok(Rat::ZERO);
        };
        self.k.program.run_section(sec, self.s)?;
        Ok(self.k.program.output(out, self.s))
    }

    fn nest_traffic(&mut self, cap_bytes: u64) -> Result<Option<BoundaryTraffic>, EvalError> {
        match &self.k.nest {
            Some(nest) => self.k.nest_traffic(nest, cap_bytes, self.s).map(Some),
            None => Ok(None),
        }
    }
}

/// Batches smaller than this answer serially even when the caller asks
/// for workers: at the measured serving rates (~0.5–1.5M queries/sec) a
/// sub-thousand-query batch finishes in under ~2 ms, where spawning and
/// joining scoped threads plus cold per-worker caches cost more than
/// the parallelism returns.
pub const SHARD_MIN_BATCH: usize = 1024;

/// A precompiled serving index over (kernel × machine) placement
/// models.
///
/// Entries are keyed by `(func, machine)`: duplicate registration is a
/// typed refusal ([`BuildError::Duplicate`]), never a silent shadow —
/// [`ServeIndex::replace`] is the explicit swap used by hot-reload.
#[derive(Default)]
pub struct ServeIndex {
    kernels: Vec<CompiledKernel>,
    /// `(func, machine)` → slot in `kernels`. O(1) lookup, and the
    /// uniqueness invariant duplicate rejection relies on.
    by_key: HashMap<(String, String), u32>,
    /// Worker scratches, persistent across sharded batches — warm
    /// register files are the difference between sharding paying off
    /// and sharding being a per-batch re-warm-up tax.
    pool: Mutex<Vec<Scratch>>,
    /// Bumped on every [`ServeIndex::replace`]: answer caches compare
    /// their fill generation against this and self-invalidate, so a
    /// hot-reload can never serve a stale cached placement.
    generation: u64,
}

impl ServeIndex {
    pub fn new() -> ServeIndex {
        ServeIndex::default()
    }

    /// Admit a compiled kernel, refusing ([`BuildError::Duplicate`]) a
    /// `(func, machine)` pair that is already registered.
    pub fn insert(&mut self, k: CompiledKernel) -> Result<KernelId, BuildError> {
        if self.find(&k.func, &k.machine).is_some() {
            return Err(BuildError::Duplicate {
                func: k.func,
                machine: k.machine,
            });
        }
        Ok(self.replace(k))
    }

    /// Swap in a compiled kernel — the hot-reload path. The `(func,
    /// machine)` pair keeps its [`KernelId`], so queries built against
    /// the old model address the new one, and the invalidation
    /// generation is bumped; a pair not yet registered is added. Build
    /// every replacement before swapping: a failed build never unseats a
    /// serving kernel.
    pub fn replace(&mut self, k: CompiledKernel) -> KernelId {
        let key = (k.func.clone(), k.machine.clone());
        match self.by_key.get(&key) {
            Some(&slot) => {
                self.kernels[slot as usize] = k;
                self.generation += 1;
                KernelId(slot)
            }
            None => {
                let slot = self.kernels.len() as u32;
                self.kernels.push(k);
                self.by_key.insert(key, slot);
                KernelId(slot)
            }
        }
    }

    pub fn len(&self) -> usize {
        self.kernels.len()
    }

    pub fn is_empty(&self) -> bool {
        self.kernels.is_empty()
    }

    /// The kernel-swap generation: bumped by every replace. Answer
    /// caches use it to self-invalidate after a hot-reload.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Force the swap generation — the fleet's full-rebuild path
    /// (machine removed from the directory) constructs a fresh index and
    /// must still advance past the old one so caches filled against it
    /// self-invalidate.
    pub(crate) fn set_generation(&mut self, g: u64) {
        self.generation = g;
    }

    /// Look up an entry by kernel function and machine name — one hash
    /// probe, not a scan, so fleet-sized indexes route queries at the
    /// same cost as single-kernel ones.
    pub fn find(&self, func: &str, machine: &str) -> Option<KernelId> {
        self.by_key
            .get(&(func.to_string(), machine.to_string()))
            .map(|&slot| KernelId(slot))
    }

    pub fn kernel(&self, id: KernelId) -> Result<&CompiledKernel, ServeError> {
        self.kernels
            .get(id.0 as usize)
            .ok_or(ServeError::UnknownKernel)
    }

    pub fn kernels(&self) -> impl Iterator<Item = (KernelId, &CompiledKernel)> {
        self.kernels
            .iter()
            .enumerate()
            .map(|(i, k)| (KernelId(i as u32), k))
    }

    /// Build a query, checking arity once up front.
    pub fn query(&self, id: KernelId, values: &[i128]) -> Result<Query, ServeError> {
        let k = self.kernel(id)?;
        if values.len() != k.n_params() {
            return Err(ServeError::BadArity {
                expected: k.n_params(),
                got: values.len(),
            });
        }
        let mut v = [0i128; MAX_QUERY_PARAMS];
        v[..values.len()].copy_from_slice(values);
        Ok(Query { kernel: id, values: v })
    }

    /// Answer one query into a reusable scratch.
    pub fn place(&self, q: &Query, s: &mut Scratch) -> Result<Placement, ServeError> {
        let k = self.kernel(q.kernel)?;
        let vals = q.values.get(..k.n_params()).unwrap_or(&q.values[..]);
        k.place_values(vals, s)
    }

    /// Answer a batch single-threaded into `out` (cleared first). After
    /// warm-up — scratch sized, `out` at capacity — this path allocates
    /// nothing per query (pinned by the `no_alloc` test).
    pub fn run_batch(
        &self,
        qs: &[Query],
        s: &mut Scratch,
        out: &mut Vec<Result<Placement, ServeError>>,
    ) {
        let mut sp = probe::span("serve.query_batch", "serve");
        sp.arg("queries", qs.len());
        probe::add("serve.queries", qs.len() as i64);
        out.clear();
        out.reserve(qs.len());
        for q in qs {
            out.push(self.place(q, s));
        }
    }

    /// Take a worker scratch from the persistent pool (or start a fresh
    /// one). Pooled scratches keep their sized register files across
    /// batches, so repeated sharded calls never re-pay warm-up.
    fn pool_take(&self) -> Scratch {
        match self.pool.lock() {
            Ok(mut p) => p.pop().unwrap_or_default(),
            // a poisoned pool only costs a cold scratch, never an answer
            Err(_) => Scratch::new(),
        }
    }

    fn pool_put(&self, s: Scratch) {
        if let Ok(mut p) = self.pool.lock() {
            p.push(s);
        }
    }

    /// The worker count a sharded batch actually runs with: `1` (the
    /// serial path) below [`SHARD_MIN_BATCH`], otherwise the caller's
    /// request capped by the host's available parallelism — threads
    /// beyond the core count only add scheduling overhead (measured as
    /// a net *loss* on a single-core host) — and by the batch length.
    pub fn effective_workers(qs_len: usize, workers: usize) -> usize {
        if qs_len < SHARD_MIN_BATCH {
            return 1;
        }
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        workers.min(hw).clamp(1, qs_len)
    }

    /// Answer a batch sharded over scoped worker threads, each with its
    /// own pooled scratch, writing disjoint chunks of `out` — results
    /// are bit-identical to [`ServeIndex::run_batch`] in the same
    /// order. `workers` is a request, not a contract: batches below
    /// [`SHARD_MIN_BATCH`] degrade to the serial path, and the count is
    /// capped at the host's available parallelism (see
    /// [`ServeIndex::effective_workers`]), so sharding is never slower
    /// than not sharding.
    pub fn run_batch_sharded(
        &self,
        qs: &[Query],
        workers: usize,
        out: &mut Vec<Result<Placement, ServeError>>,
    ) {
        self.shard_exec(qs, Self::effective_workers(qs.len(), workers), out);
    }

    /// [`ServeIndex::run_batch_sharded`] on exactly `workers` threads.
    fn shard_exec(
        &self,
        qs: &[Query],
        workers: usize,
        out: &mut Vec<Result<Placement, ServeError>>,
    ) {
        let mut sp = probe::span("serve.query_batch", "serve");
        sp.arg("queries", qs.len());
        probe::add("serve.queries", qs.len() as i64);
        out.clear();
        if qs.is_empty() {
            return;
        }
        sp.arg("workers", workers);
        // placeholder immediately overwritten: shard covers every slot
        // exactly once
        out.resize(qs.len(), Err(ServeError::UnknownKernel));
        self.shard(qs, out, workers, |q, s| self.place(q, s));
    }

    /// Compute `out[i] = work(&items[i])` on `workers` scoped threads,
    /// one contiguous chunk each (serially when `workers <= 1`), every
    /// worker with a scratch from the persistent pool.
    fn shard<T: Sync, R: Send>(
        &self,
        items: &[T],
        out: &mut [R],
        workers: usize,
        work: impl Fn(&T, &mut Scratch) -> R + Sync,
    ) {
        let run = |items: &[T], out: &mut [R]| {
            let mut s = self.pool_take();
            for (item, slot) in items.iter().zip(out.iter_mut()) {
                *slot = work(item, &mut s);
            }
            self.pool_put(s);
        };
        if workers <= 1 {
            return run(items, out);
        }
        let chunk = items.len().div_ceil(workers).max(1);
        let run = &run;
        std::thread::scope(|sc| {
            for (ic, oc) in items.chunks(chunk).zip(out.chunks_mut(chunk)) {
                sc.spawn(move || run(ic, oc));
            }
        });
    }

    /// Answer one query through `cache`: repeated sweep points are
    /// served from the cache with bit-identical placements *and*
    /// bit-identical refusals (both are cached). A cache filled before
    /// a [`ServeIndex::replace`] self-invalidates against the index's
    /// [`ServeIndex::generation`], so hot-reloads never serve stale
    /// answers.
    pub fn place_cached(
        &self,
        q: &Query,
        cache: &mut AnswerCache,
        s: &mut Scratch,
    ) -> Result<Placement, ServeError> {
        cache.sync_generation(self.generation);
        let k = self.kernel(q.kernel)?;
        let n = k.n_params().min(MAX_QUERY_PARAMS);
        // key on the *effective* values only: slots past the kernel's
        // arity are ignored by place, so they must not split cache lines
        let vals = &q.values[..n];
        if let Some(hit) = cache.lookup(q.kernel.raw(), vals) {
            return hit;
        }
        let answer = k.place_values(vals, s);
        cache.store(q.kernel.raw(), vals, &answer);
        answer
    }

    /// [`ServeIndex::run_batch`] through an answer cache.
    pub fn run_batch_cached(
        &self,
        qs: &[Query],
        cache: &mut AnswerCache,
        s: &mut Scratch,
        out: &mut Vec<Result<Placement, ServeError>>,
    ) {
        let mut sp = probe::span("serve.query_batch", "serve");
        sp.arg("queries", qs.len());
        probe::add("serve.queries", qs.len() as i64);
        out.clear();
        out.reserve(qs.len());
        for q in qs {
            out.push(self.place_cached(q, cache, s));
        }
    }

    /// Stream a parameter sweep: `(value, answer)` for every value of
    /// `param` in `[lo, hi]`, other parameters fixed at `base`. Constant
    /// memory — one scratch, answers yielded as computed.
    pub fn sweep<'a>(
        &'a self,
        id: KernelId,
        param: &str,
        base: &[i128],
        lo: i128,
        hi: i128,
    ) -> Result<Sweep<'a>, ServeError> {
        let (kernel, slot, values) = self.sweep_args(id, param, base)?;
        Ok(Sweep {
            kernel,
            slot,
            values,
            next: Some(lo),
            hi,
            scratch: Scratch::new(),
        })
    }

    /// The argument check a sweep and a crossover share: `base` binds
    /// every parameter of kernel `id` and `param` is one of them.
    /// Returns the kernel, `param`'s slot and `base` as query values.
    fn sweep_args(
        &self,
        id: KernelId,
        param: &str,
        base: &[i128],
    ) -> Result<(&CompiledKernel, usize, [i128; MAX_QUERY_PARAMS]), ServeError> {
        let values = self.query(id, base)?.values;
        let k = self.kernel(id)?;
        let slot = k
            .params()
            .iter()
            .position(|p| p == param)
            .ok_or_else(|| ServeError::UnknownParam(param.to_string()))?;
        Ok((k, slot, values))
    }

    /// Solve the regime crossover of `param` in `[lo, hi]` with the
    /// compiled evaluator — the same bisection core
    /// ([`mira_roofline::crossover_bisect`]) as the tree walk's
    /// [`KernelRoofline::crossover`], so any answer difference can only
    /// come from the evaluator, which the differential tests pin.
    pub fn crossover(
        &self,
        id: KernelId,
        param: &str,
        base: &[i128],
        lo: i128,
        hi: i128,
    ) -> Result<Option<Crossover>, ServeError> {
        let mut s = self.pool_take();
        let r = self.crossover_with(id, param, base, lo, hi, &mut s);
        self.pool_put(s);
        r
    }

    /// [`ServeIndex::crossover`] into a caller scratch.
    fn crossover_with(
        &self,
        id: KernelId,
        param: &str,
        base: &[i128],
        lo: i128,
        hi: i128,
        s: &mut Scratch,
    ) -> Result<Option<Crossover>, ServeError> {
        let (k, slot, mut values) = self.sweep_args(id, param, base)?;
        let n = k.n_params();
        crossover_bisect(lo, hi, |v| {
            values[slot] = v;
            Ok(k.place_positional(&values[..n], s)?.binding)
        })
        .map_err(ServeError::Eval)
    }

    /// Solve the `param` regime crossover of **every** kernel × machine
    /// entry in one sharded pass: each pair's base values come from
    /// `defaults` (unlisted parameters bind 1), the bisection window is
    /// `[lo, hi]`, and rows come back in [`KernelId`] order regardless
    /// of the worker count. Pairs without `param` report a typed
    /// [`ServeError::UnknownParam`] row, not an error for the table.
    ///
    /// Sharding follows the batch policy (each bisection costs about
    /// `2 + log2(hi - lo)` placements, which is what the threshold
    /// counts): small tables run serially, worker counts cap at the
    /// host's parallelism, and every worker keeps a persistent pooled
    /// scratch — the same fixes that made
    /// [`ServeIndex::run_batch_sharded`] a win instead of a tax.
    pub fn crossover_table(
        &self,
        param: &str,
        defaults: &[(&str, i128)],
        lo: i128,
        hi: i128,
        workers: usize,
    ) -> Vec<CrossoverRow> {
        let mut sp = probe::span("serve.crossover_table", "serve");
        sp.arg("pairs", self.kernels.len());
        // window width → placements per bisection, so the shard policy
        // prices a table row like the batch of queries it really is
        let per_pair = 2 + (128 - (hi - lo).max(1).leading_zeros() as usize);
        let workers =
            Self::effective_workers(self.kernels.len().saturating_mul(per_pair), workers);
        sp.arg("workers", workers);
        let pairs: Vec<(KernelId, &CompiledKernel)> = self.kernels().collect();
        let mut rows: Vec<Option<CrossoverRow>> = vec![None; pairs.len()];
        self.shard(&pairs, &mut rows, workers, |&(id, k), s| {
            let base = default_base(k, defaults);
            Some(CrossoverRow {
                kernel: id,
                func: k.func.clone(),
                machine: k.machine.clone(),
                result: self.crossover_with(id, param, &base, lo, hi, s),
            })
        });
        rows.into_iter().flatten().collect()
    }
}

/// Base values for a kernel from a `(name, value)` default list;
/// parameters not listed bind 1.
fn default_base(k: &CompiledKernel, defaults: &[(&str, i128)]) -> Vec<i128> {
    k.params()
        .iter()
        .map(|p| {
            defaults
                .iter()
                .find(|(name, _)| name == p)
                .map_or(1, |(_, v)| *v)
        })
        .collect()
}

/// One row of [`ServeIndex::crossover_table`]: where (if anywhere) this
/// kernel × machine pair changes regime in the searched window.
#[derive(Clone, PartialEq, Debug)]
pub struct CrossoverRow {
    pub kernel: KernelId,
    pub func: String,
    pub machine: String,
    /// The bisected crossover (`None` when the binding never changes in
    /// the window), or the typed refusal — a kernel without the swept
    /// parameter reports [`ServeError::UnknownParam`] here.
    pub result: Result<Option<Crossover>, ServeError>,
}

/// Streaming parameter sweep over one kernel (see
/// [`ServeIndex::sweep`]).
pub struct Sweep<'a> {
    kernel: &'a CompiledKernel,
    slot: usize,
    values: [i128; MAX_QUERY_PARAMS],
    /// `None` once the sweep has yielded `hi` (which may be `i128::MAX`).
    next: Option<i128>,
    hi: i128,
    scratch: Scratch,
}

impl Iterator for Sweep<'_> {
    type Item = (i128, Result<Placement, ServeError>);

    fn next(&mut self) -> Option<Self::Item> {
        let v = self.next.filter(|&v| v <= self.hi)?;
        self.next = v.checked_add(1);
        self.values[self.slot] = v;
        let n = self.kernel.n_params();
        Some((
            v,
            self.kernel.place_values(&self.values[..n], &mut self.scratch),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines;
    use mira_core::{analyze_source, MiraOptions};

    /// An index over triad + DGEMM on both machine descriptions.
    fn build_index() -> ServeIndex {
        let mut index = ServeIndex::new();
        let arches = [
            mira_arch::ArchDescription::default(),
            machines::avx2_fma().expect("second machine parses"),
        ];
        for arch in &arches {
            for (func, src) in [
                ("triad", mira_workloads::memval::TRIAD_SRC),
                ("dgemm", mira_workloads::dgemm::DGEMM_SRC),
            ] {
                let opts = MiraOptions {
                    arch: arch.clone(),
                    ..Default::default()
                };
                let analysis = analyze_source(src, &opts).expect("workload analyzes");
                let k = CompiledKernel::from_analysis(&analysis, func).expect("kernel compiles");
                index.insert(k).expect("kernel admits");
            }
        }
        index
    }

    #[test]
    fn batch_and_sharded_answers_are_identical() {
        let index = build_index();
        assert_eq!(index.len(), 4);
        let mut queries: Vec<Query> = Vec::new();
        for (id, k) in index.kernels() {
            for n in 1..=200i128 {
                let vals: Vec<i128> = k
                    .params()
                    .iter()
                    .map(|p| if p == "n" { n } else { 2 })
                    .collect();
                queries.push(index.query(id, &vals).expect("query builds"));
            }
        }
        let mut s = Scratch::new();
        let mut single = Vec::new();
        index.run_batch(&queries, &mut s, &mut single);
        assert_eq!(single.len(), queries.len());
        assert!(single.iter().all(|r| r.is_ok()), "all answers place");
        // per-query answers agree with the batch
        for (q, r) in queries.iter().zip(&single) {
            assert_eq!(&index.place(q, &mut s), r);
        }
        // sharded runs, any *exact* worker count, are bit-identical in
        // order (bypassing the min-batch / core-count policy so real
        // multi-thread execution is exercised even on small hosts)
        for workers in [1, 2, 3, 7, 64] {
            let mut sharded = Vec::new();
            index.shard_exec(&queries, workers, &mut sharded);
            assert_eq!(single, sharded, "exact workers={workers}");
        }
        // and the policy path answers identically too, whatever worker
        // count it actually picks
        let mut sharded = Vec::new();
        index.run_batch_sharded(&queries, 8, &mut sharded);
        assert_eq!(single, sharded);
    }
}
