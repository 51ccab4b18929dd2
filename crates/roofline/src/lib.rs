//! # mira-roofline — symbolic roofline bounds from the static byte/FLOP models
//!
//! Mira's end goal (paper §IV-D) is not counting instructions: it is
//! using statically derived arithmetic intensity to place a kernel on a
//! roofline and explain what bounds it. This crate is the consumer of
//! everything the byte models built — it combines
//!
//! * the closed-form FLOP and *data* byte expressions of
//!   [`mira_model::Model`] (frame/spill traffic excluded — it is a
//!   register-allocation artifact, not memory-wall pressure),
//! * the distinct-cache-line footprints of [`mira_mem::access`], and
//! * the machine's `[peak]`/`[bandwidth *]` sections from `mira-arch`
//!
//! into per-function (and per-loop-nest) **time bounds in cycles**: one
//! compute ceiling (`FLOPs / peak`) against one memory ceiling per
//! hierarchy boundary (`traffic / bandwidth`). The largest bound is the
//! **binding ceiling**; a kernel is *memory-bound* when any memory
//! ceiling is at least the compute ceiling, and the level that binds
//! names the roof it sits under.
//!
//! Per-level traffic is modeled piecewise with a reuse-distance
//! refinement. When the kernel's whole distinct-line footprint fits in
//! the level above, only compulsory traffic crosses the boundary (cold
//! fills of every touched line, plus the eventual write-back of every
//! stored line). When it does not, the per-nest working-set model
//! ([`mira_mem::NestModel`]) places each array's traffic at the
//! shallowest level whose capacity holds the relevant working set:
//! inner-loop reuse hits L1, loop-carried reuse hits the level that
//! holds the carried set, and only genuinely uncaptured re-sweeps
//! multiply the compulsory lines — so a blocked kernel whose footprint
//! slightly exceeds a level (DGEMM at n=40) still counts
//! compulsory-only traffic, exactly what the cache simulator observes.
//! The nest model composes across calls (callee nests splice under the
//! call site with formal→actual substitution), admits triangular trip
//! counts via exact average extents, and bounds `idx_extent`-annotated
//! gathers — so a composed solver like miniFE's `cg_solve` places
//! per-nest like inlined code. Kernels whose traffic still cannot be
//! attributed (guarded references or calls, unanalyzable loops) fall
//! back to the old binary sweep — every loaded byte crosses once and
//! every stored byte twice (write-allocate fill plus write-back), which
//! for unit-stride streaming kernels coincides with the working-set
//! count.
//!
//! Because the bounds are [`SymExpr`] closed forms, regime questions are
//! *solvable*: [`KernelRoofline::crossover`] finds the exact parameter
//! value at which the binding ceiling changes — e.g. the `n` where DGEMM
//! leaves the DRAM roof because its `O(n²)` compulsory traffic is
//! overtaken by `O(n³)` compute — and
//! [`KernelRoofline::crossover_sweep`] is the brute-force oracle the
//! tests pin it against.
//!
//! The placement algorithm is written once, as [`place_with`]: it asks
//! a [`CeilingEval`] for the closed forms ([`PlaceForm`]) the selected
//! regimes need, in order. [`KernelRoofline::place`] answers by walking
//! the [`SymExpr`]s; `mira-serve`'s compiled kernels answer the same
//! requests from bytecode, so the two tiers cannot choose regimes
//! differently.
//!
//! ## Budgets and refusal
//!
//! [`KernelRoofline::analyze`] and [`KernelRoofline::place`] run their
//! symbolic work under an analysis budget ([`mira_sym::budget`]). A
//! tripped budget (fuel exhausted, recursion too deep, coefficient
//! overflow) surfaces as a typed refusal —
//! [`mira_sym::EvalError::Budget`] wrapped in the normal error path —
//! rather than a panic or a hang, and concrete evaluation of the
//! closed forms is checked against signed 64-bit range, so
//! adversarially huge parameters refuse instead of wrapping. Missing
//! nest models (including budget-refused ones from `mira-mem`) degrade
//! to the conservative streaming sweep, keeping every answer a sound
//! upper bound on traffic.
//!
//! The dynamic counterpart, [`dynamic_placement`], feeds the cache
//! simulator's per-level fill *and write-back* counters
//! ([`MemStats::beyond_l1_bytes`]/[`MemStats::beyond_l2_bytes`]) through
//! the same ceilings, so static and simulated placements can be diffed —
//! `mira_workloads::roofval` and `bench_roofline` pin their agreement on
//! STREAM, DGEMM and miniFE.

use mira_arch::{ArchDescription, Category};
use mira_core::Analysis;
use mira_mem::{BoundaryTraffic, MemStats};
use mira_model::{Model, ModelError, ModelOp};
use mira_sym::{Bindings, EvalError, Rat, SymExpr};
use std::borrow::Cow;
use std::fmt;

/// One memory-hierarchy boundary a roofline ceiling caps.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum MemLevel {
    /// Core ↔ L1 load/store bandwidth.
    L1,
    /// L1 ↔ L2 fill/write-back path.
    L2,
    /// L2 ↔ memory path.
    Dram,
}

impl MemLevel {
    pub const ALL: [MemLevel; 3] = [MemLevel::L1, MemLevel::L2, MemLevel::Dram];

    pub fn index(self) -> usize {
        self as usize
    }

    pub fn name(self) -> &'static str {
        match self {
            MemLevel::L1 => "l1",
            MemLevel::L2 => "l2",
            MemLevel::Dram => "dram",
        }
    }
}

/// A roofline ceiling: the compute roof or one memory roof.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Ceiling {
    Compute,
    Mem(MemLevel),
}

impl Ceiling {
    pub fn name(self) -> &'static str {
        match self {
            Ceiling::Compute => "compute",
            Ceiling::Mem(l) => l.name(),
        }
    }

    /// Parse the canonical [`Ceiling::name`] form back (for trajectory
    /// files).
    pub fn from_name(s: &str) -> Option<Ceiling> {
        match s {
            "compute" => Some(Ceiling::Compute),
            "l1" => Some(Ceiling::Mem(MemLevel::L1)),
            "l2" => Some(Ceiling::Mem(MemLevel::L2)),
            "dram" => Some(Ceiling::Mem(MemLevel::Dram)),
            _ => None,
        }
    }
}

impl fmt::Display for Ceiling {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A kernel placed against the ceilings: one lower time bound per roof,
/// in cycles, and which roof binds.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Placement {
    pub compute_cycles: f64,
    /// Indexed by [`MemLevel::index`].
    pub mem_cycles: [f64; 3],
    pub binding: Ceiling,
}

impl Placement {
    /// Build a placement from the four bounds, picking the binding roof
    /// deterministically: among the memory levels the *deepest* one with
    /// the maximal bound wins (a tie means the kernel saturates both
    /// boundaries — the slower, farther level is the honest answer), and
    /// the compute roof binds only when it strictly exceeds every memory
    /// bound (a tie there is still a memory wall).
    pub fn classify(compute_cycles: f64, mem_cycles: [f64; 3]) -> Placement {
        let mut binding = Ceiling::Mem(MemLevel::L1);
        let mut best = mem_cycles[0];
        for level in [MemLevel::L2, MemLevel::Dram] {
            if mem_cycles[level.index()] >= best {
                best = mem_cycles[level.index()];
                binding = Ceiling::Mem(level);
            }
        }
        if compute_cycles > best {
            binding = Ceiling::Compute;
        }
        Placement {
            compute_cycles,
            mem_cycles,
            binding,
        }
    }

    /// The overall lower time bound: the binding ceiling's cycles.
    pub fn cycles(&self) -> f64 {
        self.compute_cycles
            .max(self.mem_cycles[0])
            .max(self.mem_cycles[1])
            .max(self.mem_cycles[2])
    }

    pub fn memory_bound(&self) -> bool {
        matches!(self.binding, Ceiling::Mem(_))
    }

    /// Cycles bound of one specific ceiling.
    pub fn ceiling_cycles(&self, c: Ceiling) -> f64 {
        match c {
            Ceiling::Compute => self.compute_cycles,
            Ceiling::Mem(l) => self.mem_cycles[l.index()],
        }
    }

    /// Same bound class (compute- vs memory-bound) *and* same binding
    /// roof — the agreement predicate between static and simulated
    /// placements.
    pub fn agrees_with(&self, other: &Placement) -> bool {
        self.binding == other.binding
    }
}

impl fmt::Display for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}-bound under the {} roof (compute {:.0} | l1 {:.0} | l2 {:.0} | dram {:.0} cycles)",
            if self.memory_bound() { "memory" } else { "compute" },
            self.binding,
            self.compute_cycles,
            self.mem_cycles[0],
            self.mem_cycles[1],
            self.mem_cycles[2],
        )
    }
}

/// The machine side of the roofline, pulled out of an architecture
/// description: peak FLOP rates, per-boundary bandwidths, capacities.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Ceilings {
    /// Peak scalar / packed FLOPs per cycle.
    pub peak_scalar: u32,
    pub peak_vector: u32,
    /// Bytes per cycle per boundary, indexed by [`MemLevel::index`].
    pub bandwidth: [u32; 3],
    /// Capacity of the level *above* each boundary: crossing traffic is
    /// compulsory-only when the footprint fits there. `None` for L1 —
    /// every access crosses the core↔L1 boundary regardless.
    pub capacity_above: [Option<u64>; 3],
    pub line_bytes: u32,
}

impl Ceilings {
    pub fn from_arch(arch: &ArchDescription) -> Ceilings {
        let m = &arch.machine;
        Ceilings {
            peak_scalar: m.peak.scalar_flops_per_cycle(),
            peak_vector: m.peak.vector_flops_per_cycle(m.fp_lanes_per_vector),
            bandwidth: [m.bandwidth.l1, m.bandwidth.l2, m.bandwidth.dram],
            capacity_above: [
                None,
                Some(m.l1.size_bytes as u64),
                Some(m.l2.size_bytes as u64),
            ],
            line_bytes: m.cache_line_bytes,
        }
    }

    /// Peak FLOPs/cycle for a kernel, by whether it retires packed
    /// arithmetic.
    pub fn peak(&self, vectorized: bool) -> u32 {
        if vectorized {
            self.peak_vector
        } else {
            self.peak_scalar
        }
    }
}

/// The machine inputs of [`KernelRoofline::analyze`]: the cache line
/// size (footprints and the nest model count lines) and the `fpi`
/// category set (which decides whether a kernel is vectorized). Nothing
/// else of a description reaches a [`KernelRoofline`] — peaks,
/// bandwidths and capacities enter only at placement, through
/// [`Ceilings`] — so machines with equal keys share one model.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct RooflineKey {
    line_bytes: u32,
    /// Sorted and deduplicated, so keys compare by membership — all the
    /// FPI count depends on.
    fpi: Vec<Category>,
}

impl RooflineKey {
    pub fn of(arch: &ArchDescription) -> RooflineKey {
        let mut fpi = arch.fpi().to_vec();
        fpi.sort_unstable();
        fpi.dedup();
        RooflineKey {
            line_bytes: arch.machine.cache_line_bytes,
            fpi,
        }
    }
}

impl fmt::Display for RooflineKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-byte lines, fpi = [", self.line_bytes)?;
        for (i, c) in self.fpi.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(f, "{sep}{}", c.name())?;
        }
        f.write_str("]")
    }
}

/// The static roofline model of one function: closed-form FLOPs, data
/// bytes and footprints, ready to be placed at any parameter binding.
#[derive(Clone, Debug)]
pub struct KernelRoofline {
    pub func: String,
    /// Packed-aware FLOPs per call.
    pub flops: SymExpr,
    /// Heap-data bytes per call (frame/spill traffic excluded).
    pub data_load_bytes: SymExpr,
    pub data_store_bytes: SymExpr,
    /// Distinct cache lines touched (all analyzed arrays).
    pub footprint_lines: SymExpr,
    /// Distinct lines of *stored* arrays — each eventually crosses every
    /// boundary again as a write-back.
    pub stored_lines: SymExpr,
    /// Every array was analyzable (annotations included): the footprint
    /// is a true total, not a lower bound over the analyzed subset.
    pub footprint_known: bool,
    /// The kernel retires packed FP arithmetic, so the vector peak is its
    /// compute ceiling.
    pub vectorized: bool,
    /// The per-nest working-set traffic model (reuse-distance
    /// refinement): present when every reference lives in an affine nest
    /// of the function's own body. `None` falls back to the
    /// whole-footprint fits-or-streams regime choice.
    pub nest_model: Option<mira_mem::NestModel>,
}

/// Where one parameter value sits relative to a regime change.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Crossover {
    /// Smallest parameter value (in the searched window) whose binding
    /// ceiling differs from the window's start.
    pub value: i128,
    pub from: Ceiling,
    pub to: Ceiling,
}

impl KernelRoofline {
    /// Build the static roofline model of `func` from an analysis.
    ///
    /// Runs under a [`mira_sym::budget`] scope: if combining the model's
    /// closed forms trips the analysis budget, the kernel is refused with
    /// a typed error instead of hanging. (The access analysis and nest
    /// model inside are separately budgeted and degrade on their own —
    /// see [`mira_mem::analyze_program`].)
    pub fn analyze(analysis: &Analysis, func: &str) -> Result<KernelRoofline, ModelError> {
        Self::analyze_keyed(analysis, &RooflineKey::of(&analysis.arch), func)
    }

    /// [`KernelRoofline::analyze`] for the machines sharing `key`,
    /// whatever description `analysis` was made under — the analysis
    /// itself does not depend on the machine, so one analysis serves
    /// every key.
    pub fn analyze_keyed(
        analysis: &Analysis,
        key: &RooflineKey,
        func: &str,
    ) -> Result<KernelRoofline, ModelError> {
        let mut sp = mira_probe::span("roofline.analyze", "roofline");
        sp.arg("func", func);
        sp.arg("line_bytes", key.line_bytes);
        match mira_sym::budget::with_default_budget(|| Self::analyze_inner(analysis, key, func)) {
            Ok(r) => r,
            Err(e) => {
                sp.arg("refused", "budget");
                Err(ModelError::Eval(EvalError::Budget(e)))
            }
        }
    }

    fn analyze_inner(
        analysis: &Analysis,
        key: &RooflineKey,
        func: &str,
    ) -> Result<KernelRoofline, ModelError> {
        let model = &analysis.model;
        let flops = model.flops_expr(func)?;
        // packed arithmetic retires more FLOPs than FP instructions; for
        // scalar code the two closed forms coincide
        let fpi = model.group_expr(func, &key.fpi)?;
        let vectorized = !flops.sub_expr(&fpi).is_zero();
        // inside the budget scope, which pays for it: sharing one access
        // analysis across keys would change which kernels the budget
        // refuses
        let access = mira_mem::analyze_program(&analysis.program);
        let fp = access.footprint(func);
        let line = key.line_bytes;
        let mut stored = SymExpr::zero();
        for a in &fp.arrays {
            if a.stored {
                stored = stored.add_expr(&a.lines_expr(line));
            }
        }
        Ok(KernelRoofline {
            func: func.to_string(),
            flops,
            data_load_bytes: model.data_load_bytes_expr(func)?,
            data_store_bytes: model.data_store_bytes_expr(func)?,
            footprint_lines: fp.total_lines_expr(line),
            stored_lines: stored,
            footprint_known: fp.unknown.is_empty(),
            vectorized,
            nest_model: access.nest_model(func, line),
        })
    }

    /// Total data bytes per call, as a closed form.
    pub fn data_bytes(&self) -> SymExpr {
        self.data_load_bytes.add_expr(&self.data_store_bytes)
    }

    /// The compute ceiling in cycles: `FLOPs / peak`.
    pub fn compute_cycles_expr(&self, c: &Ceilings) -> SymExpr {
        self.flops.scale(Rat::new(1, c.peak(self.vectorized) as i128))
    }

    /// The L1 ceiling in cycles: every data byte crosses the core↔L1
    /// boundary (`bytes / bw_l1`), footprint regardless.
    pub fn l1_cycles_expr(&self, c: &Ceilings) -> SymExpr {
        self.data_bytes().scale(Rat::new(1, c.bandwidth[0] as i128))
    }

    /// The streaming-regime bound of a deeper boundary: the working set
    /// does not fit above, so every loaded byte crosses once (its fill)
    /// and every stored byte twice — the write-allocate fill on the way
    /// in and the dirty write-back on the way out, exactly what the
    /// simulator's fill + write-back counters observe for unit-stride
    /// streams.
    pub fn streaming_cycles_expr(&self, c: &Ceilings, level: MemLevel) -> SymExpr {
        self.data_load_bytes
            .add_expr(&self.data_store_bytes.scale(Rat::int(2)))
            .scale(Rat::new(1, c.bandwidth[level.index()] as i128))
    }

    /// The resident-regime bound of a deeper boundary: the working set
    /// fits above, so only compulsory traffic crosses — one cold fill per
    /// touched line, one eventual write-back per stored line.
    pub fn resident_cycles_expr(&self, c: &Ceilings, level: MemLevel) -> SymExpr {
        self.footprint_lines
            .add_expr(&self.stored_lines)
            .scale(Rat::new(
                c.line_bytes as i128,
                c.bandwidth[level.index()] as i128,
            ))
    }

    /// The closed form a [`PlaceForm`] request names, under ceilings
    /// `c` — the one table both tiers build their evaluators from.
    pub fn form_expr(&self, c: &Ceilings, f: PlaceForm) -> Cow<'_, SymExpr> {
        match f {
            PlaceForm::Compute => Cow::Owned(self.compute_cycles_expr(c)),
            PlaceForm::FootprintLines => Cow::Borrowed(&self.footprint_lines),
            PlaceForm::L1 => Cow::Owned(self.l1_cycles_expr(c)),
            PlaceForm::Resident(level) => Cow::Owned(self.resident_cycles_expr(c, level)),
            PlaceForm::Streaming(level) => Cow::Owned(self.streaming_cycles_expr(c, level)),
        }
    }

    /// Place the kernel at concrete parameter values: [`place_with`]
    /// over the tree walk of the closed forms.
    pub fn place(&self, c: &Ceilings, b: &Bindings) -> Result<Placement, EvalError> {
        let _a = mira_probe::accum("roofline.place");
        // placement evaluates closed forms over untrusted bindings; the
        // budget scope bounds evaluation depth and work, refusing with a
        // typed error instead of overflowing the host stack
        let mut walk = TreeWalk { k: self, c, b };
        match mira_sym::budget::with_default_budget(|| {
            place_with(self.footprint_known, c, &mut walk)
        }) {
            Ok(r) => r,
            Err(e) => Err(EvalError::Budget(e)),
        }
    }

    /// Solve for the regime crossover of `param` in `[lo, hi]`: the
    /// smallest value whose binding ceiling differs from the one at `lo`,
    /// found by bisection over the closed forms — valid when the window
    /// contains a single regime change (the binding is monotone in the
    /// predicate "still under the starting roof"), which is what the
    /// polynomial growth orders of the bounds give on any window that
    /// stays within one capacity regime shape. `None` when the binding
    /// never changes or the window is empty (`lo > hi`).
    /// [`KernelRoofline::crossover_sweep`] is the assumption-free oracle.
    pub fn crossover(
        &self,
        c: &Ceilings,
        param: &str,
        base: &Bindings,
        lo: i128,
        hi: i128,
    ) -> Result<Option<Crossover>, EvalError> {
        let mut sp = mira_probe::span("roofline.crossover", "roofline");
        sp.arg("func", &self.func);
        sp.arg("param", param);
        let mut b = base.clone();
        crossover_bisect(lo, hi, |v| {
            b.insert(param.to_string(), v);
            Ok(self.place(c, &b)?.binding)
        })
    }

    /// Brute-force crossover: walk every value of `param` in `[lo, hi]`
    /// and report the first whose binding differs from the one at `lo`.
    /// `None` for an empty window (`lo > hi`), like the bisection.
    pub fn crossover_sweep(
        &self,
        c: &Ceilings,
        param: &str,
        base: &Bindings,
        lo: i128,
        hi: i128,
    ) -> Result<Option<Crossover>, EvalError> {
        if lo > hi {
            return Ok(None);
        }
        let mut b = base.clone();
        b.insert(param.to_string(), lo);
        let from = self.place(c, &b)?.binding;
        for v in lo + 1..=hi {
            b.insert(param.to_string(), v);
            let binding = self.place(c, &b)?.binding;
            if binding != from {
                return Ok(Some(Crossover {
                    value: v,
                    from,
                    to: binding,
                }));
            }
        }
        Ok(None)
    }
}

/// One closed form the placement loop ([`place_with`]) reads. The loop
/// names what it needs; a [`CeilingEval`] answers — the tree walk by
/// evaluating [`KernelRoofline::form_expr`], the compiled serving tier
/// (`mira-serve`) by running the bytecode section compiled from it.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PlaceForm {
    /// [`KernelRoofline::compute_cycles_expr`].
    Compute,
    /// [`KernelRoofline::footprint_lines`], rounded like
    /// [`SymExpr::eval_count`]. Requested only when the footprint is
    /// fully known.
    FootprintLines,
    /// [`KernelRoofline::l1_cycles_expr`].
    L1,
    /// [`KernelRoofline::resident_cycles_expr`] of a deeper boundary.
    Resident(MemLevel),
    /// [`KernelRoofline::streaming_cycles_expr`] of a deeper boundary.
    Streaming(MemLevel),
}

/// An evaluator of the closed forms [`place_with`] reads. Requests
/// arrive lazily, in evaluation order, and only for the forms the
/// selected regimes need: an evaluator must not evaluate ahead, or its
/// refusals would diverge from the other tier's.
pub trait CeilingEval {
    /// The value of one closed form.
    fn form(&mut self, f: PlaceForm) -> Result<Rat, EvalError>;
    /// The per-nest working-set traffic across a boundary whose upper
    /// level holds `cap_bytes` ([`mira_mem::NestModel::boundary_traffic`]),
    /// or `None` when the kernel has no nest model.
    fn nest_traffic(&mut self, cap_bytes: u64) -> Result<Option<BoundaryTraffic>, EvalError>;
}

/// The placement algorithm, written once for both tiers: evaluate the
/// four ceilings through `ev` and classify.
///
/// Each deeper boundary's traffic is chosen piecewise. When the whole
/// footprint fits in the level above, only compulsory traffic crosses
/// ([`KernelRoofline::resident_cycles_expr`]). Otherwise the per-nest
/// working-set model refines the old binary sweep: each array's traffic
/// is placed at the shallowest level whose capacity holds the relevant
/// per-iteration working set, so inner-loop reuse hits L1, loop-carried
/// reuse hits the level that holds the carried set, and only genuinely
/// uncaptured re-sweeps multiply
/// ([`mira_mem::NestModel::boundary_traffic`]).
///
/// When the per-nest model is unavailable (guarded references or calls,
/// unanalyzable loops) the boundary falls back to the streaming bound,
/// and when the footprint is *not* fully known (unanalyzed, unannotated
/// arrays) the analyzed lines are only a lower bound, so the fits-above
/// test cannot be trusted — a kernel with data-dependent accesses the
/// analysis could not bound is assumed to sweep, never to sit
/// compulsory-only in cache. Its footprint is then never requested, so
/// its placement does not require the partial footprint to be
/// evaluable.
pub fn place_with(
    footprint_known: bool,
    c: &Ceilings,
    ev: &mut impl CeilingEval,
) -> Result<Placement, EvalError> {
    let compute = ev.form(PlaceForm::Compute)?.to_f64();
    let footprint_bytes = if footprint_known {
        ev.form(PlaceForm::FootprintLines)?
            .floor()
            .saturating_mul(c.line_bytes as i128)
    } else {
        0
    };
    let mut mem = [0.0; 3];
    mem[0] = ev.form(PlaceForm::L1)?.to_f64();
    for level in [MemLevel::L2, MemLevel::Dram] {
        let cap = c.capacity_above[level.index()].unwrap_or(0) as i128;
        mem[level.index()] = if footprint_known && footprint_bytes <= cap {
            ev.form(PlaceForm::Resident(level))?.to_f64()
        } else if let Some(t) = ev.nest_traffic(cap.max(0) as u64)? {
            t.total_lines() as f64 * c.line_bytes as f64 / c.bandwidth[level.index()] as f64
        } else {
            ev.form(PlaceForm::Streaming(level))?.to_f64()
        };
    }
    Ok(Placement::classify(compute, mem))
}

/// The tree-walk evaluator behind [`KernelRoofline::place`].
struct TreeWalk<'a> {
    k: &'a KernelRoofline,
    c: &'a Ceilings,
    b: &'a Bindings,
}

impl CeilingEval for TreeWalk<'_> {
    fn form(&mut self, f: PlaceForm) -> Result<Rat, EvalError> {
        let e = self.k.form_expr(self.c, f);
        match f {
            PlaceForm::FootprintLines => Ok(Rat::int(e.eval_count(self.b)?)),
            _ => e.eval(self.b),
        }
    }

    fn nest_traffic(&mut self, cap_bytes: u64) -> Result<Option<BoundaryTraffic>, EvalError> {
        self.k
            .nest_model
            .as_ref()
            .map(|n| n.boundary_traffic(cap_bytes, self.b))
            .transpose()
    }
}

/// The bisection core of [`KernelRoofline::crossover`], generic over
/// how a parameter value is placed: `place_at(v)` returns the binding
/// ceiling at `v`. Shared by the tree-walk crossover above and the
/// compiled-evaluator crossover in `mira-serve`, so both tiers solve
/// regime changes with the identical search — any answer difference
/// between them can only come from the placement evaluator itself,
/// which the differential tests pin. Valid when the window contains a
/// single regime change; `None` when the binding never changes, and for
/// an empty window (`lo > hi`) without placing anything.
pub fn crossover_bisect(
    lo: i128,
    hi: i128,
    mut place_at: impl FnMut(i128) -> Result<Ceiling, EvalError>,
) -> Result<Option<Crossover>, EvalError> {
    if lo > hi {
        return Ok(None);
    }
    let from = place_at(lo)?;
    if place_at(hi)? == from {
        return Ok(None);
    }
    let (mut below, mut above) = (lo, hi);
    while below + 1 < above {
        let mid = below + (above - below) / 2;
        if place_at(mid)? == from {
            below = mid;
        } else {
            above = mid;
        }
    }
    Ok(Some(Crossover {
        value: above,
        from,
        to: place_at(above)?,
    }))
}

/// Place a *measured* run against the same ceilings: the simulator's
/// observed traffic per boundary (explicit data bytes at L1, data fills
/// plus dirty data write-backs beyond L1 and L2 — flush the VM first so
/// end-of-run stores are on the books) against the model's FLOPs. Frame
/// (stack) lines are excluded at every boundary, mirroring the static
/// side's frame-free closed forms, so the placement stays
/// register-allocation-invariant.
pub fn dynamic_placement(
    flops: i128,
    stats: &MemStats,
    c: &Ceilings,
    vectorized: bool,
) -> Placement {
    let _a = mira_probe::accum("roofline.dynamic_placement");
    let compute = flops as f64 / c.peak(vectorized) as f64;
    let mem = [
        stats.data_bytes() as f64 / c.bandwidth[0] as f64,
        stats.data_beyond_l1_bytes(c.line_bytes) as f64 / c.bandwidth[1] as f64,
        stats.data_beyond_l2_bytes(c.line_bytes) as f64 / c.bandwidth[2] as f64,
    ];
    Placement::classify(compute, mem)
}

/// The compute and L1 time bounds of one statement (loop-nest body
/// line), from the model's per-line attribution. Deeper ceilings need
/// whole-function footprints and are not attributable per line, so nest
/// bounds stop at the boundaries that are: issue rate and L1 bandwidth.
#[derive(Clone, Debug)]
pub struct NestBound {
    pub line: u32,
    /// Packed-aware FLOPs retired by this line per call.
    pub flops: SymExpr,
    /// Data bytes moved by this line per call (frame traffic excluded).
    pub data_bytes: SymExpr,
    pub vectorized: bool,
}

impl NestBound {
    pub fn compute_cycles_expr(&self, c: &Ceilings) -> SymExpr {
        self.flops.scale(Rat::new(1, c.peak(self.vectorized) as i128))
    }

    pub fn l1_cycles_expr(&self, c: &Ceilings) -> SymExpr {
        self.data_bytes.scale(Rat::new(1, c.bandwidth[0] as i128))
    }

    /// Which of the two per-nest ceilings binds at a concrete size.
    pub fn place(&self, c: &Ceilings, b: &Bindings) -> Result<Ceiling, EvalError> {
        let compute = self.compute_cycles_expr(c).eval(b)?.to_f64();
        let l1 = self.l1_cycles_expr(c).eval(b)?.to_f64();
        Ok(if compute > l1 {
            Ceiling::Compute
        } else {
            Ceiling::Mem(MemLevel::L1)
        })
    }
}

/// Per-line (loop-nest statement) bounds of `func`, from the directly
/// owned model ops — call lines carry their callees' traffic inside the
/// callee's own nest bounds, not here.
pub fn nest_bounds(model: &Model, func: &str) -> Result<Vec<NestBound>, ModelError> {
    let fm = model
        .functions
        .get(func)
        .ok_or_else(|| ModelError::UnknownFunction(func.to_string()))?;
    // the byte side comes from the model's per-line closed forms (the
    // same expressions the emitted Python exposes as `<fn>_line_bytes`)
    let line_bytes = model.line_data_bytes_exprs(func)?;
    let mut by_line: std::collections::BTreeMap<u32, (SymExpr, SymExpr, bool)> =
        std::collections::BTreeMap::new();
    for (line, (load, store)) in line_bytes {
        by_line.insert(line, (SymExpr::zero(), load.add_expr(&store), false));
    }
    for op in &fm.ops {
        match op {
            ModelOp::FlopAcc { line, count } => {
                let e = by_line.entry(*line).or_insert_with(|| {
                    (SymExpr::zero(), SymExpr::zero(), false)
                });
                e.0 = e.0.add_expr(count);
            }
            ModelOp::MemAcc {
                line,
                bytes_per_exec,
                frame: false,
                ..
            } if *bytes_per_exec > 8 => {
                // packed accesses mark a vectorized nest
                if let Some(e) = by_line.get_mut(line) {
                    e.2 = true;
                }
            }
            _ => {}
        }
    }
    Ok(by_line
        .into_iter()
        .filter(|(_, (f, b, _))| !f.is_zero() || !b.is_zero())
        .map(|(line, (flops, data_bytes, vectorized))| NestBound {
            line,
            flops,
            data_bytes,
            vectorized,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mira_core::{analyze_source, MiraOptions};
    use mira_sym::bindings;

    const TRIAD: &str = "void triad(int n, int reps, double* a, double* b, double* c, double s) {\n\
         for (int r = 0; r < reps; r++) {\n\
           for (int i = 0; i < n; i++) {\n\
             a[i] = b[i] + s * c[i];\n\
           }\n\
         }\n}";

    fn triad_model(vectorized: bool) -> (KernelRoofline, Ceilings) {
        let compiler = if vectorized {
            mira_vcc::Options::vectorized()
        } else {
            mira_vcc::Options::default()
        };
        let analysis = analyze_source(
            TRIAD,
            &MiraOptions {
                compiler,
                ..MiraOptions::default()
            },
        )
        .unwrap();
        let c = Ceilings::from_arch(&analysis.arch);
        (KernelRoofline::analyze(&analysis, "triad").unwrap(), c)
    }

    #[test]
    fn classify_rules() {
        // deepest memory level wins ties among memory …
        let p = Placement::classify(1.0, [5.0, 5.0, 2.0]);
        assert_eq!(p.binding, Ceiling::Mem(MemLevel::L2));
        assert!(p.memory_bound());
        assert_eq!(p.cycles(), 5.0);
        // … compute must strictly exceed every memory bound
        let p = Placement::classify(5.0, [5.0, 1.0, 1.0]);
        assert_eq!(p.binding, Ceiling::Mem(MemLevel::L1));
        let p = Placement::classify(6.0, [5.0, 1.0, 1.0]);
        assert_eq!(p.binding, Ceiling::Compute);
        assert!(!p.memory_bound());
        assert_eq!(p.ceiling_cycles(Ceiling::Mem(MemLevel::Dram)), 1.0);
    }

    #[test]
    fn ceiling_names_roundtrip() {
        for c in [
            Ceiling::Compute,
            Ceiling::Mem(MemLevel::L1),
            Ceiling::Mem(MemLevel::L2),
            Ceiling::Mem(MemLevel::Dram),
        ] {
            assert_eq!(Ceiling::from_name(c.name()), Some(c));
        }
        assert_eq!(Ceiling::from_name("l3"), None);
    }

    #[test]
    fn default_ceilings() {
        let arch = ArchDescription::default();
        let c = Ceilings::from_arch(&arch);
        assert_eq!(c.peak_scalar, 2);
        assert_eq!(c.peak_vector, 4);
        assert_eq!(c.bandwidth, [32, 16, 4]);
        assert_eq!(c.capacity_above, [None, Some(32768), Some(262144)]);
        assert_eq!(c.line_bytes, 64);
        assert_eq!(c.peak(false), 2);
        assert_eq!(c.peak(true), 4);
    }

    #[test]
    fn triad_closed_forms_and_regimes() {
        let (k, c) = triad_model(false);
        assert!(!k.vectorized, "scalar triad");
        assert!(k.footprint_known);
        // 2 FLOPs and 24 data bytes per element per rep
        let b = bindings(&[("n", 1000), ("reps", 4)]);
        assert_eq!(k.flops.eval_count(&b).unwrap(), 8000);
        assert_eq!(k.data_bytes().eval_count(&b).unwrap(), 96_000);
        // footprint: 3 arrays × 125 lines; only `a` is stored
        assert_eq!(k.footprint_lines.eval_count(&b).unwrap(), 375);
        assert_eq!(k.stored_lines.eval_count(&b).unwrap(), 125);
        // ceilings at the default machine
        let p = k.place(&c, &b).unwrap();
        assert_eq!(p.compute_cycles, 4000.0);
        assert_eq!(p.mem_cycles[0], 3000.0);
        // 24 KB footprint fits L1: beyond-L1 traffic is compulsory only
        assert_eq!(p.mem_cycles[1], (375.0 + 125.0) * 64.0 / 16.0);
        assert_eq!(p.mem_cycles[2], (375.0 + 125.0) * 64.0 / 4.0);
        assert_eq!(p.binding, Ceiling::Mem(MemLevel::Dram), "{p}");
        // large n leaves every cache: streaming regime at every level —
        // loads cross once, stores twice (fill + write-back)
        let b = bindings(&[("n", 1_000_000), ("reps", 4)]);
        let p = k.place(&c, &b).unwrap();
        let sweep = (k.data_load_bytes.eval_count(&b).unwrap()
            + 2 * k.data_store_bytes.eval_count(&b).unwrap()) as f64;
        assert_eq!(p.mem_cycles[1], sweep / 16.0);
        assert_eq!(p.mem_cycles[2], sweep / 4.0);
        assert_eq!(p.binding, Ceiling::Mem(MemLevel::Dram));
    }

    #[test]
    fn unknown_footprint_never_claims_residency() {
        // an unannotated CSR gather: vals/cols/x are unanalyzable, so the
        // footprint is a lower bound — the deeper ceilings must use the
        // streaming model even though the *analyzed* lines would fit L1
        let src = "void matvec(int n, int* row_ptr, int* cols, double* vals, double* x, double* y) {\n\
               for (int i = 0; i < n; i++) {\n\
                 double s = 0.0;\n\
                 for (int k = row_ptr[i]; k < row_ptr[i + 1]; k++) {\n\
                   s += vals[k] * x[cols[k]];\n\
                 }\n\
                 y[i] = s;\n\
               } }";
        let analysis = analyze_source(src, &MiraOptions::default()).unwrap();
        let c = Ceilings::from_arch(&analysis.arch);
        let k = KernelRoofline::analyze(&analysis, "matvec").unwrap();
        assert!(!k.footprint_known);
        let b = bindings(&[("n", 64), ("iters_l4", 7)]);
        let p = k.place(&c, &b).unwrap();
        assert_eq!(
            p.mem_cycles[2],
            k.streaming_cycles_expr(&c, MemLevel::Dram).eval(&b).unwrap().to_f64(),
            "unknown footprint ⇒ sweep, not compulsory-only: {p}"
        );
    }

    #[test]
    fn vectorized_triad_uses_vector_peak() {
        let (k, c) = triad_model(true);
        assert!(k.vectorized, "packed arithmetic detected");
        let b = bindings(&[("n", 1024), ("reps", 1)]);
        // same FLOPs, half the compute cycles
        let (ks, _) = triad_model(false);
        assert_eq!(
            k.flops.eval_count(&b).unwrap(),
            ks.flops.eval_count(&b).unwrap()
        );
        let pv = k.place(&c, &b).unwrap();
        let p = ks.place(&c, &b).unwrap();
        assert!((pv.compute_cycles - p.compute_cycles / 2.0).abs() < 1e-9);
    }

    /// A description that declares no `[metric …]` group inherits the
    /// default ones: scalar triad stays scalar (FPI = FLOPs) and places
    /// on the scalar peak exactly as under the default description,
    /// instead of an empty `fpi` group making every FLOP look packed.
    #[test]
    fn metricless_description_keeps_scalar_triad_on_the_scalar_peak() {
        let text = mira_arch::desc::DEFAULT_DESCRIPTION;
        let metricless = &text[..text.find("[metric ").unwrap()];
        let place = |arch: ArchDescription| {
            let analysis = analyze_source(
                TRIAD,
                &MiraOptions {
                    arch,
                    ..MiraOptions::default()
                },
            )
            .unwrap();
            let k = KernelRoofline::analyze(&analysis, "triad").unwrap();
            let c = Ceilings::from_arch(&analysis.arch);
            let b = bindings(&[("n", 4096), ("reps", 3)]);
            let p = k.place(&c, &b).unwrap();
            let scalar = k.flops.eval_count(&b).unwrap() as f64 / c.peak_scalar as f64;
            (k.vectorized, p, scalar)
        };
        let (vectorized, p, scalar) = place(ArchDescription::parse(metricless).unwrap());
        assert!(!vectorized, "scalar triad is not vectorized");
        assert_eq!(p.compute_cycles.to_bits(), scalar.to_bits(), "scalar peak");
        let (_, default, _) = place(ArchDescription::default());
        assert_eq!(p, default, "same placement as the default description");
    }

    #[test]
    fn roofline_key_reads_only_line_size_and_fpi_membership() {
        let base = ArchDescription::default();
        let mut ceilings_only = base.clone();
        ceilings_only.machine.name = "other".to_string();
        ceilings_only.machine.bandwidth.dram *= 2;
        ceilings_only.machine.peak.fma = true;
        ceilings_only.machine.l2.size_bytes *= 4;
        let mut reordered = base.clone();
        let mut fpi = base.fpi().to_vec();
        fpi.reverse();
        fpi.push(fpi[0]);
        reordered.set_metric("fpi", fpi);
        assert_eq!(RooflineKey::of(&base), RooflineKey::of(&ceilings_only));
        assert_eq!(RooflineKey::of(&base), RooflineKey::of(&reordered));
        let mut line = base.clone();
        line.machine.cache_line_bytes = 128;
        assert_ne!(RooflineKey::of(&base), RooflineKey::of(&line));
        let mut group = base.clone();
        group.set_metric("fpi", vec![Category::X87BasicArith]);
        assert_ne!(RooflineKey::of(&base), RooflineKey::of(&group));
        assert_eq!(
            RooflineKey::of(&group).to_string(),
            "64-byte lines, fpi = [x87_basic_arith]"
        );
    }

    /// One request the placement loop made of its evaluator.
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Request {
        Form(PlaceForm),
        Nest(u64),
    }

    /// A fake evaluator: records every request and answers from fixed
    /// values — every form is 1 cycle except the footprint — refusing
    /// the one request named in `refuse`.
    struct Recorder {
        log: Vec<Request>,
        footprint_lines: i128,
        nest: Option<BoundaryTraffic>,
        refuse: Option<Request>,
    }

    impl Recorder {
        fn new(footprint_lines: i128, nest: Option<BoundaryTraffic>) -> Recorder {
            Recorder {
                log: Vec::new(),
                footprint_lines,
                nest,
                refuse: None,
            }
        }

        fn ask(&mut self, r: Request) -> Result<(), EvalError> {
            self.log.push(r);
            if self.refuse == Some(r) {
                return Err(EvalError::Overflow);
            }
            Ok(())
        }
    }

    impl CeilingEval for Recorder {
        fn form(&mut self, f: PlaceForm) -> Result<Rat, EvalError> {
            self.ask(Request::Form(f))?;
            Ok(match f {
                PlaceForm::FootprintLines => Rat::int(self.footprint_lines),
                _ => Rat::ONE,
            })
        }

        fn nest_traffic(&mut self, cap_bytes: u64) -> Result<Option<BoundaryTraffic>, EvalError> {
            self.ask(Request::Nest(cap_bytes))?;
            Ok(self.nest)
        }
    }

    /// The evaluator contract of [`place_with`]: which closed forms it
    /// requests, in which order, in each regime — and that a refusal
    /// stops it with no further requests.
    #[test]
    fn place_with_requests_forms_lazily_in_order() {
        use PlaceForm::*;
        use Request::{Form, Nest};
        let c = Ceilings::from_arch(&ArchDescription::default());
        let (l2_cap, dram_cap) = (32768, 262144);
        let nest = BoundaryTraffic {
            fill_lines: 100,
            writeback_lines: 25,
        };
        let run = |known: bool, lines: i128, nest: Option<BoundaryTraffic>| {
            let mut ev = Recorder::new(lines, nest);
            let p = place_with(known, &c, &mut ev).unwrap();
            (p, ev.log)
        };
        let prefix = [Form(Compute), Form(FootprintLines), Form(L1)];

        // resident: 10 lines fit above both deeper boundaries
        let (p, log) = run(true, 10, Some(nest));
        let resident = [
            &prefix[..],
            &[Form(Resident(MemLevel::L2)), Form(Resident(MemLevel::Dram))],
        ]
        .concat();
        assert_eq!(log, resident);
        assert_eq!(p.mem_cycles, [1.0, 1.0, 1.0]);

        // nest: 10k lines fit nowhere; the nest step answers, so no
        // streaming form is requested
        let (p, log) = run(true, 10_000, Some(nest));
        assert_eq!(log, [&prefix[..], &[Nest(l2_cap), Nest(dram_cap)]].concat());
        assert_eq!(p.mem_cycles[1], 125.0 * 64.0 / 16.0);
        assert_eq!(p.mem_cycles[2], 125.0 * 64.0 / 4.0);

        // streaming: no nest model, so each boundary falls back
        let (_, log) = run(true, 10_000, None);
        let streaming = [
            &prefix[..],
            &[
                Nest(l2_cap),
                Form(Streaming(MemLevel::L2)),
                Nest(dram_cap),
                Form(Streaming(MemLevel::Dram)),
            ],
        ]
        .concat();
        assert_eq!(log, streaming);

        // mixed: 1000 lines (64000 bytes) exceed L1 but fit L2
        let (_, log) = run(true, 1000, Some(nest));
        assert_eq!(
            log,
            [&prefix[..], &[Nest(l2_cap), Form(Resident(MemLevel::Dram))]].concat()
        );

        // unknown footprint: never requested, and never resident — even
        // when the (partial) footprint would fit
        for nest in [Some(nest), None] {
            let (_, log) = run(false, 1, nest);
            assert!(!log.contains(&Form(FootprintLines)), "{log:?}");
            assert!(
                !log.iter().any(|r| matches!(r, Form(Resident(_)))),
                "{log:?}"
            );
            assert_eq!(log[..2], [Form(Compute), Form(L1)]);
        }

        // a refusal stops the loop: nothing is requested after it
        for (lines, nest, full) in [(10, Some(nest), resident), (10_000, None, streaming)] {
            for (i, &r) in full.iter().enumerate() {
                let mut ev = Recorder::new(lines, nest);
                ev.refuse = Some(r);
                assert_eq!(place_with(true, &c, &mut ev), Err(EvalError::Overflow));
                assert_eq!(ev.log, full[..=i], "refusing {r:?}");
            }
        }
    }

    /// An empty window (`lo > hi`) has no crossover on either solver,
    /// and the bisection core places nothing for it.
    #[test]
    fn empty_window_has_no_crossover() {
        let (k, c) = triad_model(false);
        let base = bindings(&[("n", 1024)]);
        assert_eq!(k.crossover(&c, "reps", &base, 200, 1).unwrap(), None);
        assert_eq!(k.crossover_sweep(&c, "reps", &base, 200, 1).unwrap(), None);
        let mut placed = 0;
        let r = crossover_bisect(5, 4, |_| {
            placed += 1;
            Ok(Ceiling::Compute)
        });
        assert_eq!(r, Ok(None));
        assert_eq!(placed, 0);
    }

    #[test]
    fn triad_crossover_matches_sweep() {
        // at small n·reps the cold DRAM footprint dominates; at high reps
        // the kernel becomes compute-bound while L1-resident. The solver
        // and the brute-force sweep must find the same switch point.
        let (k, c) = triad_model(false);
        let base = bindings(&[("n", 1024)]);
        let solved = k.crossover(&c, "reps", &base, 1, 200).unwrap();
        let swept = k.crossover_sweep(&c, "reps", &base, 1, 200).unwrap();
        assert_eq!(solved, swept);
        let x = solved.expect("triad changes regime as reps grow");
        assert_eq!(x.from, Ceiling::Mem(MemLevel::Dram));
        assert!(x.value > 1);
    }

    #[test]
    fn crossover_none_when_regime_constant() {
        let (k, c) = triad_model(false);
        // huge n: DRAM-bound at every rep count in the window
        let base = bindings(&[("n", 10_000_000)]);
        assert_eq!(k.crossover(&c, "reps", &base, 1, 50).unwrap(), None);
        assert_eq!(k.crossover_sweep(&c, "reps", &base, 1, 50).unwrap(), None);
    }

    #[test]
    fn working_set_refinement_keeps_blocked_dgemm_compulsory() {
        // n=40: the 38400-byte footprint exceeds the 32 KiB L1, so the
        // old fits-or-streams model predicted a full sweep at the L2
        // boundary; the per-i working set (two rows + all of b) fits, so
        // the working-set model keeps the compulsory-only count — the
        // ROADMAP's reuse-distance case
        let src = "void mm(int n, int reps, double* a, double* b, double* c) {\n\
             for (int r = 0; r < reps; r++) {\n\
               for (int i = 0; i < n; i++) {\n\
                 for (int k = 0; k < n; k++) {\n\
                   for (int j = 0; j < n; j++) {\n\
                     c[i * n + j] += a[i * n + k] * b[k * n + j];\n\
                   } } } } }";
        let analysis = analyze_source(src, &MiraOptions::default()).unwrap();
        let c = Ceilings::from_arch(&analysis.arch);
        let k = KernelRoofline::analyze(&analysis, "mm").unwrap();
        assert!(k.nest_model.is_some(), "own affine nests only");
        let b = bindings(&[("n", 40), ("reps", 1)]);
        let footprint = k.footprint_lines.eval_count(&b).unwrap();
        assert_eq!(footprint, 600);
        assert!(footprint * 64 > 32768, "exceeds L1 but …");
        let p = k.place(&c, &b).unwrap();
        // … the L2 boundary still carries compulsory lines only:
        // 600 fills + 200 write-backs of c
        assert_eq!(p.mem_cycles[1], 800.0 * 64.0 / 16.0, "{p}");
        // footprint fits L2, so the DRAM boundary is resident
        assert_eq!(p.mem_cycles[2], 800.0 * 64.0 / 4.0);
        // the sweep model would have said 2.5·n³ cycles and bound the
        // kernel at L2; the refinement leaves it on the L1 knee
        let sweep = k.streaming_cycles_expr(&c, MemLevel::L2).eval(&b).unwrap().to_f64();
        assert!(sweep > p.mem_cycles[0], "old model misclassified");
        assert_eq!(p.binding, Ceiling::Mem(MemLevel::L1), "{p}");
    }

    #[test]
    fn nest_bounds_attribute_lines() {
        let analysis = analyze_source(TRIAD, &MiraOptions::default()).unwrap();
        let c = Ceilings::from_arch(&analysis.arch);
        let nests = nest_bounds(&analysis.model, "triad").unwrap();
        // the kernel line dominates: 24 data bytes, 2 flops per n·reps
        let b = bindings(&[("n", 100), ("reps", 1)]);
        let kernel = nests
            .iter()
            .max_by_key(|nb| nb.data_bytes.eval_count(&b).unwrap())
            .unwrap();
        assert_eq!(kernel.line, 4);
        assert_eq!(kernel.flops.eval_count(&b).unwrap(), 200);
        assert_eq!(kernel.data_bytes.eval_count(&b).unwrap(), 2400);
        // 75 cycles of L1 traffic vs 100 cycles of FP issue
        assert_eq!(kernel.place(&c, &b).unwrap(), Ceiling::Compute);
        assert!(!kernel.vectorized);
        assert!(nest_bounds(&analysis.model, "nope").is_err());
    }

    #[test]
    fn dynamic_placement_uses_fills_and_writebacks() {
        let c = Ceilings::from_arch(&ArchDescription::default());
        let stats = MemStats {
            data_load_bytes: 64_000,
            data_store_bytes: 32_000,
            load_bytes: 64_000,
            store_bytes: 32_000,
            ..MemStats::default()
        };
        // no misses: deeper levels idle, L1 carries all 96 KB
        let p = dynamic_placement(2_000, &stats, &c, false);
        assert_eq!(p.binding, Ceiling::Mem(MemLevel::L1));
        assert_eq!(p.mem_cycles[0], 3000.0);
        assert_eq!(p.mem_cycles[2], 0.0);
        // register-only compute: compute-bound
        let p = dynamic_placement(2_000, &MemStats::default(), &c, false);
        assert_eq!(p.binding, Ceiling::Compute);
        assert_eq!(p.compute_cycles, 1000.0);
    }
}
