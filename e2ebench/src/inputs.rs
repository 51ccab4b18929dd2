//! Everything a run feeds the library, generated from the seed: machine
//! description files, the kernel sources to admit, and parameter values.

use std::fmt::Write as _;

use mira_arch::desc::DEFAULT_DESCRIPTION;
use mira_arch::{ArchDescription, MachineParams};

use crate::rng::Rng;
use crate::stats::Fnv;

// ---------------------------------------------------------------- machines

/// The fields of a machine description the benchmark varies.
#[derive(Clone, PartialEq, Debug)]
pub struct Machine {
    pub name: String,
    pub vector_bits: u32,
    pub lanes: u32,
    pub l1: (u32, u32),
    pub l2: (u32, u32),
    pub fp_pipes: u32,
    pub fma: bool,
    /// Bytes per cycle at the L1, L2 and DRAM boundaries.
    pub bw: [u32; 3],
}

impl Machine {
    fn from_params(m: &MachineParams) -> Machine {
        Machine {
            name: m.name.clone(),
            vector_bits: m.vector_bits,
            lanes: m.fp_lanes_per_vector,
            l1: (m.l1.size_bytes, m.l1.assoc),
            l2: (m.l2.size_bytes, m.l2.assoc),
            fp_pipes: m.peak.fp_pipes,
            fma: m.peak.fma,
            bw: [m.bandwidth.l1, m.bandwidth.l2, m.bandwidth.dram],
        }
    }

    /// The description file text. Line size and metric groups are the
    /// default description's, shared by every machine, so a kernel's
    /// closed forms do not depend on which machine it was analysed for.
    pub fn ini(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "[machine]\nname = {}\ncores = 1\ncache_line_bytes = 64\nvector_bits = {}\n\
             fp_lanes_per_vector = {}\n\n[cache l1]\nsize_bytes = {}\nassoc = {}\n\n\
             [cache l2]\nsize_bytes = {}\nassoc = {}\n\n[peak]\nfp_pipes = {}\nfma = {}\n\n\
             [bandwidth l1]\nbytes_per_cycle = {}\n\n[bandwidth l2]\nbytes_per_cycle = {}\n\n\
             [bandwidth dram]\nbytes_per_cycle = {}\n\n",
            self.name,
            self.vector_bits,
            self.lanes,
            self.l1.0,
            self.l1.1,
            self.l2.0,
            self.l2.1,
            self.fp_pipes,
            if self.fma { "yes" } else { "no" },
            self.bw[0],
            self.bw[1],
            self.bw[2],
        );
        let metrics = DEFAULT_DESCRIPTION
            .find("[metric ")
            .expect("default description declares metric groups");
        s.push_str(&DEFAULT_DESCRIPTION[metrics..]);
        s
    }

    /// The three what-if edits of this machine: one bandwidth, one peak
    /// and one cache-size change, each applied to the base description.
    fn edits(&self, rng: &mut Rng) -> Vec<Machine> {
        let mut bw = self.clone();
        let f = *rng.pick(&[(1, 2), (2, 1), (3, 1)]);
        bw.bw[2] = (self.bw[2] * f.0 / f.1).max(1);
        let mut peak = self.clone();
        peak.fp_pipes = if self.fp_pipes == 1 {
            4
        } else {
            *rng.pick(&[1, 2 * self.fp_pipes])
        };
        let mut cache = self.clone();
        let smaller = self.l2.0 / 4;
        cache.l2.0 = if rng.below(2) == 0 && smaller >= 2 * self.l1.0 {
            smaller
        } else {
            self.l2.0 * 4
        };
        vec![bw, peak, cache]
    }
}

/// The four machines of a fleet — `generic-x86_64`, `avx2-fma`, and two
/// seeded variants (one of bandwidth, one of cache size) — each with its
/// what-if edits: `states[m][0]` is the base, `states[m][1..]` the edits.
pub fn machines(seed: u64) -> Vec<Vec<Machine>> {
    let mut rng = Rng::fork(seed, 1);
    let generic = Machine::from_params(&ArchDescription::default().machine);
    let avx2 = Machine::from_params(
        &mira_serve::machines::avx2_fma()
            .expect("avx2-fma description parses")
            .machine,
    );
    let mut bw = generic.clone();
    bw.name = "bw-variant".into();
    bw.bw[1] = *rng.pick(&[8, 12, 24]);
    bw.bw[2] = *rng.pick(&[2, 3, 6, 8]);
    let mut cache = avx2.clone();
    cache.name = "cache-variant".into();
    cache.l1.0 = *rng.pick(&[32 << 10, 64 << 10]);
    cache.l2.0 = *rng.pick(&[512 << 10, 1 << 20, 2 << 20]);
    [generic, avx2, bw, cache]
        .into_iter()
        .map(|base| {
            let mut states = vec![base.clone()];
            states.extend(base.edits(&mut rng));
            states
        })
        .collect()
}

// ----------------------------------------------------------------- kernels

/// One function to admit, with the whole source file it lives in.
#[derive(Clone, Default, PartialEq, Debug)]
pub struct Kernel {
    pub func: String,
    pub src: String,
}

/// The 7 kernels of the repository's serving benchmark and the 11
/// functions of the Table-I corpus, in a seeded order.
pub fn fixed_kernels(seed: u64) -> Vec<Kernel> {
    let mut ks: Vec<Kernel> = [
        ("triad", mira_workloads::memval::TRIAD_SRC),
        ("dgemm", mira_workloads::dgemm::DGEMM_SRC),
        ("dgemm_tiled", mira_workloads::roofval::DGEMM_TILED_SRC),
        ("triad_blocked", mira_workloads::roofval::TRIAD_BLOCKED_SRC),
        ("trisolve", mira_workloads::compose::TRISOLVE_SRC),
        ("blur", mira_workloads::compose::STENCIL_SWEEP_SRC),
        ("cg_solve", mira_workloads::minife::MINIFE_SRC),
    ]
    .into_iter()
    .map(|(f, s)| Kernel {
        func: f.into(),
        src: s.into(),
    })
    .collect();
    for (_, src) in mira_workloads::corpus::corpus() {
        let p = mira_minic::frontend(src).expect("corpus source parses");
        for f in p.functions() {
            ks.push(Kernel {
                func: f.name.clone(),
                src: src.into(),
            });
        }
    }
    Rng::fork(seed, 2).shuffle(&mut ks);
    ks
}

/// The shape of one generated function.
#[derive(Clone, Copy, Debug)]
enum Shape {
    /// One loop over length-`n` arrays.
    Line { stencil: bool, steps: bool },
    /// Two loops over `n × n` arrays; `reduce` accumulates each row into
    /// a scalar.
    Plane {
        tri: bool,
        stencil: bool,
        reduce: bool,
        steps: bool,
    },
    /// A matrix-product nest of depth three.
    Cube { tri: bool },
    /// A row kernel plus a time-step loop calling it twice with swapped
    /// arrays (two functions).
    Callee { stencil: bool },
}

impl Shape {
    fn funcs(self) -> usize {
        match self {
            Shape::Callee { .. } => 2,
            _ => 1,
        }
    }
}

/// The generated functions, by file: every seed admits these shapes in
/// these files, so each pass costs about the same whatever the seed; the
/// seed varies the details (stencil offsets, triangle orientation, loop
/// order, coefficients, names) and the admission order. Files of two
/// and three functions make the pipeline's per-file work repeat once
/// per admitted function.
const RECIPE: &[&[Shape]] = &[
    &[
        Shape::Line {
            stencil: true,
            steps: false,
        },
        Shape::Plane {
            tri: false,
            stencil: false,
            reduce: false,
            steps: false,
        },
        Shape::Line {
            stencil: false,
            steps: true,
        },
    ],
    &[Shape::Callee { stencil: true }],
    &[
        Shape::Plane {
            tri: true,
            stencil: false,
            reduce: true,
            steps: false,
        },
        Shape::Cube { tri: false },
    ],
    &[Shape::Plane {
        tri: false,
        stencil: true,
        reduce: false,
        steps: false,
    }],
    &[Shape::Cube { tri: true }],
    &[Shape::Plane {
        tri: true,
        stencil: false,
        reduce: false,
        steps: false,
    }],
    &[Shape::Plane {
        tri: false,
        stencil: false,
        reduce: true,
        steps: true,
    }],
    &[Shape::Callee { stencil: false }],
];

/// Functions the generated sources add to every admit pass.
pub const GENERATED_FUNCS: usize = 13;

/// Seeded MiniC sources for the admit pass: [`GENERATED_FUNCS`]
/// functions shaped by [`RECIPE`] — nest depths one to three,
/// triangular bounds, stencil offsets, time-step loops, a known callee,
/// and one to three functions per file — within what the pipeline
/// admits.
pub fn generated_kernels(seed: u64) -> Vec<Kernel> {
    let mut rng = Rng::fork(seed, 3);
    let tag = rng.below(1000);
    let mut out = Vec::with_capacity(GENERATED_FUNCS);
    for (file, shapes) in RECIPE.iter().enumerate() {
        let mut src = String::new();
        let mut funcs = Vec::new();
        for (i, &shape) in shapes.iter().enumerate() {
            let name = format!("g{tag}_{file}_{i}");
            match shape {
                Shape::Callee { stencil } => {
                    let (callee, caller) = (format!("{name}_row"), format!("{name}_sweep"));
                    src.push_str(&callee_pair(&mut rng, stencil, &callee, &caller));
                    funcs.push(callee);
                    funcs.push(caller);
                }
                _ => {
                    src.push_str(&nest_function(&mut rng, shape, &name));
                    funcs.push(name);
                }
            }
        }
        out.extend(funcs.into_iter().map(|func| Kernel {
            func,
            src: src.clone(),
        }));
    }
    debug_assert_eq!(
        out.len(),
        RECIPE
            .iter()
            .flat_map(|f| f.iter())
            .map(|s| s.funcs())
            .sum()
    );
    out
}

fn coef(rng: &mut Rng) -> &'static str {
    const COEFS: [&str; 5] = ["0.5", "0.25", "1.5", "2.0", "0.125"];
    COEFS[rng.below(COEFS.len())]
}

/// A read offset: a stencil neighbour when `stencil`, else none.
fn offset(rng: &mut Rng, stencil: bool) -> &'static str {
    const OFFSETS: [&str; 3] = ["- 1", "+ 1", "+ 0"];
    if stencil {
        OFFSETS[rng.below(OFFSETS.len())]
    } else {
        "+ 0"
    }
}

/// One function of a [`Shape`] other than [`Shape::Callee`], over arrays
/// `a`, `b`, `c` of length `n` or `n × n`.
fn nest_function(rng: &mut Rng, shape: Shape, name: &str) -> String {
    let mut body = String::new();
    let steps = match shape {
        Shape::Line { stencil, steps } => {
            let (lo, hi) = if stencil { ("1", "n - 1") } else { ("0", "n") };
            let (o1, o2) = (offset(rng, stencil), offset(rng, stencil));
            let _ = writeln!(
                body,
                "for (int i = {lo}; i < {hi}; i++) {{ b[i] = {} * a[i {o1}] + {} * c[i {o2}]; }}",
                coef(rng),
                coef(rng)
            );
            steps
        }
        Shape::Plane {
            tri,
            stencil,
            reduce,
            steps,
        } => {
            let (lo, hi) = if stencil { ("1", "n - 1") } else { ("0", "n") };
            // lower or upper triangle
            let (jlo, jhi) = match (tri, rng.below(2)) {
                (false, _) => (lo, hi),
                (true, 0) => ("0", "i"),
                (true, _) => ("i", "n"),
            };
            if reduce {
                let _ = writeln!(
                    body,
                    "for (int i = {lo}; i < {hi}; i++) {{ double s = 0.0; \
                     for (int j = {jlo}; j < {jhi}; j++) {{ s += a[i * n + j] * c[j]; }} \
                     b[i] = {} * s; }}",
                    coef(rng)
                );
            } else {
                let (o1, o2) = (offset(rng, stencil), offset(rng, stencil));
                let _ = writeln!(
                    body,
                    "for (int i = {lo}; i < {hi}; i++) {{ for (int j = {jlo}; j < {jhi}; j++) {{ \
                     b[i * n + j] = {} * a[(i {o1}) * n + j] + c[i * n + j {o2}]; }} }}",
                    coef(rng)
                );
            }
            steps
        }
        Shape::Cube { tri } => {
            // ikj or ijk order; a triangular nest bounds k by i
            let (l2, l3) = if rng.below(2) == 0 {
                ("k", "j")
            } else {
                ("j", "k")
            };
            let bound = |v: &str| if tri && v == "k" { "i" } else { "n" };
            let _ = writeln!(
                body,
                "for (int i = 0; i < n; i++) {{ for (int {l2} = 0; {l2} < {}; {l2}++) {{ \
                 for (int {l3} = 0; {l3} < {}; {l3}++) {{ \
                 b[i * n + j] += a[i * n + k] * c[k * n + j]; }} }} }}",
                bound(l2),
                bound(l3),
            );
            false
        }
        Shape::Callee { .. } => unreachable!("callee pairs are generated by callee_pair"),
    };
    let body = if steps {
        format!("for (int t = 0; t < steps; t++) {{\n{body}}}\n")
    } else {
        body
    };
    let steps_param = if steps { "int steps, " } else { "" };
    format!("void {name}(int n, {steps_param}double* a, double* b, double* c) {{\n{body}}}\n")
}

/// A row kernel and a time-step loop that calls it twice with swapped
/// arrays (the composed-callee shape).
fn callee_pair(rng: &mut Rng, stencil: bool, callee: &str, caller: &str) -> String {
    let row = if stencil {
        format!(
            "for (int i = 1; i < n - 1; i++) {{ y[i] = {} * x[i - 1] + {} * x[i + 1]; }}",
            coef(rng),
            coef(rng)
        )
    } else {
        format!(
            "for (int i = 0; i < n; i++) {{ y[i] = y[i] + {} * x[i]; }}",
            coef(rng)
        )
    };
    format!(
        "void {callee}(int n, double* x, double* y) {{\n{row}\n}}\n\
         void {caller}(int n, int steps, double* u, double* v) {{\n\
         for (int t = 0; t < steps; t++) {{ {callee}(n, u, v); {callee}(n, v, u); }}\n}}\n"
    )
}

// -------------------------------------------------------------- parameters

/// Parameters that count repetitions rather than sizes.
const REPEAT_PARAMS: &[&str] = &["reps", "steps", "cg_iters"];

/// Values bound for every crossover-table pair and every what-if query
/// (parameters not listed bind 1, as [`mira_serve::ServeIndex::crossover_table`]
/// does).
pub const TABLE_DEFAULTS: &[(&str, i128)] =
    &[("reps", 2), ("nnz_row_milli", 26_144), ("cg_iters", 20)];

/// Largest size a query binds: beyond every L2 of the fleet for
/// one-dimensional kernels, and deep in the streaming regime for the
/// `n × n` ones, so resident, nest-captured and streaming placements
/// all occur.
pub const MAX_SIZE: i64 = 1 << 17;

/// A seeded value for one parameter: sizes log-spread over
/// `[2, MAX_SIZE]`, repetition counts over `[1, 64]`, the miniFE
/// density at its fixed value.
pub fn draw(rng: &mut Rng, param: &str) -> i128 {
    if param == "nnz_row_milli" {
        26_144
    } else if REPEAT_PARAMS.contains(&param) || param.starts_with("iters") {
        rng.log_range(1, 64) as i128
    } else {
        rng.log_range(2, MAX_SIZE) as i128
    }
}

/// The values of a kernel's first answer after admission: one draw per
/// parameter, keyed by function and parameter name so they do not
/// depend on admission order.
pub fn first_values(seed: u64, func: &str, params: &[String]) -> Vec<i128> {
    params
        .iter()
        .map(|p| {
            let mut h = Fnv::default();
            h.bytes(func.as_bytes());
            h.byte(0);
            h.bytes(p.as_bytes());
            draw(&mut Rng::fork(seed, h.0), p)
        })
        .collect()
}

/// The parameter a kernel's size sweeps move: `n` when it has one, else
/// its first parameter that is neither a repetition count nor fixed.
pub fn size_slot(params: &[String]) -> usize {
    params.iter().position(|p| p == "n").unwrap_or_else(|| {
        params
            .iter()
            .position(|p| {
                !REPEAT_PARAMS.contains(&p.as_str())
                    && !p.starts_with("iters")
                    && p != "nnz_row_milli"
            })
            .unwrap_or(0)
    })
}

/// Base values for a kernel under [`TABLE_DEFAULTS`].
pub fn table_base(params: &[String]) -> Vec<i128> {
    params
        .iter()
        .map(|p| {
            TABLE_DEFAULTS
                .iter()
                .find(|(n, _)| n == p)
                .map(|(_, v)| *v)
                .unwrap_or(1)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(machines(5), machines(5));
        assert_eq!(fixed_kernels(5), fixed_kernels(5));
        assert_eq!(generated_kernels(5), generated_kernels(5));
        assert_eq!(
            first_values(5, "dgemm", &["n".into(), "reps".into()]),
            first_values(5, "dgemm", &["n".into(), "reps".into()])
        );
    }

    #[test]
    fn different_seed_changes_inputs() {
        assert_ne!(generated_kernels(5), generated_kernels(6));
        assert_ne!(fixed_kernels(5), fixed_kernels(6));
        let ms: Vec<_> = (0..8).map(machines).collect();
        assert!(ms.iter().any(|m| *m != ms[0]));
        assert_ne!(
            first_values(5, "dgemm", &["n".into()]),
            first_values(6, "dgemm", &["n".into()])
        );
    }

    #[test]
    fn machine_files_parse_with_their_fields() {
        for states in (0..200).flat_map(machines) {
            for m in &states {
                let d = ArchDescription::parse(&m.ini()).expect("generated description parses");
                assert_eq!(Machine::from_params(&d.machine), *m);
            }
            assert_eq!(states.len(), 4);
            // every edit differs from the base
            assert!(states[1..].iter().all(|e| *e != states[0]));
        }
    }

    #[test]
    fn kernel_lists_have_the_documented_sizes() {
        assert_eq!(fixed_kernels(1).len(), 18);
        for seed in 0..20 {
            let g = generated_kernels(seed);
            assert_eq!(g.len(), GENERATED_FUNCS);
            let mut names: Vec<_> = g.iter().map(|k| k.func.clone()).collect();
            names.sort();
            names.dedup();
            assert_eq!(names.len(), GENERATED_FUNCS, "function names are unique");
        }
    }

    #[test]
    fn size_slot_prefers_n() {
        let ps = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(size_slot(&ps(&["reps", "n"])), 1);
        assert_eq!(size_slot(&ps(&["nelem"])), 0);
        assert_eq!(size_slot(&ps(&["cg_iters", "half"])), 1);
        assert_eq!(table_base(&ps(&["reps", "n", "x"])), vec![2, 1, 1]);
    }
}
