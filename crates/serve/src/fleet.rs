//! Fleet serving: a directory of machine descriptions, every admitted
//! kernel compiled against every machine, with hot-reload.
//!
//! A [`MachineFleet`] is the operational wrapper around [`ServeIndex`]:
//! point it at a directory of `*.ini` architecture descriptions
//! ([`mira_arch::load_dir`]), admit kernel sources, and it compiles the
//! full kernel × machine cross product. [`MachineFleet::reload`]
//! re-reads the directory and swaps the placement models of *changed*
//! machines atomically — every replacement is built before any swap, a
//! [`KernelId`] survives its kernel being swapped, and the index's
//! swap generation advances so [`AnswerCache`]s self-invalidate — which
//! is why duplicate registration had to become a typed refusal first: a
//! reload that re-`add`ed into a first-match index would shadow, not
//! replace, and serve the stale model forever.
//!
//! ## Analyse once, place per machine
//!
//! The fleet keeps each artifact at the tier it depends on, and builds
//! each one once:
//!
//! * **per source** — the [`Analysis`](mira_core::Analysis) (program,
//!   object, model). Nothing in it depends on the machine, so one run of
//!   the source pipeline serves every machine. It is dropped once the
//!   kernel's rooflines are built.
//! * **per [`RooflineKey`]** — one [`KernelRoofline`] per distinct
//!   (cache line size, `fpi` category set) among the fleet's machines,
//!   kept with the admitted kernel. Machines that differ only in peaks,
//!   bandwidths or cache sizes share it.
//! * **per machine** — one [`CompiledKernel`] for that machine's
//!   [`Ceilings`], in the index.
//!
//! So admitting a kernel to M machines costs one pipeline run, one
//! roofline per key (usually one) and M compiles. A reload after a
//! bandwidth, peak or cache-size edit costs only the compiles of the
//! edited machine. An edit to the line size or the `[metric fpi]` group
//! moves the machine to a key the kernels lack, which costs one
//! pipeline run per kernel plus the new rooflines. Removing a machine
//! rebuilds the index from the kept rooflines, with no pipeline run.
//! The kept rooflines cost memory, and they hold `Rc`-based closed
//! forms, so a fleet stays on the thread that built it.
//!
//! [`AnswerCache`]: crate::AnswerCache

use std::path::{Path, PathBuf};
use std::rc::Rc;

use mira_arch::{load_dir, LoadError, LoadedDescription};
use mira_core::{analyze_source, MiraError, MiraOptions};
use mira_model::ModelError;
use mira_probe as probe;
use mira_roofline::{Ceilings, KernelRoofline, RooflineKey};

use crate::index::{BuildError, CompiledKernel, KernelId, ServeIndex};

/// A typed refusal while building or reloading a fleet. Every variant
/// names what it is attributable to: the file, the kernel, the kernel
/// under one roofline key, or the kernel × machine pair.
#[derive(Debug)]
pub enum FleetError {
    /// The description directory refused to load (unreadable file,
    /// parse error, duplicate machine name) — see [`LoadError`].
    Load(LoadError),
    /// The function is already admitted; a fleet compiles each source
    /// once per machine, so re-admitting would duplicate every pair.
    DuplicateKernel { func: String },
    /// The source pipeline refused the kernel. It runs once per kernel,
    /// whatever the machines, so no machine is to blame.
    Analyze { func: String, error: MiraError },
    /// The roofline model refused the kernel under one key, and so for
    /// every machine sharing that key.
    Model {
        func: String,
        key: RooflineKey,
        error: ModelError,
    },
    /// The kernel's model compiled for one machine refused admission.
    Build {
        func: String,
        machine: String,
        error: BuildError,
    },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Load(e) => write!(f, "fleet directory: {e}"),
            FleetError::DuplicateKernel { func } => {
                write!(f, "kernel `{func}` is already admitted to the fleet")
            }
            FleetError::Analyze { func, error } => write!(f, "analyzing `{func}`: {error}"),
            FleetError::Model { func, key, error } => {
                write!(f, "modeling `{func}` for machines with {key}: {error}")
            }
            FleetError::Build { func, machine, error } => {
                write!(f, "compiling `{func}` for machine `{machine}`: {error}")
            }
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Load(e) => Some(e),
            FleetError::DuplicateKernel { .. } => None,
            FleetError::Analyze { error, .. } => Some(error),
            FleetError::Model { error, .. } => Some(error),
            FleetError::Build { error, .. } => Some(error),
        }
    }
}

impl From<LoadError> for FleetError {
    fn from(e: LoadError) -> FleetError {
        FleetError::Load(e)
    }
}

/// What a [`MachineFleet::reload`] did, by machine name.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ReloadReport {
    /// Machines whose file text changed — their kernels were recompiled
    /// and swapped in place ([`KernelId`]s stable).
    pub changed: Vec<String>,
    /// Machines new to the directory — their kernels were added.
    pub added: Vec<String>,
    /// Machines whose files disappeared. Their kernels are gone and the
    /// index was rebuilt, so previously-issued [`KernelId`]s are void —
    /// re-[`find`](MachineFleet::find) after a removal.
    pub removed: Vec<String>,
    /// Compiled kernels swapped or added by this reload.
    pub recompiled: usize,
}

impl ReloadReport {
    /// Nothing changed on disk; every served answer is as before.
    pub fn is_noop(&self) -> bool {
        self.changed.is_empty() && self.added.is_empty() && self.removed.is_empty()
    }
}

/// One admitted kernel source and its roofline models, one per
/// [`RooflineKey`] some fleet machine uses.
#[derive(Clone, Debug)]
struct KernelSource {
    func: String,
    src: String,
    models: Vec<(RooflineKey, Rc<KernelRoofline>)>,
}

impl KernelSource {
    fn model(&self, key: &RooflineKey) -> Option<&Rc<KernelRoofline>> {
        self.models.iter().find(|(k, _)| k == key).map(|(_, m)| m)
    }
}

/// A directory-backed serving fleet: one [`ServeIndex`] entry per
/// admitted kernel × loaded machine, reloadable in place. See the
/// [module docs](self).
pub struct MachineFleet {
    dir: PathBuf,
    options: MiraOptions,
    machines: Vec<LoadedDescription>,
    sources: Vec<KernelSource>,
    index: ServeIndex,
}

impl MachineFleet {
    /// Load every `*.ini` description in `dir` (all-or-nothing; see
    /// [`mira_arch::load_dir`]) into an empty fleet with default
    /// compiler options.
    pub fn load(dir: &Path) -> Result<MachineFleet, FleetError> {
        MachineFleet::load_with(dir, MiraOptions::default())
    }

    /// [`MachineFleet::load`] with explicit pipeline options. The
    /// `arch` field of `options` is ignored — each machine's loaded
    /// description supplies its own roofline key and ceilings.
    pub fn load_with(dir: &Path, options: MiraOptions) -> Result<MachineFleet, FleetError> {
        let machines = load_dir(dir)?;
        Ok(MachineFleet {
            dir: dir.to_path_buf(),
            options,
            machines,
            sources: Vec::new(),
            index: ServeIndex::new(),
        })
    }

    /// The directory this fleet watches.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The loaded machine descriptions, in file-name order.
    pub fn machines(&self) -> impl Iterator<Item = &LoadedDescription> {
        self.machines.iter()
    }

    /// The admitted kernel function names, in admission order.
    pub fn funcs(&self) -> impl Iterator<Item = &str> {
        self.sources.iter().map(|s| s.func.as_str())
    }

    /// The serving index — query it directly with
    /// [`ServeIndex::run_batch`] and friends.
    pub fn index(&self) -> &ServeIndex {
        &self.index
    }

    /// Look up the [`KernelId`] serving `func` on `machine`.
    pub fn find(&self, func: &str, machine: &str) -> Option<KernelId> {
        self.index.find(func, machine)
    }

    /// Analyze `src` once and admit `func` against **every** loaded
    /// machine, returning the new ids in machine order. All-or-nothing:
    /// the roofline of every key and the compilation for every machine
    /// must succeed before any entry is added, so a refusal on one
    /// machine never leaves the cross product partially served.
    pub fn admit_source(&mut self, func: &str, src: &str) -> Result<Vec<KernelId>, FleetError> {
        if self.sources.iter().any(|s| s.func == func) {
            return Err(FleetError::DuplicateKernel {
                func: func.to_string(),
            });
        }
        let mut sp = probe::span("fleet.admit", "serve");
        sp.arg("func", func);
        let (keys, key_of) = keys_of(&self.machines);
        let models = model_keys(&self.options, func, src, &keys)?;
        let mut built = Vec::with_capacity(self.machines.len());
        for (m, &ki) in self.machines.iter().zip(&key_of) {
            built.push(compile(&models[ki], m)?);
        }
        sp.arg("analyses", usize::from(!keys.is_empty()));
        sp.arg("models", models.len());
        sp.arg("compiled", built.len());
        let mut ids = Vec::with_capacity(built.len());
        for (k, m) in built.into_iter().zip(&self.machines) {
            // `sources` guards func uniqueness and `load_dir` guards
            // machine-name uniqueness, so this cannot refuse — but a
            // typed error beats trusting that across refactors
            let id = self.index.insert(k).map_err(|error| FleetError::Build {
                func: func.to_string(),
                machine: m.name().to_string(),
                error,
            })?;
            ids.push(id);
        }
        self.sources.push(KernelSource {
            func: func.to_string(),
            src: src.to_string(),
            models: keys.into_iter().zip(models).collect(),
        });
        Ok(ids)
    }

    /// Re-read the directory and bring the index up to date:
    ///
    /// * **changed** files (text comparison, not timestamps) get every
    ///   kernel recompiled under the new description and swapped in
    ///   place — [`KernelId`]s stable, swap generation bumped so answer
    ///   caches self-invalidate;
    /// * **added** files get every admitted kernel compiled and added;
    /// * **removed** files force a full index rebuild (ids void).
    ///
    /// Only a machine whose [`RooflineKey`] no kernel has a model for
    /// yet re-runs the source pipeline (once per kernel); every other
    /// change only recompiles from the kept rooflines. Rooflines of
    /// keys no machine uses any more are dropped.
    ///
    /// Atomic against refusals: *every* new roofline and recompilation
    /// (and the full directory re-load) must succeed before the first
    /// swap, so a malformed file or a kernel that refuses under a new
    /// description leaves the fleet serving exactly its pre-reload
    /// answers.
    pub fn reload(&mut self) -> Result<ReloadReport, FleetError> {
        let fresh = load_dir(&self.dir)?;
        let mut report = ReloadReport::default();
        for old in &self.machines {
            if !fresh.iter().any(|m| m.name() == old.name()) {
                report.removed.push(old.name().to_string());
            }
        }
        for m in &fresh {
            match self.machines.iter().find(|o| o.name() == m.name()) {
                Some(old) if old.text == m.text => {}
                Some(_) => report.changed.push(m.name().to_string()),
                None => report.added.push(m.name().to_string()),
            }
        }
        if report.is_noop() {
            return Ok(report);
        }
        let mut sp = probe::span("fleet.reload", "serve");
        let (keys, key_of) = keys_of(&fresh);
        // every kernel's models for exactly the fresh keys: kept ones
        // shared, missing ones built from one pipeline run per kernel
        let (mut analyses, mut new_models) = (0, 0);
        let mut next = Vec::with_capacity(self.sources.len());
        for s in &self.sources {
            let missing: Vec<RooflineKey> = keys
                .iter()
                .filter(|k| s.model(k).is_none())
                .cloned()
                .collect();
            analyses += usize::from(!missing.is_empty());
            new_models += missing.len();
            // one model per missing key, in key order
            let mut built = model_keys(&self.options, &s.func, &s.src, &missing)?.into_iter();
            let mut models = Vec::with_capacity(keys.len());
            for k in &keys {
                match s.model(k) {
                    Some(m) => models.push(Rc::clone(m)),
                    None => models.extend(built.next()),
                }
            }
            next.push(models);
        }
        sp.arg("analyses", analyses);
        sp.arg("models", new_models);
        // a machine that left forces a rebuild over the remaining cross
        // product; otherwise only touched machines recompile
        let rebuild = !report.removed.is_empty();
        let mut built = Vec::new();
        for (m, &ki) in fresh.iter().zip(&key_of) {
            let touched = rebuild
                || report.changed.iter().any(|n| n == m.name())
                || report.added.iter().any(|n| n == m.name());
            if touched {
                for models in &next {
                    built.push(compile(&models[ki], m)?);
                }
            }
        }
        sp.arg("compiled", built.len());
        report.recompiled = built.len();
        if rebuild {
            // carry the generation forward so stale caches still
            // self-invalidate
            let mut index = ServeIndex::new();
            for k in built {
                let (func, machine) = (k.func().to_string(), k.machine().to_string());
                index.insert(k).map_err(|error| FleetError::Build {
                    func,
                    machine,
                    error,
                })?;
            }
            index.set_generation(self.index.generation() + 1);
            self.index = index;
        } else {
            for k in built {
                self.index.replace(k);
            }
        }
        for (s, models) in self.sources.iter_mut().zip(next) {
            s.models = keys.iter().cloned().zip(models).collect();
        }
        self.machines = fresh;
        Ok(report)
    }
}

/// The distinct roofline keys of `machines` in first-use order, and
/// each machine's position in that list.
fn keys_of(machines: &[LoadedDescription]) -> (Vec<RooflineKey>, Vec<usize>) {
    let mut keys: Vec<RooflineKey> = Vec::new();
    let mut key_of = Vec::with_capacity(machines.len());
    for m in machines {
        let key = RooflineKey::of(&m.desc);
        match keys.iter().position(|k| *k == key) {
            Some(i) => key_of.push(i),
            None => {
                key_of.push(keys.len());
                keys.push(key);
            }
        }
    }
    (keys, key_of)
}

/// Run the source pipeline on `src` once and model `func` under each of
/// `keys`, in order. No keys, no pipeline run.
fn model_keys(
    options: &MiraOptions,
    func: &str,
    src: &str,
    keys: &[RooflineKey],
) -> Result<Vec<Rc<KernelRoofline>>, FleetError> {
    if keys.is_empty() {
        return Ok(Vec::new());
    }
    let analysis = analyze_source(src, options).map_err(|error| FleetError::Analyze {
        func: func.to_string(),
        error,
    })?;
    keys.iter()
        .map(|key| {
            KernelRoofline::analyze_keyed(&analysis, key, func)
                .map(Rc::new)
                .map_err(|error| FleetError::Model {
                    func: func.to_string(),
                    key: key.clone(),
                    error,
                })
        })
        .collect()
}

/// Compile one kernel's roofline for one machine's ceilings.
fn compile(kr: &KernelRoofline, m: &LoadedDescription) -> Result<CompiledKernel, FleetError> {
    let c = Ceilings::from_arch(&m.desc);
    CompiledKernel::build(kr, &c, m.name()).map_err(|error| FleetError::Build {
        func: kr.func.clone(),
        machine: m.name().to_string(),
        error,
    })
}
