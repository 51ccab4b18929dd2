//! The three operations a run makes — admit a kernel, answer a query,
//! run one what-if cycle — together with the set-up they share
//! and the checks that every answer is right.
//!
//! Every public library call is wrapped in a `bench`-category probe span
//! (or, on the per-query hot path, a probe accumulator). With no probe
//! capture installed those are a flag test each, so untraced runs
//! measure the library alone; the traced rounds of a `--trace 1` run
//! install a capture and read per-layer self times from it.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use mira_arch::{load_dir, ArchDescription, LoadedDescription};
use mira_core::{analyze_object, analyze_source, MiraOptions};
use mira_probe as probe;
use mira_roofline::{Ceilings, Crossover, KernelRoofline, Placement};
use mira_serve::{
    AnswerCache, CompiledKernel, KernelId, MachineFleet, Query, Scratch, ServeError, ServeIndex,
    MAX_QUERY_PARAMS,
};
use mira_sym::Bindings;

use crate::inputs::{self, Kernel, Machine};
use crate::rng::{Rng, Zipf};
use crate::stats::{same_answer, Fnv, Reservoir};

/// Parameter values drawn per kernel × machine pair for the query pool.
const POOL_PER_PAIR: usize = 128;
/// Pool entries re-derived with the tree walk after every query slice.
const TREE_CHECKS_PER_SLICE: usize = 48;
/// Queries per Zipf burst of a what-if cycle: log-spread over this
/// range, as dashboards refresh a few points or a whole sweep. The
/// answer cache holds every key a burst can draw.
const BURST: (i64, i64) = (64, 8192);
const CACHE_SLOTS: usize = 4096;
/// Distinct sizes in a burst's hot set (drawn afresh each cycle), and
/// the Zipf exponent over them.
const HOT_SIZES: usize = 16;
const ZIPF_S: f64 = 1.2;
/// Burst answers re-derived with the tree walk per cycle, and the
/// stride of those re-derived uncached.
const BURST_TREE_CHECKS: usize = 8;
const BURST_DIRECT_STRIDE: usize = 8;
/// The crossover window of every what-if table.
const XO_LO: i128 = 2;
const XO_HI: i128 = 512;
/// Queries per `run_batch` / `run_batch_sharded` call of the traced run.
pub const BATCH: usize = 4096;
/// Latency samples kept for the query percentiles (uniform reservoir).
const QUERY_RESERVOIR: usize = 1 << 20;

/// Operation counts and everything that went wrong.
#[derive(Default, Debug)]
pub struct Tally {
    pub attempted: u64,
    /// Refused operations: an admission, reload or query the library
    /// answered with an error.
    pub failed: u64,
    /// Crossover-table rows compared with the exhaustive sweep, and
    /// those that disagree with it. A disagreeing row is the known
    /// single-bisection defect (one crossing found where the regime
    /// changes twice), kept visible in its own count rather than as a
    /// failed operation: the table call itself succeeds.
    pub crossover_rows: u64,
    pub crossover_disagreeing: u64,
    /// Crossover rows (`func@machine`) found to disagree with the sweep.
    pub crossover_mismatches: std::collections::BTreeSet<String>,
    /// Wrong answers: compiled vs tree walk, cached vs uncached, replay
    /// vs fleet. Any entry fails the run.
    pub wrong: Vec<String>,
}

impl Tally {
    fn wrong(&mut self, what: String) {
        if self.wrong.len() < 20 {
            eprintln!("WRONG: {what}");
        }
        self.wrong.push(what);
    }
}

/// Latency samples of one run (or of the traced rounds of a run).
pub struct Samples {
    pub admit_ms: Vec<f64>,
    pub admit_pairs: u64,
    pub admit_busy_s: f64,
    pub query_us: Reservoir,
    pub query_busy_s: f64,
    pub whatif_ms: Vec<f64>,
    pub whatif_busy_s: f64,
}

impl Samples {
    pub fn new(seed: u64) -> Samples {
        Samples {
            admit_ms: Vec::with_capacity(1 << 16),
            admit_pairs: 0,
            admit_busy_s: 0.0,
            query_us: Reservoir::new(QUERY_RESERVOIR, seed),
            query_busy_s: 0.0,
            whatif_ms: Vec::with_capacity(1 << 14),
            whatif_busy_s: 0.0,
        }
    }
}

/// Counts gathered beside the spans, in traced rounds only.
#[derive(Default, Debug)]
pub struct LayerCounts {
    pub analysed: u64,
    pub nest_models: u64,
    pub reloads: u64,
    pub recompiled: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_invalidations: u64,
    pub sharded_workers: usize,
}

/// A what-if burst's query for one kernel × machine pair, less its size:
/// the pair's id in the what-if fleet and its [`inputs::table_base`]
/// values, with the slot the burst's size goes into.
struct BurstPair {
    id: KernelId,
    values: [i128; MAX_QUERY_PARAMS],
    n: usize,
    slot: usize,
}

/// One query of the pool with its reference answer.
struct PoolEntry {
    id: KernelId,
    kernel: usize,
    machine: usize,
    n: usize,
    values: [i128; MAX_QUERY_PARAMS],
    reference: Result<Placement, ServeError>,
}

/// What an admit pass admits into.
enum Target {
    Fleet(MachineFleet),
    /// The replay's machine descriptions and its own index.
    Replay(Vec<LoadedDescription>, ServeIndex),
}

/// An admit pass in progress.
struct Pass {
    target: Target,
    /// Position in the admit list of the next kernel.
    next: usize,
    /// Over every first answer of the pass so far.
    hash: Fnv,
}

/// Static facts about one fixed kernel.
struct KernelInfo {
    func: String,
    params: Vec<String>,
    has_n: bool,
    /// The tree-walk model (closed forms shared by all machines, whose
    /// descriptions differ only in ceilings).
    roofline: KernelRoofline,
}

pub struct State {
    seed: u64,
    admit_dir: PathBuf,
    whatif_dir: PathBuf,
    /// `states[m][s]`: machine `m` in edit state `s` (0 = base).
    states: Vec<Vec<Machine>>,
    ceilings: Vec<Vec<Ceilings>>,
    admit_list: Vec<Kernel>,
    /// The untraced and the traced admit pass in progress.
    passes: [Option<Pass>; 2],
    kinfo: Vec<KernelInfo>,
    kernel_of: HashMap<String, usize>,
    machine_of: HashMap<String, usize>,
    serving: MachineFleet,
    whatif: MachineFleet,
    whatif_state: Vec<usize>,
    pool: Vec<PoolEntry>,
    pool_queries: Vec<Query>,
    pub pool_hash: u64,
    query_cursor: usize,
    tree_cursor: usize,
    scratch: Scratch,
    hot_sizes: Vec<i128>,
    zipf: Zipf,
    cache: AnswerCache,
    edit_rng: Rng,
    burst_rng: Rng,
    sweep_memo: HashMap<(usize, usize, usize), Result<Option<Crossover>, String>>,
    /// `burst_pairs[kernel * machines + machine]`.
    burst_pairs: Vec<BurstPair>,
    burst: Vec<(Query, usize, usize, Result<Placement, ServeError>)>,
    /// First-answer hash of an admit pass (every pass must agree).
    pub admit_hash: Option<u64>,
    /// Hash over every what-if cycle's table rows and burst answers.
    pub whatif_hash: Fnv,
    pub whatif_cycles: u64,
    pub tally: Tally,
    pub layers: LayerCounts,
}

fn mkdir_with_machines(dir: &Path, ms: &[Machine]) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create machine directory");
    for m in ms {
        std::fs::write(dir.join(format!("{}.ini", m.name)), m.ini()).expect("write machine file");
    }
}

fn fleet_of(dir: &Path, kernels: &[Kernel]) -> MachineFleet {
    let mut f = MachineFleet::load(dir).expect("machine directory loads");
    for k in kernels {
        f.admit_source(&k.func, &k.src)
            .unwrap_or_else(|e| panic!("set-up admits {}: {e}", k.func));
    }
    f
}

fn bindings_of(params: &[String], values: &[i128]) -> Bindings {
    params.iter().cloned().zip(values.iter().copied()).collect()
}

impl State {
    /// Build everything the measured window needs, from the seed alone.
    pub fn setup(seed: u64, root: &Path) -> State {
        let states = inputs::machines(seed);
        let bases: Vec<Machine> = states.iter().map(|s| s[0].clone()).collect();
        let ceilings = states
            .iter()
            .map(|ss| {
                ss.iter()
                    .map(|m| {
                        Ceilings::from_arch(
                            &ArchDescription::parse(&m.ini()).expect("machine file parses"),
                        )
                    })
                    .collect()
            })
            .collect();
        let admit_dir = root.join("admit");
        let serve_dir = root.join("serve");
        let whatif_dir = root.join("whatif");
        for d in [&admit_dir, &serve_dir, &whatif_dir] {
            mkdir_with_machines(d, &bases);
        }
        let fixed = inputs::fixed_kernels(seed);
        let mut admit_list = fixed.clone();
        admit_list.extend(inputs::generated_kernels(seed));
        Rng::fork(seed, 4).shuffle(&mut admit_list);

        let serving = fleet_of(&serve_dir, &fixed);
        let whatif = fleet_of(&whatif_dir, &fixed);
        let machine_of: HashMap<String, usize> = bases
            .iter()
            .enumerate()
            .map(|(i, m)| (m.name.clone(), i))
            .collect();
        let kernel_of: HashMap<String, usize> = fixed
            .iter()
            .enumerate()
            .map(|(i, k)| (k.func.clone(), i))
            .collect();
        let generic = MiraOptions::default();
        let kinfo: Vec<KernelInfo> = fixed
            .iter()
            .map(|k| {
                let a = analyze_source(&k.src, &generic).expect("fixed kernel analyses");
                let roofline = KernelRoofline::analyze(&a, &k.func).expect("fixed kernel models");
                let id = serving
                    .find(&k.func, &bases[0].name)
                    .expect("kernel admitted");
                let params = serving
                    .index()
                    .kernel(id)
                    .expect("kernel")
                    .params()
                    .to_vec();
                KernelInfo {
                    func: k.func.clone(),
                    has_n: params.iter().any(|p| p == "n"),
                    params,
                    roofline,
                }
            })
            .collect();

        // the query pool: log-spread values per pair, answered once here
        // as the reference every served answer must equal bit for bit
        let mut rng = Rng::fork(seed, 5);
        let mut pool = Vec::new();
        let mut s = Scratch::new();
        for (ki, info) in kinfo.iter().enumerate() {
            for (mi, m) in bases.iter().enumerate() {
                let id = serving.find(&info.func, &m.name).expect("pair admitted");
                for _ in 0..POOL_PER_PAIR {
                    let mut values = [0i128; MAX_QUERY_PARAMS];
                    for (slot, p) in info.params.iter().enumerate() {
                        values[slot] = inputs::draw(&mut rng, p);
                    }
                    let n = info.params.len();
                    let reference = serving
                        .index()
                        .kernel(id)
                        .expect("kernel")
                        .place_values(&values[..n], &mut s);
                    pool.push(PoolEntry {
                        id,
                        kernel: ki,
                        machine: mi,
                        n,
                        values,
                        reference,
                    });
                }
            }
        }
        rng.shuffle(&mut pool);
        let mut pool_hash = Fnv::default();
        for e in &pool {
            pool_hash.placement(&e.reference);
        }
        let pool_queries: Vec<Query> = pool
            .iter()
            .map(|e| Query {
                kernel: e.id,
                values: e.values,
            })
            .collect();
        let burst_pairs = kinfo
            .iter()
            .flat_map(|info| {
                let base = inputs::table_base(&info.params);
                let mut values = [0i128; MAX_QUERY_PARAMS];
                values[..base.len()].copy_from_slice(&base);
                let slot = inputs::size_slot(&info.params);
                let whatif = &whatif;
                bases.iter().map(move |m| BurstPair {
                    id: whatif.find(&info.func, &m.name).expect("pair served"),
                    values,
                    n: base.len(),
                    slot,
                })
            })
            .collect();
        // touched up front, so peak memory does not depend on the
        // largest burst a run happens to draw
        let mut burst =
            vec![(pool_queries[0], 0, 0, Err(ServeError::UnknownKernel)); BURST.1 as usize];
        burst.clear();
        State {
            seed,
            admit_dir,
            whatif_dir,
            whatif_state: vec![0; states.len()],
            states,
            ceilings,
            admit_list,
            passes: [None, None],
            kinfo,
            kernel_of,
            machine_of,
            serving,
            whatif,
            pool,
            pool_queries,
            pool_hash: pool_hash.0,
            query_cursor: 0,
            tree_cursor: 0,
            scratch: s,
            hot_sizes: vec![0; HOT_SIZES],
            zipf: Zipf::new(HOT_SIZES, ZIPF_S),
            cache: AnswerCache::new(CACHE_SLOTS),
            edit_rng: Rng::fork(seed, 6),
            burst_rng: Rng::fork(seed, 7),
            sweep_memo: HashMap::new(),
            burst_pairs,
            burst,
            admit_hash: None,
            whatif_hash: Fnv::default(),
            whatif_cycles: 0,
            tally: Tally::default(),
            layers: LayerCounts::default(),
        }
    }

    pub fn serving(&self) -> &MachineFleet {
        &self.serving
    }

    /// Kernels in one admit pass.
    pub fn admit_len(&self) -> usize {
        self.admit_list.len()
    }

    // ------------------------------------------------------------ admit

    /// Admit the next kernel of the admit pass in progress. A pass loads
    /// a fresh fleet from the four description files, then admits every
    /// kernel of the admit list against all four machines and answers
    /// each new pair once; a pass is made one kernel per call. One
    /// sample per kernel: from the admission call to its first answers.
    /// Untraced passes call `MachineFleet::admit_source`; traced passes
    /// (kept apart) replay it call by call under spans. Returns whether
    /// the pass is still in progress.
    pub fn admit_step(&mut self, samples: &mut Samples, replay: bool) -> bool {
        let started = Instant::now();
        let mut pass = match self.passes[replay as usize].take() {
            Some(p) => p,
            None => self.start_pass(replay),
        };
        let start_s = started.elapsed().as_secs_f64();
        let k = std::mem::take(&mut self.admit_list[pass.next]);
        let t = Instant::now();
        self.tally.attempted += 1;
        match &mut pass.target {
            Target::Fleet(fleet) => self.fleet_admit(fleet, &k, samples, &mut pass.hash),
            Target::Replay(descs, index) => {
                self.replay_admit(descs, index, &k, samples, &mut pass.hash)
            }
        }
        let dt = t.elapsed().as_secs_f64();
        samples.admit_ms.push(dt * 1e3);
        samples.admit_busy_s += start_s + dt;
        self.admit_list[pass.next] = k;
        pass.next += 1;
        if pass.next < self.admit_list.len() {
            self.passes[replay as usize] = Some(pass);
            return true;
        }
        match self.admit_hash {
            None => self.admit_hash = Some(pass.hash.0),
            Some(h) if h != pass.hash.0 => self.tally.wrong(format!(
                "admit pass answers hash {:016x}, an earlier pass {h:016x}",
                pass.hash.0
            )),
            Some(_) => {}
        }
        false
    }

    fn start_pass(&self, replay: bool) -> Pass {
        let target = if replay {
            let _sp = probe::span("arch.load_dir", "bench");
            let descs = load_dir(&self.admit_dir).expect("machine directory loads");
            Target::Replay(descs, ServeIndex::new())
        } else {
            Target::Fleet(MachineFleet::load(&self.admit_dir).expect("machine directory loads"))
        };
        Pass {
            target,
            next: 0,
            hash: Fnv::default(),
        }
    }

    fn first_answer(&mut self, index: &ServeIndex, func: &str, id: KernelId, hash: &mut Fnv) {
        let _sp = probe::span("serve.first_place", "bench");
        let params = index.kernel(id).expect("admitted kernel").params().to_vec();
        let values = inputs::first_values(self.seed, func, &params);
        let mut s = Scratch::new();
        let r = index
            .query(id, &values)
            .and_then(|q| index.place(&q, &mut s));
        self.tally.attempted += 1;
        if r.is_err() {
            self.tally.failed += 1;
        }
        hash.placement(&r);
    }

    fn fleet_admit(
        &mut self,
        fleet: &mut MachineFleet,
        k: &Kernel,
        samples: &mut Samples,
        hash: &mut Fnv,
    ) {
        match fleet.admit_source(&k.func, &k.src) {
            Ok(ids) => {
                samples.admit_pairs += ids.len() as u64;
                for id in ids {
                    self.first_answer(fleet.index(), &k.func, id, hash);
                }
            }
            Err(e) => {
                self.tally.failed += 1;
                eprintln!("admit refused {}: {e}", k.func);
                hash.byte(0xfe);
            }
        }
    }

    fn replay_admit(
        &mut self,
        descs: &[LoadedDescription],
        index: &mut ServeIndex,
        k: &Kernel,
        samples: &mut Samples,
        hash: &mut Fnv,
    ) {
        let _sp = probe::span("bench.admit", "bench");
        let mut built: Vec<CompiledKernel> = Vec::with_capacity(descs.len());
        for m in descs {
            match self.replay_one(k, &m.desc, m.name()) {
                Ok(c) => built.push(c),
                Err(e) => {
                    eprintln!("replay refused {} on {}: {e}", k.func, m.name());
                    break;
                }
            }
        }
        if built.len() < descs.len() {
            self.tally.failed += 1;
            hash.byte(0xfe);
            return;
        }
        let ids: Vec<KernelId> = built
            .into_iter()
            .map(|c| index.insert(c).expect("fresh pair"))
            .collect();
        samples.admit_pairs += ids.len() as u64;
        for id in ids {
            self.first_answer(index, &k.func, id, hash);
        }
    }

    /// What `MachineFleet::admit_source` does for one machine, one
    /// public call per span — then a separate `mem::analyze_program`
    /// call on the same program, repeating work `KernelRoofline::analyze`
    /// does inside.
    fn replay_one(
        &mut self,
        k: &Kernel,
        desc: &ArchDescription,
        machine: &str,
    ) -> Result<CompiledKernel, String> {
        let opts = MiraOptions {
            arch: desc.clone(),
            ..MiraOptions::default()
        };
        let program = {
            let _sp = probe::span("minic.frontend", "bench");
            mira_minic::frontend(&k.src).map_err(|e| e.to_string())?
        };
        let object = {
            let _sp = probe::span("vcc.compile", "bench");
            mira_vcc::compile(&program, &opts.compiler).map_err(|e| e.to_string())?
        };
        let analysis = {
            let _sp = probe::span("core.analyze_object", "bench");
            analyze_object(program, object, &opts).map_err(|e| e.to_string())?
        };
        let kr = {
            let _sp = probe::span("roofline.analyze", "bench");
            KernelRoofline::analyze(&analysis, &k.func).map_err(|e| e.to_string())?
        };
        self.layers.analysed += 1;
        self.layers.nest_models += kr.nest_model.is_some() as u64;
        let built = {
            let _sp = probe::span("serve.build", "bench");
            let c = Ceilings::from_arch(&analysis.arch);
            CompiledKernel::build(&kr, &c, machine).map_err(|e| e.to_string())
        };
        // last, so the calls before it run exactly as in admit_source
        let _sp = probe::span("mem.analyze_program", "bench");
        std::hint::black_box(mira_mem::analyze_program(&analysis.program));
        built
    }

    // ------------------------------------------------------------ query

    /// Single queries against the serving fleet, one at a time, until
    /// `budget_s` seconds of query time have been measured and at least
    /// `min_ops` queries made; then a rotating subsample of the pool is
    /// re-derived with the tree walk. With `batches`, also one
    /// `run_batch` and one sharded batch. Returns the queries made.
    pub fn query_slice(
        &mut self,
        samples: &mut Samples,
        budget_s: f64,
        min_ops: u64,
        batches: bool,
    ) -> u64 {
        let index = self.serving.index();
        let mut busy = 0.0;
        let mut ops = 0u64;
        let mut failed = 0u64;
        let mut wrong = Vec::new();
        while busy < budget_s || ops < min_ops {
            let e = &self.pool[self.query_cursor];
            self.query_cursor = (self.query_cursor + 1) % self.pool.len();
            let t = Instant::now();
            let q = {
                let _a = probe::accum("bench.serve.query");
                index.query(e.id, &e.values[..e.n])
            };
            let r = {
                let _a = probe::accum("bench.serve.place");
                q.and_then(|q| index.place(&q, &mut self.scratch))
            };
            let dt = t.elapsed().as_secs_f64();
            busy += dt;
            samples.query_us.push(dt * 1e6);
            ops += 1;
            if !same_answer(&r, &e.reference) {
                wrong.push(format!(
                    "query of pool entry answers {r:?}, reference {:?}",
                    e.reference
                ));
            } else if r.is_err() {
                failed += 1;
            }
        }
        samples.query_busy_s += busy;
        self.tally.attempted += ops;
        self.tally.failed += failed;
        for w in wrong {
            self.tally.wrong(w);
        }
        for _ in 0..TREE_CHECKS_PER_SLICE {
            let i = self.tree_cursor;
            self.tree_cursor = (self.tree_cursor + 1) % self.pool.len();
            self.check_tree(i);
        }
        if batches {
            self.batches();
        }
        ops
    }

    fn check_tree(&mut self, i: usize) {
        let e = &self.pool[i];
        let info = &self.kinfo[e.kernel];
        let b = bindings_of(&info.params, &e.values[..e.n]);
        let c = &self.ceilings[e.machine][0];
        let tree = {
            let _a = probe::accum("bench.roofline.place");
            info.roofline.place(c, &b)
        };
        if !same_answer(&tree, &e.reference) {
            let msg = format!(
                "{}@{}: tree walk {tree:?} vs compiled {:?}",
                info.func, self.states[e.machine][0].name, e.reference
            );
            self.tally.wrong(msg);
        }
    }

    /// One `run_batch` and one sharded batch over the next [`BATCH`]
    /// pool queries, answers checked against the references.
    fn batches(&mut self) {
        let start = self.query_cursor.min(self.pool.len().saturating_sub(BATCH));
        let qs = &self.pool_queries[start..(start + BATCH).min(self.pool.len())];
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let index = self.serving.index();
        let mut out = Vec::with_capacity(qs.len());
        {
            let _sp = probe::span("serve.run_batch", "bench");
            index.run_batch(qs, &mut self.scratch, &mut out);
        }
        let mut wrong = self.batch_mismatches(start, &out);
        {
            let _sp = probe::span("serve.run_batch_sharded", "bench");
            index.run_batch_sharded(qs, workers, &mut out);
        }
        self.layers.sharded_workers = ServeIndex::effective_workers(qs.len(), workers);
        wrong += self.batch_mismatches(start, &out);
        if wrong > 0 {
            self.tally.wrong(format!(
                "{wrong} batched answers differ from single queries"
            ));
        }
    }

    fn batch_mismatches(&self, start: usize, out: &[Result<Placement, ServeError>]) -> usize {
        out.iter()
            .zip(&self.pool[start..])
            .filter(|(a, e)| !same_answer(a, &e.reference))
            .count()
    }

    // ----------------------------------------------------------- what-if

    /// One what-if cycle: edit one machine file (bandwidth, peak or
    /// cache size), hot-reload the fleet, build the `n` crossover table
    /// over every pair, and answer a Zipf-skewed burst through the
    /// answer cache. One sample per cycle; the checks run after it.
    pub fn whatif_cycle(&mut self, samples: &mut Samples) {
        let m = self.edit_rng.below(self.states.len());
        let mut next = self.edit_rng.below(self.states[m].len() - 1);
        if next >= self.whatif_state[m] {
            next += 1;
        }
        // a fresh hot set per cycle: the sizes asked about change with
        // each edit, and no one seed's hot set dominates the run
        for size in &mut self.hot_sizes {
            *size = self.burst_rng.log_range(XO_LO as i64, 1 << 14) as i128;
        }
        let machine = &self.states[m][next];
        let t = Instant::now();
        let cycle = probe::span("bench.whatif", "bench");
        {
            let _sp = probe::span("bench.write_machine", "bench");
            std::fs::write(
                self.whatif_dir.join(format!("{}.ini", machine.name)),
                machine.ini(),
            )
            .expect("write machine file");
        }
        let report = {
            let _sp = probe::span("serve.reload", "bench");
            self.whatif.reload()
        };
        let rows = {
            let _sp = probe::span("serve.crossover_table", "bench");
            self.whatif
                .index()
                .crossover_table("n", inputs::TABLE_DEFAULTS, XO_LO, XO_HI, 1)
        };
        let cache_before = self.cache.probe();
        {
            let _sp = probe::span("bench.burst", "bench");
            let index = self.whatif.index();
            self.burst.clear();
            let len = self.burst_rng.log_range(BURST.0, BURST.1);
            for _ in 0..len {
                let ki = self.burst_rng.below(self.kinfo.len());
                let mi = self.burst_rng.below(self.states.len());
                let size = self.hot_sizes[self.zipf.sample(&mut self.burst_rng)];
                let p = &self.burst_pairs[ki * self.states.len() + mi];
                let mut values = p.values;
                values[p.slot] = size;
                let q = index.query(p.id, &values[..p.n]).expect("query arity");
                let r = {
                    let _a = probe::accum("bench.serve.place_cached");
                    index.place_cached(&q, &mut self.cache, &mut self.scratch)
                };
                self.burst.push((q, ki, mi, r));
            }
        }
        drop(cycle);
        let dt = t.elapsed().as_secs_f64();
        let cache = self.cache.probe();
        samples.whatif_ms.push(dt * 1e3);
        samples.whatif_busy_s += dt;
        self.whatif_cycles += 1;
        self.tally.attempted += 1;
        self.whatif_state[m] = next;

        if probe::enabled() {
            let l = &mut self.layers;
            l.cache_hits += cache.hits - cache_before.hits;
            l.cache_misses += cache.misses - cache_before.misses;
            l.cache_invalidations += cache.invalidations - cache_before.invalidations;
            l.reloads += 1;
            l.recompiled += report.as_ref().map_or(0, |r| r.recompiled as u64);
        }
        match report {
            Ok(r) => {
                if r.changed != [machine.name.clone()] || r.recompiled != self.kinfo.len() {
                    let msg = format!("reload after editing {} reported {r:?}", machine.name);
                    self.tally.wrong(msg);
                }
            }
            Err(e) => {
                self.tally.failed += 1;
                eprintln!("reload refused: {e}");
            }
        }
        self.check_rows(&rows);
        self.check_burst();
    }

    /// Every table row against the exhaustive tree-walk sweep of its
    /// pair under the machine's current description (memoised per pair
    /// and edit state). A kernel without `n` must be refused with a
    /// typed error and is not counted as an attempt.
    fn check_rows(&mut self, rows: &[mira_serve::CrossoverRow]) {
        for row in rows {
            let (Some(&ki), Some(&mi)) = (
                self.kernel_of.get(&row.func),
                self.machine_of.get(&row.machine),
            ) else {
                self.tally.wrong(format!(
                    "crossover row for unknown pair {}@{}",
                    row.func, row.machine
                ));
                continue;
            };
            let mut h = Fnv::default();
            h.bytes(row.func.as_bytes());
            h.bytes(row.machine.as_bytes());
            match &row.result {
                Ok(None) => h.byte(1),
                Ok(Some(c)) => {
                    h.byte(2);
                    h.bytes(&c.value.to_le_bytes());
                    h.byte(crate::stats::ceiling_byte(c.from));
                    h.byte(crate::stats::ceiling_byte(c.to));
                }
                Err(_) => h.byte(0xff),
            }
            self.whatif_hash.bytes(&h.0.to_le_bytes());
            if !self.kinfo[ki].has_n {
                if !matches!(row.result, Err(ServeError::UnknownParam(_))) {
                    self.tally.wrong(format!(
                        "{}@{}: expected a typed refusal, got {:?}",
                        row.func, row.machine, row.result
                    ));
                }
                continue;
            }
            self.tally.attempted += 1;
            self.tally.crossover_rows += 1;
            let key = (ki, mi, self.whatif_state[mi]);
            if !self.sweep_memo.contains_key(&key) {
                let info = &self.kinfo[ki];
                let b = bindings_of(&info.params, &inputs::table_base(&info.params));
                let c = &self.ceilings[mi][self.whatif_state[mi]];
                let sweep = {
                    let _a = probe::accum("bench.roofline.crossover_sweep");
                    info.roofline.crossover_sweep(c, "n", &b, XO_LO, XO_HI)
                };
                self.sweep_memo
                    .insert(key, sweep.map_err(|e| e.to_string()));
            }
            let oracle = &self.sweep_memo[&key];
            let agrees = match (&row.result, oracle) {
                (Ok(a), Ok(b)) => a == b,
                (Err(_), Err(_)) => true,
                _ => false,
            };
            if !agrees {
                self.tally.crossover_disagreeing += 1;
                self.tally
                    .crossover_mismatches
                    .insert(format!("{}@{}", row.func, row.machine));
            }
        }
    }

    /// Burst answers: every answer is hashed, every
    /// [`BURST_DIRECT_STRIDE`]-th equals the uncached compiled answer,
    /// and a subsample equals the tree walk under the machine's current
    /// description.
    fn check_burst(&mut self) {
        let index = self.whatif.index();
        let mut wrong = Vec::new();
        let mut failed = 0;
        for (i, (q, ki, mi, r)) in self.burst.iter().enumerate() {
            self.whatif_hash.placement(r);
            if r.is_err() {
                failed += 1;
            }
            if i % BURST_DIRECT_STRIDE == 0 {
                let direct = index.place(q, &mut self.scratch);
                if !same_answer(r, &direct) {
                    wrong.push(format!("cached {r:?} vs uncached {direct:?}"));
                }
            }
            if i % (self.burst.len() / BURST_TREE_CHECKS).max(1) == 0 {
                let info = &self.kinfo[*ki];
                let n = info.params.len();
                let b = bindings_of(&info.params, &q.values[..n]);
                let c = &self.ceilings[*mi][self.whatif_state[*mi]];
                let tree = {
                    let _a = probe::accum("bench.roofline.place");
                    info.roofline.place(c, &b)
                };
                if !same_answer(&tree, r) {
                    wrong.push(format!(
                        "{}@{}: tree walk {tree:?} vs served {r:?}",
                        info.func, self.states[*mi][0].name
                    ));
                }
            }
        }
        self.tally.attempted += self.burst.len() as u64;
        self.tally.failed += failed;
        for w in wrong {
            self.tally.wrong(w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers;

    /// A scratch directory of this test process under the package's
    /// build directory.
    fn scratch(tag: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join(format!("test-{tag}-{}", std::process::id()))
    }

    /// One whole admit pass (none may be in progress in this mode).
    fn admit_pass(st: &mut State, s: &mut Samples, replay: bool) {
        for i in 1..=st.admit_list.len() {
            assert_eq!(st.admit_step(s, replay), i < st.admit_list.len());
        }
        assert!(st.passes[replay as usize].is_none(), "the pass completed");
    }

    /// Inputs and answer hashes of a fixed sequence: set-up, one admit
    /// pass, one query slice and three what-if cycles.
    fn run(seed: u64, tag: &str) -> (Vec<Kernel>, u64, u64, u64) {
        let dir = scratch(tag);
        let mut st = State::setup(seed, &dir);
        let mut s = Samples::new(seed);
        admit_pass(&mut st, &mut s, false);
        st.query_slice(&mut s, 0.0, 1000, false);
        for _ in 0..3 {
            st.whatif_cycle(&mut s);
        }
        let _ = std::fs::remove_dir_all(&dir);
        assert!(
            st.tally.wrong.is_empty(),
            "wrong answers: {:?}",
            st.tally.wrong
        );
        let admit = st.admit_hash.expect("one admit pass ran");
        (st.admit_list.clone(), st.pool_hash, admit, st.whatif_hash.0)
    }

    #[test]
    fn same_seed_same_inputs_and_answers_other_seed_differs() {
        let a = run(3, "a");
        let b = run(3, "b");
        assert_eq!(a, b);
        let c = run(4, "c");
        assert_ne!(a.0, c.0, "admit list");
        assert_ne!(a.1, c.1, "query pool answers");
        assert_ne!(a.3, c.3, "what-if answers");
    }

    #[test]
    fn traced_replay_answers_like_the_fleet() {
        let dir = scratch("replay");
        let mut st = State::setup(7, &dir);
        let mut s = Samples::new(7);
        admit_pass(&mut st, &mut s, false);
        let ((), trace) = probe::capture(|| admit_pass(&mut st, &mut s, true));
        let _ = std::fs::remove_dir_all(&dir);
        // every completed pass's first answers are compared with the first
        assert!(
            st.tally.wrong.is_empty(),
            "wrong answers: {:?}",
            st.tally.wrong
        );
        assert_eq!(st.tally.failed, 0, "every admission succeeds");
        let ns = layers::nodes(&trace);
        let admissions = layers::per_unit(&ns, "bench.admit");
        assert_eq!(admissions.len(), st.admit_list.len());
        for a in &admissions {
            for layer in [
                "minic.frontend",
                "vcc.compile",
                "core.analyze_object",
                "roofline.analyze",
                "serve.build",
            ] {
                assert!(a.contains_key(layer), "{layer} missing from {a:?}");
            }
        }
        assert_eq!(st.layers.analysed, 4 * st.admit_list.len() as u64);
    }

    /// The generator stays inside what the pipeline admits: every
    /// generated function analyses, models and compiles.
    #[test]
    fn generated_sources_admit() {
        let opts = MiraOptions::default();
        let c = Ceilings::from_arch(&opts.arch);
        for seed in 0..12 {
            for k in inputs::generated_kernels(seed) {
                let a = analyze_source(&k.src, &opts)
                    .unwrap_or_else(|e| panic!("seed {seed} {}: {e}\n{}", k.func, k.src));
                let kr = KernelRoofline::analyze(&a, &k.func)
                    .unwrap_or_else(|e| panic!("seed {seed} {}: {e:?}\n{}", k.func, k.src));
                CompiledKernel::build(&kr, &c, "generic-x86_64")
                    .unwrap_or_else(|e| panic!("seed {seed} {}: {e}\n{}", k.func, k.src));
            }
        }
    }
}
