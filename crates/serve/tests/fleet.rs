//! Fleet serving contracts: directory-loading refusals are typed and
//! all-or-nothing, hot-reload swaps changed machines atomically under
//! stable [`mira_serve::KernelId`]s, answer caches self-invalidate on
//! reload, and fleet-reloaded answers are bit-identical to the symbolic
//! tree walk under the edited description. The fleet analyses each
//! source once and shares one roofline per [`RooflineKey`]: its answers
//! must equal the per-machine full pipeline bit for bit, and probe spans
//! count the work it skips.

use std::fs;
use std::path::PathBuf;

use mira_arch::desc::DEFAULT_DESCRIPTION;
use mira_arch::{ArchDescription, LoadError};
use mira_core::{analyze_source, MiraOptions};
use mira_roofline::{Ceilings, KernelRoofline, MemLevel, Placement, RooflineKey};
use mira_serve::{
    machines, AnswerCache, CompiledKernel, FleetError, MachineFleet, Scratch, ServeError,
};

/// A fresh temp directory holding the two stock machine descriptions.
fn fleet_dir(tag: &str) -> PathBuf {
    dir_with(
        tag,
        &[
            ("generic.ini", DEFAULT_DESCRIPTION.to_string()),
            ("avx2.ini", machines::AVX2_FMA_DESCRIPTION.to_string()),
        ],
    )
}

/// Positional values for a kernel: `n` slots get `n0`, the rest 1.
fn base_values(fleet: &MachineFleet, id: mira_serve::KernelId, n0: i128) -> Vec<i128> {
    fleet
        .index()
        .kernel(id)
        .expect("kernel exists")
        .params()
        .iter()
        .map(|p| if p == "n" { n0 } else { 1 })
        .collect()
}

fn assert_bit_identical(a: &Placement, b: &Placement, ctx: &str) {
    assert_eq!(a.binding, b.binding, "{ctx}");
    assert_eq!(a.compute_cycles.to_bits(), b.compute_cycles.to_bits(), "{ctx} compute");
    for i in 0..3 {
        assert_eq!(a.mem_cycles[i].to_bits(), b.mem_cycles[i].to_bits(), "{ctx} mem[{i}]");
    }
}

/// The tree walk's placement of `func` under a description text, for
/// differential comparison against fleet-served answers.
fn tree_walk(desc_text: &str, func: &str, src: &str, values: &[(&str, i128)]) -> Placement {
    let arch = ArchDescription::parse(desc_text).expect("description parses");
    let opts = MiraOptions {
        arch,
        ..Default::default()
    };
    let analysis = analyze_source(src, &opts).expect("workload analyzes");
    let kr = KernelRoofline::analyze(&analysis, func).expect("roofline analyzes");
    let c = Ceilings::from_arch(&analysis.arch);
    kr.place(&c, &mira_sym::bindings(values)).expect("tree walk places")
}

#[test]
fn fleet_compiles_the_full_cross_product() {
    let dir = fleet_dir("cross");
    let mut fleet = MachineFleet::load(&dir).expect("fleet loads");
    assert_eq!(fleet.machines().count(), 2);
    let ids = fleet
        .admit_source("triad", mira_workloads::memval::TRIAD_SRC)
        .expect("triad admits");
    assert_eq!(ids.len(), 2, "one id per machine");
    fleet
        .admit_source("dgemm", mira_workloads::dgemm::DGEMM_SRC)
        .expect("dgemm admits");
    assert_eq!(fleet.index().len(), 4, "2 kernels x 2 machines");
    for func in ["triad", "dgemm"] {
        for machine in [machines::GENERIC, machines::AVX2_FMA] {
            assert!(fleet.find(func, machine).is_some(), "{func}@{machine}");
        }
    }
    assert_eq!(fleet.funcs().collect::<Vec<_>>(), ["triad", "dgemm"]);
    // re-admitting is a typed refusal, not 2 more shadowed entries
    match fleet.admit_source("triad", mira_workloads::memval::TRIAD_SRC) {
        Err(FleetError::DuplicateKernel { func }) => assert_eq!(func, "triad"),
        other => panic!("expected DuplicateKernel, got {:?}", other.map(|_| ())),
    }
    assert_eq!(fleet.index().len(), 4);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn malformed_description_is_a_typed_per_file_error() {
    let dir = fleet_dir("malformed");
    fs::write(dir.join("broken.ini"), "[machine]\ncores = banana\n").expect("write");
    match MachineFleet::load(&dir) {
        Err(FleetError::Load(LoadError::Parse { path, .. })) => {
            assert!(path.ends_with("broken.ini"), "error names the file: {path:?}");
        }
        Err(other) => panic!("expected Load(Parse), got {other:?}"),
        Ok(_) => panic!("malformed directory must refuse, not half-load"),
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn reload_is_atomic_against_a_malformed_edit() {
    let dir = fleet_dir("atomic");
    let mut fleet = MachineFleet::load(&dir).expect("fleet loads");
    let id = fleet
        .admit_source("triad", mira_workloads::memval::TRIAD_SRC)
        .expect("triad admits")[0];
    let q = fleet
        .index()
        .query(id, &base_values(&fleet, id, 4096))
        .expect("query builds");
    let mut s = Scratch::new();
    let before = fleet.index().place(&q, &mut s).expect("places");

    // an untouched directory reloads as a no-op
    let report = fleet.reload().expect("noop reload");
    assert!(report.is_noop());
    assert_eq!(report.recompiled, 0);

    // corrupt one file: reload refuses (typed, names the file) and the
    // fleet keeps serving exactly its pre-reload answers
    fs::write(dir.join("generic.ini"), "[machine\nname oops").expect("corrupt");
    match fleet.reload() {
        Err(FleetError::Load(LoadError::Parse { path, .. })) => {
            assert!(path.ends_with("generic.ini"));
        }
        other => panic!("expected Load(Parse), got {:?}", other.map(|_| ())),
    }
    let after = fleet.index().place(&q, &mut s).expect("still places");
    assert_bit_identical(&before, &after, "refused reload changes nothing");

    // restoring the original text reloads as a no-op again
    fs::write(dir.join("generic.ini"), DEFAULT_DESCRIPTION).expect("restore");
    assert!(fleet.reload().expect("reload").is_noop());
    let _ = fs::remove_dir_all(&dir);
}

/// The tentpole regression: edit a machine description, reload, and the
/// *new* model answers — under the same [`mira_serve::KernelId`], with
/// a filled [`AnswerCache`] self-invalidating, and bit-identical to the
/// tree walk under the edited description. Exactly the sequence the old
/// first-match index turned into silent stale serving.
#[test]
fn reload_swaps_changed_machines_under_stable_ids() {
    let dir = fleet_dir("swap");
    let mut fleet = MachineFleet::load(&dir).expect("fleet loads");
    fleet
        .admit_source("triad", mira_workloads::memval::TRIAD_SRC)
        .expect("triad admits");
    fleet
        .admit_source("dgemm", mira_workloads::dgemm::DGEMM_SRC)
        .expect("dgemm admits");
    let id = fleet.find("triad", machines::AVX2_FMA).expect("triad@avx2");
    let vals = base_values(&fleet, id, 4096);
    let q = fleet.index().query(id, &vals).expect("query builds");
    let mut s = Scratch::new();
    let mut cache = AnswerCache::new(256);
    let before = fleet
        .index()
        .place_cached(&q, &mut cache, &mut s)
        .expect("places");
    // the point is cached before the reload
    assert_eq!(cache.probe().len, 1);

    // double the avx2 machine's DRAM bandwidth and reload
    let edited = machines::AVX2_FMA_DESCRIPTION.replace(
        "[bandwidth dram]\nbytes_per_cycle = 8",
        "[bandwidth dram]\nbytes_per_cycle = 16",
    );
    assert_ne!(edited, machines::AVX2_FMA_DESCRIPTION, "edit applied");
    fs::write(dir.join("avx2.ini"), &edited).expect("edit avx2");
    let report = fleet.reload().expect("reload succeeds");
    assert_eq!(report.changed, ["avx2-fma"]);
    assert!(report.added.is_empty() && report.removed.is_empty());
    assert_eq!(report.recompiled, 2, "both kernels recompiled for the edited machine");

    // same id, new answers — through the cache, which self-invalidates
    assert_eq!(fleet.find("triad", machines::AVX2_FMA), Some(id), "id stable");
    let after = fleet
        .index()
        .place_cached(&q, &mut cache, &mut s)
        .expect("places after reload");
    assert!(cache.probe().invalidations >= 1, "reload invalidated the cache");
    let dram = MemLevel::Dram.index();
    assert!(
        after.mem_cycles[dram] < before.mem_cycles[dram],
        "doubled DRAM bandwidth halves the DRAM bound ({} -> {})",
        before.mem_cycles[dram],
        after.mem_cycles[dram],
    );

    // differential: the served answer equals the tree walk under the
    // *edited* description, bit for bit, cached and uncached
    let binds: Vec<(&str, i128)> = fleet
        .index()
        .kernel(id)
        .expect("kernel")
        .params()
        .iter()
        .zip(&vals)
        .map(|(p, v)| (p.as_str(), *v))
        .collect();
    let walked = tree_walk(&edited, "triad", mira_workloads::memval::TRIAD_SRC, &binds);
    assert_bit_identical(&walked, &after, "reloaded vs tree walk");
    let uncached = fleet.index().place(&q, &mut s).expect("places uncached");
    assert_bit_identical(&uncached, &after, "cached vs uncached after reload");

    // the untouched machine's answers did not move
    let gid = fleet.find("triad", machines::GENERIC).expect("triad@generic");
    let gq = fleet
        .index()
        .query(gid, &base_values(&fleet, gid, 4096))
        .expect("query builds");
    let gserved = fleet.index().place(&gq, &mut s).expect("places");
    let gwalked = tree_walk(
        DEFAULT_DESCRIPTION,
        "triad",
        mira_workloads::memval::TRIAD_SRC,
        &binds,
    );
    assert_bit_identical(&gwalked, &gserved, "untouched machine");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn reload_adds_and_removes_machines() {
    let dir = fleet_dir("addrm");
    let mut fleet = MachineFleet::load(&dir).expect("fleet loads");
    fleet
        .admit_source("triad", mira_workloads::memval::TRIAD_SRC)
        .expect("triad admits");
    assert_eq!(fleet.index().len(), 2);

    // a third machine appears: its kernels are compiled and added
    let charlie = DEFAULT_DESCRIPTION.replace("generic-x86_64", "charlie");
    fs::write(dir.join("charlie.ini"), &charlie).expect("write charlie");
    let report = fleet.reload().expect("reload");
    assert_eq!(report.added, ["charlie"]);
    assert_eq!(report.recompiled, 1);
    assert_eq!(fleet.index().len(), 3);
    let cid = fleet.find("triad", "charlie").expect("triad@charlie");
    let mut s = Scratch::new();
    let q = fleet
        .index()
        .query(cid, &base_values(&fleet, cid, 1024))
        .expect("query builds");
    assert!(fleet.index().place(&q, &mut s).is_ok());

    // it disappears again: rebuild, ids void, generation still advances
    // so caches filled before the removal cannot serve stale answers
    let gen_before = fleet.index().generation();
    fs::remove_file(dir.join("charlie.ini")).expect("remove charlie");
    let report = fleet.reload().expect("reload");
    assert_eq!(report.removed, ["charlie"]);
    assert_eq!(report.recompiled, 2, "full rebuild over the remaining machines");
    assert_eq!(fleet.index().len(), 2);
    assert!(fleet.find("triad", "charlie").is_none());
    assert!(fleet.index().generation() > gen_before);
    for machine in [machines::GENERIC, machines::AVX2_FMA] {
        let id = fleet.find("triad", machine).expect("survivor serves");
        let q = fleet
            .index()
            .query(id, &base_values(&fleet, id, 1024))
            .expect("query builds");
        assert!(fleet.index().place(&q, &mut s).is_ok(), "{machine}");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Error answers flow through the cache unchanged: a refusal served
/// cold equals the refusal served from the cache.
#[test]
fn cached_refusals_match_uncached() {
    let dir = fleet_dir("refusals");
    let mut fleet = MachineFleet::load(&dir).expect("fleet loads");
    let id = fleet
        .admit_source("triad", mira_workloads::memval::TRIAD_SRC)
        .expect("triad admits")[0];
    let huge = base_values(&fleet, id, i64::MAX as i128);
    let q = fleet.index().query(id, &huge).expect("query builds");
    let mut s = Scratch::new();
    let mut cache = AnswerCache::new(64);
    let cold = fleet.index().place(&q, &mut s);
    let first = fleet.index().place_cached(&q, &mut cache, &mut s);
    let second = fleet.index().place_cached(&q, &mut cache, &mut s);
    assert!(
        matches!(cold, Err(ServeError::Eval(_))),
        "astronomical n refuses: {cold:?}"
    );
    assert_eq!(cold, first, "cold vs cache-miss");
    assert_eq!(cold, second, "cold vs cache-hit");
    assert!(cache.probe().hits >= 1);
    let _ = fs::remove_dir_all(&dir);
}

/// Every workload kernel the differential suites sweep.
const WORKLOADS: &[(&str, &str)] = &[
    ("triad", mira_workloads::memval::TRIAD_SRC),
    ("dgemm", mira_workloads::dgemm::DGEMM_SRC),
    ("dgemm_tiled", mira_workloads::roofval::DGEMM_TILED_SRC),
    ("triad_blocked", mira_workloads::roofval::TRIAD_BLOCKED_SRC),
    ("trisolve", mira_workloads::compose::TRISOLVE_SRC),
    ("blur", mira_workloads::compose::STENCIL_SWEEP_SRC),
    ("cg_solve", mira_workloads::minife::MINIFE_SRC),
];

/// The default description renamed to `name`, with `line` replaced by
/// `with` (the replacement must apply).
fn variant(name: &str, line: &str, with: &str) -> String {
    let renamed = DEFAULT_DESCRIPTION.replace("name = generic-x86_64", &format!("name = {name}"));
    let edited = renamed.replace(line, with);
    assert_ne!(edited, renamed, "edit `{line}` applied to {name}");
    edited
}

fn line_bytes(name: &str, bytes: u32) -> String {
    variant(
        name,
        "cache_line_bytes = 64",
        &format!("cache_line_bytes = {bytes}"),
    )
}

fn dram_bytes_per_cycle(name: &str, bytes: u32) -> String {
    variant(
        name,
        "[bandwidth dram]\nbytes_per_cycle = 4",
        &format!("[bandwidth dram]\nbytes_per_cycle = {bytes}"),
    )
}

/// A machine whose `fpi` group counts only x87 arithmetic, so SSE2 code
/// has no FPI and every kernel with FLOPs looks packed.
fn x87_fpi(name: &str) -> String {
    variant(
        name,
        "categories = sse2_packed_arith, sse_packed_arith, x87_basic_arith, avx_arith, fma",
        "categories = x87_basic_arith",
    )
}

/// A temp directory holding exactly `files` (name, text).
fn dir_with(tag: &str, files: &[(&str, String)]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mira_serve_fleet_{tag}_{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create temp dir");
    for (name, text) in files {
        fs::write(dir.join(name), text).expect("write description");
    }
    dir
}

/// The per-machine full pipeline the fleet must reproduce: analysis
/// under the machine's own description, its roofline, its compile.
fn full_pipeline(desc_text: &str, func: &str, src: &str) -> CompiledKernel {
    let arch = ArchDescription::parse(desc_text).expect("description parses");
    let machine = arch.machine.name.clone();
    let opts = MiraOptions {
        arch,
        ..Default::default()
    };
    let analysis = analyze_source(src, &opts).expect("workload analyzes");
    let kr = KernelRoofline::analyze(&analysis, func).expect("roofline analyzes");
    let c = Ceilings::from_arch(&analysis.arch);
    CompiledKernel::build(&kr, &c, &machine).expect("kernel compiles")
}

/// Positional value vectors over a size grid, refusal sizes included.
fn value_grid(params: &[String]) -> Vec<Vec<i128>> {
    [1i128, 7, 64, 100, 4096, 1 << 20, i64::MAX as i128]
        .iter()
        .map(|&n| {
            params
                .iter()
                .map(|p| match p.as_str() {
                    "n" => n,
                    "nnz_row_milli" => 26_144,
                    "cg_iters" => 20,
                    _ => 3,
                })
                .collect()
        })
        .collect()
}

/// Every workload kernel on every machine of the fleet answers exactly
/// as the per-machine full pipeline does, placements bit for bit and
/// refusals by value.
fn assert_fleet_matches_full_pipeline(fleet: &MachineFleet, ctx: &str) {
    let mut s = Scratch::new();
    for m in fleet.machines() {
        for (func, src) in WORKLOADS {
            let id = fleet.find(func, m.name()).expect("pair admitted");
            let served = fleet.index().kernel(id).expect("kernel");
            let reference = full_pipeline(&m.text, func, src);
            let pair = format!("{ctx}: {func}@{}", m.name());
            assert_eq!(served.params(), reference.params(), "{pair} params");
            assert_eq!(served.ceilings(), reference.ceilings(), "{pair} ceilings");
            assert_eq!(
                served.program().ops_len(),
                reference.program().ops_len(),
                "{pair} ops"
            );
            for values in value_grid(reference.params()) {
                let q = fleet.index().query(id, &values).expect("query builds");
                let got = fleet.index().place(&q, &mut s);
                let want = reference.place_values(&values, &mut s);
                match (&got, &want) {
                    (Ok(a), Ok(b)) => assert_bit_identical(a, b, &format!("{pair} {values:?}")),
                    _ => assert_eq!(got, want, "{pair} {values:?}"),
                }
            }
        }
    }
}

fn admit_workloads(fleet: &mut MachineFleet) {
    for (func, src) in WORKLOADS {
        fleet.admit_source(func, src).expect("workload admits");
    }
}

fn spans(trace: &mira_probe::Trace, pred: impl Fn(&str) -> bool) -> usize {
    trace
        .events
        .iter()
        .filter(|e| e.kind == mira_probe::EventKind::Complete && pred(e.name))
        .count()
}

fn named(trace: &mira_probe::Trace, name: &str) -> usize {
    spans(trace, |n| n == name)
}

fn phases(trace: &mira_probe::Trace) -> usize {
    spans(trace, |n| n.starts_with("phase."))
}

/// The one `name` span's argument `key`.
fn span_arg(trace: &mira_probe::Trace, name: &str, key: &str) -> String {
    let e = trace
        .events
        .iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("no {name} span"));
    e.args
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v.clone())
        .unwrap_or_else(|| panic!("{name} lacks arg {key}"))
}

/// The cache key is exactly what the roofline reads: machines that
/// differ only in line size (32/64/128) or in the `fpi` group get their
/// own models, machines that differ only in ceilings share one, and
/// every served answer equals the per-machine full pipeline — also
/// after a reload that re-keys a machine and one that removes a machine.
#[test]
fn fleet_answers_equal_the_per_machine_full_pipeline() {
    let dir = dir_with(
        "keys",
        &[
            ("generic.ini", DEFAULT_DESCRIPTION.to_string()),
            ("avx2.ini", machines::AVX2_FMA_DESCRIPTION.to_string()),
            ("line32.ini", line_bytes("line32", 32)),
            ("line128.ini", line_bytes("line128", 128)),
            ("x87fpi.ini", x87_fpi("x87-fpi")),
        ],
    );
    let mut fleet = MachineFleet::load(&dir).expect("fleet loads");
    let keys: std::collections::HashSet<RooflineKey> = fleet
        .machines()
        .map(|m| RooflineKey::of(&m.desc))
        .collect();
    assert_eq!(keys.len(), 4, "generic and avx2 share a key");
    let ((), admit) = mira_probe::capture(|| admit_workloads(&mut fleet));
    let n = WORKLOADS.len();
    assert_eq!(named(&admit, "phase.frontend"), n, "one pipeline run per kernel");
    assert_eq!(named(&admit, "roofline.analyze"), 4 * n, "one roofline per key");
    assert_eq!(named(&admit, "serve.compile"), 5 * n, "one compile per pair");
    assert_fleet_matches_full_pipeline(&fleet, "admitted");

    // the keys matter: the test would catch a fleet that ignored them
    let mut s = Scratch::new();
    let mut place = |machine: &str| {
        let id = fleet.find("triad", machine).expect("pair");
        // cache-resident, so the line count (rounded up) is the traffic
        let q = fleet
            .index()
            .query(id, &base_values(&fleet, id, 100))
            .expect("query builds");
        fleet.index().place(&q, &mut s).expect("places")
    };
    let generic = place(machines::GENERIC);
    assert_ne!(generic, place("line128"), "line size changes the model");
    assert_ne!(generic, place("x87-fpi"), "the fpi group changes the model");

    // a line-size edit to a key no kernel has re-keys: one pipeline run
    // per kernel, compiles for the edited machine only
    fs::write(dir.join("line32.ini"), line_bytes("line32", 256)).expect("edit");
    let (report, trace) = mira_probe::capture(|| fleet.reload());
    let report = report.expect("reload");
    assert_eq!(report.changed, ["line32"]);
    assert_eq!(report.recompiled, n);
    assert_eq!(named(&trace, "phase.frontend"), n);
    assert_eq!(named(&trace, "roofline.analyze"), n);
    assert_eq!(named(&trace, "serve.compile"), n);
    assert_eq!(span_arg(&trace, "fleet.reload", "analyses"), n.to_string());
    assert_fleet_matches_full_pipeline(&fleet, "re-keyed");

    // an edit onto a key another machine already has shares its models
    fs::write(dir.join("line32.ini"), line_bytes("line32", 128)).expect("edit");
    let (report, trace) = mira_probe::capture(|| fleet.reload());
    assert_eq!(report.expect("reload").recompiled, n);
    assert_eq!(phases(&trace), 0, "shared key: no pipeline run");
    assert_eq!(named(&trace, "roofline.analyze"), 0);
    assert_fleet_matches_full_pipeline(&fleet, "shared key");

    // the 256-byte key lost its last machine and was dropped: going
    // back to it analyses again
    fs::write(dir.join("line32.ini"), line_bytes("line32", 256)).expect("edit");
    let (report, trace) = mira_probe::capture(|| fleet.reload());
    assert_eq!(report.expect("reload").recompiled, n);
    assert_eq!(named(&trace, "phase.frontend"), n, "unused key was pruned");

    // removing a machine rebuilds the index from the kept models
    fs::remove_file(dir.join("x87fpi.ini")).expect("remove");
    let (report, trace) = mira_probe::capture(|| fleet.reload());
    let report = report.expect("reload");
    assert_eq!(report.removed, ["x87-fpi"]);
    assert_eq!(report.recompiled, 4 * n);
    assert_eq!(phases(&trace), 0, "removal runs no pipeline");
    assert_eq!(named(&trace, "roofline.analyze"), 0);
    assert_eq!(named(&trace, "serve.compile"), 4 * n);
    assert!(fleet.find("triad", "x87-fpi").is_none());
    assert_fleet_matches_full_pipeline(&fleet, "after removal");
    let _ = fs::remove_dir_all(&dir);
}

/// Four machines, one roofline key: what admission and a ceilings-only
/// reload cost, counted in probe spans rather than timed.
#[test]
fn fleet_work_counts_follow_the_artifact_tiers() {
    let dir = dir_with(
        "counts",
        &[
            ("generic.ini", DEFAULT_DESCRIPTION.to_string()),
            ("avx2.ini", machines::AVX2_FMA_DESCRIPTION.to_string()),
            ("slowmem.ini", dram_bytes_per_cycle("slowmem", 2)),
            (
                "bigl2.ini",
                variant("bigl2", "size_bytes = 262144", "size_bytes = 2097152"),
            ),
        ],
    );
    let mut fleet = MachineFleet::load(&dir).expect("fleet loads");
    let (ids, trace) = mira_probe::capture(|| {
        fleet.admit_source("triad", mira_workloads::memval::TRIAD_SRC)
    });
    assert_eq!(ids.expect("triad admits").len(), 4);
    assert_eq!(named(&trace, "phase.frontend"), 1);
    assert_eq!(named(&trace, "phase.metrics"), 1);
    assert_eq!(named(&trace, "roofline.analyze"), 1);
    assert_eq!(named(&trace, "serve.compile"), 4);
    assert_eq!(span_arg(&trace, "fleet.admit", "analyses"), "1");
    assert_eq!(span_arg(&trace, "fleet.admit", "models"), "1");
    assert_eq!(span_arg(&trace, "fleet.admit", "compiled"), "4");

    for (func, src) in &WORKLOADS[1..3] {
        fleet.admit_source(func, src).expect("workload admits");
    }
    let kernels = fleet.funcs().count();
    let edited = dram_bytes_per_cycle("slowmem", 3);
    fs::write(dir.join("slowmem.ini"), &edited).expect("edit bandwidth");
    let (report, trace) = mira_probe::capture(|| fleet.reload());
    let report = report.expect("reload");
    assert_eq!(report.changed, ["slowmem"]);
    assert_eq!(report.recompiled, kernels);
    assert_eq!(phases(&trace), 0, "a ceilings edit runs no pipeline");
    assert_eq!(named(&trace, "roofline.analyze"), 0);
    assert_eq!(named(&trace, "serve.compile"), kernels);
    assert_eq!(span_arg(&trace, "fleet.reload", "analyses"), "0");
    assert_eq!(span_arg(&trace, "fleet.reload", "models"), "0");
    assert_eq!(span_arg(&trace, "fleet.reload", "compiled"), kernels.to_string());

    // and the recompiled answer is the full pipeline's under the edit
    let id = fleet.find("triad", "slowmem").expect("pair");
    let vals = base_values(&fleet, id, 4096);
    let q = fleet.index().query(id, &vals).expect("query builds");
    let mut s = Scratch::new();
    let served = fleet.index().place(&q, &mut s).expect("places");
    let want = full_pipeline(&edited, "triad", mira_workloads::memval::TRIAD_SRC)
        .place_values(&vals, &mut s)
        .expect("places");
    assert_bit_identical(&served, &want, "bandwidth reload");
    let _ = fs::remove_dir_all(&dir);
}

/// Refusals name what they are attributable to: the pipeline's to the
/// kernel alone (it runs once, whatever the machines), the roofline's
/// to the key. Nothing is admitted either way.
#[test]
fn refusals_name_the_kernel_or_the_roofline_key() {
    let dir = fleet_dir("attribution");
    let mut fleet = MachineFleet::load(&dir).expect("fleet loads");
    match fleet.admit_source("broken", "void broken(int n) { for ( }") {
        Err(e @ FleetError::Analyze { .. }) => {
            let FleetError::Analyze { func, .. } = &e else { unreachable!() };
            assert_eq!(func, "broken");
            assert!(e.to_string().starts_with("analyzing `broken`: "), "{e}");
        }
        other => panic!("expected Analyze, got {:?}", other.map(|_| ())),
    }
    // the source analyses, but has no function by that name
    match fleet.admit_source("nope", mira_workloads::memval::TRIAD_SRC) {
        Err(e @ FleetError::Model { .. }) => {
            let FleetError::Model { func, key, .. } = &e else { unreachable!() };
            assert_eq!(func, "nope");
            let first = fleet.machines().next().expect("a machine");
            assert_eq!(*key, RooflineKey::of(&first.desc));
            assert!(
                e.to_string().starts_with("modeling `nope` for machines with 64-byte lines"),
                "{e}"
            );
        }
        other => panic!("expected Model, got {:?}", other.map(|_| ())),
    }
    assert!(fleet.index().is_empty());
    assert_eq!(fleet.funcs().count(), 0);
    let _ = fs::remove_dir_all(&dir);
}
