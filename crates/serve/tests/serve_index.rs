//! Service-level contracts of [`ServeIndex`]: the sharding policy,
//! duplicate refusal and replacement, sweeps stream the same
//! placements, typed refusals for bad queries, and the compiled
//! crossover reproduces the tree walk's pinned DGEMM regime exit.
//! (Batch and exact-worker sharded answers are pinned in the index's
//! own unit tests, which reach the private sharding core.)

use mira_core::{analyze_source, MiraOptions};
use mira_roofline::{Ceiling, Ceilings, KernelRoofline, MemLevel};
use mira_serve::{machines, CompiledKernel, Scratch, ServeError, ServeIndex};
use mira_sym::bindings;

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

/// Positional base values for a kernel: `n` slots get `n0`, `reps`-like
/// slots get 1.
fn base_values(index: &ServeIndex, id: mira_serve::KernelId, n0: i128) -> Vec<i128> {
    index
        .kernel(id)
        .expect("kernel exists")
        .params()
        .iter()
        .map(|p| if p == "n" { n0 } else { 1 })
        .collect()
}

/// The sharding policy: small batches run serial, and worker counts cap
/// at the host's parallelism (threads beyond the core count measured as
/// a net loss — the BENCH_serve sharded regression).
#[test]
fn effective_workers_degrades_small_batches_and_caps_at_the_host() {
    use mira_serve::SHARD_MIN_BATCH;
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    assert_eq!(ServeIndex::effective_workers(0, 64), 1);
    assert_eq!(ServeIndex::effective_workers(SHARD_MIN_BATCH - 1, 64), 1);
    assert_eq!(ServeIndex::effective_workers(SHARD_MIN_BATCH, 1), 1);
    let at = ServeIndex::effective_workers(SHARD_MIN_BATCH, 64);
    assert!(at >= 1 && at <= 64.min(hw), "policy stays in [1, min(64, hw)]: {at}");
    assert_eq!(ServeIndex::effective_workers(1 << 20, usize::MAX), hw);
}

/// Satellite regression (stale-kernel shadowing): duplicate `(func,
/// machine)` registration is a typed refusal, and `replace` swaps the
/// model under the *same* [`mira_serve::KernelId`] so the new answers —
/// not the originals — are served.
#[test]
fn duplicate_is_refused_and_replace_serves_new_answers() {
    let analysis = analyze_source(
        mira_workloads::memval::TRIAD_SRC,
        &MiraOptions::default(),
    )
    .expect("triad analyzes");
    let kr = KernelRoofline::analyze(&analysis, "triad").expect("roofline");
    let c = Ceilings::from_arch(&analysis.arch);

    let build = |c: &Ceilings, machine: &str| {
        CompiledKernel::build(&kr, c, machine).expect("kernel compiles")
    };
    let mut index = ServeIndex::new();
    let id = index.insert(build(&c, "m")).expect("first insert admits");

    // the old behavior: a second add slipped in and `find` kept serving
    // the first — now it refuses, typed
    match index.insert(build(&c, "m")) {
        Err(mira_serve::BuildError::Duplicate { func, machine }) => {
            assert_eq!((func.as_str(), machine.as_str()), ("triad", "m"));
        }
        other => panic!("expected Duplicate, got {:?}", other.map(|_| ())),
    }
    assert_eq!(index.len(), 1, "the refused add did not grow the index");

    let base = base_values(&index, id, 4096);
    let q = index.query(id, &base).expect("query builds");
    let mut s = Scratch::new();
    let before = index.place(&q, &mut s).expect("places");

    // re-register with doubled DRAM bandwidth: same pair, same id, new
    // answers — what a machine-description hot-reload does
    let mut c2 = c;
    c2.bandwidth[MemLevel::Dram.index()] *= 2;
    let gen0 = index.generation();
    let id2 = index.replace(build(&c2, "m"));
    assert_eq!(id2, id, "replace keeps the KernelId stable");
    assert_eq!(index.len(), 1);
    assert!(index.generation() > gen0, "replace bumps the swap generation");

    let after = index.place(&q, &mut s).expect("places after replace");
    assert!(
        after.mem_cycles[MemLevel::Dram.index()] < before.mem_cycles[MemLevel::Dram.index()],
        "the *new* model answers: DRAM bound halves with doubled bandwidth \
         ({} -> {})",
        before.mem_cycles[MemLevel::Dram.index()],
        after.mem_cycles[MemLevel::Dram.index()],
    );

    // replace of an unregistered pair is an add
    let id3 = index.replace(build(&c, "m2"));
    assert_ne!(id3, id);
    assert_eq!(index.len(), 2);
}

/// Satellite regression (O(n) find): the HashMap lookup answers exactly
/// like the old first-match linear scan on a 100-kernel fleet — which it
/// only can because duplicates are now refused at admission.
#[test]
fn find_matches_the_linear_scan_on_a_100_kernel_fleet() {
    let analysis = analyze_source(
        mira_workloads::memval::TRIAD_SRC,
        &MiraOptions::default(),
    )
    .expect("triad analyzes");
    let kr = KernelRoofline::analyze(&analysis, "triad").expect("roofline");
    let c = Ceilings::from_arch(&analysis.arch);

    let mut index = ServeIndex::new();
    for i in 0..100 {
        let k = CompiledKernel::build(&kr, &c, &format!("machine-{i:03}")).expect("compiles");
        index.insert(k).expect("admits");
    }
    assert_eq!(index.len(), 100);

    // the old implementation, verbatim: first match over insertion order
    let linear_scan = |func: &str, machine: &str| {
        index
            .kernels()
            .find(|(_, k)| k.func() == func && k.machine() == machine)
            .map(|(id, _)| id)
    };
    for i in 0..100 {
        let m = format!("machine-{i:03}");
        assert_eq!(index.find("triad", &m), linear_scan("triad", &m), "{m}");
        assert!(index.find("triad", &m).is_some());
    }
    assert_eq!(index.find("triad", "machine-100"), linear_scan("triad", "machine-100"));
    assert_eq!(index.find("nope", "machine-000"), linear_scan("nope", "machine-000"));
    assert_eq!(index.find("", ""), None);
}

#[test]
fn sweep_streams_the_same_answers() {
    let index = build_index();
    let id = index
        .find("dgemm", machines::GENERIC)
        .expect("dgemm on the default machine");
    let base = base_values(&index, id, 0);
    let mut s = Scratch::new();
    let mut count = 0;
    for (n, r) in index.sweep(id, "n", &base, 1, 64).expect("sweep builds") {
        let mut vals = base.clone();
        let slot = index
            .kernel(id)
            .unwrap()
            .params()
            .iter()
            .position(|p| p == "n")
            .unwrap();
        vals[slot] = n;
        let q = index.query(id, &vals).unwrap();
        assert_eq!(index.place(&q, &mut s), r, "n={n}");
        count += 1;
    }
    assert_eq!(count, 64);
}

#[test]
fn typed_refusals_for_bad_queries() {
    let index = build_index();
    let id = index.find("triad", machines::GENERIC).expect("triad");
    // wrong arity
    match index.query(id, &[1]) {
        Err(ServeError::BadArity { expected, got }) => {
            assert_eq!(got, 1);
            assert!(expected >= 2);
        }
        other => panic!("expected BadArity, got {other:?}"),
    }
    // unknown sweep parameter
    let base = base_values(&index, id, 8);
    match index.sweep(id, "bogus", &base, 1, 4) {
        Err(ServeError::UnknownParam(p)) => assert_eq!(p, "bogus"),
        other => panic!("expected UnknownParam, got {:?}", other.err()),
    }
    // unknown machine
    assert!(index.find("triad", "no-such-machine").is_none());
}

/// Satellite regression: the crossover solver now routes through the
/// compiled evaluator ([`mira_roofline::crossover_bisect`] is shared),
/// and the pinned DGEMM answer — leaving the DRAM roof onto the L1 knee
/// at n = 9 — is unchanged on both paths.
#[test]
fn compiled_crossover_matches_tree_walk_pinned_dgemm() {
    let analysis = analyze_source(
        mira_workloads::dgemm::DGEMM_SRC,
        &MiraOptions::default(),
    )
    .expect("dgemm analyzes");
    let kr = KernelRoofline::analyze(&analysis, "dgemm").expect("roofline");
    let c = Ceilings::from_arch(&analysis.arch);
    let tree = kr
        .crossover(&c, "n", &bindings(&[("reps", 1)]), 2, 64)
        .expect("tree crossover evaluates")
        .expect("DGEMM leaves the DRAM roof in [2, 64]");

    let mut index = ServeIndex::new();
    let k = CompiledKernel::from_analysis(&analysis, "dgemm").expect("dgemm compiles");
    let id = index.insert(k).expect("dgemm admits");
    let base = base_values(&index, id, 2);
    let served = index
        .crossover(id, "n", &base, 2, 64)
        .expect("compiled crossover evaluates")
        .expect("compiled solver finds the same exit");

    assert_eq!(served, tree);
    assert_eq!(served.value, 9, "DGEMM exits the DRAM roof at n = 9");
    assert_eq!(served.from, Ceiling::Mem(MemLevel::Dram));
    assert_eq!(served.to, Ceiling::Mem(MemLevel::L1));
}

/// An inverted window (`lo > hi`) is empty: the tree-walk bisection,
/// the compiled bisection and the brute-force sweep all agree there is
/// no crossover in it, rather than one at `hi`, outside the window.
#[test]
fn inverted_crossover_window_is_empty_on_every_solver() {
    let index = build_index();
    let id = index.find("dgemm", machines::GENERIC).expect("dgemm");
    let analysis = analyze_source(mira_workloads::dgemm::DGEMM_SRC, &MiraOptions::default())
        .expect("dgemm analyzes");
    let kr = KernelRoofline::analyze(&analysis, "dgemm").expect("roofline");
    let c = Ceilings::from_arch(&analysis.arch);
    let b = bindings(&[("reps", 1)]);
    // the window's ends do bind differently, so a one-sided guess
    // would invent a crossover
    assert!(kr.crossover(&c, "n", &b, 2, 64).expect("evaluates").is_some());
    let base = base_values(&index, id, 2);
    assert_eq!(kr.crossover(&c, "n", &b, 64, 2), Ok(None));
    assert_eq!(kr.crossover_sweep(&c, "n", &b, 64, 2), Ok(None));
    assert_eq!(index.crossover(id, "n", &base, 64, 2), Ok(None));
}

/// A sweep whose window ends at `i128::MAX` yields that value and
/// stops instead of stepping past it (a debug-build overflow panic, or
/// a release-build wrap to `i128::MIN` and refusals forever). Both
/// answers are typed overflow refusals.
#[test]
fn sweep_ending_at_i128_max_stops() {
    let index = build_index();
    let id = index.find("dgemm", machines::GENERIC).expect("dgemm");
    let base = base_values(&index, id, 2);
    let answers: Vec<_> = index
        .sweep(id, "n", &base, i128::MAX - 1, i128::MAX)
        .expect("sweep builds")
        .take(3)
        .collect();
    assert_eq!(answers.len(), 2);
    assert_eq!(answers[0].0, i128::MAX - 1);
    assert_eq!(answers[1].0, i128::MAX);
    for (n, r) in &answers {
        assert!(
            matches!(r, Err(ServeError::Eval(mira_sym::EvalError::Overflow))),
            "n={n}: {r:?}"
        );
    }
}
