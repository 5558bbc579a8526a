//! Acceptance tests for the inter-thread-block independence certifier:
//! the deliberately inter-block-racy fixture is proven racy with a
//! concrete, executor-reproduced block-pair witness, the commutative
//! histogram certifies `commutative-atomics-only`, and the
//! stride-separated control certifies `block-independent`.

use gpu_sim::{run_tb_functional, FunctionalObserver, GlobalMemory};
use simt_compiler::CompiledKernel;
use simt_isa::{Dim3, LaunchConfig};
use simt_verify::blocks::{self, BlockIndependence};
use simt_verify::LintCode;
use workloads::fixtures;

/// Replays one block and returns every `(pc, word, is_write)` its global
/// accesses touched, straight from the executor.
fn replay_accesses(
    ck: &CompiledKernel,
    launch: &LaunchConfig,
    mut mem: GlobalMemory,
    block: Dim3,
) -> Vec<(usize, u64, bool)> {
    struct Log(Vec<(usize, u64, bool)>);
    impl FunctionalObserver for Log {
        fn global_access(
            &mut self,
            _w: usize,
            pc: usize,
            _occurrence: u32,
            addrs: &[(u32, u64)],
            is_store: bool,
            _is_atomic: bool,
        ) {
            self.0.extend(addrs.iter().map(|&(_, a)| (pc, a / 4, is_store)));
        }
    }
    let mut log = Log(Vec::new());
    run_tb_functional(ck, launch, block, &mut mem, &mut log);
    log.0
}

#[test]
fn racy_inter_block_fixture_is_proven_with_an_executor_reproduced_witness() {
    let f = fixtures::racy_inter_block();
    let (cert, report) = blocks::certify(&f.ck, &f.launch, f.memory.clone());
    assert_eq!(cert.classification, BlockIndependence::PotentiallyRacy);
    assert!(
        !report.with_code(LintCode::InterBlockRace).is_empty(),
        "no V310 fired:\n{}",
        report.render()
    );
    assert!(
        !report.with_code(LintCode::InterBlockRaceDynamic).is_empty(),
        "no V312 fired:\n{}",
        report.render()
    );

    // The witness must reproduce against the executor: replaying each
    // witnessed block shows the witnessed pc touching the witnessed
    // global word, and at least one side writes it.
    let wit = cert.witness.expect("a definite V310 carries a witness");
    assert_ne!(wit.block_a, wit.block_b, "witness blocks must differ");
    let word = u64::try_from(wit.word).expect("witness word is an address");
    let mut writes = 0usize;
    for (pc, block) in [(wit.pc_a, wit.block_a), (wit.pc_b, wit.block_b)] {
        let accs = replay_accesses(&f.ck, &f.launch, f.memory.clone(), block);
        let touched: Vec<_> = accs.iter().filter(|&&(p, w, _)| p == pc && w == word).collect();
        assert!(
            !touched.is_empty(),
            "witness pc {pc} in block ({},{},{}) never touched word {word}",
            block.x,
            block.y,
            block.z,
        );
        writes += usize::from(touched.iter().any(|&&(_, _, wr)| wr));
    }
    assert!(writes > 0, "witnessed collision has no writing side");
}

#[test]
fn commutative_counter_certifies_commutative_atomics_only() {
    let f = fixtures::commutative_counter();
    let (cert, report) = blocks::certify(&f.ck, &f.launch, f.memory.clone());
    assert_eq!(
        cert.classification,
        BlockIndependence::CommutativeAtomicsOnly,
        "{}",
        report.render()
    );
    assert!(report.with_code(LintCode::InterBlockRace).is_empty(), "{}", report.render());
    assert!(report.with_code(LintCode::InterBlockRaceDynamic).is_empty(), "{}", report.render());
}

/// Mixed commutative atomics must never be discharged as commutative:
/// an `atom.add` and an `atom.max` hitting the same word from different
/// blocks leave the final value block-order-dependent, even though each
/// op commutes with itself. The masked (non-affine) address defeats the
/// static pass, so the verdict rides entirely on the dynamic replay —
/// exactly the path where a too-permissive exemption would certify a
/// racy kernel for the sharded engine.
#[test]
fn mixed_op_atomics_are_not_discharged_as_commutative() {
    use simt_isa::{AtomOp, KernelBuilder, SpecialReg, Value};
    let build = |second: AtomOp| {
        let mut b = KernelBuilder::new("mixed");
        let tx = b.special(SpecialReg::TidX);
        let out = b.param(0);
        let lin = b.and(tx, 15);
        let off = b.shl_imm(lin, 2);
        let addr = b.iadd(out, off);
        b.atom(AtomOp::Add, addr, tx);
        b.atom(second, addr, tx);
        simt_compiler::compile(b.finish())
    };
    let mut mem = GlobalMemory::new();
    let base = mem.alloc(256);
    let launch = LaunchConfig::new(2u32, Dim3::one_d(16)).with_params(vec![Value(base as u32)]);

    // add + max: the replay observes non-commuting collisions — V312 on
    // record and no discharge.
    let (cert, report) = blocks::certify(&build(AtomOp::Max), &launch, mem.clone());
    assert_eq!(cert.classification, BlockIndependence::PotentiallyRacy, "{}", report.render());
    assert!(
        !report.with_code(LintCode::InterBlockRaceDynamic).is_empty(),
        "no V312 fired:\n{}",
        report.render()
    );

    // add + add control: same-op collisions are exempt, and the replay
    // discharges the conservative V313s to commutative-atomics-only.
    let (cert, report) = blocks::certify(&build(AtomOp::Add), &launch, mem.clone());
    assert_eq!(
        cert.classification,
        BlockIndependence::CommutativeAtomicsOnly,
        "{}",
        report.render()
    );
    assert!(report.with_code(LintCode::InterBlockRaceDynamic).is_empty(), "{}", report.render());
}

#[test]
fn block_disjoint_control_certifies_block_independent() {
    let f = fixtures::block_disjoint();
    let (cert, report) = blocks::certify(&f.ck, &f.launch, f.memory.clone());
    assert_eq!(cert.classification, BlockIndependence::Independent, "{}", report.render());
    assert!(report.items.is_empty(), "control must be clean:\n{}", report.render());
    assert_eq!(cert.global_accesses, 1);
    assert!(cert.witness.is_none());
}

/// Eval-scale grids must certify too. DCT8x8 and Floyd-Warshall run
/// 12x12 = 144 blocks — far past any quadratic pair budget — and their
/// strided footprints are settled *statically* by the linear word-map
/// refinement, with no conservative V311 leftovers.
#[test]
fn eval_scale_strided_grids_are_settled_statically() {
    for abbr in ["DCT8x8", "FWS"] {
        let w = workloads::by_abbr(abbr, workloads::Scale::Eval).unwrap();
        let (cert, report) = blocks::analyze(&w.ck, &w.launch);
        assert_eq!(
            cert.classification,
            BlockIndependence::Independent,
            "{abbr}:\n{}",
            report.render()
        );
        assert!(report.items.is_empty(), "{abbr}:\n{}", report.render());
        assert!(!cert.dynamically_discharged, "{abbr}: static proof needs no replay");
    }
}

/// SRADV1's clamped halo loads are statically unprovable at eval scale
/// (the border guards involve `shr`/`and`, outside the affine domain,
/// and the unguarded hull spills one row past the input buffer into the
/// output). The exhaustive replay discharges the V311s: classification
/// upgrades to block-independent, the conservative warnings stay on the
/// record, and a V314 note documents the discharge.
#[test]
fn eval_scale_srad_halo_loads_are_discharged_by_replay() {
    let w = workloads::by_abbr("SR1", workloads::Scale::Eval).unwrap();
    let (static_cert, _) = blocks::analyze(&w.ck, &w.launch);
    assert_eq!(static_cert.classification, BlockIndependence::PotentiallyRacy);

    let (cert, report) = blocks::certify(&w.ck, &w.launch, w.memory.clone());
    assert_eq!(cert.classification, BlockIndependence::Independent, "{}", report.render());
    assert!(cert.dynamically_discharged);
    assert!(cert.witness.is_none());
    assert!(
        !report.with_code(LintCode::InterBlockOverlap).is_empty(),
        "the conservative V311s must stay on the record:\n{}",
        report.render()
    );
    assert_eq!(report.with_code(LintCode::InterBlockDischarged).len(), 1);
    assert!(report.with_code(LintCode::InterBlockRaceDynamic).is_empty());
}

/// A real race is never discharged: the replay observes the collision,
/// so the V312 path wins and `dynamically_discharged` stays false.
#[test]
fn racy_fixture_is_never_discharged() {
    let f = fixtures::racy_inter_block();
    let (cert, report) = blocks::certify(&f.ck, &f.launch, f.memory.clone());
    assert_eq!(cert.classification, BlockIndependence::PotentiallyRacy);
    assert!(!cert.dynamically_discharged);
    assert!(report.with_code(LintCode::InterBlockDischarged).is_empty());
}

/// `verify_full` on the racy fixture carries the certificate and both
/// the static and dynamic inter-block findings.
#[test]
fn verify_full_surfaces_the_certificate_and_both_race_findings() {
    let f = fixtures::racy_inter_block();
    let r = simt_verify::verify_full(&f.ck, &f.launch, f.memory.clone());
    let cert = r.certificate.as_ref().expect("verify_full attaches a certificate");
    assert_eq!(cert.classification, BlockIndependence::PotentiallyRacy);
    assert!(!r.with_code(LintCode::InterBlockRace).is_empty(), "{}", r.render());
    assert!(!r.with_code(LintCode::InterBlockRaceDynamic).is_empty(), "{}", r.render());
}
