//! Golden blame table: `darsie-sim profile`'s issue-slot attribution for
//! every test-scale catalog workload under BASE and DARSIE on
//! `test_small`, as per-cause slot totals in [`StallCause::ALL`] order.
//!
//! The issue stage skips warps whose scoreboard stall cannot clear before
//! one of their own writes retires, and blames the cached cause instead of
//! retrying. This table pins that blame: a skipped retry that would have
//! reported a different cause, or a different head PC's cause, moves a
//! count here even when cycles and digest roots stay put.
//!
//! To regenerate after an intended change to issue or blame, run the test
//! and paste the table it prints on failure.

use gpu_sim::{GpuConfig, StallCause, Technique};
use simt_verify::parallel_map;
use workloads::{catalog, Scale};

/// `(workload, technique label, slots per cause in StallCause::ALL order)`.
const GOLDEN: &[(&str, &str, [u64; 12])] = &[
    ("BIN", "BASE", [1640, 0, 3302, 0, 58, 804, 930, 0, 0, 1392, 0, 74]),
    ("BIN", "DARSIE", [1385, 115, 2552, 0, 20, 674, 799, 114, 682, 1177, 0, 26]),
    ("PT", "BASE", [3104, 0, 9979, 0, 394, 661, 1390, 0, 0, 1522, 0, 134]),
    ("PT", "DARSIE", [2298, 301, 8208, 0, 101, 733, 884, 86, 606, 1077, 0, 138]),
    ("FW", "BASE", [3040, 0, 7536, 0, 422, 891, 1697, 0, 0, 3977, 0, 37]),
    ("FW", "DARSIE", [2438, 79, 5663, 0, 177, 1245, 1259, 270, 838, 2504, 0, 39]),
    ("SR1", "BASE", [640, 0, 2322, 0, 157, 71, 498, 0, 0, 0, 0, 264]),
    ("SR1", "DARSIE", [535, 30, 2034, 0, 121, 40, 528, 30, 0, 0, 0, 226]),
    ("LIB", "BASE", [1856, 0, 8136, 0, 526, 46, 1206, 0, 0, 0, 0, 1302]),
    ("LIB", "DARSIE", [869, 448, 4584, 0, 100, 2, 981, 1572, 1190, 0, 0, 30]),
    ("IMNLM", "BASE", [3872, 0, 16909, 0, 810, 130, 2303, 0, 0, 0, 0, 1624]),
    ("IMNLM", "DARSIE", [2957, 296, 12700, 0, 633, 14, 1076, 198, 1222, 0, 0, 88]),
    ("BP", "BASE", [530, 0, 1746, 0, 76, 91, 629, 0, 0, 542, 0, 50]),
    ("BP", "DARSIE", [436, 32, 1451, 0, 43, 55, 537, 142, 137, 448, 0, 47]),
    ("DCT8x8", "BASE", [1584, 0, 6734, 0, 183, 88, 865, 0, 0, 380, 0, 726]),
    ("DCT8x8", "DARSIE", [1212, 251, 3942, 0, 97, 69, 825, 622, 150, 24, 0, 824]),
    ("FWS", "BASE", [832, 0, 2302, 0, 116, 342, 870, 0, 0, 0, 0, 82]),
    ("FWS", "DARSIE", [538, 104, 1470, 0, 31, 148, 529, 154, 0, 0, 0, 138]),
    ("HS", "BASE", [752, 0, 1993, 0, 177, 315, 963, 0, 0, 0, 0, 272]),
    ("HS", "DARSIE", [633, 33, 1810, 0, 145, 247, 624, 78, 0, 0, 0, 230]),
    ("CP", "BASE", [2512, 0, 11043, 0, 696, 277, 1342, 0, 0, 0, 0, 1010]),
    ("CP", "DARSIE", [1707, 263, 7418, 0, 1113, 109, 518, 500, 592, 0, 0, 36]),
    ("CONVTEX", "BASE", [1488, 0, 6027, 0, 136, 109, 999, 0, 0, 0, 0, 449]),
    ("CONVTEX", "DARSIE", [910, 271, 2970, 0, 68, 71, 601, 392, 432, 0, 0, 45]),
    ("MM", "BASE", [36352, 0, 74575, 0, 3529, 24327, 17095, 0, 0, 38834, 0, 136]),
    ("MM", "DARSIE", [24782, 7523, 52920, 0, 2119, 7756, 14138, 1404, 15476, 3375, 0, 91]),
];

#[test]
fn profile_blame_matches_the_golden_table() {
    let cfg = GpuConfig {
        profile: true,
        shadow_check: false,
        trace_events: false,
        ..GpuConfig::test_small()
    };
    let workloads = catalog(Scale::Test);
    let mut jobs: Vec<(usize, Technique)> = Vec::new();
    for i in 0..workloads.len() {
        for t in [Technique::Base, Technique::darsie()] {
            jobs.push((i, t));
        }
    }
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let got: Vec<(&str, &str, [u64; 12])> = parallel_map(&jobs, threads, |(i, t)| {
        let w = &workloads[*i];
        let r = w.run_unchecked(&cfg, t.clone());
        let prof = r.profile.expect("profiling was enabled");
        prof.check_identity().expect("every issue slot is blamed exactly once");
        let slots = prof.slots();
        (w.abbr, t.label(), StallCause::ALL.map(|c| slots.get(c)))
    });

    let table: String = got
        .iter()
        .map(|(abbr, label, counts)| format!("    (\"{abbr}\", \"{label}\", {counts:?}),\n"))
        .collect();
    assert!(
        got == GOLDEN,
        "profile blame differs from the golden table ({} runs, {} recorded); \
         the observed table is:\n{table}",
        got.len(),
        GOLDEN.len()
    );
}
