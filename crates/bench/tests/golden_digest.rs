//! Golden digest roots: every test-scale catalog workload under the seven
//! figure techniques (Figure 8 ∪ Figure 12) on `eval_gpu(4)`, plus DARSIE
//! under the LRR scheduler, must reproduce a recorded `(cycles,
//! digest_root)` pair. The root chains every SM's architectural state and
//! the memory system epoch by epoch, so any change to simulated behaviour,
//! however small, moves it. A hot-loop rewrite that claims "byte-identical
//! simulation" passes this table unmodified.
//!
//! To regenerate after an intended behaviour change, run the test and
//! paste the table it prints on failure.

use darsie_bench::{eval_gpu, fig12_techniques, fig8_techniques};
use gpu_sim::{GpuConfig, SchedulerPolicy, Technique};
use simt_verify::parallel_map;
use workloads::{catalog, Scale};

/// `(workload, technique label, cycles, digest root)`.
const GOLDEN: &[(&str, &str, u64, u64)] = &[
    ("BIN", "BASE", 988, 0x6f36cfb47ebd3196),
    ("BIN", "UV", 984, 0x6c9349f2c72479d7),
    ("BIN", "DAC-IDEAL", 974, 0x395325a1cb921b9c),
    ("BIN", "DARSIE", 1021, 0xec468d43ded055e0),
    ("BIN", "DARSIE-IGNORE-STORE", 1021, 0xec468d43ded055e0),
    ("BIN", "DARSIE-NO-CF-SYNC", 992, 0xdb8d0d7ad1634a52),
    ("BIN", "SILICON-SYNC", 1231, 0xf0d9766cd82a306f),
    ("BIN", "DARSIE-LRR", 1017, 0x2b721b74941d94c9),
    ("PT", "BASE", 3848, 0x2796492f2b99f1fd),
    ("PT", "UV", 3825, 0x780deec5f51435c5),
    ("PT", "DAC-IDEAL", 3521, 0x662aec852813d7a4),
    ("PT", "DARSIE", 3684, 0x2704d939a9df3345),
    ("PT", "DARSIE-IGNORE-STORE", 3684, 0x2704d939a9df3345),
    ("PT", "DARSIE-NO-CF-SYNC", 3639, 0xd3da15323314deb0),
    ("PT", "SILICON-SYNC", 4060, 0x0448e57eae05cf8f),
    ("PT", "DARSIE-LRR", 3698, 0x5e493fed8d12ef86),
    ("FW", "BASE", 2181, 0x064db86f9ce3d216),
    ("FW", "UV", 2134, 0x54672c886d88b5cb),
    ("FW", "DAC-IDEAL", 1959, 0xd832682d9bc67cf5),
    ("FW", "DARSIE", 1997, 0x2945cf3946d5d213),
    ("FW", "DARSIE-IGNORE-STORE", 1997, 0x2945cf3946d5d213),
    ("FW", "DARSIE-NO-CF-SYNC", 1963, 0xd77e75e50adee64e),
    ("FW", "SILICON-SYNC", 2222, 0x001aa90a1c4e6ba8),
    ("FW", "DARSIE-LRR", 1993, 0xc0e34e4819e2056d),
    ("SR1", "BASE", 739, 0xd951d7a4c6611e96),
    ("SR1", "UV", 752, 0xdcb1bf235d452a2f),
    ("SR1", "DAC-IDEAL", 685, 0x68cc989a62c8bd00),
    ("SR1", "DARSIE", 729, 0x7554be5355eefcda),
    ("SR1", "DARSIE-IGNORE-STORE", 729, 0x7554be5355eefcda),
    ("SR1", "DARSIE-NO-CF-SYNC", 729, 0x7554be5355eefcda),
    ("SR1", "SILICON-SYNC", 925, 0x1379dfee4d5807c5),
    ("SR1", "DARSIE-LRR", 730, 0x3d2b9592db6d04c9),
    ("LIB", "BASE", 1713, 0x61deca25c250d9f6),
    ("LIB", "UV", 1451, 0x11de7d9e626014f5),
    ("LIB", "DAC-IDEAL", 917, 0x34f19a6880c4b857),
    ("LIB", "DARSIE", 1801, 0x0965216f0233c676),
    ("LIB", "DARSIE-IGNORE-STORE", 1801, 0x0965216f0233c676),
    ("LIB", "DARSIE-NO-CF-SYNC", 1661, 0x09aa4ca08f758078),
    ("LIB", "SILICON-SYNC", 2188, 0x273ad4ecf7c558fc),
    ("LIB", "DARSIE-LRR", 1803, 0xefbc46a7fcd60c6b),
    ("IMNLM", "BASE", 2222, 0x76924d6f4cc690c5),
    ("IMNLM", "UV", 2199, 0x297c36b7fd4ec127),
    ("IMNLM", "DAC-IDEAL", 1925, 0x13aebe926d2b5fea),
    ("IMNLM", "DARSIE", 2014, 0xa50f601eea454246),
    ("IMNLM", "DARSIE-IGNORE-STORE", 2014, 0xa50f601eea454246),
    ("IMNLM", "DARSIE-NO-CF-SYNC", 1727, 0x6a900326e0eac435),
    ("IMNLM", "SILICON-SYNC", 2937, 0x7ea12c32a15588eb),
    ("IMNLM", "DARSIE-LRR", 2009, 0xea5a96c90f21d747),
    ("BP", "BASE", 1824, 0xcd1360c52d35ff9b),
    ("BP", "UV", 1830, 0x49e8eb3f7089c68d),
    ("BP", "DAC-IDEAL", 1800, 0xf79e0102729af959),
    ("BP", "DARSIE", 1605, 0xb9069ffe9494c1a1),
    ("BP", "DARSIE-IGNORE-STORE", 1605, 0xb9069ffe9494c1a1),
    ("BP", "DARSIE-NO-CF-SYNC", 1605, 0x8d4cbc774fc08f15),
    ("BP", "SILICON-SYNC", 2112, 0x7a9b2db419a43ed1),
    ("BP", "DARSIE-LRR", 1608, 0xb9c0d55ef8d6eab3),
    ("DCT8x8", "BASE", 1927, 0x55d5a72b190e0a87),
    ("DCT8x8", "UV", 1866, 0x9f0e3d783f8173f6),
    ("DCT8x8", "DAC-IDEAL", 1676, 0x00957acdd0d97b41),
    ("DCT8x8", "DARSIE", 2355, 0xb5030177d6b1f407),
    ("DCT8x8", "DARSIE-IGNORE-STORE", 2355, 0xb5030177d6b1f407),
    ("DCT8x8", "DARSIE-NO-CF-SYNC", 2339, 0x551beb1b2fe68b19),
    ("DCT8x8", "SILICON-SYNC", 2206, 0x59449ca883eca294),
    ("DCT8x8", "DARSIE-LRR", 2355, 0xd4bff9811d94e08c),
    ("FWS", "BASE", 600, 0x14a71691831279c2),
    ("FWS", "UV", 599, 0x1fa8157d76e4e3e6),
    ("FWS", "DAC-IDEAL", 597, 0x10d14e2e45d2fb8a),
    ("FWS", "DARSIE", 485, 0x907e8bb38d5631e5),
    ("FWS", "DARSIE-IGNORE-STORE", 485, 0x9f1b4b8dc8bb0540),
    ("FWS", "DARSIE-NO-CF-SYNC", 485, 0x907e8bb38d5631e5),
    ("FWS", "SILICON-SYNC", 679, 0x3834f2ef76531131),
    ("FWS", "DARSIE-LRR", 485, 0x4f22faa3d4a788ed),
    ("HS", "BASE", 858, 0xa6b23b4d0a4cdf64),
    ("HS", "UV", 858, 0xa6d35441443e26fd),
    ("HS", "DAC-IDEAL", 854, 0x56d6873fcb02732d),
    ("HS", "DARSIE", 842, 0x1e8ab1b633106caf),
    ("HS", "DARSIE-IGNORE-STORE", 842, 0x1e8ab1b633106caf),
    ("HS", "DARSIE-NO-CF-SYNC", 842, 0x1e8ab1b633106caf),
    ("HS", "SILICON-SYNC", 1037, 0x0c3c98c4b8fe3c61),
    ("HS", "DARSIE-LRR", 842, 0x289403652b29795d),
    ("CP", "BASE", 1223, 0xcc4d9b1cfe694295),
    ("CP", "UV", 1165, 0x88285df230560ea7),
    ("CP", "DAC-IDEAL", 1138, 0x392003afd3a135ed),
    ("CP", "DARSIE", 1279, 0x225e5e28ac15c2b2),
    ("CP", "DARSIE-IGNORE-STORE", 1279, 0x225e5e28ac15c2b2),
    ("CP", "DARSIE-NO-CF-SYNC", 1216, 0xdae286971fd10d7c),
    ("CP", "SILICON-SYNC", 1689, 0x15a7881a99923d1e),
    ("CP", "DARSIE-LRR", 1279, 0x6ae6a8585975d00d),
    ("CONVTEX", "BASE", 978, 0x3ea2199cfe07e6c4),
    ("CONVTEX", "UV", 972, 0xac2d672b6d0e0ede),
    ("CONVTEX", "DAC-IDEAL", 867, 0x42bf09c764b46c30),
    ("CONVTEX", "DARSIE", 1072, 0xae66445405b88605),
    ("CONVTEX", "DARSIE-IGNORE-STORE", 1072, 0x7c4d9090608f7781),
    ("CONVTEX", "DARSIE-NO-CF-SYNC", 958, 0x2a1cda6c88ef6454),
    ("CONVTEX", "SILICON-SYNC", 1565, 0x58a067733cad1da1),
    ("CONVTEX", "DARSIE-LRR", 1071, 0xbf60caa0d87a4bc2),
    ("MM", "BASE", 7471, 0xcce98fc40e00824f),
    ("MM", "UV", 7411, 0x8a172dd2f66dbf25),
    ("MM", "DAC-IDEAL", 7019, 0x84dbf9d2b12058af),
    ("MM", "DARSIE", 5304, 0x98de5e523d1fca25),
    ("MM", "DARSIE-IGNORE-STORE", 5304, 0x98de5e523d1fca25),
    ("MM", "DARSIE-NO-CF-SYNC", 5738, 0xd9bffba2c90dfa03),
    ("MM", "SILICON-SYNC", 14343, 0x31cbc22e4f47ce08),
    ("MM", "DARSIE-LRR", 5294, 0xe89b60dadd767495),
];

/// The seven figure techniques, in first-appearance order.
fn techniques() -> Vec<Technique> {
    let mut ts = fig8_techniques();
    for t in fig12_techniques() {
        if !ts.contains(&t) {
            ts.push(t);
        }
    }
    ts
}

#[test]
fn catalog_digest_roots_match_the_golden_table() {
    let cfg = eval_gpu(4);
    let lrr = GpuConfig { scheduler: SchedulerPolicy::Lrr, ..cfg.clone() };
    let ts = techniques();
    assert_eq!(ts.len(), 7, "Figure 8 ∪ Figure 12 has seven techniques");
    let workloads = catalog(Scale::Test);
    let mut jobs: Vec<(usize, &GpuConfig, Technique, String)> = Vec::new();
    for i in 0..workloads.len() {
        for t in &ts {
            jobs.push((i, &cfg, t.clone(), t.label().to_string()));
        }
        jobs.push((i, &lrr, Technique::darsie(), "DARSIE-LRR".to_string()));
    }
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let got: Vec<(&str, String, u64, u64)> = parallel_map(&jobs, threads, |(i, c, t, label)| {
        let w = &workloads[*i];
        let r = w.run(c, t.clone());
        (w.abbr, label.clone(), r.cycles, r.stats.digest_root)
    });

    let table: String = got
        .iter()
        .map(|(abbr, label, cycles, root)| {
            format!("    (\"{abbr}\", \"{label}\", {cycles}, {root:#018x}),\n")
        })
        .collect();
    let expected: Vec<(&str, String, u64, u64)> =
        GOLDEN.iter().map(|&(a, l, c, r)| (a, l.to_string(), c, r)).collect();
    assert!(
        got == expected,
        "digest roots differ from the golden table ({} runs, {} recorded); \
         the observed table is:\n{table}",
        got.len(),
        expected.len()
    );
}
