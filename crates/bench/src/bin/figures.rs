//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p darsie-bench --bin figures -- all
//! cargo run --release -p darsie-bench --bin figures -- fig8 fig11
//! cargo run --release -p darsie-bench --bin figures -- --scale test fig2
//! cargo run --release -p darsie-bench --bin figures -- --scale test --sms 2 ablations
//! ```
//!
//! `all` prints every paper table and figure; the `ablations` design-choice
//! sweep runs only when named. The catalog is built once, and every
//! simulation the named artifacts need runs once, on all available cores,
//! before anything is printed.

use darsie_bench::{
    eval_gpu, fig12_techniques, fig8_techniques, render_fig1, render_fig2, render_table1,
    render_table2, render_table3, Plan, ALL_ARTIFACTS,
};
use gpu_energy::{AreaEstimate, AreaParams};
use gpu_sim::trace_redundancy;
use simt_compiler::compile;
use simt_isa::{KernelBuilder, LaunchConfig, MemSpace, SpecialReg, Value};
use std::num::NonZeroUsize;
use workloads::{catalog, Scale};

fn usage() -> ! {
    eprintln!(
        "usage: figures [--scale eval|test] [--sms N] <artifact>...\n\
         artifacts: fig1 fig2 fig3 fig6 fig8 fig9 fig10 fig11 fig12 \
         table1 table2 table3 area ablations all"
    );
    std::process::exit(2);
}

fn main() {
    let mut scale = Scale::Eval;
    let mut sms = 4usize;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut artifacts: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                scale = match it.next().map(String::as_str) {
                    Some("eval") => Scale::Eval,
                    Some("test") => Scale::Test,
                    _ => usage(),
                }
            }
            "--sms" => {
                sms = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage());
            }
            "-h" | "--help" => usage(),
            other if ALL_ARTIFACTS.contains(&other) || other == "ablations" || other == "all" => {
                artifacts.push(other);
            }
            _ => usage(),
        }
    }
    if artifacts.is_empty() {
        usage();
    }
    if artifacts.contains(&"all") {
        artifacts = ALL_ARTIFACTS.to_vec();
    }

    let cfg = eval_gpu(sms);
    let workloads = catalog(scale);
    let threads = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
    let table = Plan::for_artifacts(&artifacts, &workloads, &cfg).run(&workloads, threads);
    let fig8 = || table.report(&workloads, &cfg, &fig8_techniques());

    for artifact in artifacts {
        match artifact {
            "table1" => println!("{}", render_table1(&workloads)),
            "table2" => println!("{}", render_table2(&cfg)),
            "table3" => println!("{}", render_table3()),
            "area" => {
                println!("Section 6.3: area estimate");
                println!("{}\n", AreaEstimate::compute(&AreaParams::default()).report());
            }
            "fig1" => println!("{}", render_fig1(&table.limit_study(&workloads))),
            "fig2" => println!("{}", render_fig2(&table.limit_study(&workloads))),
            "fig3" => println!("{}", fig3_walkthrough()),
            "fig6" => println!("{}", fig6_markings()),
            "fig8" => println!("{}", fig8().render_fig8()),
            "fig9" => println!("{}", fig8().render_insn_reduction(false)),
            "fig10" => println!("{}", fig8().render_insn_reduction(true)),
            "fig11" => println!("{}", fig8().render_fig11()),
            "fig12" => println!(
                "{}",
                table
                    .report(&workloads, &cfg, &fig12_techniques())
                    .render_speedups("Figure 12: effect of synchronization (speedup over BASE)")
            ),
            "ablations" => println!("{}", table.render_ablations(&workloads, &cfg)),
            _ => unreachable!("artifact names are checked while parsing"),
        }
    }
}

/// The paper's Figure-3 worked example: the same three-instruction kernel
/// under a 1D (8,1) and a 2D (4,2) threadblock with warp size 4, showing
/// the per-warp register patterns the taxonomy classifies.
fn fig3_walkthrough() -> String {
    use std::fmt::Write as _;
    let mut out = String::from("Figure 3: tid.x chain under 1D and 2D threadblocks (warp=4)\n");
    for (label, block) in
        [("1D (8,1)", simt_isa::Dim3::one_d(8)), ("2D (4,2)", simt_isa::Dim3::two_d(4, 2))]
    {
        let mut b = KernelBuilder::new("fig3");
        let t = b.special(SpecialReg::TidX);
        let r1 = b.imul(t, 4u32);
        let r2 = b.iadd(r1, 16u32);
        let v = b.load(MemSpace::Global, r2, 0);
        b.store(MemSpace::Global, 0u32, v, 0);
        let ck = compile(b.finish());
        let mut mem = gpu_sim::GlobalMemory::new();
        // Array of "random" words at base 16.
        mem.write_slice_u32(16, &[7, 3, 0, 90, 55, 8, 22, 1]);
        let launch = LaunchConfig::new(1u32, block).with_warp_size(4).with_params(vec![Value(0)]);
        let (trace, _) = trace_redundancy(&ck, &launch, mem);
        let _ = writeln!(
            out,
            "{label:9} executed={:3}  TB-redundant={:3}  affine={}  unstructured={}",
            trace.executed, trace.tb_redundant, trace.affine, trace.unstructured
        );
    }
    out
}

/// Figure 6: the compiler's DR/CR/V markings on the MatrixMul kernel.
fn fig6_markings() -> String {
    let w = workloads::by_abbr("MM", Scale::Test).expect("MM exists");
    format!(
        "Figure 6: compiler markings for the MatrixMul kernel\n{}",
        w.ck.annotated_disassembly()
    )
}
