//! VM and fault-injection throughput: decoding frames in a golden run
//! and a small Fig 6.1 campaign (compile, recorded golden run, trials).

use criterion::{criterion_group, criterion_main, Criterion};
use sjava_apps::mp3dec;
use sjava_runtime::{compile, Campaign, ExecOptions, Vm};
use std::hint::black_box;

fn bench_decode(c: &mut Criterion) {
    let g = 48;
    let src = mp3dec::source_with(g, 4);
    let program = sjava_syntax::parse(&src).expect("parses");
    let module = compile(&program);
    let mut vm = Vm::new(&module, mp3dec::inputs_for(0, g), ExecOptions::default());
    c.bench_function("decode_4_frames", |b| {
        b.iter(|| {
            vm.set_inputs(mp3dec::inputs_for(0, g));
            vm.run(mp3dec::ENTRY.0, mp3dec::ENTRY.1, black_box(4))
                .expect("golden run")
                .steps
        })
    });
    let campaign = Campaign {
        trials: 16,
        inject_window: 0.6,
        eps: 1e-9,
        threads: Some(1),
        ..Campaign::new(&program, mp3dec::ENTRY, 4)
    };
    c.bench_function("campaign_16_trials_4_frames", |b| {
        b.iter(|| {
            black_box(campaign)
                .run(|| mp3dec::inputs_for(0, g))
                .expect("campaign entry resolves")
                .diverged()
        })
    });
}

fn bench_eviction(c: &mut Criterion) {
    // Ablation: eviction analysis cost alone vs the full check.
    let program = sjava_syntax::parse(sjava_apps::mp3dec::source()).expect("parses");
    c.bench_function("eviction_only_mp3dec", |b| {
        b.iter(|| {
            let mut d = sjava_syntax::diag::Diagnostics::new();
            let cg = sjava_analysis::callgraph::build(black_box(&program), &mut d).expect("cg");
            sjava_analysis::written::analyze(&program, &cg, &mut d)
                .summaries
                .len()
        })
    });
}

criterion_group!(benches, bench_decode, bench_eviction);
criterion_main!(benches);
