//! Cross-crate integration: every benchmark goes through parse → check →
//! execute → inject → recover, and the checker's verdict agrees with the
//! observed runtime behaviour.

use sjava::runtime::InputProvider;
use sjava::runtime::Interpreter;
use sjava::{check, compare_runs, parse, ExecOptions, Injector};

fn assert_bounded_recovery<I: InputProvider, F: Fn(u64) -> I>(
    source: &str,
    entry: (&str, &str),
    make_inputs: F,
    iterations: usize,
    bound: usize,
) {
    let program = parse(source).expect("parses");
    let report = check(&program);
    assert!(report.is_ok(), "{}", report.diagnostics);
    let golden = Interpreter::new(&program, make_inputs(0), ExecOptions::default())
        .run(entry.0, entry.1, iterations)
        .expect("golden");
    let mut diverged = 0;
    for seed in 0..25u64 {
        let trigger = 1 + seed * golden.steps / 30;
        let run = Interpreter::new(&program, make_inputs(0), ExecOptions::default())
            .with_injector(Injector::new(seed, trigger))
            .run(entry.0, entry.1, iterations)
            .expect("injected");
        let stats = compare_runs(&golden.iteration_outputs, &run.iteration_outputs, 1e-9);
        if stats.diverged {
            diverged += 1;
            assert!(
                stats.recovery_iterations <= bound,
                "seed {seed}: recovery {} > bound {bound}",
                stats.recovery_iterations
            );
        }
    }
    assert!(
        diverged > 0,
        "the campaign must hit live state at least once"
    );
}

#[test]
fn windsensor_end_to_end() {
    assert_bounded_recovery(
        sjava::apps::windsensor::SOURCE,
        sjava::apps::windsensor::ENTRY,
        sjava::apps::windsensor::inputs,
        30,
        3,
    );
}

#[test]
fn eyetrack_end_to_end() {
    assert_bounded_recovery(
        sjava::apps::eyetrack::SOURCE,
        sjava::apps::eyetrack::ENTRY,
        sjava::apps::eyetrack::inputs,
        40,
        3,
    );
}

#[test]
fn sumobot_end_to_end() {
    assert_bounded_recovery(
        sjava::apps::sumobot::SOURCE,
        sjava::apps::sumobot::ENTRY,
        sjava::apps::sumobot::inputs,
        40,
        1,
    );
}

#[test]
fn mp3dec_end_to_end() {
    let src = sjava::apps::mp3dec::source_with(16, 4);
    assert_bounded_recovery(
        &src,
        sjava::apps::mp3dec::ENTRY,
        |seed| sjava::apps::mp3dec::inputs_for(seed, 16),
        8,
        3, // two frames of pipeline state plus the window tail
    );
}

#[test]
fn checker_rejects_the_program_the_runtime_shows_unstable() {
    // A program with a genuinely sticky error: the accumulator keeps the
    // corruption forever. The checker must reject it, and the runtime
    // must demonstrate non-recovery — the two tools agree.
    let source = r#"
        @LATTICE("ACC<IN,ACC*")
        class Acc {
            @LOC("ACC") int total;
            @LATTICE("S<IN2") @THISLOC("S")
            void run() {
                SSJAVA: while (true) {
                    @LOC("IN2") int x = Device.read();
                    total = total + x;
                    Out.emit(total);
                }
            }
        }"#;
    let program = parse(source).expect("parses");
    let report = check(&program);
    assert!(!report.is_ok(), "sticky accumulator must be rejected");

    let inputs = || sjava::ScriptedInput::new().channel("read", vec![sjava::Value::Int(1)]);
    let golden = Interpreter::new(&program, inputs(), ExecOptions::default())
        .run("Acc", "run", 20)
        .expect("golden");
    let injected = Interpreter::new(&program, inputs(), ExecOptions::default())
        .with_injector(Injector::new(5, 12))
        .run("Acc", "run", 20)
        .expect("injected");
    let stats = compare_runs(&golden.iteration_outputs, &injected.iteration_outputs, 0.0);
    assert!(stats.diverged);
    // The corruption never leaves: the last iteration still differs.
    assert_eq!(
        stats.last_bad_iteration,
        Some(golden.iteration_outputs.len() - 1),
        "accumulator corruption must persist to the end"
    );
}

#[test]
fn verified_programs_recover_in_lattice_height_iterations() {
    // Theorem 4.5.3 made executable: the wind sensor's longest field chain
    // is DIR0>DIR1>DIR2 (height 4 with ⊤/⊥) and recovery never exceeds
    // the number of named levels.
    let program = parse(sjava::apps::windsensor::SOURCE).expect("parses");
    let report = check(&program);
    assert!(report.is_ok());
    let height = report
        .lattices
        .field_lattice("WindRec")
        .expect("lattice")
        .height();
    assert_eq!(height, 4);
    let golden = Interpreter::new(
        &program,
        sjava::apps::windsensor::inputs(0),
        ExecOptions::default(),
    )
    .run("WDSensor", "windDirection", 30)
    .expect("golden");
    for seed in 0..30u64 {
        let trigger = 1 + seed * golden.steps / 35;
        let run = Interpreter::new(
            &program,
            sjava::apps::windsensor::inputs(0),
            ExecOptions::default(),
        )
        .with_injector(Injector::new(seed, trigger))
        .run("WDSensor", "windDirection", 30)
        .expect("injected");
        let stats = compare_runs(&golden.iteration_outputs, &run.iteration_outputs, 0.0);
        if stats.diverged {
            assert!(stats.recovery_iterations < height);
        }
    }
}
