//! The per-method isolation contract behind cache replay: checking one
//! method reads its own body and nothing but interface facts about the
//! rest of the program. `sjava-cache` keys a method's cached result on
//! its own body and its callees' summary hashes only, so replaying that
//! result is sound only while this holds.
//!
//! Every reachable method of the paper apps and the adversarial stress
//! preset is checked twice — against the whole program, and against a
//! [`reduce`]d view in which every other method body is empty — and the
//! flow, aliasing and termination results must agree exactly.

use sjava_analysis::callgraph::{self, MethodRef};
use sjava_analysis::shard::ShardInput;
use sjava_analysis::{termination, written};
use sjava_core::{checker, linear, Lattices};
use sjava_syntax::ast::{Block, Program};
use sjava_syntax::diag::Diagnostics;
use std::collections::BTreeSet;

/// The program view a check of `owned` is entitled to: every class
/// declaration is kept (so name and type resolution behave identically),
/// but method bodies survive only for declarations some owned reference
/// resolves to; all other bodies become empty blocks. Field initializers
/// and all annotations stay — they are interface facts.
fn reduce(program: &Program, owned: &BTreeSet<MethodRef>) -> Program {
    // A reference (A, m) may resolve to a declaration inherited from a
    // superclass B, so the keep-set is over *declaring* (class, method)
    // pairs, not over the references themselves.
    let mut keep: BTreeSet<(String, String)> = BTreeSet::new();
    for mref in owned {
        if let Some((decl_class, method)) = program.resolve_method(&mref.0, &mref.1) {
            keep.insert((decl_class.name.clone(), method.name.clone()));
        }
    }
    let classes = program
        .classes
        .iter()
        .map(|c| {
            let mut class = c.clone();
            for m in &mut class.methods {
                if !keep.contains(&(c.name.clone(), m.name.clone())) {
                    m.body = Block {
                        stmts: Vec::new(),
                        span: m.body.span,
                    };
                }
            }
            class
        })
        .collect();
    Program::new(classes)
}

fn corpora() -> Vec<(&'static str, String)> {
    vec![
        ("windsensor", sjava_apps::windsensor::SOURCE.to_string()),
        ("eyetrack", sjava_apps::eyetrack::SOURCE.to_string()),
        ("sumobot", sjava_apps::sumobot::SOURCE.to_string()),
        ("mp3dec", sjava_apps::mp3dec::source().to_string()),
        ("weather", sjava_apps::weather::SOURCE.to_string()),
        (
            "stress_adversarial",
            sjava_bench::stressgen::generate(&sjava_bench::stressgen::StressConfig::adversarial()),
        ),
    ]
}

#[test]
fn per_method_checks_read_no_foreign_body() {
    for (name, source) in corpora() {
        let program = sjava_syntax::parse(&source).unwrap_or_else(|d| panic!("{name}: {d}"));
        let mut scratch = Diagnostics::new();
        let lattices = Lattices::build(&program, &mut scratch);
        let cg = callgraph::build(&program, &mut scratch)
            .unwrap_or_else(|| panic!("{name}: no call graph"));
        let summaries = written::analyze(&program, &cg, &mut scratch).summaries;
        let whole = ShardInput::whole(&program);
        for mref in &cg.topo {
            let view = reduce(&program, &BTreeSet::from([mref.clone()]));
            let alone = ShardInput::whole(&view);
            let flows = |input: &ShardInput<'_>| {
                checker::check_method_flows(input, &lattices, mref, &summaries).to_string()
            };
            assert_eq!(flows(&whole), flows(&alone), "{name} {mref:?}: flow");
            let aliasing = |input: &ShardInput<'_>| {
                linear::check_method_aliasing(input, &lattices, mref).to_string()
            };
            assert_eq!(
                aliasing(&whole),
                aliasing(&alone),
                "{name} {mref:?}: aliasing"
            );
            let term = |input: &ShardInput<'_>| {
                let (n, d) = termination::check_method(input, mref);
                (n, d.to_string())
            };
            assert_eq!(term(&whole), term(&alone), "{name} {mref:?}: termination");
        }
    }
}

const SRC: &str = "class A {
    void main() { SSJAVA: while (true) { step(); other(); } }
    void step() { helper(); }
    void other() { int x = 1; }
    void helper() { int y = 2; }
 }";

#[test]
fn reduce_keeps_owned_bodies_only() {
    let p = sjava_syntax::parse(SRC).expect("parses");
    let owned = BTreeSet::from([("A".to_string(), "step".to_string())]);
    let view = reduce(&p, &owned);
    let body_len = |prog: &Program, name: &str| {
        prog.classes[0]
            .methods
            .iter()
            .find(|m| m.name == name)
            .expect("present")
            .body
            .stmts
            .len()
    };
    assert!(body_len(&view, "step") > 0);
    assert_eq!(body_len(&view, "main"), 0);
    assert_eq!(body_len(&view, "helper"), 0);
    // Signatures and class set are untouched.
    assert_eq!(view.classes.len(), p.classes.len());
    assert_eq!(
        sjava_analysis::shard::class_interface_hash(&view.classes[0]),
        sjava_analysis::shard::class_interface_hash(&p.classes[0]),
    );
}

#[test]
fn reduce_keeps_inherited_decl_of_owned_reference() {
    let p = sjava_syntax::parse(
        "class A { void main() { SSJAVA: while (true) { go(); } } }
         class B { void go() { int x = 1; } }
         class C extends B { }",
    )
    .expect("parses");
    // The reference (C, go) resolves to B's declaration; owning it must
    // keep B.go's body.
    let owned = BTreeSet::from([("C".to_string(), "go".to_string())]);
    let view = reduce(&p, &owned);
    let b = view.classes.iter().find(|c| c.name == "B").expect("B");
    assert!(!b.methods[0].body.stmts.is_empty());
}
