//! The lattice model builds each distinct declaration once and shares it.
//!
//! On every paper app, stress preset and fuzz near-miss fixture: each
//! field and method lattice equals `Lattice::from_decl` of its effective
//! declaration (the empty lattice when there is none or it is invalid),
//! every use of an equal declaration holds the same `Arc`, and so does
//! every use of the empty lattice.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

use sjava_bench::stressgen::{generate, StressConfig};
use sjava_core::model::EffectiveAnnots;
use sjava_core::Lattices;
use sjava_lattice::Lattice;
use sjava_syntax::annot::LatticeDecl;
use sjava_syntax::diag::Diagnostics;

/// Every corpus the test covers, by name.
fn corpora() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = vec![
        ("windsensor".into(), sjava_apps::windsensor::SOURCE.into()),
        ("eyetrack".into(), sjava_apps::eyetrack::SOURCE.into()),
        ("sumobot".into(), sjava_apps::sumobot::SOURCE.into()),
        ("mp3dec".into(), sjava_apps::mp3dec::source().into()),
        ("weather".into(), sjava_apps::weather::SOURCE.into()),
        ("stress_small".into(), generate(&StressConfig::small())),
        ("stress_large".into(), generate(&StressConfig::large())),
        (
            "stress_adversarial".into(),
            generate(&StressConfig::adversarial()),
        ),
    ];
    let fuzz = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fuzz");
    let mut fixtures: Vec<PathBuf> = std::fs::read_dir(&fuzz)
        .expect("fuzz fixture directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "sj"))
        .collect();
    fixtures.sort();
    assert!(!fixtures.is_empty(), "no fuzz near-miss fixtures found");
    for path in fixtures {
        let source = std::fs::read_to_string(&path).expect("fixture reads");
        out.push((path.display().to_string(), source));
    }
    out
}

/// A declaration's content, the key the model shares lattices under;
/// `None` for "no declaration".
type Content = Option<(Vec<(String, String)>, Vec<String>, Vec<String>)>;

fn content(decl: Option<&LatticeDecl>) -> Content {
    decl.map(|d| (d.orders.clone(), d.shared.clone(), d.isolated.clone()))
}

/// The lattice a declaration builds on its own; `None` when there is no
/// declaration or it is invalid, and the model uses the empty lattice.
fn built(decl: Option<&LatticeDecl>) -> Option<Lattice> {
    decl.and_then(|d| Lattice::from_decl(&d.orders, &d.shared, &d.isolated).ok())
}

#[test]
fn every_lattice_is_exact_and_equal_declarations_share_one() {
    for (name, source) in corpora() {
        let program =
            sjava_syntax::parse(&source).unwrap_or_else(|d| panic!("{name}: does not parse:\n{d}"));
        let model = Lattices::build(&program, &mut Diagnostics::new());
        // The model keeps the last class and method of a duplicated name,
        // so the uses are collected the same way.
        let mut fields: BTreeMap<&str, Option<&LatticeDecl>> = BTreeMap::new();
        let mut methods: BTreeMap<(String, String), Option<&LatticeDecl>> = BTreeMap::new();
        for class in &program.classes {
            fields.insert(&class.name, class.annots.lattice.as_ref());
            for method in &class.methods {
                let decl = EffectiveAnnots::of(class, method).lattice;
                methods.insert((class.name.clone(), method.name.clone()), decl);
            }
        }
        let uses = fields
            .iter()
            .map(|(class, decl)| (format!("class {class}"), *decl, &model.fields[*class]))
            .chain(methods.iter().map(|(key, decl)| {
                (
                    format!("method {}.{}", key.0, key.1),
                    *decl,
                    &model.methods[key].lattice,
                )
            }));
        let mut shared: BTreeMap<Content, &Arc<Lattice>> = BTreeMap::new();
        let mut empty: Option<&Arc<Lattice>> = None;
        for (what, decl, lattice) in uses {
            let want = built(decl);
            if want.is_none() {
                let first = *empty.get_or_insert(lattice);
                assert!(
                    Arc::ptr_eq(first, lattice),
                    "{name}: {what} does not share the empty lattice"
                );
            }
            let want = want.unwrap_or_default();
            assert_eq!(**lattice, want, "{name}: {what} has the wrong lattice");
            let first = *shared.entry(content(decl)).or_insert(lattice);
            assert!(
                Arc::ptr_eq(first, lattice),
                "{name}: {what} does not share its declaration's lattice"
            );
        }
    }
}
