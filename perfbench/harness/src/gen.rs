//! Seeded inputs: the `cold` program draw and the `edit` stream.
//!
//! Everything here is a pure function of the workload seed. Sizes and
//! edit positions are stratified (one draw per equal-width stratum) so
//! that two seeds give different inputs with the same overall shape,
//! which keeps a run's medians comparable across seeds.

use sjava_bench::stressgen::{generate, StressConfig};

/// splitmix64.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// How big the generated inputs are: `Full` for measurement, `Tiny` for
/// the self-test.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// One program of the `cold` draw.
pub struct ColdProgram {
    pub name: String,
    /// The source `sjava check` sees (one field `@LOC` stripped when
    /// `stripped_field` is set).
    pub source: String,
    /// The annotation-free source `sjava infer` sees.
    pub bare: String,
    /// `Class.field` whose `@LOC` was removed: the check must fail with
    /// an SJ0007 naming it.
    pub stripped_field: Option<String>,
}

/// The `cold` draw: programs of ~50–400 methods (one per size stratum,
/// near its middle), with the delta-chain, degenerate-lattice and
/// delegate-ring knobs drawn per program, and one program in four (one in
/// each run of four strata) missing one field `@LOC`.
pub fn cold_draw(seed: u64, scale: Scale) -> Vec<ColdProgram> {
    let mut rng = Rng::new(seed, 1);
    let (n, lo, hi) = match scale {
        Scale::Full => (24usize, 50.0, 400.0),
        Scale::Tiny => (4usize, 10.0, 40.0),
    };
    let stripped: Vec<usize> = (0..n / 4).map(|q| 4 * q + rng.below(4) as usize).collect();
    (0..n)
        .map(|i| {
            let target = lo + (hi - lo) * (i as f64 + 0.4 + 0.2 * rng.unit()) / n as f64;
            let methods = 4 + rng.below(7) as usize;
            let knob = |rng: &mut Rng, lo: u64, hi: u64| {
                if rng.below(2) == 0 {
                    0
                } else {
                    (lo + rng.below(hi - lo + 1)) as usize
                }
            };
            let cfg = StressConfig {
                classes: ((target - 1.0) / methods as f64).round().max(1.0) as usize,
                methods,
                fields: 3 + i % 4,
                loop_depth: 2 + i % 2,
                stmts: 3 + (i * 5) % 6,
                seed: rng.next(),
                delta_depth: knob(&mut rng, 2, 12),
                degenerate: knob(&mut rng, 2, 12),
                cyclic_delegates: knob(&mut rng, 2, 5),
            };
            let full = generate(&cfg);
            let program = sjava_syntax::parse(&full).expect("generated programs parse");
            let bare = sjava_syntax::pretty::print_program(
                &sjava_syntax::strip::strip_location_annotations(&program),
            );
            let (source, stripped_field) = if stripped.contains(&i) {
                let class = rng.below(cfg.classes as u64);
                let field = rng.below(cfg.fields.max(2) as u64);
                let (s, f) = strip_field_loc(&full, class, field);
                (s, Some(f))
            } else {
                (full, None)
            };
            ColdProgram {
                name: format!("p{i:02}_{}.sj", cfg.label()),
                source,
                bare,
                stripped_field,
            }
        })
        .collect()
}

/// Removes the `@LOC` of field `f{field}` in worker class `W{class}`,
/// the edit the `stress_missing_loc` golden makes.
fn strip_field_loc(src: &str, class: u64, field: u64) -> (String, String) {
    let at = src
        .find(&format!("\nclass W{class} {{"))
        .expect("worker class exists");
    let decl = format!("@LOC(\"F{field}\") int f{field};");
    let pos = at + src[at..].find(&decl).expect("worker field exists");
    let mut out = src.to_string();
    out.replace_range(pos..pos + decl.len(), &format!("int f{field};"));
    (out, format!("W{class}.f{field}"))
}

/// The source-text edit kinds of the `edit` stream.
pub const EDIT_KINDS: [&str; 5] = ["body-same-len", "body-insert", "header", "field", "resave"];

/// One step of the `edit` stream: a kind and where in the text it lands.
#[derive(Clone, Copy)]
pub struct EditStep {
    pub kind: usize,
    pub at: f64,
    pub salt: u64,
}

/// The large program the `edit` stream edits.
pub fn edit_base(seed: u64, scale: Scale) -> String {
    let mut rng = Rng::new(seed, 2);
    let cfg = match scale {
        Scale::Full => StressConfig {
            seed: rng.next(),
            ..StressConfig::large()
        },
        Scale::Tiny => StressConfig {
            classes: 4,
            methods: 3,
            fields: 3,
            loop_depth: 2,
            stmts: 3,
            seed: rng.next(),
            ..StressConfig::default()
        },
    };
    generate(&cfg)
}

/// Block `b` of the endless `edit` stream: the same number of steps of
/// each kind, in seeded order, at seeded positions one to a stratum of
/// the text. Any prefix of whole blocks has equal shares, however far a
/// run gets. Equal shares are a neutral choice, not a measured one: no
/// study of how often editors save each kind of edit backs them, so the
/// run also prints each kind's figures on its own. The seed draws the
/// order and the positions, not the shares, so that every seed puts the
/// same mix under a run's quantiles.
pub fn edit_block(seed: u64, scale: Scale, b: u64) -> Vec<EditStep> {
    let mut rng = Rng::new(seed, 3 + (b << 8));
    let n = match scale {
        Scale::Full => 12,
        Scale::Tiny => 2,
    };
    let mut steps = Vec::new();
    for kind in 0..EDIT_KINDS.len() {
        let mut slots: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut slots);
        for slot in slots {
            steps.push(EditStep {
                kind,
                at: (slot as f64 + rng.unit()) / n as f64,
                salt: rng.next(),
            });
        }
    }
    rng.shuffle(&mut steps);
    steps
}

/// Byte offsets of the starts of lines whose trimmed text satisfies
/// `keep`, from the first at or after `at` (a fraction of the text)
/// round to the start.
fn lines_from(text: &str, at: f64, keep: impl Fn(&str) -> bool) -> Vec<usize> {
    let mut starts = Vec::new();
    let mut pos = 0;
    for line in text.split_inclusive('\n') {
        if keep(line.trim()) {
            starts.push(pos);
        }
        pos += line.len();
    }
    let cut = (at * text.len() as f64) as usize;
    let split = starts.partition_point(|&s| s < cut);
    starts.rotate_left(split);
    starts
}

fn line_end(text: &str, start: usize) -> usize {
    text[start..].find('\n').map_or(text.len(), |i| start + i)
}

/// Integer literals of a line as `(start, end)` byte ranges relative to
/// the line: digit runs not touching an identifier or a string, before
/// any `//` comment an earlier edit appended.
fn literals(line: &str) -> Vec<(usize, usize)> {
    let code = line.find("//").map_or(line, |c| &line[..c]);
    let b = code.as_bytes();
    let word = |c: u8| c.is_ascii_alphanumeric() || c == b'_' || c == b'"';
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if b[i].is_ascii_digit() && (i == 0 || !word(b[i - 1])) {
            let mut j = i;
            while j < b.len() && b[j].is_ascii_digit() {
                j += 1;
            }
            if j == b.len() || !word(b[j]) {
                out.push((i, j));
            }
            i = j;
        } else {
            i += 1;
        }
    }
    out
}

/// Applies one step to `text`; `n` numbers the step, for fresh names.
/// Every kind keeps the program self-stabilizing: literal values,
/// whitespace, comments and an unused field do not change its typing.
pub fn apply_edit(text: &mut String, step: &EditStep, n: usize) {
    let mut rng = Rng::new(step.salt, 4);
    let body = |l: &str| l.starts_with("s = s + th");
    match EDIT_KINDS[step.kind] {
        "body-same-len" => {
            let line = lines_from(text, step.at, body)[0];
            let end = line_end(text, line);
            let lits = literals(&text[line..end]);
            let (s, e) = lits[rng.below(lits.len() as u64) as usize];
            let old = text.as_bytes()[line + e - 1] - b'0';
            let lowest = u8::from(e - s == 1);
            let mut new = lowest + rng.below(u64::from(10 - lowest)) as u8;
            if new == old {
                new = if new == 9 { lowest } else { new + 1 };
            }
            text.replace_range(line + e - 1..line + e, &char::from(b'0' + new).to_string());
        }
        "body-insert" => {
            let line = lines_from(text, step.at, body)[0];
            let end = line_end(text, line);
            let short: Vec<(usize, usize)> = literals(&text[line..end])
                .into_iter()
                .filter(|&(s, e)| e - s < 3)
                .collect();
            match rng.below(3) {
                0 => text.insert_str(end, &format!(" // edit {n}")),
                1 => text.insert(end, '\n'),
                _ if short.is_empty() => text.insert_str(end, &format!(" // edit {n}")),
                _ => {
                    let (_, e) = short[rng.below(short.len() as u64) as usize];
                    let digit = char::from(b'1' + rng.below(9) as u8);
                    text.insert(line + e, digit);
                }
            }
        }
        "header" => {
            let line = lines_from(text, step.at, |l| l.starts_with("int m") && l.contains('('))[0];
            let paren = line + text[line..].find('(').expect("header has a parameter list");
            text.insert(paren + 1, ' ');
        }
        "field" => {
            let class = lines_from(text, step.at, |l| l.starts_with("class W"))[0];
            let mut last = None;
            let mut pos = class + text[class..].find('\n').expect("class line ends") + 1;
            loop {
                let end = line_end(text, pos);
                let l = text[pos..end].trim();
                if !(l.starts_with("@LOC(") && l.ends_with(';')) {
                    break;
                }
                last = Some((pos, end));
                pos = end + 1;
            }
            let (s, e) = last.expect("worker classes declare fields");
            let decl = &text[s..e];
            let annot = &decl[..decl.find(" int ").expect("int field")];
            let field = format!("\n{annot} int pad{n};");
            text.insert_str(e, &field);
        }
        _ => {}
    }
}
