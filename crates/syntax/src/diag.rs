//! Diagnostics: structured errors carrying stable codes, source spans,
//! secondary labels, and machine-applicable suggestions.
//!
//! Every diagnostic carries a mandatory [`Code`] from the central
//! registry in [`crate::codes`]; construction goes through the typed
//! [`Diag`] factory (one constructor per check), so no emission site can
//! produce an uncoded diagnostic. The [`Diagnostic::render`] method
//! produces a rustc-style report with the source line, caret
//! underlining, and labeled secondary spans; the `Display` impl stays a
//! stable one-line form that the golden fixtures and determinism suites
//! byte-compare.

use crate::codes::Code;
use crate::span::{SourceFile, Span};
use std::fmt;

/// Severity of a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// A warning; checking may continue.
    Warning,
    /// A hard error; the phase that produced it failed.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// A secondary span attached to a diagnostic, e.g. the lattice
/// declaration that an offending assignment contradicts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Label {
    /// The secondary source range.
    pub span: Span,
    /// Short message shown next to the underline.
    pub message: String,
    /// File the span belongs to; `None` means the diagnostic's primary
    /// file (programs are single-file today, so this is almost always
    /// `None`).
    pub file: Option<String>,
}

/// A machine-applicable replacement for a span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Suggestion {
    /// The range to replace (zero-width for pure insertions).
    pub span: Span,
    /// The replacement text.
    pub replacement: String,
    /// Human-readable description of the fix.
    pub message: String,
}

/// A single diagnostic message anchored at a source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Severity class.
    pub severity: Severity,
    /// Stable registry code identifying the check that fired.
    pub code: Code,
    /// Human-readable message (lowercase, no trailing punctuation).
    pub message: String,
    /// Primary source location.
    pub span: Span,
    /// File the primary span belongs to; `None` means the file being
    /// checked (programs are single-file today).
    pub file: Option<String>,
    /// Secondary labeled spans.
    pub labels: Vec<Label>,
    /// Optional machine-applicable fix.
    pub suggestion: Option<Suggestion>,
    /// Optional secondary notes.
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// Creates an error diagnostic with the given registry code.
    pub fn error(code: Code, message: impl Into<String>, span: Span) -> Self {
        Diagnostic {
            severity: Severity::Error,
            code,
            message: message.into(),
            span,
            file: None,
            labels: Vec::new(),
            suggestion: None,
            notes: Vec::new(),
        }
    }

    /// Creates a warning diagnostic with the given registry code.
    pub fn warning(code: Code, message: impl Into<String>, span: Span) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::error(code, message, span)
        }
    }

    /// Attaches an explanatory note.
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Attaches a secondary labeled span in the primary file.
    pub fn with_label(mut self, span: Span, message: impl Into<String>) -> Self {
        self.labels.push(Label {
            span,
            message: message.into(),
            file: None,
        });
        self
    }

    /// Attaches a secondary labeled span in another file.
    pub fn with_label_in(
        mut self,
        file: impl Into<String>,
        span: Span,
        message: impl Into<String>,
    ) -> Self {
        self.labels.push(Label {
            span,
            message: message.into(),
            file: Some(file.into()),
        });
        self
    }

    /// Attaches a machine-applicable suggestion.
    pub fn with_suggestion(
        mut self,
        span: Span,
        replacement: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        self.suggestion = Some(Suggestion {
            span,
            replacement: replacement.into(),
            message: message.into(),
        });
        self
    }

    /// Total-order sort key: (file, span.start, span.end, code,
    /// severity, message). Used to make merged diagnostic order
    /// explicitly stable regardless of discovery order.
    pub fn sort_key(&self) -> (&str, u32, u32, u16, Severity, &str) {
        (
            self.file.as_deref().unwrap_or(""),
            self.span.start,
            self.span.end,
            self.code.number(),
            self.severity,
            &self.message,
        )
    }

    /// Renders the diagnostic against its source file in a rustc-style
    /// multi-line format: header with the full `line:col-line:col`
    /// range, the source line with caret underlining, labeled secondary
    /// spans, then notes and the suggestion.
    pub fn render(&self, file: &SourceFile) -> String {
        let mut out = format!("{}[{}]: {}\n", self.severity, self.code, self.message);
        let start = file.line_col(self.span.start);
        let end = file.line_col(self.span.end);
        let name = self.file.as_deref().unwrap_or(&file.name);

        // Gutter sized to the widest line number we will print.
        let mut max_line = start.line.max(end.line);
        for l in self.labels.iter().filter(|l| l.file.is_none()) {
            max_line = max_line.max(file.line_col(l.span.start).line);
        }
        let gutter = max_line.to_string().len();

        out.push_str(&format!(
            "{:gutter$}--> {}:{}:{}-{}:{}\n",
            "", name, start.line, start.col, end.line, end.col
        ));
        render_snippet(&mut out, file, self.span, '^', "", gutter);

        for label in &self.labels {
            match &label.file {
                Some(f) if *f != file.name => {
                    // A span in a file we cannot read here: report the
                    // location without a snippet.
                    out.push_str(&format!(
                        "{:gutter$}::: {}: {} (bytes {})\n",
                        "", f, label.message, label.span
                    ));
                }
                _ => {
                    render_snippet(&mut out, file, label.span, '-', &label.message, gutter);
                }
            }
        }

        for n in &self.notes {
            out.push_str(&format!("{:gutter$} = note: {}\n", "", n));
        }
        if let Some(s) = &self.suggestion {
            out.push_str(&format!(
                "{:gutter$} = help: {}: `{}`\n",
                "", s.message, s.replacement
            ));
        }
        out.push_str(&format!(
            "{:gutter$} = explain: run `sjava check --explain {}`",
            "", self.code
        ));
        out
    }
}

/// Width a character occupies in the rendered snippet (tabs expand to
/// four columns so carets line up under tab-containing lines).
fn display_width(c: char) -> usize {
    if c == '\t' {
        4
    } else {
        1
    }
}

/// Appends one `line | text` snippet with an underline row to `out`.
///
/// Multi-line spans underline to the end of the first line and note the
/// line where the span ends; zero-width spans render a single caret.
fn render_snippet(
    out: &mut String,
    file: &SourceFile,
    span: Span,
    mark: char,
    label: &str,
    gutter: usize,
) {
    let start = file.line_col(span.start);
    let end = file.line_col(span.end);
    let line_start = span.start - (start.col - 1);
    let text = &file.text[line_start as usize..];
    let line_text: &str = text.split('\n').next().unwrap_or("");
    let line_text = line_text.strip_suffix('\r').unwrap_or(line_text);

    // Tab-expanded display text and underline geometry.
    let mut shown = String::new();
    let mut pad = 0usize;
    let mut width = 0usize;
    for (i, c) in line_text.char_indices() {
        let w = display_width(c);
        if c == '\t' {
            shown.push_str("    ");
        } else {
            shown.push(c);
        }
        let off = line_start + i as u32;
        if off < span.start {
            pad += w;
        } else if off < span.end {
            width += w;
        }
    }
    let multi_line = end.line > start.line;
    if width == 0 && !multi_line {
        width = 1; // zero-width or EOF span: show one caret
    }

    out.push_str(&format!("{:gutter$} |\n", ""));
    out.push_str(&format!("{:>gutter$} | {}\n", start.line, shown));
    let mut underline = format!(
        "{:gutter$} | {}{}",
        "",
        " ".repeat(pad),
        mark.to_string().repeat(width.max(1))
    );
    if multi_line {
        underline.push_str(&format!("... (ends at {}:{})", end.line, end.col));
    }
    if !label.is_empty() {
        underline.push(' ');
        underline.push_str(label);
    }
    underline.push('\n');
    out.push_str(&underline);
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {} ({})",
            self.severity, self.code, self.message, self.span
        )
    }
}

impl std::error::Error for Diagnostic {}

/// Typed diagnostic constructors — one per registered check, so every
/// emission site names its check and receives the right code and
/// severity. This is the only construction surface the rest of the
/// workspace uses.
pub struct Diag;

impl Diag {
    /// SJ0001: lexical error.
    pub fn lex(message: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic::error(Code::Lex, message, span)
    }

    /// SJ0002: syntax error.
    pub fn parse(message: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic::error(Code::Parse, message, span)
    }

    /// SJ0003: malformed or unknown annotation.
    pub fn annot(message: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic::error(Code::Annot, message, span)
    }

    /// SJ0004: invalid lattice declaration.
    pub fn lattice(message: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic::error(Code::Lattice, message, span)
    }

    /// SJ0005: inheritance incompatibility.
    pub fn inherit(message: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic::error(Code::Inherit, message, span)
    }

    /// SJ0006: name-resolution failure.
    pub fn resolve(message: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic::error(Code::Resolve, message, span)
    }

    /// SJ0007: missing location annotation.
    pub fn missing_annot(message: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic::error(Code::MissingAnnot, message, span)
    }

    /// SJ0101: flow-down rule violation.
    pub fn flow_up(message: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic::error(Code::FlowUp, message, span)
    }

    /// SJ0102: implicit flow through the program counter.
    pub fn implicit_flow(message: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic::error(Code::ImplicitFlow, message, span)
    }

    /// SJ0103: call-site location constraint violation.
    pub fn call_site(message: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic::error(Code::CallSite, message, span)
    }

    /// SJ0201: linear-type aliasing violation.
    pub fn alias(message: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic::error(Code::Alias, message, span)
    }

    /// SJ0202: ownership-delegation misuse.
    pub fn delegate(message: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic::error(Code::Delegate, message, span)
    }

    /// SJ0301: stale heap location (eviction analysis).
    pub fn stale_heap(message: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic::error(Code::StaleHeap, message, span)
    }

    /// SJ0302: shared-location accumulation.
    pub fn shared_accum(message: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic::error(Code::SharedAccum, message, span)
    }

    /// SJ0401: unprovable loop termination.
    pub fn unprovable_loop(message: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic::error(Code::UnprovableLoop, message, span)
    }

    /// SJ0402: prohibited recursion.
    pub fn recursion(message: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic::error(Code::Recursion, message, span)
    }

    /// SJ0403: event-loop shape violation.
    pub fn event_loop(message: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic::error(Code::EventLoop, message, span)
    }

    /// SJ0501: annotation inference failure.
    pub fn infer(message: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic::error(Code::Infer, message, span)
    }

    /// SJ0601: dead-store lint (warning).
    pub fn dead_store(message: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic::warning(Code::DeadStore, message, span)
    }

    /// SJ0602: unused-local lint (warning).
    pub fn unused_local(message: impl Into<String>, span: Span) -> Diagnostic {
        Diagnostic::warning(Code::UnusedLocal, message, span)
    }
}

/// An accumulating sink of diagnostics shared by all phases.
#[derive(Debug, Clone, Default)]
pub struct Diagnostics {
    items: Vec<Diagnostic>,
}

impl Diagnostics {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.items.push(d);
    }

    /// True if any error-severity diagnostic was recorded.
    pub fn has_errors(&self) -> bool {
        self.items.iter().any(|d| d.severity == Severity::Error)
    }

    /// True if any warning-severity diagnostic was recorded.
    pub fn has_warnings(&self) -> bool {
        self.items.iter().any(|d| d.severity == Severity::Warning)
    }

    /// Number of recorded diagnostics.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when no diagnostics were recorded.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates over recorded diagnostics.
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.items.iter()
    }

    /// Merges another sink into this one.
    pub fn extend(&mut self, other: Diagnostics) {
        self.items.extend(other.items);
    }

    /// Sorts diagnostics into the stable total order on
    /// (file, span.start, span.end, code, severity, message). The final
    /// merged report is always sorted this way, making the rendered
    /// order independent of discovery order (thread count, cache
    /// replay, phase interleaving).
    pub fn sort_stable(&mut self) {
        self.items.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    }

    /// True when the diagnostics are already in the stable total order.
    pub fn is_sorted(&self) -> bool {
        self.items
            .windows(2)
            .all(|w| w[0].sort_key() <= w[1].sort_key())
    }
}

impl fmt::Display for Diagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, d) in self.items.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_are_detected() {
        let mut ds = Diagnostics::new();
        assert!(!ds.has_errors());
        ds.push(Diag::dead_store("looks odd", Span::new(0, 1)));
        assert!(!ds.has_errors());
        assert!(ds.has_warnings());
        ds.push(Diag::parse("broken", Span::new(1, 2)));
        assert!(ds.has_errors());
        assert_eq!(ds.len(), 2);
    }

    #[test]
    fn display_includes_code() {
        let d = Diag::flow_up("bad flow", Span::new(3, 9));
        assert_eq!(d.to_string(), "error[SJ0101]: bad flow (3..9)");
        let w = Diag::unused_local("unused", Span::new(0, 1));
        assert_eq!(w.to_string(), "warning[SJ0602]: unused (0..1)");
    }

    #[test]
    fn render_includes_full_range_and_caret() {
        let f = SourceFile::new("x.sj", "abc\ndef ghi\n");
        let d = Diag::parse("bad token", Span::new(4, 7)).with_note("hint");
        let s = d.render(&f);
        assert!(s.contains("error[SJ0002]: bad token"), "{s}");
        assert!(s.contains("--> x.sj:2:1-2:4"), "{s}");
        assert!(s.contains("2 | def ghi"), "{s}");
        assert!(s.contains("| ^^^"), "{s}");
        assert!(s.contains("= note: hint"), "{s}");
        assert!(s.contains("--explain SJ0002"), "{s}");
    }

    #[test]
    fn render_labels_and_suggestion() {
        let f = SourceFile::new("x.sj", "@LATTICE(\"LO<HI\")\nhi = lo;\n");
        let d = Diag::flow_up("flows up", Span::new(18, 26))
            .with_label(Span::new(0, 17), "lattice declared here")
            .with_suggestion(Span::new(18, 18), "// FIXME ", "insert marker");
        let s = d.render(&f);
        assert!(s.contains("^^^^^^^^"), "{s}");
        assert!(s.contains("----------------- lattice declared here"), "{s}");
        assert!(s.contains("= help: insert marker: `// FIXME `"), "{s}");
    }

    #[test]
    fn sort_is_total_and_stable() {
        let mut ds = Diagnostics::new();
        ds.push(Diag::implicit_flow("b", Span::new(5, 9)));
        ds.push(Diag::flow_up("a", Span::new(5, 9)));
        ds.push(Diag::parse("c", Span::new(1, 2)));
        ds.sort_stable();
        assert!(ds.is_sorted());
        let codes: Vec<_> = ds.iter().map(|d| d.code).collect();
        use crate::codes::Code;
        assert_eq!(codes, vec![Code::Parse, Code::FlowUp, Code::ImplicitFlow]);
    }
}
