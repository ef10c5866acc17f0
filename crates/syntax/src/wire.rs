//! Little-endian wire codec for the on-disk artifacts the tools produce:
//! the cache-store objects of `sjava-cache`. Encoders are plain
//! append-to-`Vec` helpers; decoding goes through the bounds-checked
//! [`Reader`], whose accessors all return `None` on truncation or
//! implausible data so a corrupt artifact degrades to "absent" instead
//! of panicking or — worse — decoding into plausible-but-wrong values.
//!
//! The [`Diagnostic`] codec lives here (rather than in the cache crate)
//! next to the type it encodes: cached per-method results replay their
//! diagnostics from it. Equal diagnostics encode to equal bytes — the
//! encoders never consult maps with unstable iteration order.

use crate::codes::Code;
use crate::diag::{Diagnostic, Label, Severity, Suggestion};
use crate::span::Span;

/// Upper bound on any decoded count or string length. Real programs stay
/// far below this; anything larger is treated as corruption rather than
/// letting a flipped length byte drive a multi-gigabyte allocation.
pub const MAX_ITEMS: u64 = 1 << 22;

/// Appends a `u32` in little-endian order.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `u64` in little-endian order.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u64(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

/// Appends an optional string as a presence byte plus the string.
pub fn put_opt_str(buf: &mut Vec<u8>, s: &Option<String>) {
    match s {
        None => buf.push(0),
        Some(s) => {
            buf.push(1);
            put_str(buf, s);
        }
    }
}

/// Appends a span as two `u32` byte offsets.
pub fn put_span(buf: &mut Vec<u8>, span: Span) {
    put_u32(buf, span.start);
    put_u32(buf, span.end);
}

/// Appends a length-prefixed diagnostic list: severity, code number,
/// message, span, file, labels, suggestion, and notes per entry.
pub fn put_diags(buf: &mut Vec<u8>, diags: &[Diagnostic]) {
    put_u64(buf, diags.len() as u64);
    for d in diags {
        buf.push(match d.severity {
            Severity::Warning => 0,
            Severity::Error => 1,
        });
        buf.extend_from_slice(&d.code.number().to_le_bytes());
        put_str(buf, &d.message);
        put_span(buf, d.span);
        put_opt_str(buf, &d.file);
        put_u64(buf, d.labels.len() as u64);
        for l in &d.labels {
            put_span(buf, l.span);
            put_str(buf, &l.message);
            put_opt_str(buf, &l.file);
        }
        match &d.suggestion {
            None => buf.push(0),
            Some(s) => {
                buf.push(1);
                put_span(buf, s.span);
                put_str(buf, &s.replacement);
                put_str(buf, &s.message);
            }
        }
        put_u64(buf, d.notes.len() as u64);
        for n in &d.notes {
            put_str(buf, n);
        }
    }
}

/// Bounds-checked cursor over raw artifact bytes; every accessor returns
/// `None` on truncation or implausible data so loaders can bail and
/// degrade to a clean miss.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// The unread remainder of the buffer (for payload checksums).
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos.min(self.buf.len())..]
    }

    /// Whether every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// The next `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    /// The next byte.
    pub fn u8(&mut self) -> Option<u8> {
        Some(self.bytes(1)?[0])
    }

    /// The next little-endian `u16`.
    pub fn u16(&mut self) -> Option<u16> {
        Some(u16::from_le_bytes(self.bytes(2)?.try_into().ok()?))
    }

    /// The next little-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.bytes(4)?.try_into().ok()?))
    }

    /// The next little-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.bytes(8)?.try_into().ok()?))
    }

    /// A length/count, rejected when implausibly large (see [`MAX_ITEMS`]).
    pub fn count(&mut self) -> Option<u64> {
        let n = self.u64()?;
        (n <= MAX_ITEMS).then_some(n)
    }

    /// A length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Option<String> {
        let n = self.count()? as usize;
        let bytes = self.bytes(n)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    /// A presence byte followed by a string; a tag other than 0/1 is
    /// corruption.
    pub fn opt_string(&mut self) -> Option<Option<String>> {
        match self.u8()? {
            0 => Some(None),
            1 => Some(Some(self.string()?)),
            _ => None,
        }
    }

    /// Two `u32` byte offsets as a [`Span`].
    pub fn span(&mut self) -> Option<Span> {
        Some(Span {
            start: self.u32()?,
            end: self.u32()?,
        })
    }

    /// A diagnostic list written by [`put_diags`]. An unregistered code
    /// number means a foreign or future format: bail, degrading the
    /// artifact to a miss.
    pub fn diags(&mut self) -> Option<Vec<Diagnostic>> {
        let n = self.count()?;
        let mut out = Vec::new();
        for _ in 0..n {
            let severity = match self.u8()? {
                0 => Severity::Warning,
                1 => Severity::Error,
                _ => return None,
            };
            let code = Code::from_number(self.u16()?)?;
            let message = self.string()?;
            let span = self.span()?;
            let file = self.opt_string()?;
            let labels_n = self.count()?;
            let mut labels = Vec::new();
            for _ in 0..labels_n {
                labels.push(Label {
                    span: self.span()?,
                    message: self.string()?,
                    file: self.opt_string()?,
                });
            }
            let suggestion = match self.u8()? {
                0 => None,
                1 => Some(Suggestion {
                    span: self.span()?,
                    replacement: self.string()?,
                    message: self.string()?,
                }),
                _ => return None,
            };
            let notes_n = self.count()?;
            let mut notes = Vec::new();
            for _ in 0..notes_n {
                notes.push(self.string()?);
            }
            out.push(Diagnostic {
                severity,
                code,
                message,
                span,
                file,
                labels,
                suggestion,
                notes,
            });
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Diag;

    fn sample_diags() -> Vec<Diagnostic> {
        vec![
            Diag::flow_up("flow violation", Span::new(3, 9))
                .with_note("note")
                .with_label(Span::new(0, 2), "lattice declared here")
                .with_suggestion(Span::new(3, 3), "fix ", "insert fix"),
            Diag::unprovable_loop("loop may not terminate", Span::new(10, 20)),
        ]
    }

    #[test]
    fn diagnostics_round_trip() {
        let diags = sample_diags();
        let mut buf = Vec::new();
        put_diags(&mut buf, &diags);
        let mut r = Reader::new(&buf);
        assert_eq!(r.diags().expect("decodes"), diags);
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncation_at_every_length_is_rejected() {
        let mut buf = Vec::new();
        put_diags(&mut buf, &sample_diags());
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert!(r.diags().is_none(), "truncation at {cut} must not decode");
        }
    }

    #[test]
    fn oversized_counts_are_rejected_without_allocating() {
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX);
        assert!(Reader::new(&buf).count().is_none());
        assert!(Reader::new(&buf).diags().is_none());
        assert!(Reader::new(&buf).string().is_none());
    }

    #[test]
    fn strings_and_spans_round_trip() {
        let mut buf = Vec::new();
        put_str(&mut buf, "héllo");
        put_opt_str(&mut buf, &None);
        put_opt_str(&mut buf, &Some("x".into()));
        put_span(&mut buf, Span::new(7, 9));
        let mut r = Reader::new(&buf);
        assert_eq!(r.string().as_deref(), Some("héllo"));
        assert_eq!(r.opt_string(), Some(None));
        assert_eq!(r.opt_string(), Some(Some("x".into())));
        assert_eq!(r.span(), Some(Span::new(7, 9)));
        assert!(r.is_exhausted());
    }
}
