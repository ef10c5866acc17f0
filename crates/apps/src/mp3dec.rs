//! JLayer-like streaming audio decoder (§6.1, §6.2.1).
//!
//! The paper's MP3 benchmark decodes a frame per event-loop iteration:
//! bitstream sync → per-granule dequantization → frequency-domain
//! transforms (the heavy stage) → overlap-add with the previous granule →
//! synthesis filter bank with a sliding window → PCM output. We reproduce
//! that pipeline structure at a configurable granule size: the only state
//! crossing iterations is the overlap buffer (refreshed from the last
//! granule each frame) and the synthesis window (fully shifted every `W`
//! samples), giving exactly the paper's recovery profile — late-stage
//! errors die within a fraction of a frame, granule-stage errors persist
//! for up to about two frames, nothing survives longer.
//!
//! The `BitStream` is trusted (resyncs to frames on its own), as in §6.1.

use std::sync::OnceLock;

use sjava_runtime::{InputProvider, Value};

/// Entry class and method.
pub const ENTRY: (&str, &str) = ("MP3Decoder", "decode");

/// Default granule size (samples per granule; a frame is two granules).
/// The paper's MP3 frames have 576-sample granules; we default to 192 to
/// keep the 1,000-trial experiment fast, and report recovery both in
/// samples and in frame-relative units.
pub const GRANULE: usize = 192;

/// Synthesis-filter window length.
pub const WINDOW: usize = 8;

/// Builds the decoder source for a given granule size and window length
/// (the window must be a power of two for the unrolled butterfly).
pub fn source_with(granule: usize, window: usize) -> String {
    let g = granule;
    let w = window;
    assert!(w.is_power_of_two(), "window must be a power of two");

    // Unrolled butterfly network over the window — the real JLayer
    // synthesis filter is a large unrolled DCT with hundreds of
    // temporaries, which is what makes its naively-inferred lattice
    // explode (Fig 5.11). Each stage's temporaries share one location.
    let mut butterfly = String::new();
    let mut prev: Vec<String> = (0..w).map(|k| format!("window[{k}]")).collect();
    let mut stage = 0usize;
    let mut stage_locs: Vec<String> = Vec::new();
    while prev.len() > 1 {
        stage += 1;
        let loc = format!("T{stage}");
        let mut cur = Vec::new();
        for (idx, pair) in prev.chunks(2).enumerate() {
            let name = format!("s{stage}_{idx}");
            let expr = if pair.len() == 2 {
                let op = if idx % 2 == 0 { "+" } else { "-" };
                format!("{} {op} {}", pair[0], pair[1])
            } else {
                format!("{} * 0.5", pair[0])
            };
            butterfly.push_str(&format!("        @LOC(\"{loc}\") float {name} = {expr};\n"));
            cur.push(name);
        }
        stage_locs.push(loc);
        prev = cur;
    }
    let butter_out = prev.into_iter().next().expect("nonempty window");
    // Method lattice: R < RMIX < ACCL and RMIX < Tm < ... < T1 < SOBJ < P.
    let mut lattice = String::from("R<MIXL,MIXL<RMIX,RMIX<ACCL,ACCL<SOBJ,ACCL<KI,SOBJ<P,ACCL*,KI*");
    let mut upper = "SOBJ".to_string();
    for loc in &stage_locs {
        lattice.push_str(&format!(",{loc}<{upper}"));
        upper = loc.clone();
    }
    lattice.push_str(&format!(",RMIX<{upper}"));

    format!(
        r#"
@TRUSTED
class BitStream {{
    int offset;
    // resyncs to the next frame and returns its header word
    int readHeader() {{
        offset = offset + 1;
        return Device.readHeader();
    }}
    float readSample() {{
        return Device.readSample();
    }}
}}

@LATTICE("WIN")
class SynthesisFilter {{
    @LOC("WIN") float[] window = new float[{w}];

    // per-sample synthesis: FIR over the sliding window plus an unrolled
    // butterfly network (a miniature of JLayer's unrolled DCT)
    @LATTICE("{lattice}") @THISLOC("SOBJ") @RETURNLOC("R")
    float compute(@LOC("P") float in) {{
        SSJavaArray.insert(window, in);
        @LOC("ACCL") float acc = 0.0;
        for (@LOC("KI") int k = 0; k < {w}; k++) {{
            acc = acc + window[k] * {coef};
        }}
{butterfly}
        @LOC("MIXL") float mix = acc * 0.7 + {butter_out} * {bcoef};
        @LOC("R") float r = mix * 0.92;
        return r;
    }}
}}

@LATTICE("SYN<SMP,SMP<MIX,MIX<GR0,MIX<OV,GR0<SCL,GR1<SCL,OV<GR1,SCL<HD,HD<BITS,GR0*,GR1*")
class MP3Decoder {{
    @LOC("BITS") BitStream bits;
    @LOC("HD") int header;
    @LOC("GR0") float[] granule0;
    @LOC("GR1") float[] granule1;
    @LOC("OV") float[] overlap;
    @LOC("SYN") SynthesisFilter synth;

    @LATTICE("PCMV<DOBJ,DOBJ<I1,DOBJ<I2,DOBJ<J1,DOBJ<J2,DOBJ<K1,DOBJ<K2,I1*,I2*,J1*,J2*,K1*,K2*")
    @THISLOC("DOBJ")
    void decode() {{
        bits = new BitStream();
        granule0 = new float[{g}];
        granule1 = new float[{g}];
        overlap = new float[{g}];
        synth = new SynthesisFilter();
        SSJAVA: while (true) {{
            // frame sync: the trusted bitstream finds the next header
            header = bits.readHeader();
            @LOC("DOBJ,SCL") float scale = 0.5 + (header - 4000) * 0.001;

            // dequantization: fresh spectral data for both granules
            for (@LOC("I1") int i1 = 0; i1 < {g}; i1++) {{
                granule0[i1] = bits.readSample() * scale;
            }}
            for (@LOC("I2") int i2 = 0; i2 < {g}; i2++) {{
                granule1[i2] = bits.readSample() * scale;
            }}

            // frequency-domain transforms (the heavy granule stage)
            for (@LOC("J1") int j1 = 1; j1 < {g}; j1++) {{
                granule0[j1] = granule0[j1] * 0.85 + granule0[j1 - 1] * 0.15;
            }}
            for (@LOC("J2") int j2 = 1; j2 < {g}; j2++) {{
                granule1[j2] = granule1[j2] * 0.85 + granule1[j2 - 1] * 0.15;
            }}

            // hybrid overlap-add + synthesis filter bank, granule 0
            for (@LOC("K1") int k1 = 0; k1 < {g}; k1++) {{
                @LOC("DOBJ,SMP") float s0 = granule0[k1] + overlap[k1] * 0.5;
                @LOC("PCMV") float p0 = synth.compute(s0);
                Out.emit(p0 * 32767.0);
            }}
            // granule 1 + overlap refresh for the next frame
            for (@LOC("K2") int k2 = 0; k2 < {g}; k2++) {{
                @LOC("DOBJ,SMP") float s1 = granule1[k2] + overlap[k2] * 0.5;
                @LOC("PCMV") float p1 = synth.compute(s1);
                Out.emit(p1 * 32767.0);
                overlap[k2] = granule1[k2] * 0.4;
            }}
        }}
    }}
}}
"#,
        coef = 1.0 / (w as f64),
        bcoef = 0.3 / (w as f64),
    )
}

/// The default decoder source.
pub fn source() -> &'static str {
    static SRC: OnceLock<String> = OnceLock::new();
    SRC.get_or_init(|| source_with(GRANULE, WINDOW))
}

/// Frame-synced synthetic bitstream.
///
/// The paper's `BitStream` "was carefully manually designed to be
/// self-stabilizing by resyncing to MP3 frames" (§6.1) and "all input
/// reads are performed unconditionally in every iteration … to eliminate
/// the possibility of framing errors" (§1.1.2). We model that by making
/// the sample channel a function of `(frame, position-within-frame)`:
/// each `readHeader` starts the next frame, so a corrupted inner-loop
/// index can over- or under-read *within* a frame without desynchronizing
/// all subsequent frames.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameSyncedInput {
    seed: u64,
    granule: usize,
    frame: u64,
    pos: u64,
}

impl FrameSyncedInput {
    /// Creates a bitstream for the given seed and granule size.
    pub fn new(seed: u64, granule: usize) -> Self {
        FrameSyncedInput {
            seed,
            granule,
            frame: 0,
            pos: 0,
        }
    }
}

impl InputProvider for FrameSyncedInput {
    fn next(&mut self, channel: &str) -> Value {
        match channel {
            "readHeader" => {
                self.frame += 1;
                self.pos = 0;
                Value::Int(4040 + ((self.frame.wrapping_add(self.seed)) % 16) as i64)
            }
            _ => {
                let global = (self.frame.saturating_sub(1)) * 2 * self.granule as u64 + self.pos;
                self.pos += 1;
                let t = global as f64 * 0.071 + self.seed as f64;
                Value::Float(0.6 * t.sin() + 0.3 * (t * 2.57).sin() + 0.1 * (t * 5.91).cos())
            }
        }
    }

    fn same_cursor(&self, other: &Self) -> bool {
        self == other
    }
}

/// Deterministic synthetic audio bitstream for the default granule size.
pub fn inputs(seed: u64) -> FrameSyncedInput {
    FrameSyncedInput::new(seed, GRANULE)
}

/// Bitstream matching a custom granule size (must agree with
/// [`source_with`]).
pub fn inputs_for(seed: u64, granule: usize) -> FrameSyncedInput {
    FrameSyncedInput::new(seed, granule)
}

/// Samples per frame for a given granule size.
pub fn frame_samples(granule: usize) -> usize {
    2 * granule
}

#[cfg(test)]
mod tests {
    use super::*;
    use sjava_core::check_program;
    use sjava_runtime::{compare_runs, ExecOptions, Injector, Interpreter};

    fn small_source() -> String {
        source_with(24, 4)
    }

    #[test]
    fn checks_self_stabilizing() {
        let p = sjava_syntax::parse(source()).expect("parses");
        let report = check_program(&p);
        assert!(report.is_ok(), "{}", report.diagnostics);
    }

    #[test]
    fn runs_and_produces_pcm() {
        let src = small_source();
        let p = sjava_syntax::parse(&src).expect("parses");
        let r = Interpreter::new(&p, inputs_for(0, 24), ExecOptions::default())
            .run(ENTRY.0, ENTRY.1, 3)
            .expect("runs");
        assert_eq!(r.iteration_outputs.len(), 3);
        assert_eq!(r.iteration_outputs[0].len(), 2 * 24);
        assert!(r.error_log.is_empty(), "{:?}", r.error_log);
        // Output is a bounded audio signal.
        for v in r.outputs() {
            let Value::Float(x) = v else {
                panic!("non-float pcm")
            };
            assert!(x.abs() <= 32767.0 * 2.0, "sample {x} out of range");
        }
    }

    #[test]
    fn golden_runs_are_deterministic() {
        let src = small_source();
        let p = sjava_syntax::parse(&src).expect("parses");
        let a = Interpreter::new(&p, inputs_for(0, 24), ExecOptions::default())
            .run(ENTRY.0, ENTRY.1, 4)
            .expect("a");
        let b = Interpreter::new(&p, inputs_for(0, 24), ExecOptions::default())
            .run(ENTRY.0, ENTRY.1, 4)
            .expect("b");
        assert_eq!(a.iteration_outputs, b.iteration_outputs);
    }

    #[test]
    fn recovery_is_bounded_by_two_frames_plus_window() {
        let g = 24;
        let w = 4;
        let src = source_with(g, w);
        let p = sjava_syntax::parse(&src).expect("parses");
        let frames = 8;
        let golden = Interpreter::new(&p, inputs_for(0, g), ExecOptions::default())
            .run(ENTRY.0, ENTRY.1, frames)
            .expect("golden");
        let total_steps = golden.steps;
        for seed in 0..40u64 {
            let trigger = 1 + (seed * 1013) % (total_steps * 3 / 4);
            let run = Interpreter::new(&p, inputs_for(0, g), ExecOptions::default())
                .with_injector(Injector::new(seed, trigger))
                .run(ENTRY.0, ENTRY.1, frames)
                .expect("injected");
            let stats = compare_runs(&golden.iteration_outputs, &run.iteration_outputs, 1e-9);
            if stats.diverged {
                // Overlap buffer: ≤1 extra frame; the synthesis window
                // carries ≤w further samples into the frame after that.
                assert!(
                    stats.recovery_samples <= 2 * 2 * g + w,
                    "seed {seed}: {} samples ({:?}..{:?})",
                    stats.recovery_samples,
                    stats.first_bad_sample,
                    stats.last_bad_sample
                );
                assert!(stats.recovery_iterations <= 3);
            }
        }
    }

    #[test]
    fn late_stage_errors_die_faster_than_granule_errors() {
        // Structural sanity behind Fig 6.1's shape: an error injected into
        // the synthesis stage affects at most window-length samples while
        // a granule-1 error propagates through the overlap into the next
        // frame.
        let g = 24;
        let w = 4;
        let src = source_with(g, w);
        let p = sjava_syntax::parse(&src).expect("parses");
        let golden = Interpreter::new(&p, inputs_for(0, g), ExecOptions::default())
            .run(ENTRY.0, ENTRY.1, 6)
            .expect("golden");
        let mut granule_recoveries = Vec::new();
        let mut other_recoveries = Vec::new();
        for seed in 0..120u64 {
            let trigger = 1 + (seed * 389) % (golden.steps / 2);
            let run = Interpreter::new(&p, inputs_for(0, g), ExecOptions::default())
                .with_injector(Injector::new(seed, trigger))
                .run(ENTRY.0, ENTRY.1, 6)
                .expect("run");
            let stats = compare_runs(&golden.iteration_outputs, &run.iteration_outputs, 1e-9);
            if stats.diverged {
                if stats.recovery_samples > g {
                    granule_recoveries.push(stats.recovery_samples);
                } else {
                    other_recoveries.push(stats.recovery_samples);
                }
            }
        }
        assert!(
            !granule_recoveries.is_empty(),
            "some injections must hit the granule stage"
        );
        assert!(
            !other_recoveries.is_empty(),
            "some injections must hit the late stages"
        );
    }
}
