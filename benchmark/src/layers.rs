//! Isolated layer timing: the harness links the crates and times their
//! public functions on the workload's real inputs — the generated
//! sources, and the frames and code images the tap captured. Nothing
//! here runs inside `ditico`; these are the per-call costs that the
//! `budget.*` shares multiply by the counted calls.

use bytes::Bytes;
use std::hint::black_box;
use std::time::Instant;
use tyco_vm::codec::{self, Packet};
use tyco_vm::word::NodeId;
use tyco_vm::{LoopbackPort, Machine, Program, WireCode};

/// Sorted samples of one timing or size.
#[derive(Debug, Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn new(mut v: Vec<f64>) -> Samples {
        v.sort_by(f64::total_cmp);
        Samples(v)
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum() / self.0.len() as f64
        }
    }

    /// Nearest-rank quantile; 0 for no samples.
    pub fn quantile(&self, q: f64) -> f64 {
        match self.0.len() {
            0 => 0.0,
            n => self.0[((q * n as f64).ceil() as usize).clamp(1, n) - 1],
        }
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The 99th percentile, or — with fewer than 1000 samples — the
    /// highest percentile that still has ten samples beyond it.
    pub fn high(&self) -> f64 {
        let n = self.0.len() as f64;
        self.quantile((1.0 - 10.0 / n).clamp(0.5, 0.99))
    }
}

/// Batches of the codec timing; the best is kept, as for the end-to-end
/// runs.
const BEST_OF: usize = 3;

fn micros(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

/// Front end and whole-program verifier over every generated source.
#[derive(Debug, Default)]
pub struct FrontEnd {
    pub parse_ms: f64,
    pub check_ms: f64,
    pub compile_ms: f64,
    pub verify_ms: f64,
    pub instrs: u64,
}

/// Compile each source, timing the four stages; returns the programs in
/// source order.
pub fn front_end(sources: &[&str]) -> Result<(FrontEnd, Vec<Program>), String> {
    let mut fe = FrontEnd::default();
    let mut programs = Vec::new();
    for src in sources {
        let t = Instant::now();
        let ast = tyco_syntax::parse_core(black_box(src)).map_err(|e| e.to_string())?;
        fe.parse_ms += micros(t) / 1e3;
        let t = Instant::now();
        black_box(tyco_types::check(&ast).map_err(|e| e.to_string())?);
        fe.check_ms += micros(t) / 1e3;
        let t = Instant::now();
        let prog = tyco_vm::compile(&ast).map_err(|e| e.to_string())?;
        fe.compile_ms += micros(t) / 1e3;
        let t = Instant::now();
        tyco_vm::verify_program(black_box(&prog)).map_err(|e| e.to_string())?;
        fe.verify_ms += micros(t) / 1e3;
        fe.instrs += prog.instr_count() as u64;
        programs.push(prog);
    }
    Ok((fe, programs))
}

/// `wire::pack` of every class table of the exporting programs, µs each
/// (what a server site pays once per class, on its first FETCH).
pub fn pack_times(exporters: &[&Program]) -> Samples {
    let mut us = Vec::new();
    for prog in exporters {
        for table in 0..prog.tables.len() as u32 {
            let t = Instant::now();
            black_box(tyco_vm::pack(black_box(prog), &[table]));
            us.push(micros(t));
        }
    }
    Samples::new(us)
}

/// Receive-side cost of the code images that crossed the wire.
#[derive(Debug, Default)]
pub struct Images {
    pub bytes: Samples,
    pub digest_mb_per_s: f64,
    pub digest_us: Samples,
    pub verify_us: Samples,
    pub link_us: Samples,
    pub link_trusted_us: Samples,
}

pub fn image_times(images: &[&WireCode]) -> Result<Images, String> {
    let (mut bytes, mut digest, mut verify, mut link, mut trusted) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for code in images {
        bytes.push(codec::code_bytes(code).len() as f64);
        let t = Instant::now();
        black_box(codec::code_digest(black_box(code)));
        digest.push(micros(t));
        let t = Instant::now();
        tyco_vm::verify_wire(black_box(code)).map_err(|e| e.to_string())?;
        verify.push(micros(t));
        // A site links into the program it already runs; an empty one
        // times the relocation without the interning of a warm pool.
        let mut prog = Program::default();
        let t = Instant::now();
        black_box(tyco_vm::link(&mut prog, black_box(code)).map_err(|e| e.to_string())?);
        link.push(micros(t));
        let mut prog = Program::default();
        let t = Instant::now();
        black_box(tyco_vm::link_trusted(&mut prog, black_box(code)));
        trusted.push(micros(t));
    }
    let total_bytes: f64 = bytes.iter().sum();
    let total_us: f64 = digest.iter().sum();
    Ok(Images {
        bytes: Samples::new(bytes),
        digest_mb_per_s: if total_us > 0.0 {
            total_bytes / total_us
        } else {
            0.0
        },
        digest_us: Samples::new(digest),
        verify_us: Samples::new(verify),
        link_us: Samples::new(link),
        link_trusted_us: Samples::new(trusted),
    })
}

/// Codec cost per frame over the captured payloads.
#[derive(Debug, Default)]
pub struct Codec {
    pub encode_ns_per_frame: f64,
    pub decode_ns_per_frame: f64,
    pub frame_bytes_mean: f64,
}

pub fn codec_times(payloads: &[Bytes]) -> Result<Codec, String> {
    if payloads.is_empty() {
        return Ok(Codec::default());
    }
    let packets: Vec<Packet> = payloads
        .iter()
        .map(|p| codec::decode(p.clone()).map_err(|e| e.0))
        .collect::<Result<_, _>>()?;
    // Short frames cost tens of nanoseconds: time whole passes over the
    // sample, ~20 ms of them at a time, and keep the best of three such
    // batches (a batch that shared the CPU with a neighbour reads high).
    let passes = (200_000 / payloads.len()).max(1);
    let n = (passes * payloads.len()) as f64;
    let mut best = Codec {
        encode_ns_per_frame: f64::INFINITY,
        decode_ns_per_frame: f64::INFINITY,
        frame_bytes_mean: 0.0,
    };
    for _ in 0..BEST_OF {
        let t = Instant::now();
        for _ in 0..passes {
            for p in payloads {
                black_box(codec::decode(black_box(p.clone())).map_err(|e| e.0)?);
            }
        }
        best.decode_ns_per_frame = best.decode_ns_per_frame.min(micros(t) * 1e3 / n);
        let t = Instant::now();
        let mut bytes = 0usize;
        for _ in 0..passes {
            for p in &packets {
                let payload = codec::encode(black_box(p));
                bytes += black_box(codec::encode_frame(NodeId(1), NodeId(0), &payload)).len();
            }
        }
        best.encode_ns_per_frame = best.encode_ns_per_frame.min(micros(t) * 1e3 / n);
        best.frame_bytes_mean = bytes as f64 / n;
    }
    Ok(best)
}

/// VM speed in isolation: the `cell_churn` driver on a `LoopbackPort`,
/// instructions per second, one 0.3 s sample. The same program on every
/// workload, so the number converts counted instructions into VM time
/// everywhere. The caller samples it between its runs and keeps the best,
/// so that calibration and runs see the same phases of the machine.
pub fn machine_instrs_per_s() -> Result<f64, String> {
    const SRC: &str = "\
        def Cell(self, v) = \
            self ? { read(r) = r![v] | Cell[self, v], write(u) = Cell[self, u] } \
        and Driver(cell, n) = \
            if n > 0 then (cell!write[n] | new z (cell!read[z] | z?(w) = Driver[cell, n - 1])) \
            else println(\"finished\") \
        in new x (Cell[x, 0] | Driver[x, 300000])";
    let ast = tyco_syntax::parse_core(SRC).map_err(|e| e.to_string())?;
    let prog = tyco_vm::compile(&ast).map_err(|e| e.to_string())?;
    let mut m = Machine::new(prog, LoopbackPort::new("main"));
    let t = Instant::now();
    let instrs = m.run_to_quiescence(u64::MAX).map_err(|e| e.to_string())?;
    let secs = t.elapsed().as_secs_f64();
    if m.io != ["finished"] {
        return Err(format!("calibration program printed {:?}", m.io));
    }
    Ok(instrs as f64 / secs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let s = Samples::new((1..=100).map(f64::from).rev().collect());
        assert_eq!(s.median(), 50.0);
        assert_eq!(s.quantile(0.99), 99.0);
        // 100 samples: ten beyond the 90th percentile, not the 99th.
        assert_eq!(s.high(), 90.0);
        let big = Samples::new((1..=2000).map(f64::from).collect());
        assert_eq!(big.high(), 1980.0);
        assert_eq!(Samples::default().median(), 0.0);
        assert_eq!(Samples::new(vec![3.0]).high(), 3.0);
    }

    #[test]
    fn times_a_fetched_class_end_to_end() {
        let src = "export def Applet(v, r) = r![v + 1 + 2 + 3] in 0";
        let (fe, programs) = front_end(&[src]).unwrap();
        assert!(fe.instrs > 0 && fe.parse_ms > 0.0);
        let packs = pack_times(&[&programs[0]]);
        assert_eq!(packs.len(), 1);
        let packed = tyco_vm::pack(&programs[0], &[0]);
        let img = image_times(&[&packed.code]).unwrap();
        assert_eq!(img.verify_us.len(), 1);
        assert!(img.bytes.median() > 20.0 && img.digest_mb_per_s > 0.0);
        let payload = codec::encode(&Packet::Heartbeat {
            node: NodeId(0),
            seq: 1,
        });
        let c = codec_times(std::slice::from_ref(&payload)).unwrap();
        assert_eq!(c.frame_bytes_mean, payload.len() as f64 + 12.0);
        assert!(c.encode_ns_per_frame > 0.0 && c.decode_ns_per_frame > 0.0);
    }
}
