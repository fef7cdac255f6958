//! The MuMax3-style validation (§IV-B): a full LLG simulation of one
//! triangle-gate input pattern, with an ASCII rendering of the m_x field
//! (the raw material behind the paper's Fig. 5 colour maps).
//!
//! Usage:
//!   cargo run --release --example micromagnetic_gate            # mini MAJ3, inputs 110
//!   cargo run --release --example micromagnetic_gate -- 101     # other pattern
//!   cargo run --release --example micromagnetic_gate -- 101 --paper  # full-size gate (slow)
//!   cargo run --release --example micromagnetic_gate -- 10 --xor     # XOR gate

use swgates::prelude::*;

fn parse_bits(s: &str) -> Vec<Bit> {
    s.chars()
        .filter_map(|c| match c {
            '0' => Some(Bit::Zero),
            '1' => Some(Bit::One),
            _ => None,
        })
        .collect()
}

fn main() -> Result<(), SwGateError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let xor_mode = args.iter().any(|a| a == "--xor");
    let paper_size = args.iter().any(|a| a == "--paper");
    let pattern = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .map(|s| parse_bits(s))
        .unwrap_or_else(|| {
            if xor_mode {
                vec![Bit::One, Bit::Zero]
            } else {
                vec![Bit::One, Bit::One, Bit::Zero]
            }
        });

    let backend = MumagBackend::fast();
    println!(
        "micromagnetic backend: {} nm cells, drive f for λ=55 nm: {:.2} GHz",
        backend.cell() * 1e9,
        backend.drive_frequency(55e-9) / 1e9
    );

    let run = if xor_mode {
        let layout = if paper_size {
            TriangleXorLayout::paper()
        } else {
            TriangleXorLayout::fast()
        };
        let bits = [pattern[0], pattern[1]];
        println!("running XOR gate, inputs ({}, {}) ...", bits[0], bits[1]);
        backend.run(&layout, bits)?
    } else {
        let layout = if paper_size {
            TriangleMaj3Layout::paper()
        } else {
            TriangleMaj3Layout::fast()
        };
        let bits = [
            pattern[0],
            pattern[1],
            pattern.get(2).copied().unwrap_or(Bit::Zero),
        ];
        println!(
            "running MAJ3 gate, inputs ({}, {}, {}) ...",
            bits[0], bits[1], bits[2]
        );
        backend.run(&layout, bits)?
    };

    println!(
        "simulated {:.2} ns at {:.2} GHz; |O1| = {:.4e}, |O2| = {:.4e}, \
         phases {:+.2} / {:+.2} rad",
        run.simulated_time * 1e9,
        run.frequency / 1e9,
        run.o1.abs(),
        run.o2.abs(),
        run.o1.arg(),
        run.o2.arg()
    );

    // Fig. 5-style field map: m_x at the end of the run (dark = negative,
    // bright = positive; the paper's blue/red).
    let snapshot = run.snapshot;
    let scale = snapshot.max().max(-snapshot.min());
    println!("\nm_x field map (scale ±{scale:.3e}):");
    println!("{}", snapshot.to_ascii(scale));
    Ok(())
}
