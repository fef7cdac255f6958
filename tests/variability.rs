//! §IV-D variability: the gates keep functioning under lithographic
//! edge roughness (the effect the paper defers to [36], [43]).

use swgates::encoding::Bit;
use swgates::prelude::*;

fn mini_xor_layout() -> TriangleXorLayout {
    TriangleXorLayout::fast()
}

#[test]
fn xor_survives_one_nanometre_edge_roughness() {
    let backend = MumagBackend::fast()
        .with_edge_roughness(1e-9, 20e-9, 7)
        .with_measure_periods(3);
    let gate = XorGate::new(mini_xor_layout());
    let table = gate.truth_table(&backend).expect("simulations run");
    table
        .verify(|p| Bit::xor(p[0], p[1]))
        .expect("XOR survives ±1 nm edge roughness");
}

#[test]
fn roughness_is_deterministic_per_seed() {
    let layout = mini_xor_layout();
    let run = |seed: u64| {
        let backend = MumagBackend::fast()
            .with_edge_roughness(2e-9, 20e-9, seed)
            .with_measure_periods(2);
        backend
            .outputs(&layout, [Bit::Zero, Bit::Zero])
            .expect("runs")
    };
    let (a1, a2) = run(3);
    let (b1, b2) = run(3);
    assert_eq!(a1, b1, "same seed must reproduce O1 exactly");
    assert_eq!(a2, b2);
    let (c1, _) = run(4);
    assert_ne!(a1, c1, "different seeds must differ");
}

#[test]
fn roughness_perturbs_but_does_not_destroy_the_outputs() {
    let layout = mini_xor_layout();
    let smooth = MumagBackend::fast().with_measure_periods(2);
    let rough = MumagBackend::fast()
        .with_edge_roughness(2e-9, 20e-9, 11)
        .with_measure_periods(2);
    let (s1, _) = smooth
        .outputs(&layout, [Bit::Zero, Bit::Zero])
        .expect("runs");
    let (r1, _) = rough
        .outputs(&layout, [Bit::Zero, Bit::Zero])
        .expect("runs");
    // The rough gate still transmits a usable constructive signal. The
    // simulated guides are ~22 nm wide (0.4·λ, see MumagBackend docs),
    // so ±2 nm roughness is a ~10 % width perturbation and scatters
    // appreciably — but must not extinguish the signal.
    let ratio = r1.abs() / s1.abs();
    assert!(
        (0.1..2.0).contains(&ratio),
        "roughness changed the signal by {ratio}x"
    );
}
