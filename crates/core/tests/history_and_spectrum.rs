//! Ensemble diagnostic histories and mode spectra: the ensemble run must
//! produce the same time traces as serial members, and the spectrum must
//! decompose the field energy exactly.

use xg_comm::World;
use xg_sim::{serial_simulation, CgyroInput, DistTopology, Simulation};
use xg_tensor::ProcGrid;
use xgyro_core::{gradient_sweep, run, Decision, Run};

#[test]
fn ensemble_histories_match_serial_members() {
    let base = CgyroInput::test_small();
    let mut b = base.clone();
    b.steps_per_report = 5;
    let cfg = gradient_sweep(&b, 2, ProcGrid::new(2, 1));
    let reports = 3;
    let opts = Run { history: true, ..Run::new(reports * b.steps_per_report) };
    let histories = run(&cfg, &opts, |_| Decision::Continue).expect("clean run").histories;
    assert_eq!(histories.len(), 2);
    for (i, member) in cfg.members().iter().enumerate() {
        let mut s = serial_simulation(member);
        assert_eq!(histories[i].len(), reports);
        for (r, d) in histories[i].entries().iter().enumerate() {
            let sd = s.run_report_step();
            assert!(
                (d.field_energy - sd.field_energy).abs()
                    <= 1e-10 * (1.0 + sd.field_energy.abs()),
                "sim {i} report {r}: {} vs {}",
                d.field_energy,
                sd.field_energy
            );
            assert!((d.time - sd.time).abs() < 1e-12);
        }
    }
}

#[test]
fn mode_energies_sum_to_field_energy_serial() {
    let input = CgyroInput::test_medium();
    let mut sim = serial_simulation(&input);
    sim.run_steps(3);
    let spectrum = sim.mode_energies();
    let d = sim.diagnostics();
    assert_eq!(spectrum.len(), input.n_toroidal);
    let sum: f64 = spectrum.iter().sum();
    assert!(
        (sum - d.field_energy).abs() <= 1e-12 * (1.0 + d.field_energy),
        "{sum} vs {}",
        d.field_energy
    );
    assert!(spectrum.iter().all(|&e| e >= 0.0));
}

#[test]
fn mode_energies_agree_serial_vs_distributed() {
    let input = CgyroInput::test_small();
    let mut serial = serial_simulation(&input);
    serial.run_steps(4);
    let want = serial.mode_energies();

    let grid = ProcGrid::new(2, 2);
    let got_all = World::new(grid.size()).run(|comm| {
        let topo = DistTopology::cgyro(&input, grid, comm);
        let mut sim = Simulation::new(input.clone(), topo);
        sim.run_steps(4);
        sim.mode_energies()
    });
    for got in got_all {
        assert_eq!(got.len(), want.len());
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() <= 1e-11 * (1.0 + b), "{a} vs {b}");
        }
    }
}

#[test]
fn ensemble_mode_energies_match_serial_members() {
    use xgyro_core::build_xgyro_topology;
    let base = CgyroInput::test_small();
    let cfg = xgyro_core::gradient_sweep(&base, 2, ProcGrid::new(2, 1));
    let spectra = xg_comm::World::new(cfg.total_ranks()).run(|comm| {
        let (a, topo) = build_xgyro_topology(&cfg, &comm);
        let mut sim = Simulation::new(cfg.members()[a.sim].clone(), topo);
        sim.run_steps(3);
        (a.sim, sim.mode_energies())
    });
    for member in 0..cfg.k() {
        let mut serial = serial_simulation(&cfg.members()[member]);
        serial.run_steps(3);
        let want = serial.mode_energies();
        for (s, got) in spectra.iter().filter(|(s, _)| *s == member) {
            let _ = s;
            for (a, b) in got.iter().zip(&want) {
                assert!((a - b).abs() <= 1e-11 * (1.0 + b), "{a} vs {b}");
            }
        }
    }
}
